"""The two JSON writers against their references.

`documents.dump_json` must write the bytes of `json.dumps(indent=2)` for
every JSON tree and raise its errors for non-finite floats and
unserializable objects.  `documents.diagram_to_document` must write the
bytes `dump_json` writes for the dict `util.reference_document` builds,
and raise the same ValueError for NaN and infinities.  Both must agree
with the documents `compute`, `convert` and `delaunay` write.  The
coordinate reader must take what it took and refuse what it refused.
"""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypervoronoi import (  # noqa: E402
    ModelPoint,
    ModelTag,
    cli,
    clipping,
    convert,
    delaunay,
    detect_degeneracies,
    documents,
    hvd,
    power,
    verify,
    voronoi,
)
from hypervoronoi.documents import diagram_to_document, dump_json, parse_point_set  # noqa: E402
from hypervoronoi.errors import NoExplicitGeometry, ParseError  # noqa: E402
from hypervoronoi.power import Halfspace, WeightedSite  # noqa: E402
from hypervoronoi.sampling import random_klein_points, rational_hemisphere_points  # noqa: E402
from util import reference_document  # noqa: E402


def reference(data) -> str:
    return json.dumps(data, indent=2, allow_nan=False) + "\n"


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e16, 1e22, -1e22, 1.7976931348623157e308, 0.1]
finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    finite,
    st.sampled_from(SPECIAL_FLOATS),
    finite.map(np.float64),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F)),
)
keys = st.one_of(st.text(), st.integers(), finite, st.booleans(), st.none())
trees = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(finite, max_size=5),
        st.lists(st.integers(), max_size=5),
        st.lists(st.text(), max_size=5),
        st.dictionaries(keys, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(trees)
def test_dump_json_matches_json_dumps(data):
    assert dump_json(data) == reference(data)


@pytest.mark.parametrize(
    "data",
    [
        [],
        {},
        [[]],
        {"": {}},
        "café ☃ \U0001F600 \x00\x1f\"\\/",
        {"é\n": [1, True, 2]},
        [1.0, 2],
        [1, 2.0],
        [True, 1],
        [1, False],
        [1.0, True],
        [10**30, -(10**30)],
        ["a", 1],
        [np.float64(0.1), 0.2, np.float64(-0.0)],
        (1.5, (2.5, ("x",))),
        {1: "a", 2.5: None, True: 0, None: [], "k": -0.0},
    ],
)
def test_dump_json_edge_cases(data):
    assert dump_json(data) == reference(data)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
@pytest.mark.parametrize(
    "wrap",
    [
        lambda x: x,
        lambda x: [0.5, x, 1.5],
        lambda x: [0.5, [x]],
        lambda x: {"a": [1, x]},
        lambda x: {x: 1},
    ],
)
def test_dump_json_rejects_non_finite_floats(bad, wrap):
    with pytest.raises(ValueError) as ref:
        reference(wrap(bad))
    with pytest.raises(ValueError) as got:
        dump_json(wrap(bad))
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize(
    "data",
    [
        1j,
        {1, 2},
        [0.5, np.float32(1.0)],
        [np.int64(3)],
        {"a": object()},
        {(1, 2): 3},
        {frozenset(): 1},
    ],
)
def test_dump_json_rejects_what_json_dumps_rejects(data):
    with pytest.raises(TypeError) as ref:
        reference(data)
    with pytest.raises(TypeError) as got:
        dump_json(data)
    assert str(got.value) == str(ref.value)


def _write(path, points, model="klein", exact=False):
    enc = (lambda c: f"{c.numerator}/{c.denominator}") if exact else float
    doc = {
        "dimension": len(points[0]) - (1 if model == "hemisphere" else 0),
        "curvature": "-1/1" if exact else -1.0,
        "model": model,
        "scalar": "exact-rational" if exact else "float64",
        "points": [[enc(c) for c in p] for p in points],
    }
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "name, argv",
    [
        ("k2", ["compute", "{k2}", "--verify", "200"]),
        ("k3", ["compute", "{k3}", "--verify", "200"]),
        ("k4", ["compute", "{k4}"]),
        ("exact", ["compute", "{h2}", "--route", "hemisphere", "--verify", "200"]),
        ("convert", ["convert", "{k2}", "--to", "upper-half-space"]),
        ("convert-exact", ["convert", "{h2}", "--to", "hyperboloid"]),
        ("delaunay", ["delaunay", "{k3}"]),
        ("delaunay-exact", ["delaunay", "{h2}", "--route", "hemisphere"]),
    ],
)
def test_cli_documents_match_json_dumps(tmp_path, monkeypatch, name, argv):
    """`convert` and `delaunay` write through `dump_json`; `compute` writes
    with the one-pass writer, whose text is the reference dict's."""
    inputs = {
        "k2": _write(tmp_path / "k2.json", random_klein_points(40, 2, seed=5)),
        "k3": _write(tmp_path / "k3.json", random_klein_points(15, 3, seed=5)),
        "k4": _write(tmp_path / "k4.json", random_klein_points(7, 4, seed=5)),
        "h2": _write(tmp_path / "h2.json", rational_hemisphere_points(12, 2, seed=5), "hemisphere", True),
    }
    written = []

    def checked(data):
        text = dump_json(data)
        assert text == reference(data)
        written.append(text)
        return text

    def one_pass(*args, **kwargs):
        text = diagram_to_document(*args, **kwargs)
        assert text == dump_json(reference_document(*args, **kwargs))
        written.append(text)
        return text

    monkeypatch.setattr(cli, "dump_json", checked)
    monkeypatch.setattr(cli, "diagram_to_document", one_pass)
    out = tmp_path / "out.json"
    assert cli.main([a.format(**inputs) for a in argv] + ["-o", str(out)]) == 0
    text = out.read_text()
    assert written == [text]
    if argv[0] == "compute":
        assert text == reference(json.loads(text))


def _signed_zeros(points):
    """The points with the first coordinate of the first four set to zero,
    of every other one to -0.0."""
    return [(-0.0,) + p[1:] if k % 2 else (0.0,) + p[1:] for k, p in enumerate(points[:4])] + points[4:]


@st.composite
def diagrams(draw):
    """Small diagrams with every optional section, on both arithmetics: float
    Klein input at d = 2, 3 and 4, moved to a drawn model, or exact
    hemisphere input at d = 2 and 3; with -0.0 coordinates, the complex's
    dicts and lists in reverse order, a cell flagged empty, and a
    verification section whose witness that cell makes."""
    kind = draw(st.sampled_from(["float", "exact"]))
    d = draw(st.sampled_from([2, 3, 4] if kind == "float" else [2, 3]))
    n = draw(st.integers(1, 10 if d < 4 else 7))
    seed = draw(st.integers(0, 2**16))
    if kind == "float":
        klein = random_klein_points(n, d, seed=seed)
        if draw(st.booleans()):
            klein = _signed_zeros(klein)
        model = draw(st.sampled_from(list(ModelTag)))
        dia = voronoi([convert(ModelPoint(ModelTag.KLEIN, p), model) for p in klein])
    else:
        dia = voronoi([ModelPoint(ModelTag.HEMISPHERE, p) for p in rational_hemisphere_points(n, d, seed=seed)],
                      route="hemisphere")
    try:
        dual = delaunay(dia)
    except NoExplicitGeometry:
        dual = None
    if draw(st.booleans()):  # the document sorts what the complex holds in build order
        cx = dia.complex
        for c in cx.cells:
            c.halfspaces = dict(reversed(c.halfspaces.items()))
        cx.facets = dict(reversed(cx.facets.items()))
        cx.power_vertices = cx.power_vertices[::-1]
        dia.boundaries = dict(reversed(dia.boundaries.items()))
    if n > 1 and draw(st.booleans()):  # another cell claims its samples
        dia.complex.cells[draw(st.integers(0, n - 1))].empty = True
    verification = verify(dia, 200, seed) if draw(st.booleans()) else None
    input_doc = None
    if draw(st.booleans()):  # as `compute` passes it: the parsed input
        scalar = "float64" if kind == "float" else "exact-rational"
        raw = documents.PointSetDocument(d, -1, dia.model, scalar, [p.coords for p in dia.sites]).to_json()
        input_doc = parse_point_set(json.loads(json.dumps(raw)))
    return dia, dual, detect_degeneracies(dia), verification, input_doc


@settings(max_examples=80, derandomize=True, deadline=None)
@given(diagrams())
def test_diagram_document_is_the_reference_dicts_text(args):
    text = diagram_to_document(*args)
    assert text == dump_json(reference_document(*args))
    assert text == reference(reference_document(*args))


def _poison(dia, where, bad):
    """Put `bad` into one number of the diagram's document."""
    cx = dia.complex
    if where == "site":
        s = cx.sites[1]
        cx.sites[1] = WeightedSite(s.center, bad)
    elif where == "halfspace":
        hs = cx.cells[0].halfspaces
        j = max(hs)
        hs[j] = Halfspace(hs[j].normal, bad)
    elif where == "facet":
        pair = max(cx.facets)
        cx.facets[pair] = ((bad,) + cx.facets[pair][0][1:],) + cx.facets[pair][1:]
    else:
        pair = max(dia.boundaries)
        s = dia.boundaries[pair]
        dia.boundaries[pair] = type(s)(s.lam, s.a, bad, s.model)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["site", "halfspace", "facet", "boundary"])
def test_diagram_document_rejects_non_finite_numbers(where, bad):
    dia = voronoi([ModelPoint(ModelTag.KLEIN, p) for p in random_klein_points(8, seed=3)])
    _poison(dia, where, bad)
    with pytest.raises(ValueError) as ref:
        dump_json(reference_document(dia))
    with pytest.raises(ValueError) as got:
        diagram_to_document(dia)
    assert str(got.value) == str(ref.value)


@pytest.mark.parametrize(
    "module, name",
    [
        (documents, "dump_json"),
        (documents, "diagram_to_document"),
        (hvd, "detect_degeneracies"),
        (hvd, "delaunay"),
        (power, "build_complex"),
        (power, "radical_hyperplane"),
        (power, "klein_site_map"),
        (power, "hemisphere_site_map"),
        (clipping, "clip_polygon"),
        (clipping, "clip_polyhedron"),
        (cli, "_check_stored_diagram"),
    ],
)
def test_benchmark_spans_still_name_module_functions(module, name):
    """The traced benchmark times encoding, Delaunay extraction, the
    degeneracy scan, the site maps, the power build, clipping and the
    stored-diagram check by wrapping these module-level functions; a stage
    whose function moved would drop out of its per-layer metrics unnoticed."""
    fn = getattr(module, name, None)
    assert callable(fn) and fn.__module__ == module.__name__


def test_benchmark_observer_reads_adjacency():
    """The traced benchmark counts `len(dia.complex.adjacency)` after each
    `voronoi`: the facets' key set."""
    dia = hvd.voronoi([ModelPoint(ModelTag.KLEIN, p) for p in random_klein_points(8, seed=3)])
    assert len(dia.complex.adjacency) > 0 and dia.complex.adjacency == set(dia.complex.facets)


def test_decode_vector_takes_floats_in_one_pass_and_anything_else_by_number():
    assert documents.decode_vector([0.25, -0.5]) == (0.25, -0.5)
    assert documents.decode_vector([1e308, 1e308]) == (1e308, 1e308)  # their sum overflows
    assert documents.decode_vector([]) == ()
    decoded = documents.decode_vector([1, "1/2", -0.0])
    assert decoded == (1.0, Fraction(1, 2), 0.0) and type(decoded[0]) is float
    assert math.copysign(1.0, decoded[2]) == -1.0


@pytest.mark.parametrize("at", [0, 1])
@pytest.mark.parametrize(
    "bad, message",
    [
        (True, "expected a finite number, got True"),
        (math.inf, "expected a finite number, got inf"),
        (-math.inf, "expected a finite number, got -inf"),
        (math.nan, "expected a finite number, got nan"),
        (None, "expected a finite number, got None"),
        ([0.5], "expected a finite number, got [0.5]"),
        ("1/0", "bad rational literal '1/0'"),
        ("half", "bad rational literal 'half'"),
    ],
)
def test_decode_vector_rejects_each_bad_coordinate(bad, message, at):
    coords = [0.25, -0.5]
    coords[at] = bad
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        documents.decode_vector(coords)
    with pytest.raises(ParseError, match="^expected a coordinate array, got 0.5$"):
        documents.decode_vector(0.5)
