"""Hypothesis tests.

Mutated point-set and diagram documents, and exact and float64 inputs at
the edges of the number range, go through the CLI: every run must end in
an exit code of 0-5 (typed errors print one `error: <kind>: ...` line); no
exception may escape `cli.main`.  Random small site sets go through the
screened lockstep build and the plain every-candidate build, which must
agree, and through `voronoi`, whose Delaunay faces must be made of its
adjacency pairs.  Chains of exact cuts go through the integer homogeneous
clippers and the Fraction clippers they replaced, which must agree.  The
pair table must equal the Python radical hyperplane rows of the sites'
float64 images bit for bit.  Built and tampered cells, labelled and
checked against the oracle, must give what the exhaustive references
give, bit for bit.
"""

import copy
import itertools
import json
import math
import re
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypervoronoi import (  # noqa: E402
    ModelPoint,
    ModelTag,
    build_complex,
    clipping,
    cutting,
    delaunay,
    detect_degeneracies,
    distance,
    hemisphere_site_map,
    hvd,
    klein_site_map,
    power,
    voronoi,
)
from hypervoronoi.cli import main  # noqa: E402
from hypervoronoi.documents import diagram_to_document, dump_json, parse_point_set  # noqa: E402
from hypervoronoi.errors import CoincidentSites, DuplicateSites, GeometryError  # noqa: E402
from hypervoronoi.sampling import ball_points, random_klein_points, rational_hemisphere_points  # noqa: E402
from hypervoronoi.power import Halfspace  # noqa: E402
from hypervoronoi.scalars import dot, vsub  # noqa: E402
from util import (  # noqa: E402
    assert_same_complex,
    block_shapes,
    canonical_halfspace,
    cocircular_square,
    cut_and_build,
    fraction_clip_polygon,
    fraction_clip_polyhedron,
    least_first,
    reference_complex,
    reference_document,
    reference_label_samples,
    reference_oracle,
    reference_radical_hyperplane,
    reference_report,
    wheel_points,
)


def _rational(p):
    return [f"{c.numerator}/{c.denominator}" for c in p]


def _point_sets():
    return {
        "klein-2": {"dimension": 2, "model": "klein", "points": [list(p) for p in random_klein_points(5, seed=4)]},
        "klein-3": {"dimension": 3, "model": "klein", "points": [list(p) for p in random_klein_points(5, 3, seed=4)]},
        "hemisphere-exact": {
            "dimension": 2,
            "curvature": "-1/1",
            "model": "hemisphere",
            "scalar": "exact-rational",
            "points": [_rational(p) for p in rational_hemisphere_points(4, seed=4)],
        },
    }


def _diagrams(tmp):
    out = {}
    for name, doc in _point_sets().items():
        inp, dia = tmp / f"{name}.json", tmp / f"{name}-diagram.json"
        inp.write_text(dump_json(doc))
        route = "hemisphere" if name == "hemisphere-exact" else "klein"
        assert main(["compute", str(inp), "--route", route, "-o", str(dia)]) == 0
        out[name] = json.loads(dia.read_text())
    return out


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    docs = _point_sets()
    docs.update({f"{k}-diagram": v for k, v in _diagrams(tmp_path_factory.mktemp("fuzz")).items()})
    return docs


LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.integers()
    | st.just(10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["1/0", "-1/1", "3/4", "1e400", "0/1", "1" + "0" * 400 + "/1", "nan", "x", ""])
    | st.text(max_size=6)
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _paths(v, path + (k,))
    elif isinstance(node, list):
        for k, v in enumerate(node):
            yield from _paths(v, path + (k,))


def _mutate(data, doc):
    """A few replacements, deletions and insertions anywhere in the tree."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            if data.draw(st.booleans()):
                doc = data.draw(VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = data.draw(st.sampled_from(["replace", "delete", "insert"]))
        if op == "replace":
            parent[key] = data.draw(VALUES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, data.draw(VALUES))
        else:
            parent[data.draw(st.text(max_size=6))] = data.draw(VALUES)
    return doc


def _encode(data, doc) -> bytes:
    raw = json.dumps(doc, allow_nan=True).encode("utf-8")
    if data.draw(st.integers(0, 9)) == 0:  # damaged bytes: truncation or garbage
        cut = data.draw(st.integers(0, len(raw)))
        raw = raw[:cut] + data.draw(st.binary(max_size=4))
    return raw


FUZZ = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)


@FUZZ
@given(data=st.data())
def test_compute_survives_mutated_documents(tmp_path, documents, data, capsys):
    name = data.draw(st.sampled_from(sorted(documents)))
    path = tmp_path / "doc.json"
    path.write_bytes(_encode(data, _mutate(data, documents[name])))
    route = data.draw(st.sampled_from(["klein", "hemisphere"]))
    code = main(["compute", str(path), "--route", route, "-o", str(tmp_path / "out.json")])
    assert code in range(6)
    err = capsys.readouterr().err
    assert code == 0 or err.startswith("error: ")


@FUZZ
@given(data=st.data())
def test_check_survives_mutated_documents(tmp_path, documents, data, capsys):
    name = data.draw(st.sampled_from(sorted(documents)))
    path = tmp_path / "doc.json"
    path.write_bytes(_encode(data, _mutate(data, documents[name])))
    code = main(["check", str(path), "--samples", "50"])
    assert code in range(6)
    err = capsys.readouterr().err
    assert code in (0, 1) or err.startswith("error: ")


MODEL_NAMES = [tag.value for tag in ModelTag]


def _survives(argv, capsys):
    """Exit 0, or the typed error line with exit 2-5."""
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 0 or (code in range(2, 6) and err.startswith("error: ")), (code, err)


@FUZZ
@given(data=st.data())
def test_render_survives_mutated_diagrams(tmp_path, documents, data, capsys):
    name = data.draw(st.sampled_from(sorted(k for k in documents if k.endswith("-diagram"))))
    path = tmp_path / "doc.json"
    path.write_bytes(_encode(data, _mutate(data, documents[name])))
    model = data.draw(st.sampled_from(MODEL_NAMES))
    _survives(["render", str(path), "--model", model, "-o", str(tmp_path / "out.svg")], capsys)


@FUZZ
@given(data=st.data())
def test_convert_survives_mutated_point_sets(tmp_path, documents, data, capsys):
    name = data.draw(st.sampled_from(sorted(k for k in documents if not k.endswith("-diagram"))))
    path = tmp_path / "doc.json"
    path.write_bytes(_encode(data, _mutate(data, documents[name])))
    model = data.draw(st.sampled_from(MODEL_NAMES))
    _survives(["convert", str(path), "--to", model, "-o", str(tmp_path / "out.json")], capsys)


@FUZZ
@given(data=st.data())
def test_delaunay_survives_mutated_point_sets(tmp_path, documents, data, capsys):
    name = data.draw(st.sampled_from(sorted(k for k in documents if not k.endswith("-diagram"))))
    path = tmp_path / "doc.json"
    path.write_bytes(_encode(data, _mutate(data, documents[name])))
    route = data.draw(st.sampled_from(["klein", "hemisphere"]))
    _survives(["delaunay", str(path), "--route", route, "-o", str(tmp_path / "out.json")], capsys)


def _hemisphere_point(t):
    """The rational hemisphere point over the parameter t in the unit ball."""
    n2 = sum(c * c for c in t)
    return ((1 - n2) / (1 + n2),) + tuple(2 * c / (1 + n2) for c in t)


def _with_digits(lo, hi):
    """Positive integers of lo to hi decimal digits."""
    return st.integers(lo, hi).flatmap(lambda k: st.integers(10 ** (k - 1), 10**k - 1))


@st.composite
def _range_edge_coordinate(draw):
    """A rational in [-1/2, 1/2]: numerator and denominator of 1-80 digits,
    or now and then one past the float range (a 10^-400 scale, or a
    400-digit denominator)."""
    kind = draw(st.sampled_from(["digits"] * 18 + ["tiny", "long"]))
    if kind == "tiny":
        return Fraction(draw(st.integers(-9, 9)), 10 ** draw(st.integers(309, 420)))
    den = draw(_with_digits(380, 420) if kind == "long" else _with_digits(1, 80))
    return Fraction(draw(st.integers(-(den // 2), den // 2)), den)


@st.composite
def _range_edge_documents(draw):
    """Exact hemisphere point sets (d = 2 or 3) over range-edge parameters,
    at model radius 1, 3 or 10^200; now and then a point is moved off the
    sphere."""
    d = draw(st.sampled_from([2, 3]))
    ts = draw(st.lists(st.tuples(*[_range_edge_coordinate()] * d), min_size=1, max_size=6, unique=True))
    scale = draw(st.sampled_from([1, 1, 3, 10**200]))
    pts = [[c * scale for c in _hemisphere_point(t)] for t in ts]
    if draw(st.sampled_from([False] * 9 + [True])):
        pts[0][draw(st.integers(0, d))] += Fraction(1, draw(_with_digits(1, 80)))
    kappa = Fraction(-1, scale * scale)
    return {
        "dimension": d,
        "curvature": f"{kappa.numerator}/{kappa.denominator}",
        "model": "hemisphere",
        "scalar": "exact-rational",
        "points": [_rational(p) for p in pts],
    }


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(_range_edge_documents())
def test_exact_compute_survives_range_edge_numbers(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["compute", str(path), "--route", "hemisphere", "-o", str(tmp_path / "out.json")])
    err = capsys.readouterr().err
    assert code == 0 or (code in range(2, 6) and err.startswith("error: ") and err.count("\n") == 1), (code, err)
    assert len(err) < 200  # exact values are quoted in a bounded form
    assert "radical hyperplane coefficient" not in err  # exact rows never need the float range


def _log_uniform(lo, hi):
    """Positive floats from 10^lo to 10^hi, even in the exponent, and its ends."""
    return st.sampled_from([10.0**lo, 10.0**hi]) | st.floats(lo, hi).map(lambda e: 10.0**e)


@st.composite
def _float_range_edge_documents(draw):
    """float64 point sets (d = 2 to 4) with range-edge points among ordinary
    ones: hemisphere x_0 from 1e-150 down to the least subnormal,
    upper half-space heights from 1e-300 to 1e300, hyperboloid x_0 up to
    1e300."""
    d = draw(st.sampled_from([2, 3, 4]))
    model = draw(st.sampled_from(["hemisphere", "upper-half-space", "hyperboloid"]))
    unit = st.lists(st.floats(-1, 1), min_size=d, max_size=d).filter(lambda u: math.hypot(*u) > 0.1)
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        edge = draw(st.booleans())
        u = draw(unit)
        if model == "hemisphere":  # x_0 and a point of the sphere over it
            x0 = draw(st.sampled_from([5e-324]) | _log_uniform(-323, -150)) if edge else draw(st.floats(0.05, 1))
            s = math.sqrt((1 - x0) * (1 + x0)) / math.hypot(*u)
            pts.append([x0] + [c * s for c in u])
        elif model == "upper-half-space":
            h = draw(_log_uniform(-300, 300) if edge else st.floats(0.1, 10))
            pts.append([c * 3 for c in u[1:]] + [h])
        else:  # x_0 and a point of the sheet under it
            x0 = draw(_log_uniform(0, 300) if edge else st.floats(1, 10))
            s = math.sqrt(x0 - 1) * math.sqrt(x0 + 1) / math.hypot(*u)
            pts.append([x0] + [c * s for c in u])
    return {"dimension": d, "model": model, "points": pts}


@st.composite
def _planar_range_edge_documents(draw):
    """Planar float64 point sets with points near the boundary that float64
    still builds: Klein points 1e-8 to 1e-2 inside the unit circle in
    1 - |x|^2, Poincare points 1e-4 to 1e-2 inside it in 1 - |x|, upper
    half-space heights from 1e-4 to 1e4, among ordinary points."""
    model = draw(st.sampled_from(["klein", "poincare", "upper-half-space"]))

    @st.composite
    def point(draw):
        edge = draw(st.booleans())
        if model == "upper-half-space":
            return draw(st.floats(-3, 3)), draw(_log_uniform(-4, 4) if edge else st.floats(0.1, 10))
        depth = draw(_log_uniform(*((-8, -2) if model == "klein" else (-4, -2))) if edge else st.floats(0.2, 1))
        r, a = math.sqrt(1 - depth) if model == "klein" else 1 - depth, draw(st.floats(0, 2 * math.pi))
        return r * math.cos(a), r * math.sin(a)

    pts = draw(st.lists(point(), min_size=2, max_size=8, unique=True))
    # points this close hyperbolically are near-coincident, whatever their
    # depth: float64 may have no diagram of them, a typed error
    # (`test_near_coincident_float_sites_exit_3`, `test_a_site_outside_its_own_cell_is_a_typed_error`)
    points = [ModelPoint(ModelTag(model), p) for p in pts]
    assume(all(distance(p, q) > 1e-2 for p, q in itertools.combinations(points, 2)))
    return {"dimension": 2, "model": model, "points": [list(p) for p in pts]}


def _float_commands(tmp_path, capsys, doc):
    """Each float command's (command, route, exit code, stderr) on doc."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command, extra in [
        ("compute", ["-o", str(tmp_path / "out.json")]),
        ("check", ["--samples", "50"]),
        ("delaunay", ["-o", str(tmp_path / "out.json")]),
    ]:
        for route in ("klein", "hemisphere"):
            code = main([command, str(path), "--route", route, *extra])
            yield command, route, code, capsys.readouterr().err


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(_float_range_edge_documents())
def test_float_commands_survive_range_edge_numbers(tmp_path, capsys, doc):
    """No traceback on either route: a result, a verification verdict, or
    one typed error line."""
    for command, route, code, err in _float_commands(tmp_path, capsys, doc):
        ok = code in (0, 1) or (code in range(2, 6) and err.startswith("error: ") and err.count("\n") == 1)
        assert ok, (command, route, code, err)


@settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(_planar_range_edge_documents())
def test_float_commands_build_planar_range_edge_documents(tmp_path, capsys, doc):
    """Planar documents near the boundary that float64 still resolves:
    `compute`, `check` and `delaunay` succeed on both routes."""
    for command, route, code, err in _float_commands(tmp_path, capsys, doc):
        assert code == 0 and not err, (command, route, code, err)


@settings(
    max_examples=100,  # at 25, no planar document builds, so none would be rendered
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(_float_range_edge_documents())
def test_convert_and_render_survive_range_edge_numbers(tmp_path, capsys, doc):
    """`convert` to every model, and `render` in every model of the
    diagram each route computes: a result or one typed error line."""
    path, diagram = tmp_path / "doc.json", tmp_path / "diagram.json"
    path.write_text(json.dumps(doc))
    runs = [["convert", str(path), "--to", model.value, "-o", str(tmp_path / "out.json")] for model in ModelTag]
    for route in ("klein", "hemisphere"):
        if main(["compute", str(path), "--route", route, "-o", str(diagram)]) == 0:
            runs += [["render", str(diagram), "--model", model.value, "-o", str(tmp_path / "out.svg")]
                     for model in ModelTag]
        capsys.readouterr()
    for argv in runs:
        code = main(argv)
        err = capsys.readouterr().err
        ok = code == 0 or (code in range(2, 6) and err.startswith("error: ") and err.count("\n") == 1)
        assert ok, (argv[0], argv[-3], code, err)


def _written(write):
    """The text `write()` returns, or the type and message of the error it raises."""
    try:
        return write()
    except (ValueError, OverflowError) as e:
        return type(e), str(e)


@settings(
    max_examples=100,  # at 25, no planar document builds
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_float_range_edge_documents())
def test_range_edge_documents_are_the_reference_dicts_text(doc):
    """The one-pass writer writes the reference dict's text, or raises its
    error, on every diagram either route builds of range-edge input."""
    source = parse_point_set(doc)
    for route in ("klein", "hemisphere"):
        try:
            dia = voronoi(source.model_points(), route=route)
            dual = delaunay(dia) if dia.complex.explicit else None
            args = (dia, dual, detect_degeneracies(dia), None, source)
        except GeometryError:
            continue
        text = _written(lambda: diagram_to_document(*args))
        assert text == _written(lambda: dump_json(reference_document(*args)))


@st.composite
def _sites(draw):
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):  # float Klein points, |x| < 1 as each |coordinate| <= 0.55
        coord = st.floats(-0.55, 0.55, allow_subnormal=False)
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=10 if d == 2 else 7, unique=True))
        if draw(st.integers(0, 3)) == 0:  # a near-coincident pair, whose row may round to zero
            rest = draw(coord)
            gap = draw(st.sampled_from([1e-170, 1e-300, 5e-324]))
            pair = [(gap,) + (rest,) * (d - 1), (2 * gap,) + (rest,) * (d - 1)]
            if draw(st.booleans()):  # one ulp apart: a row that does not round to zero
                pair = [(rest,) * d, (math.nextafter(rest, 1.0),) + (rest,) * (d - 1)]
            pts = list(dict.fromkeys(pts + pair))
        return d, [klein_site_map(p) for p in pts]
    edge = Fraction(3, 5) if d == 2 else Fraction(1, 2)  # |t|^2 <= d edge^2 < 1
    coord = st.fractions(-edge, edge, max_denominator=12)
    ts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8 if d == 2 else 5, unique=True))
    return d, [hemisphere_site_map(_hemisphere_point(t)) for t in ts]


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_sites(), st.sampled_from([cutting.BLOCK_PAIRS, 1, 7]), st.sampled_from([1, 2, 32]))
def test_screened_build_equals_plain_build(case, cap, feed):
    """The screened two-phase build, each cell fed its `feed` nearest and
    then what its lifted query keeps, equals the plain build that cuts by
    every candidate."""
    d, sites = case
    try:
        ref = reference_complex(sites)
    except CoincidentSites as e:  # a row that rounds to zero: the same typed error
        assert str(e).endswith(cutting.ROUNDS_TO_ZERO)
        ref = e
    except DuplicateSites as e:  # two points whose sites' images coincide: likewise
        ref = e
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cutting, "BLOCK_PAIRS", cap)  # one block, one cell per block, a few cells
        m.setitem(cutting.NEAREST_FEED, d, feed)
        if isinstance(ref, Exception):
            with pytest.raises(type(ref), match=re.escape(str(ref))):
                build_complex(sites)
            return
        got = cut_and_build(sites)
    assert_same_complex(got, ref)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_numpy_ring_step_equals_clip_polygon(data):
    """`cutting._Rings` cuts a block of float polygons in numpy; after every
    step each ring is `clipping.clip_polygon`'s, by `==` and `repr`: cuts
    through a vertex or along an edge (the crossings they make repeat a
    vertex, and the zero-length edges go), cuts that empty a cell, and
    -0.0 in normals, offsets and vertices."""
    coord = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
    m = data.draw(st.integers(1, 4))
    window = clipping.box_polygon(data.draw(st.sampled_from([1.0, 0.75, 3.0])))
    rings, want = cutting._Rings(window, m), [window] * m
    for step in range(data.draw(st.integers(1, 8))):
        cs = [c for c in range(m) if not want[c].empty and data.draw(st.booleans())]
        rows = []
        for c in cs:
            normal = (data.draw(coord), data.draw(coord))
            verts = want[c].vertices
            kind = data.draw(st.sampled_from(["random", "vertex", "edge", "empty"]))
            if kind == "vertex":
                offset = -dot(normal, data.draw(st.sampled_from(verts)))
            elif kind == "edge":
                k = data.draw(st.integers(0, len(verts) - 1))
                v0, v1 = verts[k], verts[(k + 1) % len(verts)]
                normal = (v0[1] - v1[1], v1[0] - v0[0])
                offset = -dot(normal, v0)
            else:
                offset = 100.0 if kind == "empty" else data.draw(coord)
            rows.append(normal + (offset,))
            want[c] = clipping.clip_polygon(want[c], normal, offset, step)
        if cs:
            R = np.array([r + (0.0, 0.0) for r in rows]).T.reshape(5, -1)
            rings.cut(np.array(cs), R, np.full(len(cs), step))
        got = block_shapes(rings)
        assert got == want and repr(got) == repr(want)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_numpy_least_first_equals_polygon_least_first(data):
    """`cutting._Rings.least_first` starts each ring where
    `util.least_first` does, by `repr`: on rings with equal points (0.0
    and -0.0 among them), infinite and nan coordinates, and empty rings."""
    value = st.sampled_from([0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]) | st.floats()
    ring = st.just([]) | st.lists(st.tuples(value, value), min_size=3, max_size=7)
    given_rings = data.draw(st.lists(ring, min_size=1, max_size=5))
    m, width = len(given_rings), max(3, *map(len, given_rings))
    rings = cutting._Rings(clipping.box_polygon(1.0), m)
    rings.V = np.zeros((2, width, m))
    for c, points in enumerate(given_rings):
        if points:
            rings.V[:, :, c] = np.array(points + points[:1] * (width - len(points))).T
    rings.T = np.arange(width * m).reshape(width, m) - 1
    rings.L = np.array([len(points) for points in given_rings])
    want = [least_first(p) for p in block_shapes(rings)]
    rings.least_first()
    assert repr(block_shapes(rings)) == repr(want)


@settings(max_examples=150, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_numpy_polyhedron_step_equals_clip_polyhedron(data):
    """`cutting._Polyhedra` cuts a block of float polyhedra in numpy; after
    every step each cell's compacted table, faces and rings are
    `clipping.clip_polyhedron`'s, by `==` and `repr`: cuts through a
    vertex, along an edge or through a face's plane (side values 0 keep a
    vertex as it is), cuts that empty a cell, and -0.0 in normals and
    offsets.  A cut through a face's plane can leave a ring of two
    vertices, which the step leaves to the clipper itself."""
    coord = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0])
    m = data.draw(st.integers(1, 4))
    window = clipping.box_polyhedron(data.draw(st.sampled_from([1.0, 0.75, 3.0])))
    cells, want = cutting._Polyhedra(window, m), [window] * m
    for step in range(data.draw(st.integers(1, 10))):
        cs = [c for c in range(m) if not want[c].empty and data.draw(st.booleans())]
        rows = []
        for c in cs:
            normal = tuple(data.draw(coord) for _ in range(3))
            verts, faces = want[c].vertices, want[c].faces
            kind = data.draw(st.sampled_from(["random", "vertex", "edge", "face", "empty"]))
            if kind == "vertex":
                offset = -dot(normal, data.draw(st.sampled_from(verts)))
            elif kind in ("edge", "face"):
                ring = data.draw(st.sampled_from(faces)).ring
                k = data.draw(st.integers(0, len(ring) - 1))
                v0, v1, v2 = (verts[ring[(k + i) % len(ring)]] for i in range(3))
                normal = _cross(vsub(v1, v0), normal if kind == "edge" else vsub(v2, v0))
                offset = -dot(normal, v0)
            else:
                offset = 100.0 if kind == "empty" else data.draw(coord)
            rows.append(normal + (offset,))
            want[c] = clipping.clip_polyhedron(want[c], normal, offset, step).compact()
        if cs:
            R = np.array([r + (0.0, 0.0) for r in rows]).T.reshape(6, -1)
            cells.cut(np.array(cs), R, np.full(len(cs), step))
        got = block_shapes(cells)
        assert got == want and repr(got) == repr(want)


@st.composite
def _point_sets_and_routes(draw):
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        coord = st.floats(-0.55, 0.55, allow_subnormal=False)
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=10 if d == 2 else 7, unique=True))
        # points closer than ~1e-160 may have no float diagram (their radical
        # hyperplane rounds to zero; `test_near_coincident_float_sites_exit_3`)
        assume(all(math.dist(p, q) > 1e-100 for p, q in itertools.combinations(pts, 2)))
        return d, [ModelPoint(ModelTag.KLEIN, p) for p in pts], "klein"
    coord = st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=12)  # |t| < 1
    ts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=8 if d == 2 else 5, unique=True))
    return d, [ModelPoint(ModelTag.HEMISPHERE, _hemisphere_point(t)) for t in ts], "hemisphere"


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_point_sets_and_routes())
def test_delaunay_simplices_are_made_of_adjacency_pairs(case):
    """A power vertex strictly inside the ball ends each facet between two
    of its d + 1 sites there, so those facets meet the open ball."""
    d, points, route = case
    dia = voronoi(points, route=route)
    for face in delaunay(dia).faces:
        if len(face) == d + 1:
            assert set(itertools.combinations(sorted(face), 2)) <= dia.complex.adjacency


def _relabelled(dia, name):
    """A diagram's combinatorics with site k called name[k]: adjacency, each
    cell's emptiness and halfspaces, power-vertex site sets, the Delaunay
    complex and the degeneracy groups."""
    cx, dual, report = dia.complex, delaunay(dia), detect_degeneracies(dia)

    def group(g):
        return tuple(sorted(name[k] for k in g))

    return {
        "adjacency": sorted(map(group, cx.adjacency)),
        "cells": sorted((name[k], c.empty, sorted((name[j], h) for j, h in c.halfspaces.items()))
                        for k, c in enumerate(cx.cells)),
        "power vertices": sorted(group(v.sites) for v in cx.power_vertices),
        "delaunay": (sorted(map(group, dual.faces)), sorted(map(group, dual.edges)), dual.is_triangulation),
        "degeneracies": [sorted(map(group, getattr(report, g))) for g in (
            "cocircular_groups", "collinear_groups", "equal_norm_groups", "equal_height_groups")],
    }


# stereographic parameters of a rational hemisphere point each (`_hemisphere_point`)
_WHEEL = wheel_points(8)
_SQUARE = cocircular_square()
_TIED = [(0.25, 0.0), (0.0, 0.25), (0.5, 0.375), (-0.5, 0.125), (0.125, -0.625)]  # the centre's tie set: 0, 1
_OCTAHEDRON = [tuple(s * (k == axis) / 3 for k in range(3)) for axis in range(3) for s in (1, -1)]
_TIED_3 = [(0.25, 0, 0), (0, 0.25, 0), (0.5, 0.375, 0.25), (-0.5, 0.125, 0), (0.125, -0.5, 0.25)]


@st.composite
def _parameter_sets(draw):
    d = draw(st.sampled_from([2, 3]))
    coord = st.fractions(Fraction(-1, 2), Fraction(1, 2), max_denominator=12)  # |t| < 1
    return draw(st.lists(st.tuples(*[coord] * d), min_size=2, max_size=9 if d == 2 else 6, unique=True))


@settings(max_examples=100, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_parameter_sets(), st.integers(0, 2**16))
@example(_WHEEL, 1)
@example(_SQUARE, 2)
@example(_TIED, 3)
@example(_OCTAHEDRON, 4)
@example(_TIED_3, 5)
def test_exact_build_of_permuted_points_is_the_relabelled_build(ts, seed):
    """The exact build of a permutation of the points is the build of the
    points with its sites renamed, with no tolerance: the same adjacency,
    halfspaces, emptiness, power-vertex site sets, Delaunay faces and
    degeneracy groups.  The explicit examples hold a wheel, a co-circular
    set, and a set whose origin two sites tie for, at d = 2 and 3."""
    points = [ModelPoint(ModelTag.HEMISPHERE, _hemisphere_point(tuple(map(Fraction, t)))) for t in ts]
    order = np.random.default_rng(seed).permutation(len(points)).tolist()  # site m of the moved set is site order[m]
    want = _relabelled(voronoi(points, route="hemisphere"), range(len(points)))
    got = _relabelled(voronoi([points[k] for k in order], route="hemisphere"), order)
    assert got == want


# --- the integer homogeneous clippers against the Fraction clippers ------------------

def _integer_row(normal, offset):
    """The primitive integer row of a rational cut (a zero row stays zero)."""
    hs = canonical_halfspace(Halfspace(tuple(Fraction(c) for c in normal), Fraction(offset)))
    return hs.normal, hs.offset


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _exact_cut(data, cell, d):
    """An integer cut row of `cell` (in Fraction coordinates): random, through
    one of its vertices, holding one of its edges, or with a zero normal."""
    kind = data.draw(st.sampled_from(["random", "vertex", "edge", "zero"]))
    if kind == "zero":
        return (0,) * d, data.draw(st.integers(-1, 1))
    big = data.draw(st.sampled_from([9, 10**6]))
    normal = tuple(data.draw(st.integers(-big, big)) for _ in range(d))
    if kind == "random" or cell.empty:
        return normal, data.draw(st.integers(-3 * big, 3 * big))
    sign = data.draw(st.sampled_from([1, -1]))
    if kind == "vertex":
        v = data.draw(st.sampled_from(cell.vertices))
        return _integer_row([sign * c for c in normal], -sign * dot(normal, v))
    if d == 2:
        k = data.draw(st.integers(0, len(cell.vertices) - 1))
        v0, v1 = cell.vertices[k], cell.vertices[(k + 1) % len(cell.vertices)]
        edge_normal = (v0[1] - v1[1], v1[0] - v0[0])
    else:
        face = data.draw(st.sampled_from(cell.faces))
        k = data.draw(st.integers(0, len(face.ring) - 1))
        v0, v1 = cell.vertices[face.ring[k]], cell.vertices[face.ring[(k + 1) % len(face.ring)]]
        edge_normal = _cross(tuple(b - a for a, b in zip(v0, v1)), normal)
    if not any(edge_normal):
        return normal, 0
    edge_normal = tuple(sign * c for c in edge_normal)
    return _integer_row(edge_normal, -dot(edge_normal, v0))


KERNELS = {
    2: (clipping.box_polygon, clipping.clip_polygon, fraction_clip_polygon),
    3: (clipping.box_polyhedron, clipping.clip_polyhedron, fraction_clip_polyhedron),
}


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([2, 3]), st.fractions(Fraction(1, 7), 7, max_denominator=50), st.data())
def test_integer_cuts_equal_the_fraction_kernel(d, half, data):
    box, clip_fn, reference = KERNELS[d]
    want = box(half)
    got = replace(want, vertices=[clipping.to_homogeneous(v) for v in want.vertices])
    for step in range(data.draw(st.integers(1, 10))):
        normal, offset = _exact_cut(data, want, d)
        want = reference(want, normal, offset, step)
        got = clip_fn(got, normal, offset, step)
        live = got.compact()  # a polyhedron's outside vertices die in place
        assert replace(live, vertices=[clipping.to_affine(v) for v in live.vertices]) == want
        for v in live.vertices:  # primitive, Z > 0
            assert all(type(c) is int for c in v) and math.gcd(*v) == 1 and v[-1] > 0


# --- the float route's pair table against the Python rows ---------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-170, -1e-170, 1e150, -1e150, 1e200, -1e300]


@st.composite
def _float_site_sets(draw):
    """Float sites over small, -0.0, subnormal and large scalars; now and
    then a site concentric with the first (a zero normal), its mirror image
    (a zero offset, -0.0 on the higher index's side), or one whose row
    rounds to zero.  Half the sets are mixed: some scalars are exact, at
    their float's value or a little off it, so two distinct sites may
    share a float64 image."""
    d = draw(st.sampled_from([2, 3, 4]))
    scalar = st.floats(-4.0, 4.0) | st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
    rows = draw(st.lists(st.tuples(*[scalar] * (d + 1)), min_size=2, max_size=6))
    kind = draw(st.sampled_from(["plain", "concentric", "mirror", "near"]))
    if kind == "concentric":
        rows.append(rows[0][:d] + (draw(scalar),))
    elif kind == "mirror":
        rows.append(tuple(-c for c in rows[0][:d]) + rows[0][d:])
    elif kind == "near":
        rows.append((rows[0][0] + 1e-170,) + rows[0][1:])
    rows = list(dict.fromkeys(rows))  # distinct sites (-0.0 == 0.0)
    assume(len(rows) > 1)
    if draw(st.booleans()):
        exact = st.sampled_from([Fraction, lambda x: Fraction(x) + Fraction(1, 10**30)])
        rows = [tuple(draw(exact)(c) if draw(st.booleans()) else c for c in r) for r in rows]
    return d, [power.WeightedSite(r[:d], r[d]) for r in rows]


def _hex(values):
    return [float(c).hex() for c in values]


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_float_site_sets(), st.data())
def test_pair_table_is_the_python_rows(case, data):
    """Every column of `_pair_rows` is the Python row of the sites' float64
    images (`reference_radical_hyperplane`), on cell i's side, bit for bit,
    i < j and i > j, or both raise a typed error; `radical_hyperplane`
    returns that row unless both sites are exact; `side_values` gives
    `clipping._side_values` at the same vertices."""
    d, sites = case
    n = len(sites)
    images = [power.WeightedSite(tuple(map(float, s.center)), float(s.weight)) for s in sites]
    home, tags = np.array([(i, j) for i in range(n) for j in range(n) if i != j]).T
    arrays = cutting.site_arrays(sites, d)
    table = cutting.pair_rows(arrays, home, tags, False)
    scalar = st.floats(-2.0, 2.0) | st.sampled_from(EDGE_FLOATS)
    zero = st.sampled_from([0.0, -0.0])
    verts = data.draw(st.lists(st.tuples(*[scalar] * d) | st.tuples(*[zero] * d), min_size=1, max_size=6))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = cutting.side_values(np.array(verts, dtype=float).T[:, :, None], table).T.tolist()
    for p, (i, j) in enumerate(zip(home.tolist(), tags.tolist())):
        lo, hi = min(i, j), max(i, j)
        try:  # identical images, or a row that rounds to zero
            hs = reference_radical_hyperplane(images[lo], images[hi])
        except CoincidentSites:
            with pytest.raises(CoincidentSites, match=f"^sites {lo} and {hi}: {cutting.ROUNDS_TO_ZERO}$"):
                cutting.pair_rows(arrays, home[p:p + 1], tags[p:p + 1], True)
            continue
        side = hs if i < j else -hs
        row = table[:d + 1, p].tolist()
        assert _hex(row) == _hex(side.normal + (side.offset,))
        if not (sites[lo].integer_row and sites[hi].integer_row):
            public = power.radical_hyperplane(sites[lo], sites[hi])
            assert _hex(public.normal + (public.offset,)) == _hex(hs.normal + (hs.offset,))
        assert _hex(vals[p]) == _hex(clipping._side_values(verts, row[:d], row[d])[0])


@st.composite
def _labelling_cases(draw):
    """A built diagram's cells (d = 2, 3), maybe tampered with, and samples:
    none, one or many, in the ball or out to 3, 2^1001 or 1e308 times its
    radius.  Tampering swaps two cells' halfspaces, shifts an offset,
    copies a cell (exact ties), grows a cell over its neighbors, strips a
    cell's halfspaces, adds a zero-normal row or a 1e300 offset, or flags
    a cell empty."""
    d = draw(st.sampled_from([2, 3]))
    n = (15 if d == 2 else 10) - draw(st.integers(1, 14 if d == 2 else 9))  # many sites first
    seed = draw(st.integers(0, 2**16))
    dia = voronoi([ModelPoint(ModelTag.KLEIN, p) for p in random_klein_points(n, d, seed)])
    cells = [[i, c.empty, dict(c.halfspaces)] for i, c in enumerate(dia.complex.cells)]
    k = draw(st.integers(0, n - 1))
    hs = cells[k][2]
    tamper = draw(st.sampled_from(["duplicate", "grow", "swap", "shift", "zero", "huge", "bare", "empty", "none"]))
    if tamper == "swap":
        other = cells[(k + 1) % n]
        hs, other[2] = other[2], hs
    elif tamper == "shift" and hs:
        j = draw(st.sampled_from(sorted(hs)))
        hs[j] = Halfspace(hs[j].normal, hs[j].offset + draw(st.floats(-0.5, 0.5)))
    elif tamper == "duplicate":  # exact ties with a new cell, of this site or the next
        cells.insert(draw(st.integers(0, n)), [draw(st.sampled_from([k, (k + 1) % n])), False, dict(hs)])
    elif tamper == "grow":  # every facet moved out by delta: the cell overlaps its neighbors
        delta = draw(st.sampled_from([0.05, 0.01, 0.2]))
        hs = {j: Halfspace(h.normal, h.offset - delta * math.hypot(*h.normal)) for j, h in hs.items()}
    elif tamper == "bare":
        hs = {}
    elif tamper == "zero":
        hs[n] = Halfspace((0.0,) * d, draw(st.sampled_from([-1.0, 0.0, 1.0])))
    elif tamper == "huge" and hs:
        j = draw(st.sampled_from(sorted(hs)))
        hs[j] = Halfspace(hs[j].normal, draw(st.sampled_from([1e300, -1e300])))
    elif tamper == "empty":
        cells[k][1] = True
    cells[k][2] = hs
    count = draw(st.sampled_from([3000, 3000, 3000, 400, 2, 1, 0]))
    scale = draw(st.sampled_from([1.0, 1.0, 1.0, 3.0, 2.0**1001, 1e308]))
    X = ball_points(seed, count, d) * scale
    hubs = np.array([[float(c) for c in h] for h in dia.hub_points])
    return d, [tuple(c) for c in cells], X, hubs


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_labelling_cases(), st.sampled_from([1.0, 2.5]))
def test_labelling_and_oracle_equal_the_exhaustive_references(case, radius):
    """`label_samples` (tiles, then every cell for the samples they do not
    settle) equals the loop over every cell at every sample, and the
    blocked oracle and its report equal the oracle made as one matrix,
    bit for bit, on built and tampered cells."""
    d, cells, X, hubs = case
    table = hvd.cell_matrices([(i, h) for i, empty, h in cells if not empty], d)
    with np.errstate(over="ignore", invalid="ignore"):
        labels, margin = hvd.label_samples(X, table)
        ref_labels, ref_margin = reference_label_samples(X, table)
        assert labels.tolist() == ref_labels.tolist()
        assert _hex(margin) == _hex(ref_margin)
        assert np.array_equal(hvd._oracle(X, hubs, labels)[0], reference_oracle(X, hubs)[0])
        report = hvd.oracle_report(X, labels, margin, hubs, table, radius, 5)
        assert report == reference_report(X, ref_labels, ref_margin, hubs, table, radius, 5, hvd.BOUNDARY_BAND)
