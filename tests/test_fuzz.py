"""Hypothesis tests.

Mutated point-set and diagram documents go through the CLI: every run
must end in an exit code of 0-5 (typed errors print one `error: <kind>:
...` line); no exception may escape `cli.main`.  Random small site sets
go through the screened lockstep build and the plain every-candidate
build, which must agree, and through `voronoi`, whose Delaunay faces
must be made of its adjacency pairs.
"""

import copy
import itertools
import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypervoronoi import (  # noqa: E402
    ModelPoint,
    ModelTag,
    build_complex,
    delaunay,
    hemisphere_site_map,
    klein_site_map,
    power,
    unit_ball,
    voronoi,
)
from hypervoronoi.cli import main  # noqa: E402
from hypervoronoi.documents import dump_json  # noqa: E402
from hypervoronoi.sampling import random_klein_points, rational_hemisphere_points  # noqa: E402
from util import assert_same_complex, reference_complex  # noqa: E402


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


@st.composite
def _sites(draw):
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):  # float Klein points, |x| < 1 as each |coordinate| <= 0.55
        coord = st.floats(-0.55, 0.55, allow_subnormal=False)
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=10 if d == 2 else 7, unique=True))
        return d, [klein_site_map(p, i) for i, p in enumerate(pts)]
    coord = st.fractions(Fraction(-3, 5), Fraction(3, 5), max_denominator=12)
    ts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8 if d == 2 else 5, unique=True))
    return d, [hemisphere_site_map(_hemisphere_point(t), i) for i, t in enumerate(ts)]


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_sites(), st.sampled_from([power.BLOCK_PAIRS, 1, 7]))
def test_screened_build_equals_plain_build(case, cap):
    d, sites = case
    with pytest.MonkeyPatch.context() as m:
        m.setattr(power, "BLOCK_PAIRS", cap)  # one block, one cell per block, a few cells
        cx = build_complex(sites, clip=unit_ball(d))
    assert_same_complex(cx, reference_complex(sites, unit_ball(d)))


@st.composite
def _point_sets_and_routes(draw):
    d = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        coord = st.floats(-0.55, 0.55, allow_subnormal=False)
        pts = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1, max_size=10 if d == 2 else 7, unique=True))
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
