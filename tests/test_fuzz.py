"""Hypothesis tests.

Mutated point-set and diagram documents, and exact inputs at the edges
of the number range, go through the CLI: every run must end in an exit
code of 0-5 (typed errors print one `error: <kind>: ...` line); no
exception may escape `cli.main`.  Random small site sets go through the
screened lockstep build and the plain every-candidate build, which must
agree, and through `voronoi`, whose Delaunay faces must be made of its
adjacency pairs.  Chains of exact cuts go through the integer homogeneous
clippers and the Fraction clippers they replaced, which must agree.  The
pair table must equal the Python radical hyperplane rows of the sites'
float64 images bit for bit.
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
from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hypervoronoi import (  # noqa: E402
    ModelPoint,
    ModelTag,
    build_complex,
    clipping,
    delaunay,
    hemisphere_site_map,
    klein_site_map,
    power,
    unit_ball,
    voronoi,
)
from hypervoronoi.cli import main  # noqa: E402
from hypervoronoi.documents import dump_json  # noqa: E402
from hypervoronoi.errors import CoincidentSites  # noqa: E402
from hypervoronoi.sampling import random_klein_points, rational_hemisphere_points  # noqa: E402
from hypervoronoi.power import Halfspace  # noqa: E402
from hypervoronoi.scalars import dot  # noqa: E402
from util import (  # noqa: E402
    assert_same_complex,
    canonical_halfspace,
    fraction_clip_polygon,
    fraction_clip_polyhedron,
    reference_complex,
    reference_radical_hyperplane,
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
        return d, [klein_site_map(p, i) for i, p in enumerate(pts)]
    coord = st.fractions(Fraction(-3, 5), Fraction(3, 5), max_denominator=12)
    ts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8 if d == 2 else 5, unique=True))
    return d, [hemisphere_site_map(_hemisphere_point(t), i) for i, t in enumerate(ts)]


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_sites(), st.sampled_from([power.BLOCK_PAIRS, 1, 7]))
def test_screened_build_equals_plain_build(case, cap):
    d, sites = case
    try:
        ref = reference_complex(sites, unit_ball(d))
    except CoincidentSites as e:  # a row that rounds to zero: the same typed error
        assert str(e).endswith(power.ROUNDS_TO_ZERO)
        ref = e
    with pytest.MonkeyPatch.context() as m:
        m.setattr(power, "BLOCK_PAIRS", cap)  # one block, one cell per block, a few cells
        if isinstance(ref, CoincidentSites):
            with pytest.raises(CoincidentSites, match=re.escape(str(ref))):
                build_complex(sites, clip=unit_ball(d))
            return
        cx = build_complex(sites, clip=unit_ball(d))
    assert_same_complex(cx, ref)


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
        assert replace(got, vertices=[clipping.to_affine(v) for v in got.vertices]) == want
        for v in got.vertices:  # primitive, Z > 0
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
    return d, [power.WeightedSite(r[:d], r[d], k) for k, r in enumerate(rows)]


def _hex(values):
    return [float(c).hex() for c in values]


@settings(max_examples=300, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(_float_site_sets(), st.data())
def test_pair_table_is_the_python_rows(case, data):
    """Every column of `_pair_rows` is the Python row of the sites' float64
    images (`reference_radical_hyperplane`), on cell i's side, bit for bit,
    i < j and i > j, or both raise a typed error; `radical_hyperplane`
    returns that row unless both sites are exact; `_side_table` gives
    `clipping._side_values` at the same vertices."""
    d, sites = case
    n = len(sites)
    images = [power.WeightedSite(tuple(map(float, s.center)), float(s.weight), s.origin_index) for s in sites]
    home, tags = np.array([(i, j) for i in range(n) for j in range(n) if i != j]).T
    arrays = power._site_arrays(sites, d)
    table = power._pair_rows(arrays, home, tags, False)
    scalar = st.floats(-2.0, 2.0) | st.sampled_from(EDGE_FLOATS)
    zero = st.sampled_from([0.0, -0.0])
    verts = data.draw(st.lists(st.tuples(*[scalar] * d) | st.tuples(*[zero] * d), min_size=1, max_size=6))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = power._side_table(np.array(verts, dtype=float).T[:, :, None], table).T.tolist()
    for p, (i, j) in enumerate(zip(home.tolist(), tags.tolist())):
        lo, hi = min(i, j), max(i, j)
        try:  # identical images, or a row that rounds to zero
            hs = reference_radical_hyperplane(images[lo], images[hi])
        except CoincidentSites:
            with pytest.raises(CoincidentSites, match=f"^sites {lo} and {hi}: {power.ROUNDS_TO_ZERO}$"):
                power._pair_rows(arrays, home[p:p + 1], tags[p:p + 1], True)
            continue
        side = hs if i < j else -hs
        row = table[:d + 1, p].tolist()
        assert _hex(row) == _hex(side.normal + (side.offset,))
        if not (sites[lo].integer_row and sites[hi].integer_row):
            public = power.radical_hyperplane(sites[lo], sites[hi])
            assert _hex(public.normal + (public.offset,)) == _hex(hs.normal + (hs.offset,))
        assert _hex(vals[p]) == _hex(clipping._side_values(verts, row[:d], row[d])[0])
