import ast
import itertools
import math
import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import (
    CoincidentSites,
    DuplicateSites,
    EmptySites,
    ExactArithmeticUnavailable,
    Halfspace,
    KLEIN_WEIGHT_SIGN_THRESHOLD,
    ModelPoint,
    ModelTag,
    WeightedSite,
    bisector,
    build_complex,
    convert,
    delaunay,
    detect_degeneracies,
    hemisphere_site_map,
    klein_site_map,
    lift_to_hemisphere,
    locate,
    power_distance,
    radical_hyperplane,
    voronoi,
)
from hypervoronoi import clipping, cutting
from hypervoronoi.documents import diagram_to_document
from hypervoronoi.sampling import ball_points, random_klein_points, rational_hemisphere_points
from hypervoronoi.scalars import norm_sq

from util import (
    ShapeBlock,
    assert_same_complex,
    ball_test,
    block_shapes,
    canonical_halfspace,
    cocircular_square,
    cut_and_build,
    face_area,
    least_first,
    linear_merge_near,
    plain_cut_block,
    polyhedron_facets,
    python_reader,
    random_klein_point,
    recorded_cells,
    reference_complex,
    reference_radical_hyperplane,
    unbounded_star_points,
    wheel_points,
)


def W(center, weight):
    return WeightedSite(tuple(center), weight)


# --- power distance -----------------------------------------------------------

def test_power_distance_examples():
    assert power_distance(W((0, 0), 0), (3, 4)) == 25
    assert power_distance(W((0, 0), -1), (0, 0)) == 1
    assert power_distance(W((1, 0), 0.25), (0, 0)) == 0.75


def test_power_distance_exact():
    s = W((Fraction(1, 3), Fraction(0)), Fraction(1, 7))
    assert power_distance(s, (Fraction(0), Fraction(0))) == Fraction(1, 9) - Fraction(1, 7)


# --- radical hyperplanes --------------------------------------------------------

def test_radical_equal_weights_is_perpendicular_bisector():
    hs = radical_hyperplane(W((-1, 0), 1), W((1, 0), 1))
    # zero set x1 = 0, site side <= 0
    assert hs.evaluate((0.0, 5.0)) == 0
    assert hs.evaluate((-1.0, 0.0)) < 0
    assert hs.evaluate((1.0, 0.0)) > 0


def test_radical_example_between_unit_balls():
    hs = radical_hyperplane(W((0, 0), 1), W((2, 0), 1))
    # x1 = 1
    assert hs.evaluate((1.0, -3.0)) == 0
    assert hs.evaluate((0.0, 0.0)) < 0


def test_radical_coincident_sites_rejected():
    with pytest.raises(CoincidentSites):
        radical_hyperplane(W((1, 2), 0.5), W((1, 2), 0.5))


def test_float_row_that_rounds_to_zero_names_the_pair():
    # distinct float sites whose normal's squares underflow, offset 0
    sites = [klein_site_map(p) for p in [(1e-170, 0.2), (2e-170, 0.2), (0.5, -0.1)]]
    with pytest.raises(CoincidentSites, match=f"^{cutting.ROUNDS_TO_ZERO}$"):
        radical_hyperplane(sites[0], sites[1])
    mixed = sites[:2] + [W((Fraction(1, 2), Fraction(0)), Fraction(1, 3))]
    wide = [klein_site_map(s.center + (0.0, 0.0)) for s in sites]
    # distinct sites, one exact, whose float64 images coincide
    twins = [W((0.1, 0.2), -1.0), W((Fraction(0.1) + Fraction(1, 10**40), Fraction(0.2)), -1), sites[2]]
    named = f"^sites 0 and 1: {cutting.ROUNDS_TO_ZERO}$"
    # the table, for cuts and facets and for d > 3's halfspaces
    for s in (sites, mixed, wide, twins):
        with pytest.raises(CoincidentSites, match=named):
            build_complex(s)


def test_radical_concentric_sites_constant():
    # equal centers, different weights: empty zero set; the constant
    # constraint excludes the smaller-weight (larger-power) site everywhere
    hs = radical_hyperplane(W((1, 2), 1), W((1, 2), 2))
    assert all(c == 0 for c in hs.normal)
    assert hs.evaluate((9.0, 9.0)) > 0  # site i loses everywhere
    hs_rev = radical_hyperplane(W((1, 2), 2), W((1, 2), 1))
    assert hs_rev.evaluate((9.0, 9.0)) < 0  # larger-weight site wins everywhere


def test_radical_is_square_root_free_exact():
    a = W((Fraction(1, 3), Fraction(2, 5)), Fraction(-1, 2))
    b = W((Fraction(0), Fraction(1, 5)), Fraction(3, 4))
    hs = radical_hyperplane(a, b)
    assert all(isinstance(c, int) for c in hs.normal + (hs.offset,))
    g = math.gcd(math.gcd(abs(hs.normal[0]), abs(hs.normal[1])), abs(hs.offset))
    assert g == 1


def _random_exact_sites(rng, d, count):
    def scalar():
        return Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**int(rng.integers(1, 9)))))

    return [W(tuple(scalar() for _ in range(d)), scalar()) for _ in range(count)]


@pytest.mark.parametrize("d", [2, 3])
def test_integer_radical_rows_equal_the_rational_rows(d):
    rng = np.random.default_rng(40 + d)
    sites = _random_exact_sites(rng, d, 12)
    sites += [W((Fraction(3, 7),) * d, Fraction(1, 9)), W((Fraction(3, 7),) * d, Fraction(-5, 2))]  # concentric
    sites += [W((2,) * d, 3), W((Fraction(4, 2),) * d, Fraction(6, 2))]  # int and Fraction, coincident
    for s_i, s_j in itertools.permutations(sites, 2):
        if s_i.center == s_j.center and s_i.weight == s_j.weight:
            with pytest.raises(CoincidentSites):
                radical_hyperplane(s_i, s_j)
            continue
        hs = radical_hyperplane(s_i, s_j)
        assert hs == reference_radical_hyperplane(s_i, s_j)
        assert all(type(c) is int for c in hs.normal + (hs.offset,))
        if s_i.center == s_j.center:  # the concentric pair's constant row
            assert hs.normal == (0,) * d and abs(hs.offset) == 1


@pytest.mark.parametrize("d, n", [(2, 40), (3, 15), (4, 8)])
def test_non_exact_build_is_the_build_on_float_images(d, n):
    """Sites that are not all exact, here hemisphere sites of which every
    other one is exact, are built as their float64 images: the same
    complex but for `sites`, so unit-normal halfspaces throughout."""
    for seed in range(3):
        pts = rational_hemisphere_points(n, d, seed=seed)
        pts = [p if k % 2 else tuple(map(float, p)) for k, p in enumerate(pts)]
        sites = [hemisphere_site_map(p) for p in pts]
        images = [W(tuple(map(float, s.center)), float(s.weight)) for s in sites]
        cx, cells = cut_and_build(sites)
        assert cx.sites == sites
        assert_same_complex((replace(cx, sites=images), cells), cut_and_build(images))


def test_canonical_halfspace_float_unit_normal():
    hs = canonical_halfspace(Halfspace((3.0, 4.0), 10.0))
    assert math.hypot(*hs.normal) == pytest.approx(1.0)
    assert hs.offset == pytest.approx(2.0)


# --- site maps -------------------------------------------------------------------

def test_klein_site_map_origin():
    s = klein_site_map((0.0, 0.0))
    assert s.center == (0.0, 0.0)
    assert s.weight == -1.0


def test_klein_site_map_half():
    s = klein_site_map((0.5, 0.0))
    assert s.center[0] == pytest.approx(0.5 / (2 * math.sqrt(0.75)), abs=1e-15)
    assert s.weight == pytest.approx(0.25 / 3 - 1 / math.sqrt(0.75), abs=1e-12)
    assert s.weight == pytest.approx(-1.0713672050459184, abs=1e-12)


def test_klein_weight_sign_threshold_by_bisection():
    # weight(t) with t = |p|^2 changes sign at 4 (sqrt(5) - 2)
    def weight_at(t):
        return t / (4 * (1 - t)) - 1 / math.sqrt(1 - t)

    lo, hi = 0.5, 0.99
    assert weight_at(lo) < 0 < weight_at(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if weight_at(mid) < 0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    assert abs(root - KLEIN_WEIGHT_SIGN_THRESHOLD) < 1e-12
    assert abs(root - 4 * (math.sqrt(5) - 2)) < 1e-12
    assert KLEIN_WEIGHT_SIGN_THRESHOLD == pytest.approx(0.944272, abs=5e-7)
    # and the mapped weights respect the sign on both sides
    for t, sign in ((root - 1e-6, -1), (root + 1e-6, +1)):
        w = klein_site_map((math.sqrt(t), 0.0)).weight
        assert math.copysign(1, w) == sign


def test_hemisphere_site_map_pole():
    s = hemisphere_site_map((1.0, 0.0, 0.0))
    assert s.center == (0.0, 0.0)
    assert s.weight == -1.0  # oracle-resolved sign: w = <c,c> - 1/p0


def test_hemisphere_site_map_weight_sign_regression():
    # The radical hyperplane of two mapped sites must carry the constant
    # 1/p0 - 1/q0 (the projected bisector), which pins w = <c,c> - 1/p0;
    # the printed "+" sign yields the negated constant and fails this.
    p = (Fraction(4, 5), Fraction(3, 5), Fraction(0))
    q = (Fraction(12, 13), Fraction(3, 13), Fraction(4, 13))
    hs = radical_hyperplane(hemisphere_site_map(p), hemisphere_site_map(q))
    # reference halfspace straight from the projected bisector equation
    n = tuple(qi / q[0] - pi / p[0] for pi, qi in zip(p[1:], q[1:]))
    off = Fraction(1, 1) / p[0] - Fraction(1, 1) / q[0]
    ref = canonical_halfspace(Halfspace(n, off))
    assert hs == ref


def test_site_maps_agree_under_vertical_lift():
    rng = np.random.default_rng(97)
    for _ in range(50):
        x = random_klein_point(rng).coords
        a = klein_site_map(x)
        b = hemisphere_site_map(lift_to_hemisphere(x))
        assert a.center == pytest.approx(b.center, abs=1e-14)
        assert a.weight == pytest.approx(b.weight, abs=1e-13)


def test_klein_site_map_exact_requires_perfect_square():
    with pytest.raises(ExactArithmeticUnavailable):
        klein_site_map((Fraction(1, 3), Fraction(0)))
    s = klein_site_map((Fraction(3, 5), Fraction(0)))
    assert s.center == (Fraction(3, 8), Fraction(0))


# --- radical/bisector coincidence -------------------------------------------------

def parallel_within(u, v, tol):
    u = np.asarray([float(c) for c in u])
    v = np.asarray([float(c) for c in v])
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    return min(np.abs(u - v).max(), np.abs(u + v).max()) <= tol


def test_klein_radical_matches_bisector():
    rng = np.random.default_rng(101)
    for _ in range(200):
        p, q = random_klein_point(rng), random_klein_point(rng)
        if p.coords == q.coords:
            continue
        hs = radical_hyperplane(klein_site_map(p.coords), klein_site_map(q.coords))
        s = bisector(p, q)
        assert parallel_within(hs.normal + (hs.offset,), s.a + (s.b,), 1e-10)


def test_hemisphere_radical_matches_bisector():
    rng = np.random.default_rng(103)
    for _ in range(200):
        p, q = random_klein_point(rng), random_klein_point(rng)
        if p.coords == q.coords:
            continue
        hp = convert(p, ModelTag.HEMISPHERE)
        hq = convert(q, ModelTag.HEMISPHERE)
        hs = radical_hyperplane(hemisphere_site_map(hp.coords), hemisphere_site_map(hq.coords))
        s = bisector(hp, hq)  # ambient coefficients (0, a..., b)
        assert parallel_within(hs.normal + (hs.offset,), s.a[1:] + (s.b,), 1e-10)


# --- locate ------------------------------------------------------------------------

def test_locate_single_site():
    assert locate((0.5, 0.5), [W((0, 0), 0)]) == (0, (0,))


def test_locate_tie_on_radical_hyperplane():
    sites = [W((-1, 0), 0), W((1, 0), 0)]
    idx, ties = locate((0.0, 3.0), sites)
    assert idx == 0 and ties == (0, 1)


def test_locate_empty():
    with pytest.raises(EmptySites):
        locate((0.0, 0.0), [])


def test_locate_matches_exact_recomputation_high_dimension():
    # self-oracle at higher precision: redo the argmin in exact rationals
    rng = np.random.default_rng(107)
    d, n = 6, 100
    sites = [
        W(tuple(rng.uniform(-1, 1, d)), float(rng.uniform(-0.5, 0.5)))
        for _ in range(n)
    ]
    exact_sites = [
        W(tuple(Fraction(c) for c in s.center), Fraction(s.weight))
        for s in sites
    ]
    for _ in range(50):
        x = tuple(rng.uniform(-1, 1, d))
        idx, _ = locate(x, sites)
        xq = tuple(Fraction(c) for c in x)
        powers = [power_distance(s, xq) for s in exact_sites]
        assert idx == powers.index(min(powers))


def test_locate_exact_ties():
    sites = [
        W((Fraction(-1), Fraction(0)), Fraction(0)),
        W((Fraction(1), Fraction(0)), Fraction(0)),
    ]
    idx, ties = locate((Fraction(0), Fraction(7)), sites)
    assert ties == (0, 1)


# --- complex construction -----------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_single_site_complex_is_whole_ball(d):
    cx = build_complex([W((0.1, 0.2, 0.0)[:d], -1.0)])
    assert len(cx.cells) == 1
    assert not cx.cells[0].empty
    assert cx.adjacency == set()


def _sites_on_axis(xs, d, scalar):
    return [W((scalar(x),) + (scalar(0),) * (d - 1), scalar(0)) for x in xs]


@pytest.mark.parametrize("scalar", [Fraction, float])
def test_cell_meeting_the_ball_inside_a_face_is_not_empty(scalar):
    # cell 0 holds the centre; cell 1 (x >= 4/5) meets the ball inside a
    # face, cell 2 (x >= 31/10) stays 2.1 away from it
    sites = _sites_on_axis((0, Fraction(8, 5), Fraction(23, 5)), 3, scalar)
    cx = build_complex(sites)
    assert [cell.empty for cell in cx.cells] == [False, False, True]


@pytest.mark.parametrize("scalar", [Fraction, float])
@pytest.mark.parametrize("d", [2, 3])
def test_cell_in_the_window_that_misses_the_ball_is_empty(d, scalar):
    # cell 1 (coordinate sum >= 3d/4) holds a corner of the window, but its
    # facet comes no closer to the centre than sqrt(d) 3/4 > 1
    sites = [W((scalar(0),) * d, scalar(0)), W((scalar(3) / 2,) * d, scalar(0))]
    cx, cut = cut_and_build(sites)
    assert not cut[1].empty
    assert [cell.empty for cell in cx.cells] == [False, True]
    assert cx.adjacency == set() and cx.facets == {}
    assert [cell.halfspaces for cell in cx.cells] == [{}, {}]


def test_two_equal_sites_split_by_perpendicular_bisector():
    cx = build_complex([W((-0.3, 0), -1), W((0.3, 0), -1)])
    assert cx.adjacency == {(0, 1)}
    seg = cx.facets[(0, 1)]
    for v in seg:
        assert abs(float(v[0])) < 1e-12  # the axis x = 0
    for cell in cx.cells:
        assert not cell.empty


def test_equal_center_site_loses_everywhere():
    cx = build_complex([W((0, 0), 1.0), W((0, 0), -1.0)])
    # site 0 has larger power everywhere (weight subtracts): cell 1 wins
    assert cx.cells[1].empty
    assert not cx.cells[0].empty


def test_duplicate_sites_rejected():
    with pytest.raises(DuplicateSites):
        build_complex([W((0, 0), 1), W((0, 0), 1)])


@pytest.mark.parametrize(
    "sites, pair",
    [
        # exact sites, keyed by their integer rows: one value as an int and as a Fraction
        ([W((0, Fraction(1, 2)), 1), W((Fraction(1, 3), 0), 0), W((Fraction(0), Fraction(2, 4)), Fraction(1))], (0, 2)),
        # and as a float: a mixed set finds it as Python equality does
        ([W((0, Fraction(1, 2)), Fraction(1, 4)), W((Fraction(1, 3), 0), 0), W((0.0, 0.5), 0.25)], (0, 2)),
        ([W((Fraction(1, 3), 0.25), 0), W((0.5, 0.0), 1), W((Fraction(1, 3), Fraction(1, 4)), 0.0)], (0, 2)),
    ],
)
def test_duplicate_sites_name_the_first_pair(sites, pair):
    with pytest.raises(DuplicateSites, match=f"sites {pair[0]} and {pair[1]} coincide"):
        build_complex(sites)
    # a site with another weight is another site
    build_complex(sites[:pair[1]] + [W(sites[pair[1]].center, Fraction(1, 9))])


def test_cells_win_power_minimization():
    # brute-force oracle over 10^4 samples: argmin power == containing cell
    pts = random_klein_points(16, seed=5)
    sites = [klein_site_map(p) for p in pts]
    cx = build_complex(sites)
    X = ball_points(1234, 10_000, 2)
    C = np.array([s.center for s in sites])
    Wt = np.array([float(s.weight) for s in sites])
    labels = np.argmin(((X[:, None, :] - C[None]) ** 2).sum(-1) - Wt[None], axis=1)
    for i, cell in enumerate(cx.cells):
        mask = labels == i
        if not mask.any():
            continue
        A = np.array([hs.normal for hs in cell.halfspaces.values()], dtype=float)
        b = np.array([float(hs.offset) for hs in cell.halfspaces.values()])
        if len(b):
            assert float((X[mask] @ A.T + b[None, :]).max()) <= 1e-9


def test_adjacency_symmetric_and_facets_present():
    pts = random_klein_points(12, seed=9)
    sites = [klein_site_map(p) for p in pts]
    cx = build_complex(sites)
    for (i, j) in cx.adjacency:
        assert i < j
        assert (i, j) in cx.facets


def test_euler_relation_clipped_general_position():
    """The diagram clipped to the disk: each facet crossing the circle adds
    one boundary vertex and one arc, so V - E + F = 1 counts only the
    power vertices inside the disk, the adjacency and the non-empty cells."""
    for n in (4, 9, 17, 32, 200):
        for seed in range(1, 6):
            sites = [klein_site_map(p) for p in random_klein_points(n, seed=seed)]
            cx = build_complex(sites)
            V = sum(1 for v in cx.power_vertices if norm_sq(v.point) < 1)
            E = len(cx.adjacency)
            F = sum(1 for c in cx.cells if not c.empty)
            assert V - E + F == 1, (n, seed, V, E, F)


def test_rational_mode_determinism():
    pts = rational_hemisphere_points(10, seed=3)
    runs = []
    for _ in range(2):
        sites = [hemisphere_site_map(p) for p in pts]
        cx = build_complex(sites)
        table = tuple(
            (i, j, cx.cells[i].halfspaces[j].normal, cx.cells[i].halfspaces[j].offset)
            for i in range(len(cx.cells))
            for j in sorted(cx.cells[i].halfspaces)
        )
        runs.append(table)
    assert runs[0] == runs[1]
    flat = [c for entry in runs[0] for c in entry[2] + (entry[3],)]
    assert all(isinstance(c, int) for c in flat)


def test_exact_pipeline_geometry_is_rational():
    pts = rational_hemisphere_points(6, seed=8)
    sites = [hemisphere_site_map(p) for p in pts]
    cx = build_complex(sites)
    for v in cx.power_vertices:
        assert all(isinstance(c, (int, Fraction)) for c in v.point)


def test_three_dimensional_cells():
    rng = np.random.default_rng(127)
    pts = []
    while len(pts) < 6:
        x = rng.uniform(-0.6, 0.6, 3)
        if float(x @ x) < 0.36:
            pts.append(tuple(float(c) for c in x))
    sites = [klein_site_map(p) for p in pts]
    cx = build_complex(sites)
    assert cx.dimension == 3
    assert all(not cell.empty for cell in cx.cells)
    # oracle agreement on samples
    X = ball_points(55, 300, 3)
    C = np.array([s.center for s in sites])
    Wt = np.array([float(s.weight) for s in sites])
    labels = np.argmin(((X[:, None, :] - C[None]) ** 2).sum(-1) - Wt[None], axis=1)
    for x, lab in zip(X, labels):
        cell = cx.cells[int(lab)]
        assert all(float(hs.evaluate(tuple(x))) <= 1e-9 for hs in cell.halfspaces.values())
    for v in cx.power_vertices:
        assert len(v.sites) >= 4


def test_implicit_mode_high_dimension():
    rng = np.random.default_rng(131)
    sites = [
        W(tuple(rng.uniform(-1, 1, 5)), float(rng.uniform(-0.5, 0)))
        for _ in range(12)
    ]
    cx = build_complex(sites)
    assert not cx.explicit
    assert all(len(c.halfspaces) == 11 for c in cx.cells)


@pytest.mark.parametrize("d, n", [(2, 9), (3, 7), (4, 6)])
def test_cell_halfspaces_are_radical_hyperplanes(d, n):
    pts = rational_hemisphere_points(n, d, seed=29)
    sites = [hemisphere_site_map(p) for p in pts]
    cx = build_complex(sites)
    for i, cell in enumerate(cx.cells):
        if d == 4:  # implicit: every other site
            assert list(cell.halfspaces) == [j for j in range(n) if j != i]
        else:  # explicit: the neighbours across an in-ball facet, ascending
            assert list(cell.halfspaces) == sorted(
                b if a == i else a for a, b in cx.adjacency if i in (a, b)
            )
        for j, hs in cell.halfspaces.items():
            if i < j:
                assert hs == radical_hyperplane(sites[i], sites[j])
            else:
                other = radical_hyperplane(sites[j], sites[i])
                assert hs == Halfspace(tuple(-c for c in other.normal), -other.offset)
            assert all(isinstance(c, int) for c in hs.normal + (hs.offset,))
    assert cx.explicit == (d in (2, 3))


@pytest.mark.parametrize("cap", [cutting.BLOCK_PAIRS, 1, 7])
@pytest.mark.parametrize("scalar", ["float", "exact"])
@pytest.mark.parametrize("d, n", [(4, 9), (5, 7)])
def test_high_dimension_halfspaces_pair_up(monkeypatch, d, n, scalar, cap):
    """Above d = 3 every cell keeps n - 1 halfspaces keyed by plain ints,
    ascending; cell i's for j > i is the pair's radical hyperplane, bit for
    bit, and cell j's for i its negation, whatever the slice size."""
    pts = rational_hemisphere_points(n, d, seed=31)
    if scalar == "float":
        pts = [tuple(map(float, p)) for p in pts]
    sites = [hemisphere_site_map(p) for p in pts]
    monkeypatch.setattr(cutting, "BLOCK_PAIRS", cap)
    cx = build_complex(sites)
    for i, cell in enumerate(cx.cells):
        assert list(cell.halfspaces) == [j for j in range(n) if j != i]
        assert all(type(j) is int for j in cell.halfspaces)
        for j, hs in cell.halfspaces.items():
            if i < j:
                assert repr(hs) == repr(radical_hyperplane(sites[i], sites[j]))
            assert repr(cx.cells[j].halfspaces[i]) == repr(-hs)


def _window_fixtures(rng, d):
    """Sites whose heavy weights put the foot points far outside the ball."""
    for trial in range(12):
        spread = 10.0 ** int(rng.integers(-2, 4))
        sites = [
            W(tuple(rng.uniform(-1, 1, d)), float(rng.uniform(-spread, spread)))
            for _ in range(int(rng.integers(2, 9)))
        ]
        if trial % 2:  # exact: primitive integer pair coefficients
            sites = [
                W(tuple(Fraction(c) for c in s.center), Fraction(s.weight))
                for s in sites
            ]
        yield sites


@pytest.mark.parametrize("d", [2, 3])
def test_box_halfwidth_matches_scalar_loop(d):
    """The window is the unit ball's cube [-1, 1]^d: every cell vertex
    lies within 1 of the origin in the Chebyshev norm."""
    rng = np.random.default_rng(211 + d)
    for sites in _window_fixtures(rng, d):
        for cell in cut_and_build(sites)[1]:
            for v in cell.vertices:
                assert max(abs(float(c)) for c in v) <= 1


def _private_names_of(module, tree):
    """Every `_`-prefixed attribute of the package module `module` that a
    parsed module names: as `module._x`, or by `from .module import _x`."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == module:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == module and node.level == 1:
            found.update(alias.name for alias in node.names)
    return {name for name in found if name.startswith("_")}


def test_only_cutting_knows_a_cut_block_s_layout():
    # a block's padded arrays are read where they are written
    probe = "from . import cutting\nfrom .cutting import _Rings, pair_rows\ncutting._window(cutting.BLOCK_PAIRS)"
    assert _private_names_of("cutting", ast.parse(probe)) == {"_Rings", "_window"}
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hypervoronoi")
    named = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name != "cutting.py":
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                named[name] = _private_names_of("cutting", ast.parse(fh.read()))
    assert "power.py" in named and not any(named.values()), named


def _names_in(tree):
    """Every name a parsed module uses: bare, as an attribute, or imported."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_only_the_cut_names_a_window_builder_or_clipper():
    # the cut makes its own window and picks its own clipper
    window_and_clippers = {"box_polygon", "box_polyhedron", "clip_polygon", "clip_polyhedron"}
    probe = "from .clipping import clip_polygon as f\nclipping.box_polyhedron(1)\nbox_polygon\nclip_polyhedron = 1"
    assert _names_in(ast.parse(probe)) >= window_and_clippers
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "hypervoronoi")
    named = {}
    for name in sorted(os.listdir(src)):
        if name.endswith(".py") and name not in ("cutting.py", "clipping.py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                named[name] = _names_in(ast.parse(fh.read())) & window_and_clippers
    assert "power.py" in named and not any(named.values()), named


# --- filtered clipping against the plain sequential build ------------------------------

def _reversed_cut_block(*args):
    """Every candidate, farthest first."""
    return plain_cut_block(*args, reverse=True)


def _hemi(t):
    """Rational hemisphere point over the parameter t in the unit d-ball."""
    t = tuple(Fraction(c) for c in t)
    n2 = sum(c * c for c in t)
    return ((1 - n2) / (1 + n2),) + tuple(2 * c / (1 + n2) for c in t)


def _axis_points(d, s):
    """2d points at +-s on each axis: co-circular (co-spherical) in Klein."""
    out = []
    for k in range(d):
        for sign in (1, -1):
            t = [0] * d
            t[k] = sign * s
            out.append(_hemi(t))
    return out


EQUIVALENCE_FIXTURES = {
    "random": lambda d: rational_hemisphere_points(12 if d == 2 else 8, d, seed=17),
    "cocircular": lambda d: _axis_points(d, Fraction(1, 5)) + [_hemi((Fraction(3, 7),) * d)],
    "collinear": lambda d: [_hemi((Fraction(k, 5),) * d) for k in (-1, 0, 1)]
    + [_hemi((Fraction(1, 3),) + (Fraction(-1, 4),) * (d - 1))],
    "one": lambda d: [_hemi((Fraction(1, 9),) * d)],
    "two": lambda d: [_hemi((Fraction(1, 9),) * d), _hemi((Fraction(-2, 7),) + (0,) * (d - 1))],
}


@pytest.mark.parametrize("fixture", sorted(EQUIVALENCE_FIXTURES))
@pytest.mark.parametrize("scalar", ["float", "exact"])
@pytest.mark.parametrize("d", [2, 3])
def test_filtered_build_equals_plain_build(d, scalar, fixture):
    pts = EQUIVALENCE_FIXTURES[fixture](d)
    if scalar == "float":
        pts = [tuple(float(c) for c in p) for p in pts]
    sites = [hemisphere_site_map(p) for p in pts]
    ref = reference_complex(sites)
    got = cut_and_build(sites)
    assert_same_complex(got, ref)
    if fixture == "one":  # no candidate: the cell keeps its box
        box = clipping.box_polygon if d == 2 else clipping.box_polyhedron
        assert got[1] == [box(1)]


@pytest.mark.parametrize("feed", [1, 2, 32])
@pytest.mark.parametrize("scalar", ["float", "exact"])
@pytest.mark.parametrize("d", [2, 3])
def test_two_phase_feed_equals_plain_build(monkeypatch, d, scalar, feed):
    """Sets large enough for a many-level lifted tree: every cell fed its
    `feed` nearest, then what its query keeps, builds what cutting by every
    candidate builds."""
    n = {("float", 2): 120, ("float", 3): 50, ("exact", 2): 60, ("exact", 3): 24}[scalar, d]
    if scalar == "float":
        sites = [klein_site_map(p) for p in random_klein_points(n, d, seed=5)]
    else:
        sites = [hemisphere_site_map(p) for p in rational_hemisphere_points(n, d, seed=5)]
    monkeypatch.setitem(cutting.NEAREST_FEED, d, feed)
    kept = []
    beyond = cutting._Feed.beyond

    def counting(self, *args):
        q, j = beyond(self, *args)
        kept.append(len(q))
        return q, j

    monkeypatch.setattr(cutting._Feed, "beyond", counting)
    assert_same_complex(cut_and_build(sites), reference_complex(sites))
    if (scalar, d, feed) == ("float", 2, 32):  # once the 32 nearest have cut, few others can
        assert kept and sum(kept) < n


def test_nearest_first_orders_by_cell_distance_index():
    # ties in distance go by index; an index range too wide for one int64
    # key takes the three-sort path, with the same order
    rng = np.random.default_rng(4)
    q = rng.integers(0, 5, 300)
    j = rng.permutation(300)
    dist = rng.choice([0.0, 0.25, 1e-300, 2.0, np.inf], 300)
    want = sorted(zip(q.tolist(), dist.tolist(), j.tolist()))
    for n in (300, 1 << 60):
        got = cutting._nearest_first(q, j, dist, n)
        assert list(zip(got[0].tolist(), got[2].tolist(), got[1].tolist())) == want


@pytest.mark.parametrize("fixture", sorted(EQUIVALENCE_FIXTURES))
@pytest.mark.parametrize("d", [2, 3])
def test_exact_documents_do_not_depend_on_cut_order(monkeypatch, d, fixture):
    pts = [ModelPoint(ModelTag.HEMISPHERE, p) for p in EQUIVALENCE_FIXTURES[fixture](d)]

    def document():
        with recorded_cells() as cells:
            dia = voronoi(pts, route="hemisphere")
        doc = diagram_to_document(dia, delaunay(dia), detect_degeneracies(dia))
        # a polygon's ring is the cell's, not the document's; a polyhedron's
        # vertex table is in cut order
        return doc, cells if d == 2 else None

    nearest_first = document()
    with monkeypatch.context() as m:
        m.setattr(cutting, "_cut_block", _reversed_cut_block)
        assert document() == nearest_first


@pytest.mark.parametrize("fixture", ["random", "cocircular"])
@pytest.mark.parametrize("scalar", ["float", "exact"])
@pytest.mark.parametrize("d", [2, 3])
def test_build_over_several_blocks_equals_one_block(monkeypatch, d, scalar, fixture):
    pts = EQUIVALENCE_FIXTURES[fixture](d)
    if scalar == "float":
        pts = [tuple(float(c) for c in p) for p in pts]
    sites = [hemisphere_site_map(p) for p in pts]
    n = len(sites)
    blocks = []
    cut_block = cutting._cut_block

    def counting(window, home, *rest):
        blocks.append(len(home))
        return cut_block(window, home, *rest)

    # feed 2: every cell is fed its two nearest, then its lifted query's
    for feed in (cutting.NEAREST_FEED[d], 2):
        monkeypatch.setitem(cutting.NEAREST_FEED, d, feed)
        k = cutting._Feed(cutting.site_arrays(sites, d), feed, False).k  # first candidates per cell
        one = cut_and_build(sites)
        with monkeypatch.context() as m:
            m.setattr(cutting, "_cut_block", counting)
            for cap in (1, k, 3 * k - 1):  # one cell per block, then two
                blocks.clear()
                m.setattr(cutting, "BLOCK_PAIRS", cap)
                got = cut_and_build(sites)
                assert sum(blocks) == n and len(blocks) > 1
                assert max(blocks) == max(1, cap // k)
                assert_same_complex(got, one)


@pytest.mark.parametrize("d", [2, 3])
def test_candidates_come_nearest_first(monkeypatch, d):
    # four sites at one distance from site 0 tie; ties go by index
    axis = [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]
    pts = [(0.0,) * d] + [p + (0.0,) * (d - 2) for p in axis] + random_klein_points(6, d, seed=3)
    sites = [klein_site_map(p) for p in pts]
    n = len(sites)
    homes, first, ran = [], {}, {}  # blocks, first candidates and cuts that ran per cell
    cut_block, nearest = cutting._cut_block, cutting._Feed.nearest

    def recording_block(window, home, *rest):
        homes.append(home)
        return cut_block(window, home, *rest)

    def recording_nearest(self, home):
        q, j = nearest(self, home)
        for c, i in enumerate(home.tolist()):
            first[i] = j[q == c].tolist()
        return q, j

    def recording(cut):
        def wrapped(self, cs, R, tags):
            for c, j in zip(cs.tolist(), tags.tolist()):
                ran[int(homes[-1][c])].append(j)
            return cut(self, cs, R, tags)
        return wrapped

    monkeypatch.setattr(cutting, "_cut_block", recording_block)
    monkeypatch.setattr(cutting._Feed, "nearest", recording_nearest)
    for cls in (cutting._Rings, cutting._Polyhedra, cutting._Cells):
        monkeypatch.setattr(cls, "cut", recording(cls.cut))
    # feed 2: the tied four straddle the first candidates and the lifted query's
    for feed in (cutting.NEAREST_FEED[d], 2):
        monkeypatch.setitem(cutting.NEAREST_FEED, d, feed)
        k = cutting._Feed(cutting.site_arrays(sites, d), feed, True).k
        homes.clear()
        ran.update((i, []) for i in range(n))
        monkeypatch.setattr(cutting, "BLOCK_PAIRS", 4 * k)  # three blocks
        build_complex(sites)
        assert len(homes) == 3 and len(first) == n
        for i in range(n):
            dist = [sum((a - b) ** 2 for a, b in zip(sites[i].center, s.center)) for s in sites]
            order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[j], j))
            assert first[i] == order[:k]
            assert ran[i] == sorted(ran[i], key=order.index) and len(set(ran[i])) == len(ran[i])
        assert [j for j in ran[0] if j in (1, 2, 3, 4)] == [1, 2, 3, 4]


def test_integer_ball_test_equals_the_rational_one():
    # `util.ball_test` on Fractions is exact: the reference
    rng = np.random.default_rng(12)

    def rational(size, scale):
        nums, dens = rng.integers(-scale, scale, size), rng.integers(1, 40, size)
        return tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens))

    hits = 0
    for _ in range(200):
        radius = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 9)))  # in the points' units
        points = [tuple(c / radius for c in rational(2, 60)) for _ in range(6)]
        points.append((Fraction(1, 7), Fraction(1, 7)))  # inside
        inside, meets = clipping.integer_ball_test([clipping.to_homogeneous(p) for p in points])
        want_inside, want_meets = ball_test(points)
        assert inside == want_inside
        for k, j in itertools.permutations(range(len(points)), 2):
            if not (inside[k] or inside[j]):  # `meets` is asked only then
                assert meets(k, j) == want_meets(k, j)
                hits += meets(k, j)
    assert hits > 0  # segments that pass the ball between two outside ends


@pytest.mark.parametrize("d, n", [(2, 30), (3, 15)])
def test_exact_route_cuts_integer_homogeneous_vertices(monkeypatch, d, n):
    # the speed of the exact route rests on this: no Fraction reaches the clipper
    name = "clip_polygon" if d == 2 else "clip_polyhedron"
    clip = getattr(clipping, name)
    seen = []

    def integer_only(shape, normal, offset, tag):
        out = clip(shape, normal, offset, tag)
        for vertices in (shape.vertices, out.vertices):  # a polyhedron's dead vertices are None
            assert all(len(v) == d + 1 and all(type(c) is int for c in v) for v in vertices if v is not None)
        seen.append(len(shape.vertices))
        return out

    monkeypatch.setattr(clipping, name, integer_only)
    pts = [ModelPoint(ModelTag.HEMISPHERE, p) for p in rational_hemisphere_points(n, d, seed=1)]
    dia = voronoi(pts, route="hemisphere")
    assert len(seen) > n and all(seen)
    # the cells are read in Fractions
    points = [v for facet in dia.complex.facets.values() for v in facet]
    points += [v.point for v in dia.complex.power_vertices]
    assert points and all(isinstance(c, Fraction) for v in points for c in v)


def _integer_box(h):
    """The square [-h, h]^2 on integer homogeneous vertices: the exact
    route's window, whose cuts `_Cells` asks `halfspace` for."""
    box = clipping.box_polygon(h)
    return replace(box, vertices=[clipping.to_homogeneous(v) for v in box.vertices])


def test_clip_screen_keeps_non_finite_candidates():
    # huge exact coefficients can float to inf or nan: such a row is never skipped
    hs = Halfspace((2, 0), -1)
    box = _integer_box(2)
    want = clipping.clip_polygon(box, hs.normal, hs.offset, 7)
    for bad in ([math.inf, 0.0, -0.5], [math.nan, 0.0, 0.0], [1e308, 1e308, 0.0], [0.0, 0.0, -math.inf]):
        for scale in ([1.0, 0.5], [math.inf, math.inf]):
            R = np.array([bad + scale]).T  # one column: [normal | offset | s1, s0]
            cells = cutting._Cells(box, 1, lambda c, j: hs)
            cutting._lockstep(cells, np.array([0]), np.array([7]), R)
            assert block_shapes(cells) == [want]


def test_clip_screen_skips_only_containing_halfspaces(monkeypatch):
    calls = []
    clip = clipping.clip_polygon

    def counting_clip(shape, normal, offset, tag):
        calls.append(tag)
        return clip(shape, normal, offset, tag)

    far = Halfspace((1, 0), -10)  # x <= 10 contains the box
    cut = Halfspace((2, 0), -1)  # x <= 1/2 cuts it
    gone = Halfspace((1, 0), 10)  # x <= -10 misses it
    planes = (far, cut, gone)
    made = []

    def halfspace(c, j):
        made.append((c, j))
        return planes[j]

    # one block: cell 0 tries far, cut; cell 1 cut, far; cell 2 gone, cut
    cell, tags = np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 1, 0, 2, 1])
    rows = np.array([[*planes[j].normal, planes[j].offset] for j in tags], dtype=float)
    R = np.vstack((rows.T, np.abs(rows[:, :-1]).sum(axis=1), np.abs(rows[:, -1])))
    box = _integer_box(2)
    monkeypatch.setattr(clipping, "clip_polygon", counting_clip)
    cells = cutting._Cells(box, 3, halfspace)
    cutting._lockstep(cells, cell, tags, R)
    got = block_shapes(cells)
    assert calls == [1, 1, 2]  # each cell's first live pair, in lockstep
    assert made == [(0, 1), (1, 1), (2, 2)]  # skipped candidates are never asked for
    half = clip(box, (2, 0), -1, 1)
    assert got[:2] == [half, half]
    assert got[2].empty  # an empty cell cuts no more


# --- merging near points -------------------------------------------------------------

def _grid_sequence(rng, tol, d):
    """Clustered points with exact-tol gaps, bucket edges and sign changes."""
    pts = []
    step = tol if tol else 0.125
    for _ in range(12):
        base = rng.integers(-4, 5, d) * 2 * step  # a bucket edge
        for _ in range(int(rng.integers(1, 6))):
            off = rng.choice([0.0, step, -step, step / 2, -1e-30, 1e-30, 2 * step], d)
            pts.append(tuple(float(c) for c in base + off))
        pts.append(tuple(float(c) for c in rng.uniform(-5 * step, 5 * step, d)))
    pts += [(step,) + (0.0,) * (d - 1), (-1e-30,) + (-0.0,) * (d - 1), (0.0,) * d]
    order = rng.permutation(len(pts))
    return [pts[k] for k in order]


def _every_other(calls):
    """An `accept` that records its calls and refuses every other one."""
    def accept(point, union):
        calls.append((point, sorted(union)))
        return len(calls) % 2 == 0
    return accept


# The two tests below are named for the grid index the array merge
# replaced; they test `merge_near` on that index's inputs.

@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.1, 0.25])
@pytest.mark.parametrize("d", [2, 3])
def test_grid_index_matches_linear_first_match(tol, d):
    # each item joins the least-index group within tol, not the nearest; a
    # refused item leads a group of its own, which later items can join
    rng = np.random.default_rng(int(tol * 1e12) + d)
    for trial in range(20):
        pts = _grid_sequence(rng, tol, d)
        items = [(p, frozenset((k, k % 7 + 1000))) for k, p in enumerate(pts)]
        got = clipping.merge_near(items, tol)
        assert repr(got) == repr(linear_merge_near(items, tol))
        calls, want_calls = [], []
        got = clipping.merge_near(items, tol, _every_other(calls))
        assert repr(got) == repr(linear_merge_near(items, tol, _every_other(want_calls)))
        assert calls == want_calls


def test_grid_index_pair_rounding_across_zero():
    # (tol, -1e-30) is within tol in float arithmetic, though its exact
    # difference is not
    tol = 1e-9
    items = [((tol, 0.5), {0}), ((-1e-30, 0.5), {1}), ((-1e-30, 0.5 + 2 * tol), {2})]
    assert clipping.merge_near(items, tol) == [[(tol, 0.5), {0, 1}], [(-1e-30, 0.5 + 2 * tol), {2}]]
    assert clipping.merge_near([], tol) == []


# --- the array reader of float polygons ------------------------------------------------

def _turned(pts, eps, seed):
    """Each point turned about the origin by eps times a random sign."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], len(pts))
    return [(x * math.cos(s * eps) - y * math.sin(s * eps), x * math.sin(s * eps) + y * math.cos(s * eps))
            for (x, y), s in zip(pts, signs.tolist())]


READER_FIXTURES = {
    **{f"wheel{m}-{eps:g}": (lambda m=m, eps=eps: _turned(wheel_points(m, 0.6), eps, m) + [(0.05, -0.02)])
       for m in (6, 8, 12) for eps in (1e-8, 1e-11, 1e-13, 1e-15)},
    # wide wheels: radical edges 1e-18 to 1e-14 long, which the length test drops
    **{f"wide-wheel{m}-{eps:g}": (lambda m=m, eps=eps: _turned(wheel_points(m, 0.9), eps, m))
       for m in (8, 12, 16) for eps in (0.0, 1e-13, 1e-15)},
    **{f"square-{eps:g}": (lambda eps=eps: _turned(cocircular_square(0.4), eps, 3) + [(0.0, 0.0)])
       for eps in (1e-8, 1e-12, 1e-15)},
    "star": lambda: unbounded_star_points(8, 0.998),
    "boundary": lambda: _turned(wheel_points(7, 0.9999999), 1e-9, 7) + [(0.999999, 0.0), (0.0, -0.99999)],
    "grid": lambda: [(a, b) for a in (-0.4, 0.0, 0.4) for b in (-0.4, 0.0, 0.4)],
    "negative-zero": lambda: [(-0.0, 0.3), (0.3, -0.0), (-0.0, -0.0), (-0.3, -0.0), (-0.0, -0.3)],
    "random": lambda: random_klein_points(60, 2, seed=9),
}


def _seen_from(site, clip):
    """The site whose diagram in the unit ball is the given site's diagram
    in the ball clip = (centre o, radius r), scaled: ((c - o) / r, w / r^2)."""
    o, r = clip
    return WeightedSite(tuple((c - float(x)) / float(r) for c, x in zip(site.center, o)), site.weight / float(r) ** 2)


# the unit ball, an off-centre ball, a small one: cells read at other places and sizes
SEEN_FROM = {2: [((0, 0), 1), ((Fraction(1, 3), -0.25), Fraction(7, 10)), ((0.0, -0.0), 0.1)],
             3: [((0, 0, 0), 1), ((Fraction(1, 3), -0.25, 0), Fraction(7, 10)), ((0.0, -0.0, 0.1), 0.3)]}


@pytest.mark.parametrize("fixture", sorted(READER_FIXTURES))
@pytest.mark.parametrize("clip", SEEN_FROM[2])
def test_array_reader_equals_python_reader(fixture, clip):
    # near-degenerate wheels and squares make short edges and grazing cuts
    sites = [_seen_from(klein_site_map(p), clip) for p in READER_FIXTURES[fixture]()]
    with python_reader():
        want = cut_and_build(sites)
    assert_same_complex(cut_and_build(sites), want)


# --- the array cut and reader of float polyhedra -------------------------------------

def _icosahedron(r):
    g = (1 + 5**0.5) / 2
    corners = [p for a in (-1, 1) for b in (-g, g) for p in ((0, a, b), (a, b, 0), (b, 0, a))]
    return [tuple(r * c / math.hypot(1, g) for c in p) for p in corners]


def _turned3(pts, eps, seed):
    """Each point turned about the z axis by eps times a random sign."""
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], len(pts))
    return [(x * math.cos(s * eps) - y * math.sin(s * eps), x * math.sin(s * eps) + y * math.cos(s * eps), z)
            for (x, y, z), s in zip(pts, signs.tolist())]


def _wheel3(m, r, h):
    """m points on a horizontal circle and two poles: degree > 3 vertices."""
    return [(x, y, 0.0) for x, y in wheel_points(m, r)] + [(0.0, 0.0, h), (0.0, 0.0, -h)]


POLYHEDRON_FIXTURES = {
    "grid": lambda: [(a, b, c) for a in (-0.4, 0.0, 0.4) for b in (-0.4, 0.0, 0.4) for c in (-0.4, 0.0, 0.4)],
    "cube": lambda: [(a, b, c) for a in (-0.3, 0.3) for b in (-0.3, 0.3) for c in (-0.3, 0.3)] + [(0.0, 0.0, 0.0)],
    "icosahedron": lambda: _icosahedron(0.6) + [(0.0, 0.0, 0.0)],
    **{f"wheel{m}-{eps:g}": (lambda m=m, eps=eps: _turned3(_wheel3(m, 0.9, 0.9), eps, m) + [(0.05, -0.02, 0.01)])
       for m in (8, 12) for eps in (0.0, 1e-11, 1e-15)},
    "negative-zero": lambda: [(-0.0, 0.3, 0.0), (0.3, -0.0, -0.0), (-0.0, -0.0, -0.0), (-0.3, -0.0, 0.2),
                              (-0.0, -0.3, -0.2)],
    "random": lambda: random_klein_points(60, 3, seed=9),
}


def _touching(poly, normal, offset):
    """Whether a cut leaves some face a kept part of one or two vertices."""
    vals = [None if v is None else sum(a * b for a, b in zip(normal, v)) + offset for v in poly.vertices]
    kept = [[k for k in face.ring if vals[k] <= 0] for face in poly.faces]
    return any(0 < len(k) < min(3, len(face.ring)) for k, face in zip(kept, poly.faces))


@pytest.mark.parametrize("fixture", sorted(POLYHEDRON_FIXTURES))
def test_float_polyhedra_leave_only_touching_cuts_to_the_clipper(monkeypatch, fixture):
    """`cutting._Polyhedra` cuts float polyhedra in numpy and leaves to
    `clipping.clip_polyhedron` only the cells whose cut touches a face at a
    vertex or an edge (its thin-vertex cleanup): none on random input, a
    few where vertices of degree > 3 lie on the cutting planes.  The
    builds equal the reference's, which cuts every cell by the clipper."""
    sites = [klein_site_map(p) for p in POLYHEDRON_FIXTURES[fixture]()]
    left = []
    clip = clipping.clip_polyhedron

    def counting(poly, normal, offset, tag):
        left.append(_touching(poly, normal, offset))
        return clip(poly, normal, offset, tag)

    with monkeypatch.context() as m:
        m.setattr(clipping, "clip_polyhedron", counting)
        got = cut_and_build(sites)
    assert all(left)
    if fixture in ("random", "grid", "cube"):
        assert not left
    assert_same_complex(got, reference_complex(sites))


@pytest.mark.parametrize("n, seed", [(50, 1), (200, 2)])
def test_float_polyhedra_are_cut_without_the_python_clipper(monkeypatch, n, seed):
    # a silent fall-back to the clipper would pass every equality test
    # and show only as lost speed
    def refuse(*args):
        raise AssertionError("clip_polyhedron called on a float build")

    monkeypatch.setattr(clipping, "clip_polyhedron", refuse)
    dia = voronoi([ModelPoint(ModelTag.KLEIN, p) for p in random_klein_points(n, 3, seed)])
    assert len(dia.complex.cells) == n and dia.complex.adjacency


@pytest.mark.parametrize("fixture", sorted(POLYHEDRON_FIXTURES))
@pytest.mark.parametrize("clip", SEEN_FROM[3])
def test_polyhedron_array_reader_equals_python_reader(monkeypatch, fixture, clip):
    """`cutting._Polyhedra.read` starts each block's rings where the Python
    reader does, and gives its emptiness, facets (first occurrences) and
    vertex candidates, by `repr` (so each candidate's frozenset is made as
    the Python reader makes it); the build equals the Python reader's.
    The sites are those the unit ball shows as the ball `clip` shows the
    fixture's (`_seen_from`)."""
    sites = [_seen_from(klein_site_map(p), clip) for p in POLYHEDRON_FIXTURES[fixture]()]
    read, blocks = cutting._Polyhedra.read, []

    def both(cells, first):
        polys = [least_first(p) for p in block_shapes(cells)]
        empty, found, candidates = ShapeBlock(block_shapes(cells)).read(first)
        got = read(cells, first)
        assert block_shapes(cells) == polys and repr(block_shapes(cells)) == repr(polys)
        facets, got_facets = {}, {}
        for key, facet in found:
            facets.setdefault(key, facet)
        for key, facet in got[1]:
            got_facets.setdefault(key, facet)
        assert got[0] == empty
        assert repr(got_facets) == repr(facets)
        assert repr(got[2]) == repr(candidates)
        blocks.append(len(polys))
        return got

    with monkeypatch.context() as m:
        m.setattr(cutting._Polyhedra, "read", both)
        got = cut_and_build(sites)
    assert sum(blocks) == len(sites)
    with python_reader():
        want = cut_and_build(sites)
    assert_same_complex(got, want)


def test_polyhedron_reader_takes_areas_at_the_bound_from_face_area(monkeypatch):
    # an area at FACET_MEASURE_TOL^2 or next to it is read as the reference `face_area` reads it
    cells = cutting._Polyhedra(clipping.box_polyhedron(1.0), 1)
    cells.cut(np.array([0]), np.array([[0.6], [0.8], [0.0], [-0.5], [0.0], [0.0]]), np.array([7]))
    cell = block_shapes(cells)[0]
    face = next(f for f in cell.faces if f.tag == 7)
    area = face_area([cell.vertices[k] for k in face.ring])
    for tol in (math.sqrt(area), math.nextafter(math.sqrt(area), 0.0), math.nextafter(math.sqrt(area), 1.0)):
        fresh = cutting._Polyhedra(clipping.box_polyhedron(1.0), 1)
        fresh.cut(np.array([0]), np.array([[0.6], [0.8], [0.0], [-0.5], [0.0], [0.0]]), np.array([7]))
        monkeypatch.setattr(cutting, "FACET_MEASURE_TOL", tol)
        _, found, _ = fresh.read(0)
        want = polyhedron_facets(block_shapes(fresh)[0])
        assert [((0, 7), facet) for _, facet in want] == found
