import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import (
    Ball,
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
    unit_ball,
    voronoi,
)
from hypervoronoi import clipping, power
from hypervoronoi.clipping import GridIndex
from hypervoronoi.documents import diagram_to_document, dump_json
from hypervoronoi.sampling import ball_points, random_klein_points, rational_hemisphere_points
from hypervoronoi.scalars import norm_sq

from util import (
    LinearIndex,
    assert_same_complex,
    canonical_halfspace,
    plain_cut_block,
    random_klein_point,
    reference_complex,
    reference_radical_hyperplane,
)


def W(center, weight, idx=-1):
    return WeightedSite(tuple(center), weight, idx)


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
    sites = [klein_site_map(p, i) for i, p in enumerate([(1e-170, 0.2), (2e-170, 0.2), (0.5, -0.1)])]
    with pytest.raises(CoincidentSites, match=f"^{power.ROUNDS_TO_ZERO}$"):
        radical_hyperplane(sites[0], sites[1])
    mixed = sites[:2] + [W((Fraction(1, 2), Fraction(0)), Fraction(1, 3), 2)]
    wide = [klein_site_map(s.center + (0.0, 0.0), i) for i, s in enumerate(sites)]
    # distinct sites, one exact, whose float64 images coincide
    twins = [W((0.1, 0.2), -1.0, 0), W((Fraction(0.1) + Fraction(1, 10**40), Fraction(0.2)), -1, 1), sites[2]]
    named = f"^sites 0 and 1: {power.ROUNDS_TO_ZERO}$"
    # the table, for cuts and facets and for d > 3's halfspaces
    for s, clip in ((sites, unit_ball(2)), (mixed, unit_ball(2)), (wide, unit_ball(4)), (twins, unit_ball(2))):
        with pytest.raises(CoincidentSites, match=named):
            build_complex(s, clip=clip)


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

    return [W(tuple(scalar() for _ in range(d)), scalar(), k) for k in range(count)]


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
        sites = [hemisphere_site_map(p, i) for i, p in enumerate(pts)]
        images = [W(tuple(map(float, s.center)), float(s.weight), s.origin_index) for s in sites]
        cx = build_complex(sites, clip=unit_ball(d))
        assert cx.sites == sites
        assert_same_complex(replace(cx, sites=images), build_complex(images, clip=unit_ball(d)))


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
    sites = [W((-1, 0), 0, 0), W((1, 0), 0, 1)]
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
        W(tuple(rng.uniform(-1, 1, d)), float(rng.uniform(-0.5, 0.5)), i)
        for i in range(n)
    ]
    exact_sites = [
        W(tuple(Fraction(c) for c in s.center), Fraction(s.weight), s.origin_index)
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
        W((Fraction(-1), Fraction(0)), Fraction(0), 0),
        W((Fraction(1), Fraction(0)), Fraction(0), 1),
    ]
    idx, ties = locate((Fraction(0), Fraction(7)), sites)
    assert ties == (0, 1)


# --- complex construction -----------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_single_site_complex_is_whole_ball(d):
    cx = build_complex([W((0.1, 0.2, 0.0)[:d], -1.0, 0)], clip=unit_ball(d))
    assert len(cx.cells) == 1
    assert not cx.cells[0].empty
    assert cx.adjacency == set()


def _sites_on_axis(xs, d, scalar):
    return [W((scalar(x),) + (scalar(0),) * (d - 1), scalar(0), k) for k, x in enumerate(xs)]


@pytest.mark.parametrize(
    "d, scalar", [(2, int), (2, float), (2, Fraction), (3, int), (3, Fraction), (3, float)]
)
def test_off_centre_clip_ball_is_measured_from_its_centre(d, scalar):
    # the bisector x = 5 runs through the centre of the clip ball
    sites = _sites_on_axis((4, 6, 20), d, scalar)
    cx = build_complex(sites[:2], clip=Ball((scalar(5),) + (scalar(0),) * (d - 1), scalar(1)))
    assert [cell.empty for cell in cx.cells] == [False, False]
    # centre (11/2, 0, ...) in cell 1; cell 0 (x <= 5) is 1/2 away from
    # it, cell 2 (x >= 13) 15/2
    centre = (scalar(11) / 2,) + (scalar(0),) * (d - 1)
    cx = build_complex(sites, clip=Ball(centre, scalar(1)))
    assert [cell.empty for cell in cx.cells] == [False, False, True]


@pytest.mark.parametrize("scalar", [Fraction, float])
def test_cell_meeting_the_ball_inside_a_face_is_not_empty(scalar):
    # cell 0 holds the centre; cell 1 (x >= 4/5) meets the ball inside a
    # face, cell 2 (x >= 31/10) stays 2.1 away from it
    sites = _sites_on_axis((0, Fraction(8, 5), Fraction(23, 5)), 3, scalar)
    cx = build_complex(sites, clip=Ball((0, 0, 0), 1))
    assert [cell.empty for cell in cx.cells] == [False, False, True]


@pytest.mark.parametrize("scalar", [Fraction, float])
@pytest.mark.parametrize("d", [2, 3])
def test_cell_in_the_window_that_misses_the_ball_is_empty(d, scalar):
    # cell 1 (coordinate sum >= 3d/4) holds a corner of the window, but its
    # facet comes no closer to the centre than sqrt(d) 3/4 > 1
    sites = [W((scalar(0),) * d, scalar(0), 0), W((scalar(3) / 2,) * d, scalar(0), 1)]
    cx = build_complex(sites, clip=unit_ball(d))
    assert not cx.cells[1].shape.empty
    assert [cell.empty for cell in cx.cells] == [False, True]
    assert cx.adjacency == set() and cx.facets == {}
    assert [cell.halfspaces for cell in cx.cells] == [{}, {}]


def test_two_equal_sites_split_by_perpendicular_bisector():
    cx = build_complex([W((-0.3, 0), -1, 0), W((0.3, 0), -1, 1)], clip=unit_ball(2))
    assert cx.adjacency == {(0, 1)}
    seg = cx.facets[(0, 1)]
    for v in seg:
        assert abs(float(v[0])) < 1e-12  # the axis x = 0
    for cell in cx.cells:
        assert not cell.empty


def test_equal_center_site_loses_everywhere():
    cx = build_complex([W((0, 0), 1.0, 0), W((0, 0), -1.0, 1)], clip=unit_ball(2))
    # site 0 has larger power everywhere (weight subtracts): cell 1 wins
    assert cx.cells[1].empty
    assert not cx.cells[0].empty


def test_duplicate_sites_rejected():
    with pytest.raises(DuplicateSites):
        build_complex([W((0, 0), 1, 0), W((0, 0), 1, 1)], clip=unit_ball(2))


def test_clip_ball_is_required():
    with pytest.raises(TypeError):
        build_complex([W((0, 0), 1, 0), W((1, 0), 1, 1)])


def test_cells_win_power_minimization():
    # brute-force oracle over 10^4 samples: argmin power == containing cell
    pts = random_klein_points(16, seed=5)
    sites = [klein_site_map(p, i) for i, p in enumerate(pts)]
    cx = build_complex(sites, clip=unit_ball(2))
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
    sites = [klein_site_map(p, i) for i, p in enumerate(pts)]
    cx = build_complex(sites, clip=unit_ball(2))
    for (i, j) in cx.adjacency:
        assert i < j
        assert (i, j) in cx.facets


def test_translation_covariance():
    rng = np.random.default_rng(109)
    sites = [
        W(tuple(rng.uniform(-1, 1, 2)), float(rng.uniform(-0.5, 0.5)), i)
        for i in range(8)
    ]
    shift = (1.75, -0.6)
    moved = [W((s.center[0] + shift[0], s.center[1] + shift[1]), s.weight, i) for i, s in enumerate(sites)]
    cx0 = build_complex(sites, clip=unit_ball(2))
    cx1 = build_complex(moved, clip=Ball(shift, 1))
    assert cx0.adjacency == cx1.adjacency
    assert [c.empty for c in cx0.cells] == [c.empty for c in cx1.cells]
    v0 = {frozenset(v.sites): np.asarray(v.point, dtype=float) for v in cx0.power_vertices}
    v1 = {frozenset(v.sites): np.asarray(v.point, dtype=float) for v in cx1.power_vertices}
    # the window is the ball's own cube, so it shifts with the ball
    assert set(v0) == set(v1)
    for key in v0:
        assert np.allclose(v0[key] + shift, v1[key], atol=1e-8)
    assert {key for key, v in v0.items() if v @ v < 1} == {
        key for key, v in v1.items() if (v - shift) @ (v - shift) < 1
    }


def test_euler_relation_clipped_general_position():
    """The diagram clipped to the disk: each facet crossing the circle adds
    one boundary vertex and one arc, so V - E + F = 1 counts only the
    power vertices inside the disk, the adjacency and the non-empty cells."""
    for n in (4, 9, 17, 32, 200):
        for seed in range(1, 6):
            sites = [klein_site_map(p, i) for i, p in enumerate(random_klein_points(n, seed=seed))]
            cx = build_complex(sites, clip=unit_ball(2))
            V = sum(1 for v in cx.power_vertices if norm_sq(v.point) < 1)
            E = len(cx.adjacency)
            F = sum(1 for c in cx.cells if not c.empty)
            assert V - E + F == 1, (n, seed, V, E, F)


def test_rational_mode_determinism():
    pts = rational_hemisphere_points(10, seed=3)
    runs = []
    for _ in range(2):
        sites = [hemisphere_site_map(p, i) for i, p in enumerate(pts)]
        cx = build_complex(sites, clip=unit_ball(2))
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
    sites = [hemisphere_site_map(p, i) for i, p in enumerate(pts)]
    cx = build_complex(sites, clip=unit_ball(2))
    for v in cx.power_vertices:
        assert all(isinstance(c, (int, Fraction)) for c in v.point)


def test_three_dimensional_cells():
    rng = np.random.default_rng(127)
    pts = []
    while len(pts) < 6:
        x = rng.uniform(-0.6, 0.6, 3)
        if float(x @ x) < 0.36:
            pts.append(tuple(float(c) for c in x))
    sites = [klein_site_map(p, i) for i, p in enumerate(pts)]
    cx = build_complex(sites, clip=unit_ball(3))
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
        W(tuple(rng.uniform(-1, 1, 5)), float(rng.uniform(-0.5, 0)), i)
        for i in range(12)
    ]
    cx = build_complex(sites, clip=unit_ball(5))
    assert not cx.explicit
    assert all(len(c.halfspaces) == 11 for c in cx.cells)


@pytest.mark.parametrize("d, n", [(2, 9), (3, 7), (4, 6)])
def test_cell_halfspaces_are_radical_hyperplanes(d, n):
    pts = rational_hemisphere_points(n, d, seed=29)
    sites = [hemisphere_site_map(p, i) for i, p in enumerate(pts)]
    cx = build_complex(sites, clip=unit_ball(d))
    for cell in cx.cells:
        i = cell.site_index
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


def _window_fixtures(rng, d):
    """Sites whose heavy weights put the foot points far outside the ball."""
    for trial in range(12):
        spread = 10.0 ** int(rng.integers(-2, 4))
        sites = [
            W(tuple(rng.uniform(-1, 1, d)), float(rng.uniform(-spread, spread)), i)
            for i in range(int(rng.integers(2, 9)))
        ]
        if trial % 2:  # exact: primitive integer pair coefficients
            sites = [
                W(tuple(Fraction(c) for c in s.center), Fraction(s.weight), s.origin_index)
                for s in sites
            ]
        yield sites


@pytest.mark.parametrize("d", [2, 3])
def test_box_halfwidth_matches_scalar_loop(d):
    rng = np.random.default_rng(211 + d)
    for sites in _window_fixtures(rng, d):
        # the clip ball's own cube, and every cell inside it (Chebyshev)
        clip = Ball(tuple(rng.uniform(-0.1, 0.1, d)), 1)
        cx = build_complex(sites, clip=clip)
        assert cx.box_halfwidth == float(clip.radius)
        for cell in cx.cells:
            for v in cell.shape.vertices:
                assert max(abs(float(c) - float(o)) for c, o in zip(v, clip.center)) <= cx.box_halfwidth


# --- filtered clipping against the plain sequential build ------------------------------

def _reversed_cut_block(shapes, cell, tags, R, halfspace, clip_fn):
    """Every candidate, farthest first."""
    return plain_cut_block(shapes, cell[::-1], tags[::-1], R, halfspace, clip_fn)


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
    sites = [hemisphere_site_map(p, i) for i, p in enumerate(pts)]
    ref = reference_complex(sites, unit_ball(d))
    cx = build_complex(sites, clip=unit_ball(d))
    assert_same_complex(cx, ref)
    if fixture == "one":  # no candidate: the cell keeps its box
        box = clipping.box_polygon if d == 2 else clipping.box_polyhedron
        assert cx.cells[0].shape == box(cx.box_halfwidth)


@pytest.mark.parametrize("fixture", sorted(EQUIVALENCE_FIXTURES))
@pytest.mark.parametrize("d", [2, 3])
def test_exact_documents_do_not_depend_on_cut_order(monkeypatch, d, fixture):
    pts = [ModelPoint(ModelTag.HEMISPHERE, p) for p in EQUIVALENCE_FIXTURES[fixture](d)]

    def document():
        dia = voronoi(pts, route="hemisphere")
        doc = dump_json(diagram_to_document(dia, delaunay(dia), detect_degeneracies(dia)))
        # a polygon's ring is the cell's, not the document's; a polyhedron's
        # vertex table is in cut order
        return doc, [cell.shape for cell in dia.complex.cells] if d == 2 else None

    nearest_first = document()
    with monkeypatch.context() as m:
        m.setattr(power, "_cut_block", _reversed_cut_block)
        assert document() == nearest_first


@pytest.mark.parametrize("fixture", ["random", "cocircular"])
@pytest.mark.parametrize("scalar", ["float", "exact"])
@pytest.mark.parametrize("d", [2, 3])
def test_build_over_several_blocks_equals_one_block(monkeypatch, d, scalar, fixture):
    pts = EQUIVALENCE_FIXTURES[fixture](d)
    if scalar == "float":
        pts = [tuple(float(c) for c in p) for p in pts]
    sites = [hemisphere_site_map(p, i) for i, p in enumerate(pts)]
    n = len(sites)
    one = build_complex(sites, clip=unit_ball(d))
    blocks = []
    cut_block = power._cut_block

    def counting(shapes, *rest):
        blocks.append(len(shapes))
        return cut_block(shapes, *rest)

    monkeypatch.setattr(power, "_cut_block", counting)
    for cap in (1, n - 1, 3 * (n - 1) - 1):  # one cell per block, then two
        blocks.clear()
        monkeypatch.setattr(power, "BLOCK_PAIRS", cap)
        cx = build_complex(sites, clip=unit_ball(d))
        assert sum(blocks) == n and len(blocks) > 1
        assert max(blocks) == max(1, cap // (n - 1))
        assert_same_complex(cx, one)


@pytest.mark.parametrize("d", [2, 3])
def test_candidates_come_nearest_first(monkeypatch, d):
    # four sites at one distance from site 0 tie; ties go by index
    axis = [(0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, -0.5)]
    pts = [(0.0,) * d] + [p + (0.0,) * (d - 2) for p in axis] + random_klein_points(6, d, seed=3)
    sites = [klein_site_map(p, i) for i, p in enumerate(pts)]
    seen = []
    cut_block = power._cut_block

    def recording(shapes, cell, tags, *rest):
        seen.extend(tags[cell == c].tolist() for c in range(len(shapes)))
        return cut_block(shapes, cell, tags, *rest)

    monkeypatch.setattr(power, "_cut_block", recording)
    monkeypatch.setattr(power, "BLOCK_PAIRS", 4 * (len(sites) - 1))  # three blocks
    build_complex(sites, clip=unit_ball(d))
    assert len(seen) == len(sites)
    for i, tags in enumerate(seen):
        dist = [sum((a - b) ** 2 for a, b in zip(sites[i].center, s.center)) for s in sites]
        assert tags == sorted((j for j in range(len(sites)) if j != i), key=lambda j: (dist[j], j))
    k = seen[0].index(1)
    assert seen[0][k:k + 4] == [1, 2, 3, 4]


def test_integer_ball_test_equals_the_rational_one():
    # `_ball_test` on Fractions is exact: the reference
    rng = np.random.default_rng(12)

    def rational(size, scale):
        nums, dens = rng.integers(-scale, scale, size), rng.integers(1, 40, size)
        return tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens))

    hits = 0
    for trial in range(200):
        radius = Fraction(int(rng.integers(1, 30)), int(rng.integers(1, 9)))
        clip = Ball(rational(2, 10) if trial % 2 else (0, 0), radius)
        points = [rational(2, 60) for _ in range(6)]
        points.append(tuple(c + Fraction(1, 7) for c in clip.center))  # inside
        inside, meets = power._integer_ball_test(points, clip)
        want_inside, want_meets = power._ball_test(points, clip)
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
        for vertices in (shape.vertices, out.vertices):
            assert all(len(v) == d + 1 and all(type(c) is int for c in v) for v in vertices)
        seen.append(len(shape.vertices))
        return out

    monkeypatch.setattr(clipping, name, integer_only)
    pts = [ModelPoint(ModelTag.HEMISPHERE, p) for p in rational_hemisphere_points(n, d, seed=1)]
    dia = voronoi(pts, route="hemisphere")
    assert len(seen) > n and all(seen)
    # the cells come out in Fractions
    assert all(isinstance(c, Fraction) for cell in dia.complex.cells for v in cell.shape.vertices for c in v)


def _integer_box(h):
    """The square [-h, h]^2 on integer homogeneous vertices: the exact
    route's window, whose cuts `_cut_block` asks `halfspace` for."""
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
            got = power._cut_block(
                [box], np.array([0]), np.array([7]), R, lambda c, j: hs, clipping.clip_polygon
            )
            assert got == [want]


def test_clip_screen_skips_only_containing_halfspaces():
    calls = []

    def counting_clip(shape, normal, offset, tag):
        calls.append(tag)
        return clipping.clip_polygon(shape, normal, offset, tag)

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
    got = power._cut_block([box] * 3, cell, tags, R, halfspace, counting_clip)
    assert calls == [1, 1, 2]  # each cell's first live pair, in lockstep
    assert made == [(0, 1), (1, 1), (2, 2)]  # skipped candidates are never asked for
    half = clipping.clip_polygon(box, (2, 0), -1, 1)
    assert got[:2] == [half, half]
    assert got[2].empty  # an empty cell cuts no more


# --- grid index -------------------------------------------------------------------------

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


@pytest.mark.parametrize("tol", [0.0, 1e-12, 1e-9, 0.1, 0.25])
@pytest.mark.parametrize("d", [2, 3])
def test_grid_index_matches_linear_first_match(tol, d):
    rng = np.random.default_rng(int(tol * 1e12) + d)
    for trial in range(20):
        grid, lin = GridIndex(tol), LinearIndex(tol)
        always_add = trial % 2 == 1  # the dual merge stores refused matches too
        for p in _grid_sequence(rng, tol, d):
            k = grid.find(p)
            assert k == lin.find(p)
            if k is None or always_add:
                assert grid.add(p) == lin.add(p)


def test_grid_index_pair_rounding_across_zero():
    # (tol, -1e-30) is within tol in float arithmetic; with buckets of width
    # tol the two would lie two buckets apart
    tol = 1e-9
    grid = GridIndex(tol)
    grid.add((tol, 0.5))
    assert grid.find((-1e-30, 0.5)) == 0
