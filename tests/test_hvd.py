import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import (
    DuplicateSites,
    EmptySites,
    ModelMismatch,
    ModelPoint,
    ModelTag,
    NoExplicitGeometry,
    ROUTE_HEMISPHERE,
    ROUTE_KLEIN,
    Curvature,
    convert,
    delaunay,
    detect_degeneracies,
    distance,
    nearest_site,
    verify,
    voronoi,
)
from hypervoronoi import clipping, conversions, cutting, hvd, models, power
from hypervoronoi.bisectors import ImplicitSurface, scale_surface, transport_surface
from hypervoronoi.cli import main
from hypervoronoi.hvd import _collinear_groups, sample_labels
from hypervoronoi.sampling import (
    random_klein_points,
    rational_hemisphere_points,
)

from util import (
    ALL_MODELS,
    cocircular_square,
    random_klein_point,
    recorded_cells,
    reference_collinear_groups,
    unbounded_star_points,
    wheel_points,
)


def kpts(raw):
    return [ModelPoint(ModelTag.KLEIN, p) for p in raw]


# --- pipeline basics -----------------------------------------------------------

@pytest.mark.parametrize("d", [2, 3])
def test_single_site_is_whole_space(d):
    dia = voronoi(kpts([(0.2, 0.1, 0.0)[:d]]))
    assert len(dia.complex.cells) == 1
    assert not dia.complex.cells[0].empty
    assert dia.boundaries == {}
    rep = verify(dia, 500, 1)
    assert rep.ok and rep.checked == 500


def test_symmetric_pair_boundary_is_axis():
    dia = voronoi(kpts([(0.5, 0.0), (-0.5, 0.0)]))
    assert set(dia.boundaries) == {(0, 1)}
    s = dia.boundaries[(0, 1)]
    assert s.lam == 0 and s.b == 0
    assert s.a[1] == 0
    assert float(s.evaluate((0.5, 0.0))) < 0  # site 0's side is negative
    rep = verify(dia, 2000, 7)
    assert rep.ok


def test_every_site_strictly_inside_its_cell():
    dia = voronoi(kpts(random_klein_points(16, seed=42)))
    for i, cell in enumerate(dia.complex.cells):
        assert not cell.empty
        x = dia.hub_points[i][1:]
        for hs in cell.halfspaces.values():
            assert float(hs.evaluate(x)) < 0


def test_boundaries_match_native_bisectors():
    from hypervoronoi import bisector

    pts = kpts(random_klein_points(8, seed=3))
    for model in ALL_MODELS:
        converted = [convert(p, model) for p in pts]
        dia = voronoi(converted)
        for (i, j), surface in dia.boundaries.items():
            native = bisector(converted[i], converted[j]).unit()
            moved = surface.unit()
            assert np.allclose(
                [float(c) for c in moved.coefficients()],
                [float(c) for c in native.coefficients()],
                atol=1e-9,
            )


def test_duplicate_sites_rejected():
    with pytest.raises(DuplicateSites):
        voronoi(kpts([(0.1, 0.1), (0.1, 0.1)]))


def test_mixed_models_rejected():
    with pytest.raises(ModelMismatch):
        voronoi([ModelPoint(ModelTag.KLEIN, (0.1, 0.0)),
                 ModelPoint(ModelTag.POINCARE, (0.2, 0.0))])


# --- nearest site oracle ----------------------------------------------------------

def test_nearest_site_at_a_site():
    pts = kpts(random_klein_points(10, seed=2))
    idx, ties = nearest_site(pts[4], pts)
    assert idx == 4 and ties == (4,)


def test_nearest_site_tie_on_bisector():
    pts = kpts([(0.5, 0.0), (-0.5, 0.0)])
    idx, ties = nearest_site(ModelPoint(ModelTag.KLEIN, (0.0, 0.3)), pts)
    assert idx == 0 and ties == (0, 1)


def test_nearest_site_invariant_under_isometry():
    rng = np.random.default_rng(151)
    d = 5
    raw = random_klein_points(50, d=d, seed=6)
    pts = kpts(raw)
    for _ in range(20):
        x = random_klein_point(rng, d=d, max_norm=0.8)
        idx, _ = nearest_site(x, pts)
        for model in (ModelTag.POINCARE, ModelTag.HYPERBOLOID):
            idx2, _ = nearest_site(
                convert(x, model), [convert(p, model) for p in pts]
            )
            assert idx2 == idx


# --- verification ------------------------------------------------------------------

def test_sixteen_site_oracle_agreement():
    dia = voronoi(kpts(random_klein_points(16, seed=42)))
    rep = verify(dia, 10_000, 42)
    assert rep.ok
    assert rep.agreement_rate == 1.0
    assert rep.excluded + rep.checked == 10_000


def test_verify_deterministic():
    dia = voronoi(kpts(random_klein_points(8, seed=10)))
    r1 = verify(dia, 1000, 5)
    r2 = verify(dia, 1000, 5)
    assert (r1.checked, r1.excluded, r1.disagreements, r1.max_gap) == (
        r2.checked,
        r2.excluded,
        r2.disagreements,
        r2.max_gap,
    )


def test_route_equivalence_labelwise():
    rng = np.random.default_rng(157)
    for trial in range(20):
        n = int(rng.integers(2, 33))
        pts = kpts(random_klein_points(n, seed=1000 + trial))
        dk = voronoi(pts, route=ROUTE_KLEIN)
        dh = voronoi(pts, route=ROUTE_HEMISPHERE)
        _, lk, ok_, mk = sample_labels(dk, 500, 77 + trial)
        _, lh, oh, mh = sample_labels(dh, 500, 77 + trial)
        keep = (mk > 1e-7) & (mh > 1e-7)
        assert (lk[keep] == lh[keep]).all()
        assert (lk[keep] == ok_[keep]).all()


def _rational_lift(q, den=10**9):
    """A rational hemisphere point whose Klein projection is within ~1/den of q."""
    n2 = sum(c * c for c in q)
    t = [Fraction(c / (1 + math.sqrt(1 - n2))).limit_denominator(den) for c in q]
    n2 = sum(c * c for c in t)
    return ((1 - n2) / (1 + n2),) + tuple(2 * c / (1 + n2) for c in t)


# Klein points near a degeneracy: a wheel whose radii are perturbed by
# 1e-7 (relative) around an off-centre site, co-circular sites, and the
# star whose ring's power vertices leave the disk
NEAR_DEGENERATE = {
    "wheel": [
        (x * (1 + 1e-7 * (k % 3 - 1)), y * (1 + 1e-7 * (k % 3 - 1)))
        for k, (x, y) in enumerate(wheel_points(8, 0.6))
    ]
    + [(0.05, 0.02)],
    "square": cocircular_square(0.4) + [(0.7, 0.1)],
    "star": unbounded_star_points(8, 0.998),
}


@pytest.mark.parametrize(
    "d, n, seed",
    [(2, 20, 1), (2, 20, 2), (2, 20, 3), (3, 20, 1), (3, 20, 2), (3, 20, 3), (3, 40, 1)]
    + [pytest.param(2, name, 1, id=name) for name in NEAR_DEGENERATE],
)
def test_float_klein_route_matches_exact_hemisphere_route(d, n, seed):
    """n: a count of random points, or a near-degenerate fixture's name."""
    if isinstance(n, str):
        hpts = [_rational_lift(q) for q in NEAR_DEGENERATE[n]]
    else:
        hpts = rational_hemisphere_points(n, d, seed=seed)
    exact = voronoi([ModelPoint(ModelTag.HEMISPHERE, p) for p in hpts], route=ROUTE_HEMISPHERE)
    # the Klein point under a hemisphere point is its vertical projection
    floats = voronoi(kpts([tuple(float(c) for c in p[1:]) for p in hpts]), route=ROUTE_KLEIN)
    # outside the co-spherical and collinear groups the exact route flags,
    # the routes agree
    report = detect_degeneracies(exact)
    groups = [set(g) for g in report.cocircular_groups + report.collinear_groups]

    def flagged(sites):
        return any(len(set(sites) & g) >= min(len(sites), d + 1) for g in groups)

    de, df = delaunay(exact), delaunay(floats)
    assert all(flagged(p) for p in exact.complex.adjacency ^ floats.complex.adjacency)
    assert all(flagged(p) for p in de.edges ^ df.edges)
    assert all(flagged(f) for f in set(de.faces) ^ set(df.faces))
    if not groups:
        assert exact.complex.adjacency == floats.complex.adjacency
        assert de.faces == df.faces
    if d == 3 or isinstance(n, str):
        assert verify(exact, 5000, seed).disagreements == 0
        assert verify(floats, 5000, seed).disagreements == 0


def test_model_invariance_of_labels():
    pts = kpts(random_klein_points(12, seed=21))
    base = voronoi(pts)
    _, lbase, _, mbase = sample_labels(base, 400, 99)
    for model in ALL_MODELS:
        conv_pts = [convert(p, model) for p in pts]
        dia = voronoi(conv_pts)
        _, labels, _, margin = sample_labels(dia, 400, 99)
        keep = (mbase > 1e-7) & (margin > 1e-7)
        assert (labels[keep] == lbase[keep]).all(), model


# --- Delaunay dual -----------------------------------------------------------------

def test_three_generic_sites_one_triangle():
    dia = voronoi(kpts([(0.3, 0.0), (-0.2, 0.25), (-0.1, -0.3)]))
    dl = delaunay(dia)
    assert dl.faces == [frozenset({0, 1, 2})]
    assert dl.edges == {(0, 1), (0, 2), (1, 2)}
    assert dl.is_triangulation


def test_unbounded_star_dual_is_a_tree():
    with recorded_cells() as cells:
        dia = voronoi(kpts(unbounded_star_points(8, 0.998)))
    dl = delaunay(dia)
    assert dl.faces == []
    assert dl.edges == {(0, k) for k in range(1, 9)}
    assert not dl.is_triangulation
    # all cells unbounded: every cell touches the clip boundary, checked
    # via its polygon reaching outside the unit disk
    assert len(cells) == 9
    for cell in cells:
        reach = max(float(sum(c * c for c in v)) for v in cell.vertices)
        assert reach > 1.0


def _segment_distance(v0, v1):
    a, b = np.array(v0, dtype=float), np.array(v1, dtype=float)
    u = b - a
    t = min(1.0, max(0.0, -float(a @ u) / float(u @ u)))
    return float(np.linalg.norm(a + t * u))


@pytest.mark.parametrize(
    "raw, pairs",
    [(unbounded_star_points(8, 0.998), 8), (random_klein_points(200, 2, seed=1), 574)],
    ids=["star", "random-200"],
)
def test_adjacency_is_the_delaunay_edges(raw, pairs):
    dia = voronoi(kpts(raw))
    cx = dia.complex
    assert delaunay(dia).edges == cx.adjacency
    assert len(cx.adjacency) == pairs
    assert set(cx.facets) == set(dia.boundaries) == cx.adjacency
    for facet in cx.facets.values():  # every kept facet meets the open ball
        assert _segment_distance(*facet) < 1.0


def test_wheel_all_bisectors_through_origin():
    dia = voronoi(kpts(wheel_points(8, 0.6)))
    for s in dia.boundaries.values():
        assert abs(float(s.b)) < 1e-12
    dl = delaunay(dia)
    assert dl.faces == [frozenset(range(8))]
    assert not dl.is_triangulation
    verts = dia.complex.power_vertices
    assert len(verts) == 1
    assert math.hypot(*[float(c) for c in verts[0].point]) < 1e-12
    assert verts[0].sites == frozenset(range(8))


def test_cocircular_square_gives_quadrilateral_face():
    dl = delaunay(voronoi(kpts(cocircular_square(0.4))))
    assert dl.faces == [frozenset({0, 1, 2, 3})]
    assert not dl.is_triangulation


@pytest.mark.parametrize("scalar", [float, Fraction])
def test_dual_faces_are_the_power_vertices_strictly_inside_the_clip_ball(scalar):
    """Measured from the unit ball, with no tolerance: a vertex 1e-13
    inside the unit circle is a face, one on or past it is not."""
    near = 1 - scalar(1) / 10**13
    points = [(near, 0), (0, 1), (0, -scalar(3) / 2), (-near, 0), (scalar(7) / 5, 0)]
    vertices = [power.PowerVertex(tuple(map(scalar, p)), frozenset(range(k, k + 3))) for k, p in enumerate(points)]
    hubs = tuple((1, 0, 0) for _ in range(7))
    cx = power.PowerComplex(2, [], [], vertices, {})
    dia = hvd.VoronoiDiagram(ModelTag.KLEIN, Curvature(-1), (), cx, {}, ROUTE_KLEIN, hubs)
    assert sorted(tuple(sorted(f)) for f in dia.dual_faces) == [(0, 1, 2), (3, 4, 5)]


def test_delaunay_needs_explicit_geometry():
    raw = random_klein_points(6, d=4, seed=1)
    dia = voronoi(kpts(raw))
    with pytest.raises(NoExplicitGeometry):
        delaunay(dia)


def test_curved_space_diagram_end_to_end():
    # kappa = -1/4, r = 2: coordinates live in the radius-2 ball
    from hypervoronoi import Curvature

    curv = Curvature(-0.25)
    raw = random_klein_points(10, seed=44)
    pts = [
        ModelPoint(ModelTag.KLEIN, tuple(2 * c for c in p), curv) for p in raw
    ]
    dia = voronoi(pts)
    assert verify(dia, 2000, 11).ok
    for (i, j), s in dia.boundaries.items():
        assert float(s.evaluate(pts[i].coords)) < 0
        assert float(s.evaluate(pts[j].coords)) > 0
    # same combinatorics as the unit-curvature diagram of the raw points
    base = voronoi(kpts(raw))
    assert dia.complex.adjacency == base.complex.adjacency


def test_three_dimensional_delaunay_tetrahedra():
    rng = np.random.default_rng(171)
    pts = []
    while len(pts) < 7:
        x = rng.uniform(-0.7, 0.7, 3)
        if float(x @ x) < 0.49:
            pts.append(ModelPoint(ModelTag.KLEIN, tuple(float(c) for c in x)))
    dia = voronoi(pts)
    dl = delaunay(dia)
    assert dl.faces and all(len(f) == 4 for f in dl.faces)
    centers = {frozenset(v.sites): v.point for v in dia.complex.power_vertices}
    for f in dl.faces:
        c = ModelPoint(ModelTag.KLEIN, tuple(float(v) for v in centers[f]))
        ds = [distance(c, pts[i]) for i in sorted(f)]
        assert max(ds) - min(ds) < 1e-8
        others = [distance(c, pts[i]) for i in range(len(pts)) if i not in f]
        assert min(others) > max(ds)
    assert verify(dia, 1500, 3).ok


def test_duality_degree_bound_general_position():
    rng = np.random.default_rng(163)
    for trial in range(10):
        n = int(rng.integers(4, 33))
        dia = voronoi(kpts(random_klein_points(n, seed=2000 + trial)))
        dl = delaunay(dia)
        for f in dl.faces:
            assert len(f) == 3
        for v in dia.complex.power_vertices:
            assert len(v.sites) == 3


def test_empty_sphere_property():
    rng = np.random.default_rng(167)
    instances = 0
    while instances < 20:
        n = int(rng.integers(4, 33))
        pts = kpts(random_klein_points(n, seed=3000 + instances))
        dia = voronoi(pts)
        dl = delaunay(dia)
        tri_faces = [f for f in dl.faces if len(f) == 3]
        if not tri_faces:
            continue
        instances += 1
        centers = {frozenset(v.sites): v.point for v in dia.complex.power_vertices}
        for face in tri_faces:
            center = ModelPoint(ModelTag.KLEIN, tuple(float(c) for c in centers[face]))
            dists = [distance(center, pts[i]) for i in face]
            assert max(dists) - min(dists) < 1e-8
            others = [distance(center, pts[i]) for i in range(n) if i not in face]
            if others:
                assert min(others) > max(dists) + 1e-12


# --- degeneracy detection ------------------------------------------------------------

def test_equal_norm_group_detected():
    pts = kpts([(0.4, 0.0), (0.0, 0.4), (-0.4, 0.0), (0.0, -0.4), (0.1, 0.2)])
    rep = detect_degeneracies(voronoi(pts))
    assert (0, 1, 2, 3) in rep.equal_norm_groups


def test_generic_sites_give_empty_report():
    rep = detect_degeneracies(voronoi(kpts(random_klein_points(12, seed=33))))
    assert rep.empty


def test_upper_equal_height_group():
    pts = [
        ModelPoint(ModelTag.UPPER_HALF_SPACE, (x, 1.0)) for x in (-0.5, 0.0, 0.7)
    ] + [ModelPoint(ModelTag.UPPER_HALF_SPACE, (0.2, 2.0))]
    rep = detect_degeneracies(voronoi(pts))
    assert (0, 1, 2) in rep.equal_height_groups
    assert rep.equal_norm_groups == []


def test_collinear_group_detected():
    pts = kpts([(-0.4, -0.4), (0.0, 0.0), (0.4, 0.4), (0.5, -0.1)])
    rep = detect_degeneracies(voronoi(pts))
    assert (0, 1, 2) in rep.collinear_groups


def test_cocircular_group_detected():
    pts = kpts(cocircular_square(0.4) + [(0.7, 0.1)])
    rep = detect_degeneracies(voronoi(pts))
    assert (0, 1, 2, 3) in rep.cocircular_groups


def test_cospherical_groups_are_read_inside_the_ball():
    # four sites tied at the power vertex (0.8, 0.8), outside the unit disk:
    # no hyperbolic circle holds them, so no co-spherical group
    pts = [
        (0.5897177591645861, 0.11060273290429697),
        (0.11060273290429697, 0.5897177591645861),
        (0.3676632045957238, 0.27112049140810196),
        (0.27112049140810196, 0.3676632045957238),
    ]
    dia = voronoi(kpts(pts))
    (vertex,) = dia.complex.power_vertices
    assert vertex.sites == frozenset(range(4))
    assert math.hypot(*vertex.point) > 1.1
    assert detect_degeneracies(dia).cocircular_groups == []


def test_degeneracy_note_states_each_scale():
    rep = detect_degeneracies(voronoi(kpts(random_klein_points(6, seed=3))))
    assert rep.notes == [
        "tolerance 1e-09: relative to max(1, |value|) for equal norms and heights;"
        " absolute Klein distance to the line for collinear groups; absolute Klein"
        " coordinate distance, with circumdistance cosh relative to max(1, cosh),"
        " for co-spherical groups"
    ]


def test_hyperboloid_equal_x0_counts_as_equal_norm():
    base = kpts([(0.3, 0.0), (0.0, 0.3), (-0.3, 0.0)])
    pts = [convert(p, ModelTag.HYPERBOLOID) for p in base] + [
        convert(ModelPoint(ModelTag.KLEIN, (0.1, 0.05)), ModelTag.HYPERBOLOID)
    ]
    rep = detect_degeneracies(voronoi(pts))
    assert (0, 1, 2) in rep.equal_norm_groups


def _collinear_groups_scalar(kleins, tol):
    """The scalar triple loop the vectorised scan must reproduce."""
    n = len(kleins)
    found = set()
    for i in range(n):
        for j in range(i + 1, n):
            ax, ay = kleins[i][0], kleins[i][1]
            bx, by = kleins[j][0], kleins[j][1]
            ux, uy = bx - ax, by - ay
            ln = math.hypot(ux, uy)
            if ln < 1e-15:
                continue
            group = {i, j}
            for k in range(n):
                if k in (i, j):
                    continue
                dist = abs((kleins[k][0] - ax) * uy - (kleins[k][1] - ay) * ux) / ln
                if dist <= tol:
                    group.add(k)
            if len(group) >= 3:
                found.add(tuple(sorted(group)))
    out = [g for g in found if not any(set(g) < set(h) for h in found if h != g)]
    out.sort()
    return out


@pytest.mark.parametrize("seed", range(6))
def test_collinear_scan_matches_scalar_loop(seed):
    rng = np.random.default_rng(seed)
    tol = [1e-9, 1e-6, 0.02][seed % 3]
    pts = [tuple(float(c) for c in p) for p in random_klein_points(30, seed=seed, max_norm=0.6)]
    for _ in range(6):  # planted triples: on the line, and about tol off it
        i, j = rng.choice(len(pts), 2, replace=False)
        (ax, ay), (bx, by) = pts[i], pts[j]
        t = float(rng.uniform(-0.5, 1.5))
        nudge = float(rng.choice([0.0, tol, -tol, 0.999 * tol, 1.001 * tol]))
        ln = math.hypot(bx - ax, by - ay)
        pts.append(
            (ax + t * (bx - ax) - nudge * (by - ay) / ln, ay + t * (by - ay) + nudge * (bx - ax) / ln)
        )
    pts.append(pts[3])  # a coincident pair is skipped as a line
    groups = _collinear_groups(pts, tol)
    assert groups == _collinear_groups_scalar(pts, tol)
    assert groups


@pytest.mark.parametrize(
    "n, seed, tol",
    [(n, seed, hvd.DEGENERACY_TOL) for n, seed in [(3, 1), (3, 2), (50, 3), (50, 4), (200, 5), (200, 41000)]]
    # a loose tolerance crowds every anchor and finds many groups: the
    # reference's O(n^3) rows and O(groups^2) filter keep these small
    + [(n, seed, tol) for n, seed in [(3, 1), (50, 3), (50, 4)] for tol in (1e-3, 0.02)],
)
def test_collinear_scan_matches_reference_on_random_points(n, seed, tol):
    pts = random_klein_points(n, seed=seed)
    assert _collinear_groups(pts, tol) == reference_collinear_groups(pts, tol)


TOL = hvd.DEGENERACY_TOL


def _on_line(a, theta, ts, offsets):
    """Points a + t u + o n: u at angle theta, n its normal."""
    ux, uy = math.cos(theta), math.sin(theta)
    return [(a[0] + t * ux - o * uy, a[1] + t * uy + o * ux) for t, o in zip(ts, offsets)]


# Each plant goes in front of random points; its groups (as index sets of
# the plant) must be found, and the scan must equal the reference.
PLANTS = {
    # directions from every member straddle 0 and pi: only the wrap joins them
    "wrap-horizontal": (
        [(-0.5, 0.0), (0.0, 0.3 * TOL), (0.5, -0.1 * TOL)],
        [(0, 1, 2)],
    ),
    "wrap-near-pi": (
        _on_line((0.1, -0.2), math.pi - 1e-12, [0.4, -0.3, 0.05, -0.45], [0.3 * TOL, -0.4 * TOL, 0.2 * TOL, -0.3 * TOL]),
        [(0, 1, 2, 3)],
    ),
    "vertical": (
        [(0.2, -0.5), (0.2 + 0.3 * TOL, 0.0), (0.2 - 0.1 * TOL, 0.5), (0.2, 0.25)],
        [(0, 1, 2, 3)],
    ),
    # +-2 tol off the line: out of every group
    "offsets-2tol": (
        _on_line((-0.1, 0.3), 0.7, [-0.4, 0.0, 0.35, 0.2, -0.2], [0.0, 0.5 * TOL, -0.5 * TOL, 2 * TOL, -2 * TOL]),
        [(0, 1, 2)],
    ),
    # the first point is within tol of the second (the anchor): on every
    # line through it, so every other point completes a group
    "near-anchor": (
        [(0.3, 0.1), (0.3 + 0.5 * TOL, 0.1), (0.0, 0.0), (-0.4, 0.5)],
        [(0, 1, 2), (0, 1, 3)],
    ),
    # a pair closer than COLLINEAR_MIN_SPAN spans no line of its own
    "sub-span-pair": (
        [(0.0, 0.0), (4e-16, 0.0), (0.5, 0.25), (-0.5, 0.1)],
        [(0, 1, 2), (0, 1, 3)],
    ),
    # three lines through one anchor; a point far away sets a small window
    "star": (
        [(0.05, -0.05)]
        + _on_line((0.05, -0.05), 0.0, [0.01, -0.6, 0.7], [0.9 * TOL, -0.6 * TOL, 0.5 * TOL])
        + _on_line((0.05, -0.05), math.pi / 2, [0.02, 0.5, -0.6], [-0.8 * TOL, 0.4 * TOL, 0.0])
        + _on_line((0.05, -0.05), 2.0, [-0.015, 0.45, 0.3], [0.9 * TOL, -0.7 * TOL, 0.2 * TOL]),
        [(0, 1, 2, 3), (0, 4, 5, 6), (0, 7, 8, 9)],
    ),
}


@pytest.mark.parametrize("background", [0, 30])
@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_collinear_scan_finds_planted_groups(plant, background):
    points, groups = PLANTS[plant]
    pts = list(points) + list(random_klein_points(background, seed=17, max_norm=0.85) if background else [])
    found = _collinear_groups(pts, TOL)
    assert found == reference_collinear_groups(pts, TOL)
    for g in groups:
        assert any(set(g) <= set(h) for h in found), (g, found)
    for h in found:
        assert set(h) & set(range(len(points))), h  # random points add no group


@pytest.mark.parametrize("order", ["forward", "reversed"])
def test_collinear_scan_small_window_from_a_close_pair(order):
    """A group whose members are 0.01 apart but for one far point: the angle
    the close member makes is ~100 times the far members' window."""
    pts = _on_line((0.2, 0.1), 1.1, [0.0, 0.01, 0.8], [0.0, 0.9 * TOL, 0.0])
    pts += list(random_klein_points(20, seed=3, max_norm=0.85))
    if order == "reversed":
        pts = pts[::-1]
    found = _collinear_groups(pts, TOL)
    assert found == reference_collinear_groups(pts, TOL)
    assert len(found) == 1


def test_compute_builds_the_complex_once(tmp_path, monkeypatch):
    calls = []

    def counting_build(*args, **kwargs):
        calls.append(1)
        return power.build_complex(*args, **kwargs)

    monkeypatch.setattr(hvd, "build_complex", counting_build)
    inp = tmp_path / "p.json"
    raw = cocircular_square(0.4) + [(0.7, 0.1), (-0.2, 0.5)]
    inp.write_text(json.dumps({"dimension": 2, "model": "klein", "points": [list(p) for p in raw]}))
    assert main(["compute", str(inp), "-o", str(tmp_path / "out.json")]) == 0
    assert len(calls) == 1
    doc = json.loads((tmp_path / "out.json").read_text())
    assert [0, 1, 2, 3] in doc["degeneracies"]["cocircular_groups"]


def test_compute_merges_dual_vertices_once(tmp_path, monkeypatch):
    """`delaunay` and `detect_degeneracies` read one merge of the diagram's
    power vertices; its co-spherical groups are the Delaunay faces."""
    calls = []
    merge = hvd._merge_dual_vertices

    def counting_merge(*args):
        calls.append(args[2])
        return merge(*args)

    monkeypatch.setattr(hvd, "_merge_dual_vertices", counting_merge)
    inp = tmp_path / "p.json"
    raw = cocircular_square(0.4) + [(0.7, 0.1), (-0.2, 0.5)]
    inp.write_text(json.dumps({"dimension": 2, "model": "klein", "points": [list(p) for p in raw]}))
    assert main(["compute", str(inp), "-o", str(tmp_path / "out.json")]) == 0
    assert calls == [hvd.DUAL_MERGE_TOL]
    doc = json.loads((tmp_path / "out.json").read_text())
    big = [f for f in doc["delaunay"]["faces"] if len(f) > 3]
    assert big == doc["degeneracies"]["cocircular_groups"] == [[0, 1, 2, 3]]


@pytest.mark.parametrize("route", [ROUTE_KLEIN, ROUTE_HEMISPHERE])
@pytest.mark.parametrize("d", [2, 3])
def test_compute_makes_each_radical_hyperplane_once(tmp_path, monkeypatch, d, route):
    calls = []
    planes = {}  # (normal, offset) of each made hyperplane -> its pair
    cuts = set()  # pair of every cut that ran
    index = {}  # site centre -> site index
    make = power.radical_hyperplane
    clip = (clipping.clip_polygon, "clip_polygon") if d == 2 else (clipping.clip_polyhedron, "clip_polyhedron")

    def counting(s_i, s_j):
        calls.append((index[s_i.center], index[s_j.center]))
        hs = make(s_i, s_j)
        planes[hs.normal, hs.offset] = calls[-1]
        return hs

    def recording(shape, normal, offset, tag):
        # a cut uses a made hyperplane, one side or the other, tagged with
        # the neighbour at one of its ends
        neg = tuple(-c for c in normal), -offset
        pair = planes.get((tuple(normal), offset), planes.get(neg))
        assert pair is not None and tag in pair
        cuts.add(pair)
        return clip[0](shape, normal, offset, tag)

    for module in (power, hvd):  # wherever the package binds the name
        if hasattr(module, "radical_hyperplane"):
            monkeypatch.setattr(module, "radical_hyperplane", counting)
    monkeypatch.setattr(clipping, clip[1], recording)
    n = 30 if d == 2 else 15
    pts = rational_hemisphere_points(n, d, seed=23)  # rational lifts: both routes exact
    hubs = hvd.oracle_hubs([ModelPoint(ModelTag.HEMISPHERE, p) for p in pts], route)
    index.update((power.hemisphere_site_map(h).center, k) for k, h in enumerate(hubs))
    assert len(index) == n
    doc = {
        "dimension": d,
        "model": "hemisphere",
        "scalar": "exact-rational",
        "points": [[f"{c.numerator}/{c.denominator}" for c in p] for p in pts],
    }
    inp = tmp_path / "p.json"
    inp.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["compute", str(inp), "--route", route, "-o", str(out)]) == 0
    assert cuts
    assert len(calls) == len(set(calls))  # at most once per pair
    assert all(i < j for i, j in calls)
    adjacency = {tuple(p) for p in json.loads(out.read_text())["adjacency"]}
    # only pairs whose cut ran (from either side) or whose facet survived
    assert set(calls) == cuts | adjacency
    assert len(calls) < n * (n - 1) // 2


def test_dual_merge_cosh_is_the_klein_formula_bit_for_bit():
    # the scalar formula the dual-vertex merge used before it called
    # models.cosh_distance_unit
    def klein_cosh(u, v):
        num = 1.0 - sum(a * b for a, b in zip(u, v))
        den = math.sqrt((1.0 - sum(a * a for a in u)) * (1.0 - sum(a * a for a in v)))
        return num / den

    for d in (2, 3):
        pts = random_klein_points(40, d, seed=71)
        pairs = list(zip(pts, pts[1:])) + [(pts[0], (0.0,) * d), (pts[1], (-0.0,) * d)]
        for u, v in pairs:
            assert models.cosh_distance_unit(ModelTag.KLEIN, u, v) == klein_cosh(u, v)


@pytest.mark.parametrize("route", ["klein", "hemisphere"])
def test_voronoi_validates_each_point_once(monkeypatch, route):
    calls = []
    check = models.validate_point

    def counting(p, *args):
        calls.append(p.coords)
        return check(p, *args)

    for module in (models, conversions, hvd):  # wherever the package binds the name
        if hasattr(module, "validate_point"):
            monkeypatch.setattr(module, "validate_point", counting)
    pts = [ModelPoint(ModelTag.HEMISPHERE, p) for p in rational_hemisphere_points(9, seed=5)]
    voronoi(pts, route=route)
    assert calls == [p.coords for p in pts]


def _curved_float_points():
    curv = Curvature(-0.25)  # r = 2
    raw = random_klein_points(14, seed=61)
    return [
        convert(ModelPoint(ModelTag.KLEIN, tuple(2 * c for c in p), curv), ModelTag.POINCARE)
        for p in raw
    ]


def _curved_exact_points():
    curv = Curvature(Fraction(-1, 4))  # exact r = 2
    raw = rational_hemisphere_points(10, seed=62)
    return [ModelPoint(ModelTag.HEMISPHERE, tuple(2 * c for c in p), curv) for p in raw]


@pytest.mark.parametrize(
    "make, route",
    [(_curved_float_points, ROUTE_KLEIN), (_curved_exact_points, ROUTE_HEMISPHERE)],
)
def test_boundaries_are_transported_radical_hyperplanes(make, route):
    dia = voronoi(make(), route=route)
    sites = dia.complex.sites
    want = {}
    for i, j in sorted(dia.complex.adjacency):
        hs = power.radical_hyperplane(sites[i], sites[j])
        chart = ImplicitSurface(0, hs.normal, hs.offset, ModelTag.KLEIN)
        moved = transport_surface(chart, dia.model)
        want[i, j] = scale_surface(moved, dia.curvature, to_unit=False)
    assert len(want) >= 10
    assert repr(dia.boundaries) == repr(want)


# --- duplicates and the exact route's arithmetic ------------------------------

@pytest.mark.parametrize(
    "raw, pair",
    [
        # an exact point set with a repeated point: keyed by numerator and denominator
        ([(Fraction(1, 3), 0), (0, Fraction(1, 4)), (Fraction(-1, 5), Fraction(1, 7)), (Fraction(2, 6), 0)], (0, 3)),
        # one value spelled as an int and as a Fraction
        ([(0, Fraction(1, 2)), (Fraction(1, 3), Fraction(1, 4)), (Fraction(0), Fraction(2, 4))], (0, 2)),
        # and as a float: a mixed set finds it as Python equality does
        ([(0, Fraction(1, 2)), (Fraction(1, 3), 0.25), (0.0, 0.5)], (0, 2)),
        ([(Fraction(1, 3), 0.25), (0.5, 0.0), (Fraction(1, 3), Fraction(1, 4))], (0, 2)),
    ],
)
def test_duplicate_points_name_the_first_pair(raw, pair):
    with pytest.raises(DuplicateSites, match=f"sites {pair[0]} and {pair[1]} coincide"):
        voronoi(kpts(raw))


def test_voronoi_needs_points_of_one_curvature():
    points = [ModelPoint(ModelTag.KLEIN, (0.1, 0.2)), ModelPoint(ModelTag.KLEIN, (0.3, 0.0), Curvature(-2))]
    with pytest.raises(ModelMismatch, match="site 1 has curvature -2"):
        voronoi(points)
    with pytest.raises(EmptySites):
        voronoi([])


def test_exact_voronoi_decides_on_integers(monkeypatch):
    """An exact d=2 build converts no point to a homogeneous tuple (its
    window's corners are integer from the start), hashes no `Fraction`
    and negates each radical hyperplane at most once: the cell reader, the
    duplicate checks, the origin's tie set and the halfspaces work on the
    integers."""
    pts = [ModelPoint(ModelTag.HEMISPHERE, p) for p in rational_hemisphere_points(20, 2, seed=4)]
    homogeneous, hashes, negations, rows = [], [], [], []
    to_homogeneous, fraction_hash = clipping.to_homogeneous, Fraction.__hash__
    neg, radical = power.Halfspace.__neg__, power.radical_hyperplane

    def counting_to_homogeneous(point):
        homogeneous.append(tuple(point))
        return to_homogeneous(point)

    def counting_hash(self):
        hashes.append(self)
        return fraction_hash(self)

    def counting_neg(self):
        negations.append(self)
        return neg(self)

    def counting_radical(s_i, s_j):
        rows.append((s_i, s_j))
        return radical(s_i, s_j)

    for module in (clipping, cutting, power, hvd):
        if hasattr(module, "to_homogeneous"):
            monkeypatch.setattr(module, "to_homogeneous", counting_to_homogeneous)
    monkeypatch.setattr(Fraction, "__hash__", counting_hash)
    monkeypatch.setattr(power.Halfspace, "__neg__", counting_neg)
    monkeypatch.setattr(power, "radical_hyperplane", counting_radical)
    dia = voronoi(pts, route=ROUTE_HEMISPHERE)
    monkeypatch.undo()
    assert not homogeneous
    assert not hashes
    assert len(dia.complex.adjacency) >= 20 and len(negations) <= len(rows)  # each row is made once
