import math

import numpy as np
import pytest

from hypervoronoi import (
    CoincidentSites,
    Curvature,
    DegenerateSurface,
    ImplicitSurface,
    ModelPoint,
    ModelTag,
    SurfaceClass,
    UnsupportedPath,
    bisector,
    classify,
    convert,
    distance,
    evaluate,
    geodesic,
    sphere_center_radius,
    transport_surface,
)

from util import ALL_MODELS, bisector_sample_point, random_klein_point, random_model_point


def K(*coords):
    return ModelPoint(ModelTag.KLEIN, coords)


# --- construction and closed forms --------------------------------------------

def test_klein_mirror_pair_gives_axis():
    s = bisector(K(0.5, 0.0), K(-0.5, 0.0))
    assert s.lam == 0
    assert s.b == 0
    assert s.a[1] == 0 and s.a[0] != 0  # the axis x1 = 0


def test_klein_bisectors_are_linear():
    rng = np.random.default_rng(41)
    for _ in range(50):
        p, q = random_klein_point(rng), random_klein_point(rng)
        if p.coords == q.coords:
            continue
        assert bisector(p, q).lam == 0


def test_poincare_equal_norm_hyperplane_through_origin():
    p = ModelPoint(ModelTag.POINCARE, (0.4, 0.1))
    q = ModelPoint(ModelTag.POINCARE, (-0.1, 0.4))
    s = bisector(p, q)
    assert classify(s) is SurfaceClass.HYPERPLANE_THROUGH_ORIGIN
    assert abs(float(s.lam)) < 1e-15
    assert abs(float(s.b)) < 1e-15


def test_poincare_unequal_norm_is_sphere():
    p = ModelPoint(ModelTag.POINCARE, (0.5, 0.0))
    q = ModelPoint(ModelTag.POINCARE, (0.1, 0.1))
    assert classify(bisector(p, q)) is SurfaceClass.SPHERE


def test_lorentz_bisector_through_origin_exactly():
    rng = np.random.default_rng(43)
    for _ in range(30):
        p = random_model_point(ModelTag.HYPERBOLOID, rng)
        q = random_model_point(ModelTag.HYPERBOLOID, rng)
        if p.coords == q.coords:
            continue
        s = bisector(p, q)
        assert s.b == 0
        assert classify(s) is SurfaceClass.HYPERPLANE_THROUGH_ORIGIN
        # Eq. pattern: a = (p0 - q0, q1 - p1, ..., qd - pd) up to sign
        u, v = p.coords, q.coords
        expect = (u[0] - v[0],) + tuple(b - a for a, b in zip(u[1:], v[1:]))
        ratio = None
        for got, want in zip(s.a, expect):
            if want != 0:
                ratio = float(got) / float(want)
                break
        assert ratio is not None
        for got, want in zip(s.a, expect):
            assert float(got) == pytest.approx(ratio * float(want), abs=1e-12)


def test_upper_equal_height_is_vertical_hyperplane():
    p = ModelPoint(ModelTag.UPPER_HALF_SPACE, (0.5, 1.0))
    q = ModelPoint(ModelTag.UPPER_HALF_SPACE, (-0.3, 1.0))
    s = bisector(p, q)
    assert abs(float(s.lam)) < 1e-15  # the |x|^2 coefficient 1/p_d - 1/q_d vanishes
    assert s.a[-1] == 0  # no height component: a vertical hyperplane
    assert classify(s) is SurfaceClass.HYPERPLANE


def test_hemisphere_ambient_x0_coefficient_is_zero():
    rng = np.random.default_rng(47)
    for _ in range(30):
        p = random_model_point(ModelTag.HEMISPHERE, rng)
        q = random_model_point(ModelTag.HEMISPHERE, rng)
        if p.coords == q.coords:
            continue
        s = bisector(p, q)
        assert s.a[0] == 0
        assert classify(s) is SurfaceClass.VERTICAL_SPHERE


def test_poincare_bisector_spheres_orthogonal_to_unit_circle():
    rng = np.random.default_rng(149)
    checked = 0
    for _ in range(60):
        p = random_model_point(ModelTag.POINCARE, rng)
        q = random_model_point(ModelTag.POINCARE, rng)
        if p.coords == q.coords:
            continue
        s = bisector(p, q)
        if classify(s) is not SurfaceClass.SPHERE:
            continue
        checked += 1
        center, radius = sphere_center_radius(s)
        assert sum(c * c for c in center) - radius * radius == pytest.approx(
            1.0, abs=1e-9
        )
    assert checked >= 20


def test_coincident_sites_rejected():
    with pytest.raises(CoincidentSites):
        bisector(K(0.1, 0.2), K(0.1, 0.2))


# --- evaluate ------------------------------------------------------------------

def test_evaluate_linear_example():
    s = ImplicitSurface(0, (1.0, 0.0), 0.0, ModelTag.KLEIN)
    assert evaluate(s, (0.3, 0.9)) == pytest.approx(0.3)


def test_evaluate_negative_at_first_site():
    rng = np.random.default_rng(53)
    for model in ALL_MODELS:
        for _ in range(20):
            p = random_model_point(model, rng)
            q = random_model_point(model, rng)
            if p.coords == q.coords:
                continue
            s = bisector(p, q)
            assert float(s.evaluate(p.coords)) < 0
            assert float(s.evaluate(q.coords)) > 0


def test_midpoint_evaluates_to_zero():
    rng = np.random.default_rng(59)
    for model in ALL_MODELS:
        p = random_model_point(model, rng)
        q = random_model_point(model, rng)
        s = bisector(p, q).unit()
        mid = geodesic(p, q, 0.5)
        assert abs(float(s.evaluate(mid.coords))) < 1e-9


# --- classification ------------------------------------------------------------

@pytest.mark.parametrize("scale", [1, 10**400], ids=["small", "past-the-range"])
def test_exact_surfaces_past_the_float_range(scale):
    """Exact coefficients are read as `row_floats`, divided by a power of
    two, so a surface past the float range classifies, transports and
    scales like the same surface with small coefficients."""
    plane = ImplicitSurface(0, (3 * scale, 4 * scale), scale, ModelTag.KLEIN)  # 3x + 4y + 1 = 0
    norm = math.sqrt(26.0)
    assert plane.unit().coefficients() == pytest.approx((0, 3 / norm, 4 / norm, 1 / norm))
    assert classify(plane) is SurfaceClass.HYPERPLANE
    moved = transport_surface(plane, ModelTag.POINCARE)
    assert classify(moved) is SurfaceClass.SPHERE
    center, radius = sphere_center_radius(moved)
    assert center == pytest.approx((-3.0, -4.0)) and radius == pytest.approx(math.sqrt(24.0))


def test_classify_degenerate_sphere_raises():
    with pytest.raises(DegenerateSurface):
        classify(ImplicitSurface(1.0, (0.0, 0.0), 1.0, ModelTag.POINCARE))


def test_zero_surface_rejected():
    with pytest.raises(DegenerateSurface):
        ImplicitSurface(0, (0, 0), 0, ModelTag.KLEIN)


def test_swap_antisymmetry_same_canonical_form():
    rng = np.random.default_rng(61)
    for model in ALL_MODELS:
        p = random_model_point(model, rng)
        q = random_model_point(model, rng)
        s1 = bisector(p, q).canonical()
        s2 = bisector(q, p).canonical()
        assert np.allclose(
            [float(c) for c in s1.coefficients()],
            [float(c) for c in s2.coefficients()],
            atol=1e-12,
        )


# --- equidistance oracle ---------------------------------------------------------

def test_equidistance_both_ways_every_model():
    rng = np.random.default_rng(67)
    for model in ALL_MODELS:
        checked = 0
        for _ in range(60):
            p = random_model_point(model, rng)
            q = random_model_point(model, rng)
            if p.coords == q.coords:
                continue
            s = bisector(p, q)
            x = bisector_sample_point(p, q, s, rng)
            if x is None:
                continue
            checked += 1
            assert abs(distance(p, x) - distance(q, x)) < 1e-8
            # a point clearly off the surface has a matching-sign gap
            y = random_model_point(model, rng)
            val = float(s.unit().evaluate(y.coords))
            if abs(val) > 1e-3:
                gap = distance(p, y) - distance(q, y)
                assert math.copysign(1, gap) == math.copysign(1, val)
        assert checked >= 20, f"too few bisector samples for {model}"


# --- geodesics -------------------------------------------------------------------

def test_geodesic_endpoints():
    p, q = K(0.3, 0.1), K(-0.2, 0.4)
    assert geodesic(p, q, 0.0).coords == pytest.approx(p.coords, abs=1e-12)
    assert geodesic(p, q, 1.0).coords == pytest.approx(q.coords, abs=1e-12)


def test_geodesic_constant_speed_all_models():
    rng = np.random.default_rng(71)
    for model in ALL_MODELS:
        for _ in range(15):
            p = random_model_point(model, rng)
            q = random_model_point(model, rng)
            if p.coords == q.coords:
                continue
            total = distance(p, q)
            for t in (0.25, 0.5, 0.75):
                g = geodesic(p, q, t)
                assert abs(distance(p, g) - t * total) < 1e-9


def test_klein_geodesic_is_chord():
    rng = np.random.default_rng(73)
    for _ in range(20):
        p, q = random_klein_point(rng), random_klein_point(rng)
        if p.coords == q.coords:
            continue
        for t in (0.2, 0.5, 0.8):
            g = geodesic(p, q, t).coords
            cross = (q.coords[0] - p.coords[0]) * (g[1] - p.coords[1]) - (
                q.coords[1] - p.coords[1]
            ) * (g[0] - p.coords[0])
            assert abs(cross) < 1e-9


def test_geodesic_midpoint_on_bisector():
    rng = np.random.default_rng(79)
    for model in ALL_MODELS:
        p = random_model_point(model, rng)
        q = random_model_point(model, rng)
        s = bisector(p, q).unit()
        mid = geodesic(p, q, 0.5)
        assert abs(float(s.evaluate(mid.coords))) < 1e-9
        assert abs(distance(p, mid) - distance(q, mid)) < 1e-9


def test_geodesic_tiny_separation_falls_back():
    p, q = K(0.1, 0.1), K(0.1 + 1e-8, 0.1)
    g = geodesic(p, q, 0.5)
    assert g.coords == pytest.approx((0.1 + 5e-9, 0.1), abs=1e-12)


# --- transports ------------------------------------------------------------------

def test_transport_hyperplane_through_origin_to_poincare():
    s = ImplicitSurface(0, (1.0, 0.0), 0.0, ModelTag.KLEIN)
    out = transport_surface(s, ModelTag.POINCARE)
    assert out.lam == 0 and out.b == 0
    assert out.a == (2.0, 0.0)


def test_transport_klein_chord_to_poincare_orthogonal_sphere():
    s = ImplicitSurface(0, (1.0, 0.0), -0.3, ModelTag.KLEIN)
    out = transport_surface(s, ModelTag.POINCARE)
    assert classify(out) is SurfaceClass.SPHERE
    center, radius = sphere_center_radius(out)
    assert sum(c * c for c in center) - radius * radius == pytest.approx(1.0, abs=1e-9)


def test_transport_klein_hyperplane_to_hemisphere_vertical_sphere():
    s = ImplicitSurface(0, (0.3, -0.7), 0.2, ModelTag.KLEIN)
    out = transport_surface(s, ModelTag.HEMISPHERE)
    assert classify(out) is SurfaceClass.VERTICAL_SPHERE
    assert out.a[0] == 0


def test_transport_matches_native_bisector_everywhere():
    rng = np.random.default_rng(83)
    for src in ALL_MODELS:
        for dst in ALL_MODELS:
            p = random_model_point(src, rng)
            q = random_model_point(src, rng)
            if p.coords == q.coords:
                continue
            moved = transport_surface(bisector(p, q), dst).unit()
            native = bisector(convert(p, dst), convert(q, dst)).unit()
            assert np.allclose(
                [float(c) for c in moved.coefficients()],
                [float(c) for c in native.coefficients()],
                atol=1e-9,
            ), (src, dst)


def test_transport_preserves_orientation():
    rng = np.random.default_rng(89)
    for dst in ALL_MODELS:
        p, q = random_klein_point(rng), random_klein_point(rng)
        moved = transport_surface(bisector(p, q), dst)
        assert float(moved.evaluate(convert(p, dst).coords)) < 0


def test_transport_rejects_non_bisector_quadrics():
    sphere = ImplicitSurface(1.0, (0.0, 0.0), -0.25, ModelTag.KLEIN)
    with pytest.raises(UnsupportedPath):
        transport_surface(sphere, ModelTag.HYPERBOLOID)


def test_transport_round_trip_with_curvature():
    kappa = Curvature(-0.25)
    p = ModelPoint(ModelTag.KLEIN, (0.8, 0.2), kappa)
    q = ModelPoint(ModelTag.KLEIN, (-0.4, 0.9), kappa)
    s = bisector(p, q)
    out = transport_surface(s, ModelTag.POINCARE, kappa)
    back = transport_surface(out, ModelTag.KLEIN, kappa).unit()
    orig = s.unit()
    assert np.allclose(
        [float(c) for c in back.coefficients()],
        [float(c) for c in orig.coefficients()],
        atol=1e-12,
    )
