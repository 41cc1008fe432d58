import math
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import (
    Curvature,
    ExactArithmeticUnavailable,
    ModelMismatch,
    ModelPoint,
    ModelTag,
    NumericalUnderflow,
    convert,
    distance,
    drop_to_klein,
    lift_to_hemisphere,
    square_root_free,
)
from hypervoronoi.conversions import from_hub

from util import ALL_MODELS, random_klein_point


def K(*coords):
    return ModelPoint(ModelTag.KLEIN, coords)


@pytest.mark.parametrize("kappa", [Fraction(-1, 4), Fraction(-1, 2)])
def test_from_hub_at_an_exact_non_unit_curvature(kappa):
    """The unit point is scaled by the model radius sqrt(-1/kappa): in
    Fractions when that radius is rational (2 at -1/4), in floats when
    it is not (sqrt(2) at -1/2)."""
    p = from_hub((Fraction(4, 5), Fraction(3, 5), Fraction(0)), ModelTag.KLEIN, Curvature(kappa))
    assert p.curvature == Curvature(kappa)
    if kappa == Fraction(-1, 4):
        assert p.coords == (Fraction(6, 5), 0) and all(type(c) is Fraction for c in p.coords)
    else:
        assert p.coords == (0.6 * math.sqrt(2.0), 0.0) and all(type(c) is float for c in p.coords)


def test_convert_to_a_target_that_is_not_a_model_tag():
    with pytest.raises(ModelMismatch, match="target model must be a ModelTag, got 'poincare'"):
        convert(K(0.1, 0.2), "poincare")


def test_origin_fixed_by_ball_maps():
    assert convert(K(0.0, 0.0), ModelTag.POINCARE).coords == (0.0, 0.0)


def test_klein_to_hyperboloid_example():
    # (1, 0.6, 0) / sqrt(1 - 0.36) = (1.25, 0.75, 0)
    out = convert(K(0.6, 0.0), ModelTag.HYPERBOLOID).coords
    assert out == pytest.approx((1.25, 0.75, 0.0), abs=1e-15)


def test_hyperboloid_round_trip_is_inverse():
    rng = np.random.default_rng(23)
    for _ in range(100):
        p = random_klein_point(rng)
        back = convert(convert(p, ModelTag.HYPERBOLOID), ModelTag.KLEIN)
        assert back.coords == pytest.approx(p.coords, abs=1e-14)


def test_lift_examples():
    assert lift_to_hemisphere((0.0, 0.0)) == (1.0, 0.0, 0.0)
    lifted = lift_to_hemisphere((0.5, 0.0))
    assert lifted == pytest.approx((math.sqrt(0.75), 0.5, 0.0), abs=1e-15)
    assert drop_to_klein(lifted) == lifted[1:]
    near = lift_to_hemisphere((0.999999, 0.0))
    assert near[0] == pytest.approx(math.sqrt(1 - 0.999999**2), abs=1e-18)
    assert near[0] == pytest.approx(1.4142e-3, rel=1e-3)


def test_boundary_guard():
    x = math.sqrt(1 - 1e-15)
    with pytest.raises(NumericalUnderflow):
        convert(K(x, 0.0), ModelTag.POINCARE)


def test_upper_half_space_height_convention():
    # the image of the Klein origin sits at height 1
    u = convert(K(0.0, 0.0), ModelTag.UPPER_HALF_SPACE)
    assert u.coords == pytest.approx((0.0, 1.0), abs=1e-15)
    d = distance(u, convert(K(0.5, 0.0), ModelTag.UPPER_HALF_SPACE))
    assert d == pytest.approx(math.acosh(1 / math.sqrt(0.75)), abs=1e-12)


def test_round_trips_all_ordered_pairs():
    rng = np.random.default_rng(29)
    points = [random_klein_point(rng) for _ in range(100)]
    for src in ALL_MODELS:
        for dst in ALL_MODELS:
            for p in points[:25]:
                a = convert(p, src)
                b = convert(a, dst)
                back = convert(b, src)
                assert back.coords == pytest.approx(a.coords, abs=1e-12)


def test_isometry_all_ordered_pairs():
    rng = np.random.default_rng(31)
    pairs = [(random_klein_point(rng), random_klein_point(rng)) for _ in range(25)]
    for src in ALL_MODELS:
        for dst in ALL_MODELS:
            for p, q in pairs:
                a, b = convert(p, src), convert(q, src)
                da = distance(a, b)
                db = distance(convert(a, dst), convert(b, dst))
                assert db == pytest.approx(da, abs=1e-9)


def test_hub_consistency_direct_equals_via_klein():
    rng = np.random.default_rng(37)
    for src in ALL_MODELS:
        for dst in ALL_MODELS:
            if ModelTag.KLEIN in (src, dst):
                continue
            for _ in range(10):
                p = convert(random_klein_point(rng), src)
                direct = convert(p, dst)
                hubbed = convert(convert(p, ModelTag.KLEIN), dst)
                assert direct.coords == pytest.approx(hubbed.coords, abs=1e-12)


def test_square_root_free_paths():
    assert square_root_free(ModelTag.POINCARE, ModelTag.HYPERBOLOID)
    assert square_root_free(ModelTag.HEMISPHERE, ModelTag.KLEIN)
    assert not square_root_free(ModelTag.KLEIN, ModelTag.POINCARE)
    assert square_root_free(ModelTag.KLEIN, ModelTag.KLEIN)


def test_exact_rational_conversions_stay_rational():
    p = ModelPoint(
        ModelTag.HEMISPHERE, (Fraction(4, 5), Fraction(3, 5), Fraction(0))
    )
    for dst in ALL_MODELS:
        out = convert(p, dst)
        assert all(isinstance(c, (int, Fraction)) for c in out.coords), dst
        back = convert(out, ModelTag.HEMISPHERE)
        assert back.coords == p.coords  # exact round trip


def test_exact_klein_lift_needs_perfect_square():
    ok = convert(K(Fraction(3, 5), Fraction(0)), ModelTag.HYPERBOLOID)
    assert ok.coords == (Fraction(5, 4), Fraction(3, 4), Fraction(0))
    with pytest.raises(ExactArithmeticUnavailable):
        lift_to_hemisphere((Fraction(1, 3), Fraction(0)))


def test_curvature_rescaling_round_trip():
    from hypervoronoi import Curvature

    kappa = -0.25  # r = 2
    p = ModelPoint(ModelTag.KLEIN, (1.2, 0.4), Curvature(kappa))
    for dst in ALL_MODELS:
        out = convert(p, dst)
        assert out.curvature.kappa == kappa
        back = convert(out, ModelTag.KLEIN)
        assert back.coords == pytest.approx(p.coords, abs=1e-12)
