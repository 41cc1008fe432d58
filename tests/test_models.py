import math
from decimal import ROUND_HALF_UP, Context, Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import (
    ArityMismatch,
    Curvature,
    DomainViolation,
    ModelMismatch,
    ModelPoint,
    ModelTag,
    convert,
    distance,
    lorentz_inner,
    metric_tensor,
    validate_point,
)

from hypervoronoi.scalars import bounded_str, row_floats
from util import ALL_MODELS, random_klein_point, random_model_point


def K(*coords, kappa=-1):
    return ModelPoint(ModelTag.KLEIN, coords, Curvature(kappa))


# --- domain validation -------------------------------------------------------

def test_klein_interior_point_is_valid():
    validate_point(K(0.5, 0.0))


def test_klein_boundary_point_rejected():
    with pytest.raises(DomainViolation):
        validate_point(K(1.0, 0.0))


def test_hyperboloid_membership_by_direct_arithmetic():
    # 0.75^2 - 1.25^2 = -1 exactly
    validate_point(ModelPoint(ModelTag.HYPERBOLOID, (1.25, 0.75, 0.0)))


def test_hyperboloid_off_sheet_rejected():
    with pytest.raises(DomainViolation):
        validate_point(ModelPoint(ModelTag.HYPERBOLOID, (1.3, 0.75, 0.0)))
    with pytest.raises(DomainViolation):
        validate_point(ModelPoint(ModelTag.HYPERBOLOID, (-1.25, 0.75, 0.0)))


def test_hyperboloid_membership_scales_with_x0():
    # a valid Klein point near the boundary lifts to x0 ~ 7e4, where the
    # residual of sum x_i^2 - x_0^2 = -1 carries rounding error ~ 1e-6
    klein = ModelPoint(ModelTag.KLEIN, (0.6 * (1 - 1e-10), 0.8 * (1 - 1e-10)))
    lifted = convert(klein, ModelTag.HYPERBOLOID)
    assert lifted.coords[0] > 7e4
    validate_point(lifted)
    # off the sheet by a relative 1e-6 at the same height
    x0 = 7e4
    with pytest.raises(DomainViolation):
        validate_point(
            ModelPoint(ModelTag.HYPERBOLOID, (x0, math.sqrt(x0 * x0 - 1) * (1 + 1e-6), 0.0))
        )


def test_hemisphere_membership_tolerance():
    validate_point(ModelPoint(ModelTag.HEMISPHERE, (0.8, 0.6, 0.0)))
    with pytest.raises(DomainViolation):
        validate_point(ModelPoint(ModelTag.HEMISPHERE, (0.8, 0.7, 0.0)))


def test_upper_half_space_height_is_last_coordinate():
    validate_point(ModelPoint(ModelTag.UPPER_HALF_SPACE, (3.0, 0.1)))
    with pytest.raises(DomainViolation):
        validate_point(ModelPoint(ModelTag.UPPER_HALF_SPACE, (0.1, -3.0)))


def test_exact_membership_is_exact():
    p = ModelPoint(ModelTag.HEMISPHERE, (Fraction(4, 5), Fraction(3, 5), Fraction(0)))
    validate_point(p)
    q = ModelPoint(
        ModelTag.HEMISPHERE, (Fraction(4, 5), Fraction(3, 5), Fraction(1, 10**9))
    )
    with pytest.raises(DomainViolation):
        validate_point(q)


@pytest.mark.parametrize("coords", [(1.0, 0.0, 0.0), (Fraction(5, 4), Fraction(3, 4), Fraction(0))])
def test_hyperboloid_metric_tensor_is_the_lorentz_form(coords):
    g = metric_tensor(ModelPoint(ModelTag.HYPERBOLOID, coords))
    assert np.array_equal(g, np.diag([-1.0, 1.0, 1.0]))


def test_row_floats_scales_up_an_exact_row_below_one():
    """Every |coefficient| below 1: the row is multiplied by a power of two
    above 1, exactly, so a row too small for float64 keeps its ratios."""
    assert row_floats((Fraction(1, 3), Fraction(-1, 5), 0)) == (2 / 3, -0.4, 0.0)
    tiny = row_floats((Fraction(1, 10**400), Fraction(-3, 10**400)))
    assert 0.25 < tiny[0] < 1 and tiny[1] / tiny[0] == pytest.approx(-3.0, rel=1e-15)


def test_dimension_below_two_rejected():
    with pytest.raises(ArityMismatch):
        validate_point(ModelPoint(ModelTag.KLEIN, (0.5,)))


def test_curvature_must_be_negative():
    with pytest.raises(DomainViolation):
        Curvature(0.5)


@pytest.mark.parametrize("kappa", [-math.inf, -1e-320, Fraction(-1, 10**700), -(10**700)])
def test_curvature_needs_a_finite_positive_float_radius(kappa):
    with pytest.raises(DomainViolation):
        Curvature(kappa)


def test_exact_curvature_radius_does_not_pass_through_float_kappa():
    assert Curvature(Fraction(-1, 10**400)).radius == 1e200
    assert Curvature(Fraction(-(10**400))).radius == 1e-200
    assert Curvature(Fraction(-1, 3)).radius == math.sqrt(3.0)


# --- distances ---------------------------------------------------------------

def test_klein_distance_zero_at_identical_points():
    assert distance(K(0.0, 0.0), K(0.0, 0.0)) == 0.0


def high_precision_klein_distance(p, q):
    # Klein arccosh formula evaluated at 50 digits.
    getcontext().prec = 50
    p = [Decimal(c) for c in p]
    q = [Decimal(c) for c in q]
    num = 1 - sum(a * b for a, b in zip(p, q))
    den = ((1 - sum(a * a for a in p)) * (1 - sum(a * a for a in q))).sqrt()
    x = num / den
    return float((x + (x * x - 1).sqrt()).ln())


def test_klein_distance_example_against_arctanh_and_high_precision():
    d = distance(K(0.0, 0.0), K(0.5, 0.0))
    assert d == pytest.approx(math.atanh(0.5), abs=1e-14)
    assert d == pytest.approx(0.5493061443340549, abs=1e-12)
    assert d == pytest.approx(
        high_precision_klein_distance((0.0, 0.0), (0.5, 0.0)), abs=1e-13
    )


def test_hyperboloid_distance_is_arccosh_of_lorentz_product():
    p = ModelPoint(ModelTag.HYPERBOLOID, (1.0, 0.0, 0.0))
    q = ModelPoint(ModelTag.HYPERBOLOID, (math.cosh(1.0), math.sinh(1.0), 0.0))
    assert distance(p, q) == pytest.approx(1.0, abs=1e-12)


def test_hemisphere_distance_matches_klein_under_vertical_lift():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_klein_point(rng)
        b = random_klein_point(rng)
        la = convert(a, ModelTag.HEMISPHERE)
        lb = convert(b, ModelTag.HEMISPHERE)
        assert distance(la, lb) == pytest.approx(distance(a, b), abs=1e-11)


def test_distance_requires_matching_charts():
    p = K(0.1, 0.0)
    q = ModelPoint(ModelTag.POINCARE, (0.1, 0.0))
    with pytest.raises(ModelMismatch):
        distance(p, q)
    with pytest.raises(ModelMismatch):
        distance(p, K(0.1, 0.2, kappa=-2))


def test_distance_symmetry_is_exact():
    rng = np.random.default_rng(11)
    for model in ALL_MODELS:
        for _ in range(25):
            p = random_model_point(model, rng)
            q = random_model_point(model, rng)
            assert distance(p, q) == distance(q, p)


def test_triangle_inequality_on_random_triples():
    rng = np.random.default_rng(13)
    for model in ALL_MODELS:
        for _ in range(40):
            p, q, x = (random_model_point(model, rng) for _ in range(3))
            assert distance(p, q) <= distance(p, x) + distance(x, q) + 1e-9


def test_curvature_scaling():
    # kappa = -1/r^2: coordinates scaled by r give r times the unit distance
    rng = np.random.default_rng(17)
    for r in (0.5, 2.0, 3.5):
        kappa = -1.0 / (r * r)
        for _ in range(20):
            a = random_klein_point(rng)
            b = random_klein_point(rng)
            pa = ModelPoint(ModelTag.KLEIN, tuple(r * c for c in a.coords), Curvature(kappa))
            pb = ModelPoint(ModelTag.KLEIN, tuple(r * c for c in b.coords), Curvature(kappa))
            assert distance(pa, pb) == pytest.approx(r * distance(a, b), abs=1e-9)


# --- lorentz inner product ---------------------------------------------------

def test_lorentz_inner_examples():
    assert lorentz_inner((1, 0, 0), (1, 0, 0)) == -1
    assert lorentz_inner((1.25, 0.75, 0.0), (1.25, 0.75, 0.0)) == pytest.approx(-1.0)
    assert lorentz_inner((1, 0, 0), (0, 1, 0)) == 0


def test_lorentz_inner_arity():
    with pytest.raises(ArityMismatch):
        lorentz_inner((1, 0, 0), (1, 0))


# --- metric tensors ----------------------------------------------------------

def test_poincare_tensor_at_origin_is_four_identity():
    g = metric_tensor(ModelPoint(ModelTag.POINCARE, (0.0, 0.0)))
    assert np.allclose(g, 4.0 * np.eye(2), atol=1e-15)


def test_klein_tensor_at_origin_is_identity():
    g = metric_tensor(K(0.0, 0.0))
    assert np.allclose(g, np.eye(2), atol=1e-15)


def test_upper_tensor_is_inverse_height_squared():
    h = 0.7
    g = metric_tensor(ModelPoint(ModelTag.UPPER_HALF_SPACE, (0.3, h)))
    assert np.allclose(g, np.eye(2) / (h * h), atol=1e-14)


def test_conformal_models_have_scalar_tensors():
    rng = np.random.default_rng(19)
    for model in (ModelTag.POINCARE, ModelTag.UPPER_HALF_SPACE, ModelTag.HEMISPHERE):
        for _ in range(30):
            p = random_model_point(model, rng)
            g = metric_tensor(p)
            diag = np.diag(g)
            off = g - np.diag(diag)
            assert np.max(np.abs(off)) <= 1e-12 * np.max(np.abs(diag))
            assert np.ptp(diag) <= 1e-12 * np.max(np.abs(diag))


def test_klein_tensor_not_proportional_off_origin():
    p = K(0.5, 0.0)
    g = metric_tensor(p)
    eig = np.linalg.eigvalsh(g)
    margin = (eig.max() - eig.min()) / eig.max()
    assert margin > 0.1


def test_bounded_str_rounds_the_exact_value_half_up():
    rng = np.random.default_rng(8)
    ctx = Context(prec=4, rounding=ROUND_HALF_UP)  # four significant digits
    values = [Fraction(99995, 10), Fraction(10005, 10000), Fraction(-1, 3), Fraction(5, 10**9), Fraction(7), Fraction(-123456789)]
    for _ in range(300):
        num = int(rng.integers(1, 10**9)) * 10 ** int(rng.integers(0, 40))
        den = int(rng.integers(1, 10**9)) * 10 ** int(rng.integers(0, 40))
        values.append(Fraction(num if rng.integers(2) else -num, den))
    for x in values:
        want = ctx.divide(Decimal(x.numerator), Decimal(x.denominator))
        mantissa, exponent = format(want, ".3e").split("e")
        assert bounded_str(x) == f"{mantissa}e{int(exponent):+03d}"
    assert bounded_str(0) == "0" and bounded_str(0.25) == "0.25"


def test_bounded_str_is_short_past_the_float_range():
    assert bounded_str(10**100000 - 1) == "1.000e+100000"
    assert bounded_str(Fraction(-2, 3 * 10**400)) == "-6.667e-401"
    assert bounded_str(-(2**5000)) == "-1.412e+1505"
    assert bounded_str(Fraction(10005, 10000)) == "1.001e+00"


def test_exact_membership_error_keeps_the_exact_excess():
    with pytest.raises(DomainViolation) as e:
        validate_point(ModelPoint(ModelTag.HEMISPHERE, (10**3000, 0, 0)))
    assert e.value.excess == 10**6000 - 1
    assert len(str(e.value)) < 100 and "1.000e+6000" in str(e.value)
