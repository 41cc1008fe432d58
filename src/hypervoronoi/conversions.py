"""Bijective, distance-preserving maps between the five models.

Every path factors through Klein coordinates.  Internally a point is
carried as its hemisphere lift (x0, x1, ..., xd) with x0 =
sqrt(1 - |x_Klein|^2): the last d entries are exactly the Klein
coordinates, and keeping x0 alongside them makes each step rational.
Only a conversion *starting* from Klein coordinates introduces a square
root; every other model reaches the lift by a rational formula, so
those paths stay exact on rational input.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainViolation, ExactArithmeticUnavailable, ModelMismatch, NumericalUnderflow
from .models import ModelPoint, ModelTag, validate_point
from .scalars import all_exact, is_exact, norm_sq, sqrt_scalar

# Conversion denominators vanish at the Klein boundary; points this close
# (in 1 - |x|^2) are rejected rather than converted.
BOUNDARY_GUARD = 1e-14


def lift_to_hemisphere(x) -> tuple:
    """Vertical lift of unit-Klein coordinates onto the unit hemisphere.

    (x1, ..., xd) -> (sqrt(1 - |x|^2), x1, ..., xd).  Exact on rational
    input only when 1 - |x|^2 is a perfect rational square.
    """
    s2 = 1 - norm_sq(x)
    if float(s2) < BOUNDARY_GUARD:
        raise NumericalUnderflow(
            f"point with 1 - |x|^2 = {float(s2)} is within {BOUNDARY_GUARD} "
            "of the Klein boundary"
        )
    return (sqrt_scalar(s2),) + tuple(x)


def drop_to_klein(p) -> tuple:
    """Vertical projection of a hemisphere point to Klein coordinates."""
    return tuple(p[1:])


def _poincare_to_hub(x) -> tuple:
    n = norm_sq(x)
    den = 1 + n
    return ((1 - n) / den,) + tuple(2 * xi / den for xi in x)


def _hub_to_poincare(h) -> tuple:
    den = 1 + h[0]
    return tuple(xi / den for xi in h[1:])


def _upper_to_hub(u) -> tuple:
    # stored upper point: (v1, ..., v_{d-1}, height)
    h = u[-1]
    v = u[:-1]
    n = h * h + norm_sq(v)
    den = 1 + n
    return (2 * h / den,) + tuple(2 * vi / den for vi in v) + ((n - 1) / den,)


def _hub_to_upper(hub) -> tuple:
    den = 1 - hub[-1]
    if abs(float(den)) < BOUNDARY_GUARD:
        raise NumericalUnderflow(
            "Klein coordinate x_d too close to 1 for the upper half-space map"
        )
    return tuple(xi / den for xi in hub[1:-1]) + (hub[0] / den,)


def _hyperboloid_to_hub(x) -> tuple:
    x0 = x[0]
    return (1 / x0,) + tuple(xi / x0 for xi in x[1:])


def _hub_to_hyperboloid(hub) -> tuple:
    x0 = hub[0]
    if float(x0) < BOUNDARY_GUARD:
        raise NumericalUnderflow("lift coordinate x_0 vanishes; point at Klein boundary")
    return (1 / x0,) + tuple(xi / x0 for xi in hub[1:])


_TO_HUB = {
    ModelTag.KLEIN: lift_to_hemisphere,
    ModelTag.POINCARE: _poincare_to_hub,
    ModelTag.UPPER_HALF_SPACE: _upper_to_hub,
    ModelTag.HEMISPHERE: lambda x: tuple(x),
    ModelTag.HYPERBOLOID: _hyperboloid_to_hub,
}

_FROM_HUB = {
    ModelTag.KLEIN: drop_to_klein,
    ModelTag.POINCARE: _hub_to_poincare,
    ModelTag.UPPER_HALF_SPACE: _hub_to_upper,
    ModelTag.HEMISPHERE: lambda x: tuple(x),
    ModelTag.HYPERBOLOID: _hub_to_hyperboloid,
}


def square_root_free(source: ModelTag, target: ModelTag) -> bool:
    """Whether the source->target path avoids square roots entirely."""
    return source is target or source is not ModelTag.KLEIN


def hub_coords(p: ModelPoint) -> tuple:
    """Hemisphere-lift coordinates of p at unit scale (validates p)."""
    validate_point(p)
    hub = _TO_HUB[p.model](p.unit_coords())
    if not all_exact(hub) and not all(map(math.isfinite, hub)):
        raise DomainViolation(f"{p.model.value} point's lift leaves the float range: {hub}")
    return hub


def from_hub(hub, model: ModelTag, curvature) -> ModelPoint:
    """Build a ModelPoint of the given model from unit-scale lift coords."""
    out = _FROM_HUB[model](hub)
    if not curvature.is_unit:
        if all_exact(out) and is_exact(curvature.kappa):
            try:
                r = curvature.exact_radius()
                out = tuple(Fraction(x) * r for x in out)
            except ExactArithmeticUnavailable:
                r = curvature.radius
                out = tuple(float(x) * r for x in out)
        else:
            r = curvature.radius
            out = tuple(float(x) * r for x in out)
    return ModelPoint(model, out, curvature)


def convert(p: ModelPoint, to: ModelTag) -> ModelPoint:
    """Convert p to another model of the same curvature (an isometry).

    Rational coordinates stay rational on every square-root-free path
    (i.e. whenever the source is not the Klein model, where the lift
    may still succeed exactly for points with a rational lift).
    """
    if not isinstance(to, ModelTag):
        raise ModelMismatch(f"target model must be a ModelTag, got {to!r}")
    if to is p.model:
        validate_point(p)
        return p
    return from_hub(hub_coords(p), to, p.curvature)
