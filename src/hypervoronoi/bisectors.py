"""Bisectors and geodesics in all five models, as one quadric type.

Every bisector is the zero set of  lam*<x,x> + <a,x> + b  intersected
with the model domain (for hemisphere/hyperboloid the coefficients act
on the d+1 ambient coordinates).  Coefficients are projective; bisector
construction orients them so the first site's side evaluates negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .conversions import hub_coords, _hub_to_hyperboloid, _hyperboloid_to_hub, from_hub, lift_to_hemisphere
from .errors import (
    ArityMismatch,
    CoincidentSites,
    DegenerateSurface,
    ExactArithmeticUnavailable,
    UnsupportedPath,
)
from .models import (
    Curvature,
    ModelPoint,
    ModelTag,
    UNIT_CURVATURE,
    check_same_chart,
    lorentz_inner,
    validate_point,
)
from .scalars import acosh_clamped, as_floats, dot, norm_sq, row_floats, sqrt_scalar

CLASSIFY_TOL = 1e-12
# Below this separation the sinh-based geodesic loses accuracy; fall back
# to linear interpolation in Klein coordinates.
TINY_GEODESIC = 1e-6


class SurfaceClass(Enum):
    HYPERPLANE = "hyperplane"
    HYPERPLANE_THROUGH_ORIGIN = "hyperplane-through-origin"
    SPHERE = "sphere"
    VERTICAL_SPHERE = "vertical-sphere"


@dataclass(frozen=True)
class ImplicitSurface:
    """Quadric lam*<x,x> + <a,x> + b = 0 restricted to a model domain."""

    lam: object
    a: tuple
    b: object
    model: ModelTag

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(self.a))
        if self.lam == 0 and self.b == 0 and all(c == 0 for c in self.a):
            raise DegenerateSurface("surface coefficients are identically zero")

    def evaluate(self, x) -> object:
        if len(x) != len(self.a):
            raise ArityMismatch(f"surface arity {len(self.a)}, point arity {len(x)}")
        return self.lam * norm_sq(x) + dot(self.a, x) + self.b

    def coefficients(self) -> tuple:
        return (self.lam,) + self.a + (self.b,)

    def negated(self) -> "ImplicitSurface":
        return ImplicitSurface(-self.lam, tuple(-c for c in self.a), -self.b, self.model)

    def canonical(self) -> "ImplicitSurface":
        """Projective canonical form: first nonzero coefficient is +1."""
        for c in self.coefficients():
            if c != 0:
                return ImplicitSurface(
                    self.lam / c, tuple(ai / c for ai in self.a), self.b / c, self.model
                )
        raise DegenerateSurface("zero surface")  # pragma: no cover

    def unit(self) -> "ImplicitSurface":
        """Float surface scaled to unit coefficient 2-norm, sign preserved."""
        coeffs = row_floats(self.coefficients())
        scale = math.sqrt(sum(c * c for c in coeffs))
        return ImplicitSurface(
            coeffs[0] / scale,
            tuple(c / scale for c in coeffs[1:-1]),
            coeffs[-1] / scale,
            self.model,
        )


def evaluate(s: ImplicitSurface, x) -> object:
    """Signed value of the quadric at x; the sign picks a Voronoi side."""
    return s.evaluate(x)


def classify(s: ImplicitSurface) -> SurfaceClass:
    """`classify_rows` of the surface's one row; DegenerateSurface where
    the quadric has no real points (squared radius <= 0)."""
    (name,) = classify_rows([row_floats(s.coefficients())], s.model)
    if name == "degenerate":
        raise DegenerateSurface(f"quadric {s.coefficients()} has squared radius <= 0")
    return SurfaceClass(name)


def classify_rows(rows, model: ModelTag) -> list:
    """Each row's surface class name, "degenerate" where its squared radius
    is <= 0: with lam, a and b the row's first, middle and last
    coefficients, a plane when |lam| <= CLASSIFY_TOL times the largest
    |coefficient|, through the origin when |b| is too, and on the
    hemisphere vertical when |a_0| is too; a sphere otherwise, its
    squared radius |a|^2 / (4 lam^2) - b / lam (sums run left to right; a
    NaN radius is a sphere).  The package's one surface class."""
    R = np.asarray(rows, dtype=float)
    with np.errstate(all="ignore"):
        bound = CLASSIFY_TOL * np.abs(R).max(axis=1)
        lam, b = R[:, 0], R[:, -1]
        plane = np.abs(lam) <= bound
        vertical = plane & (np.abs(R[:, 1]) <= bound) & (model is ModelTag.HEMISPHERE)
        a_sq = R[:, 1] * R[:, 1]
        for c in range(2, R.shape[1] - 1):
            a_sq = a_sq + R[:, c] * R[:, c]
        degenerate = a_sq / (4 * lam * lam) - b / lam <= 0
    code = np.select([vertical, plane & (np.abs(b) <= bound), plane, degenerate], [0, 1, 2, 3], 4)
    names = (SurfaceClass.VERTICAL_SPHERE.value, SurfaceClass.HYPERPLANE_THROUGH_ORIGIN.value,
             SurfaceClass.HYPERPLANE.value, "degenerate", SurfaceClass.SPHERE.value)
    return [names[c] for c in code.tolist()]


def sphere_center_radius(s: ImplicitSurface) -> tuple[tuple, float]:
    """Center and radius of a SPHERE-classified surface (floats)."""
    coeffs = row_floats(s.coefficients())
    lam, a, b = coeffs[0], coeffs[1:-1], coeffs[-1]
    center = tuple(-c / (2 * lam) for c in a)
    radius_sq = sum(c * c for c in center) - b / lam
    if radius_sq <= 0:
        raise DegenerateSurface(f"squared radius {radius_sq} <= 0")
    return center, math.sqrt(radius_sq)


def _sqrt_lenient(x):
    try:
        return sqrt_scalar(x)
    except ExactArithmeticUnavailable:
        return math.sqrt(float(x))


def _bisector_unit(model: ModelTag, u: tuple, v: tuple) -> ImplicitSurface:
    if model is ModelTag.KLEIN:
        sp = _sqrt_lenient(1 - norm_sq(u))
        sq = _sqrt_lenient(1 - norm_sq(v))
        a = tuple(vi * sp - ui * sq for ui, vi in zip(u, v))
        return ImplicitSurface(0, a, sq - sp, model)
    if model is ModelTag.POINCARE:
        alpha = 1 / (1 - norm_sq(u))
        beta = 1 / (1 - norm_sq(v))
        a = tuple(2 * (beta * vi - alpha * ui) for ui, vi in zip(u, v))
        return ImplicitSurface(
            alpha - beta, a, alpha * norm_sq(u) - beta * norm_sq(v), model
        )
    if model is ModelTag.UPPER_HALF_SPACE:
        hp, hq = u[-1], v[-1]
        a = tuple(2 * (vi / hq - ui / hp) for ui, vi in zip(u, v))
        return ImplicitSurface(
            1 / hp - 1 / hq, a, norm_sq(u) / hp - norm_sq(v) / hq, model
        )
    if model is ModelTag.HYPERBOLOID:
        # <x, q - p>_L = 0: hyperplane through the origin, exactly.
        a = (u[0] - v[0],) + tuple(vi - ui for ui, vi in zip(u[1:], v[1:]))
        return ImplicitSurface(0, a, 0, model)
    if model is ModelTag.HEMISPHERE:
        # ambient x0 coefficient vanishes identically: a vertical sphere.
        a = (0,) + tuple(vi / v[0] - ui / u[0] for ui, vi in zip(u[1:], v[1:]))
        return ImplicitSurface(0, a, 1 / u[0] - 1 / v[0], model)
    raise UnsupportedPath(f"unknown model {model}")  # pragma: no cover


def scale_surface(s: ImplicitSurface, curvature: Curvature, to_unit: bool) -> ImplicitSurface:
    """Move coefficients between unit coordinates and radius-r coordinates."""
    if curvature.is_unit:
        return s
    r2 = curvature.radius_sq
    try:
        r = curvature.exact_radius()
    except ExactArithmeticUnavailable:
        r = curvature.radius
    if to_unit:
        return ImplicitSurface(s.lam * r2, tuple(c * r for c in s.a), s.b, s.model)
    return ImplicitSurface(s.lam / r2, tuple(c / r for c in s.a), s.b, s.model)


def bisector(p: ModelPoint, q: ModelPoint) -> ImplicitSurface:
    """Locus of points equidistant from p and q, in their native model.

    Oriented so that the surface evaluates negative at p.
    """
    check_same_chart(p, q)
    validate_point(p)
    validate_point(q)
    if p.coords == q.coords:
        raise CoincidentSites("bisector of coincident points")
    u, v = p.unit_coords(), q.unit_coords()
    s = _bisector_unit(p.model, u, v)
    if float(s.evaluate(u)) > 0:
        s = s.negated()
    return scale_surface(s, p.curvature, to_unit=False)


def geodesic(p: ModelPoint, q: ModelPoint, t: float) -> ModelPoint:
    """Constant-speed geodesic through p (t=0) and q (t=1).

    Evaluated on the hyperboloid as
        (sinh((1-t) D) p + sinh(t D) q) / sinh(D),  D = d(p, q),
    then converted back to the native model.
    """
    check_same_chart(p, q)
    if p.coords == q.coords:
        raise CoincidentSites("geodesic needs distinct endpoints")
    hp = as_floats(hub_coords(p))
    hq = as_floats(hub_coords(q))
    lp = _hub_to_hyperboloid(hp)
    lq = _hub_to_hyperboloid(hq)
    dist = acosh_clamped(-lorentz_inner(lp, lq))
    if dist < TINY_GEODESIC:
        kl = tuple((1 - t) * a + t * b for a, b in zip(hp[1:], hq[1:]))
        return from_hub(lift_to_hemisphere(kl), p.model, p.curvature)
    sh = math.sinh(dist)
    w0 = math.sinh((1 - t) * dist) / sh
    w1 = math.sinh(t * dist) / sh
    point = tuple(w0 * a + w1 * b for a, b in zip(lp, lq))
    return from_hub(_hyperboloid_to_hub(point), p.model, p.curvature)


# --- surface transport between models (Klein hub) ---------------------------

_TRANSPORT_TOL = 1e-9


def _to_klein_coeffs(s: ImplicitSurface) -> tuple[tuple, object]:
    """(a_K, b_K) of the Klein hyperplane with the same zero set."""
    lam_f, *a_f, b_f = coeffs = row_floats(s.coefficients())  # exact ones past the float range too
    scale = max(map(abs, coeffs))

    def require_small(value, what):
        if abs(value) > _TRANSPORT_TOL * scale:
            raise UnsupportedPath(f"surface is not in the bisector family: {what}")

    model = s.model
    if model is ModelTag.KLEIN:
        require_small(lam_f, "Klein bisectors are hyperplanes")
        return s.a, s.b
    if model is ModelTag.POINCARE:
        require_small(lam_f - b_f, "Poincare bisectors satisfy lam = b")
        return tuple(c / 2 for c in s.a), (s.lam + s.b) / 2
    if model is ModelTag.UPPER_HALF_SPACE:
        require_small(a_f[-1], "upper bisectors have zero height coefficient")
        a = tuple(c / 2 for c in s.a[:-1]) + ((s.lam - s.b) / 2,)
        return a, (s.lam + s.b) / 2
    if model is ModelTag.HYPERBOLOID:
        require_small(lam_f, "hyperboloid bisectors are linear")
        require_small(b_f, "hyperboloid bisectors pass through the origin")
        return tuple(s.a[1:]), s.a[0]
    if model is ModelTag.HEMISPHERE:
        require_small(lam_f, "hemisphere bisectors are vertical hyperplanes")
        require_small(a_f[0], "hemisphere bisectors have zero x_0 coefficient")
        return tuple(s.a[1:]), s.b
    raise UnsupportedPath(f"unknown model {model}")  # pragma: no cover


def _from_klein_coeffs(a, b, model: ModelTag) -> ImplicitSurface:
    if model is ModelTag.KLEIN:
        return ImplicitSurface(0, a, b, model)
    if model is ModelTag.POINCARE:
        return ImplicitSurface(b, tuple(2 * c for c in a), b, model)
    if model is ModelTag.UPPER_HALF_SPACE:
        ad = a[-1]
        return ImplicitSurface(
            ad + b, tuple(2 * c for c in a[:-1]) + (0,), b - ad, model
        )
    if model is ModelTag.HYPERBOLOID:
        return ImplicitSurface(0, (b,) + tuple(a), 0, model)
    if model is ModelTag.HEMISPHERE:
        return ImplicitSurface(0, (0,) + tuple(a), b, model)
    raise UnsupportedPath(f"unknown model {model}")  # pragma: no cover


def transport_surface(
    s: ImplicitSurface, to: ModelTag, curvature: Curvature = UNIT_CURVATURE
) -> ImplicitSurface:
    """Re-express a bisector surface in another model's coordinates.

    The zero set of the result is the `convert` image of the zero set of
    s; orientation (sign of evaluate) is preserved on the model domain.
    Only the bisector family is supported: transports substitute the
    Klein-hub conversion formulas into the coefficients, which stays
    within the quadric family exactly when the surface is a bisector.
    """
    if to is s.model:
        return s
    unit = scale_surface(s, curvature, to_unit=True)
    a, b = _to_klein_coeffs(unit)
    out = _from_klein_coeffs(a, b, to)
    return scale_surface(out, curvature, to_unit=False)
