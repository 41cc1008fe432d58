"""The five standard models of hyperbolic space: domains, distances, tensors.

Conventions used throughout the package:

* A model point in the Klein ball, Poincare ball or upper half-space
  carries d coordinates; hemisphere and hyperboloid points carry d+1
  coordinates with the extra coordinate x0 stored first.
* The upper half-space height is the LAST coordinate.
* Curvature kappa < 0 gives the model radius r = sqrt(-1/kappa).  All
  formulas are evaluated at the unit model (coordinates divided by r,
  kappa = -1) and lengths are scaled back by r afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import ArityMismatch, DomainViolation, ExactArithmeticUnavailable, ModelMismatch, ParseError
from .scalars import (
    Scalar,
    acosh_clamped,
    all_exact,
    bounded_str,
    dot,
    exact_sqrt,
    is_exact,
    norm_sq,
    vsub,
)

# Tolerance of the on-manifold equality constraints (hemisphere sphere,
# hyperboloid sheet) in float mode, relative to max(1, x0^2): the scale of
# the residual, as x0 grows without bound on the hyperboloid.
MEMBERSHIP_TOL = 1e-9


class ModelTag(Enum):
    KLEIN = "klein"
    POINCARE = "poincare"
    UPPER_HALF_SPACE = "upper-half-space"
    HEMISPHERE = "hemisphere"
    HYPERBOLOID = "hyperboloid"

    @property
    def ambient(self) -> bool:
        """True for the models stored with d+1 coordinates."""
        return self in (ModelTag.HEMISPHERE, ModelTag.HYPERBOLOID)

    @classmethod
    def parse(cls, name: str) -> "ModelTag":
        key = name.strip().lower().replace("_", "-")
        aliases = {
            "k": cls.KLEIN,
            "p": cls.POINCARE,
            "u": cls.UPPER_HALF_SPACE,
            "b": cls.HEMISPHERE,
            "l": cls.HYPERBOLOID,
            "upper": cls.UPPER_HALF_SPACE,
            "upper-half-plane": cls.UPPER_HALF_SPACE,
            "upper-halfspace": cls.UPPER_HALF_SPACE,
            "lorentz": cls.HYPERBOLOID,
        }
        if key in aliases:
            return aliases[key]
        for tag in cls:
            if tag.value == key:
                return tag
        raise ParseError(f"unknown model {name!r}")


@dataclass(frozen=True)
class Curvature:
    """Sectional curvature kappa < 0 of the hyperbolic space, whose model
    radius is a finite positive float."""

    kappa: Scalar = -1

    def __post_init__(self):
        if not self.kappa < 0:
            raise DomainViolation(
                f"curvature must be negative, got {self.kappa}",
                constraint="kappa < 0",
            )
        if not 0.0 < self.radius < math.inf:
            raise DomainViolation(
                "curvature's model radius sqrt(-1/kappa) is not a positive float",
                constraint="0 < sqrt(-1/kappa) < inf",
            )

    @property
    def radius(self) -> float:
        """sqrt(-1/kappa), inf past the float range.  An exact kappa is taken
        through -1/kappa scaled by a power of four, so no step under- or
        overflows that the radius itself does not."""
        if not is_exact(self.kappa):
            return math.sqrt(-1.0 / self.kappa)
        r2 = self.radius_sq
        e = (r2.numerator.bit_length() - r2.denominator.bit_length()) // 2
        try:
            return math.ldexp(math.sqrt(r2 / Fraction(4) ** e), e)
        except OverflowError:
            return math.inf

    @property
    def radius_sq(self) -> Scalar:
        if is_exact(self.kappa):
            return Fraction(-1, 1) / Fraction(self.kappa)
        return -1.0 / self.kappa

    def exact_radius(self) -> Fraction:
        """Rational model radius, or ExactArithmeticUnavailable."""
        if not is_exact(self.kappa):
            raise ExactArithmeticUnavailable("curvature is not rational")
        return exact_sqrt(self.radius_sq)

    @property
    def is_unit(self) -> bool:
        return self.kappa == -1


UNIT_CURVATURE = Curvature(-1)


@dataclass(frozen=True)
class ModelPoint:
    """A point of hyperbolic space tagged with its model and curvature."""

    model: ModelTag
    coords: tuple
    curvature: Curvature = UNIT_CURVATURE

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))

    @property
    def dim(self) -> int:
        """Intrinsic dimension d of the hyperbolic space."""
        n = len(self.coords)
        return n - 1 if self.model.ambient else n

    def unit_coords(self) -> tuple:
        """Coordinates rescaled to the r = 1 model."""
        if self.curvature.is_unit:
            return self.coords
        if all_exact(self.coords) and is_exact(self.curvature.kappa):
            try:
                r = self.curvature.exact_radius()
                return tuple(Fraction(x) / r for x in self.coords)
            except ExactArithmeticUnavailable:
                pass
        r = self.curvature.radius
        try:
            return tuple(float(x) / r for x in self.coords)
        except OverflowError as e:
            raise DomainViolation(f"coordinate out of float range: {e}") from e


def _require_arity(p: ModelPoint) -> int:
    d = p.dim
    if d < 2:
        raise ArityMismatch(
            f"{p.model.value} point needs at least "
            f"{3 if p.model.ambient else 2} coordinates, got {len(p.coords)}"
        )
    return d


def validate_point(p: ModelPoint) -> None:
    """Check the model domain invariant; raise DomainViolation if broken.

    Equality constraints (sphere/hyperboloid membership) are checked to
    MEMBERSHIP_TOL relative to max(1, x0^2) for float points and exactly
    for rational points; inequality constraints are strict.  Messages
    quote exact values in `bounded_str` form, short whatever their size
    (they may lie beyond the float range); `excess` keeps the exact value.
    """
    _require_arity(p)
    u = p.unit_coords()
    model = p.model
    if model in (ModelTag.KLEIN, ModelTag.POINCARE):
        n2 = norm_sq(u)
        if not n2 < 1:
            raise DomainViolation(
                f"{model.value} point has squared norm {bounded_str(n2)} >= r^2",
                constraint="sum x_i^2 < r^2",
                excess=n2 - 1,
            )
    elif model is ModelTag.UPPER_HALF_SPACE:
        if not u[-1] > 0:
            raise DomainViolation(
                f"upper half-space height {bounded_str(u[-1])} is not positive",
                constraint="height > 0",
                excess=-u[-1],
            )
    elif model is ModelTag.HEMISPHERE:
        n2 = norm_sq(u)
        _check_membership(n2 - 1, "sum x_i^2 = r^2", u)
        _check_positive_x0(u)
    elif model is ModelTag.HYPERBOLOID:
        residual = norm_sq(u[1:]) - u[0] * u[0] + 1
        _check_membership(residual, "sum x_i^2 - x_0^2 = -r^2", u)
        _check_positive_x0(u)
    else:  # pragma: no cover - closed enumeration
        raise ModelMismatch(f"unknown model {model}")


def _check_membership(residual: Scalar, constraint: str, u: tuple) -> None:
    if all_exact(u):
        if residual != 0:
            raise DomainViolation(
                f"exact point violates {constraint} by {bounded_str(residual)}",
                constraint=constraint,
                excess=residual,
            )
    # past the float range the ratio is nan and fails the test
    elif not abs(float(residual)) / max(1.0, float(u[0]) * float(u[0])) <= MEMBERSHIP_TOL:
        raise DomainViolation(
            f"point violates {constraint} by {float(residual)}",
            constraint=constraint,
            excess=float(residual),
        )


def _check_positive_x0(u: tuple) -> None:
    if not u[0] > 0:
        raise DomainViolation(
            f"extra coordinate x_0 = {bounded_str(u[0])} is not positive",
            constraint="x_0 > 0",
            excess=-u[0],
        )


def check_same_chart(p: ModelPoint, q: ModelPoint) -> None:
    if p.model is not q.model:
        raise ModelMismatch(f"models differ: {p.model.value} vs {q.model.value}")
    if p.curvature.kappa != q.curvature.kappa:
        raise ModelMismatch(
            f"curvatures differ: {p.curvature.kappa} vs {q.curvature.kappa}"
        )
    if len(p.coords) != len(q.coords):
        raise ArityMismatch(
            f"coordinate counts differ: {len(p.coords)} vs {len(q.coords)}"
        )


def lorentz_inner(x, y) -> Scalar:
    """Lorentzian inner product -x0*y0 + sum_i x_i*y_i."""
    if len(x) != len(y):
        raise ArityMismatch(f"lengths differ: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ArityMismatch("lorentz inner product needs at least 2 coordinates")
    return -x[0] * y[0] + dot(x[1:], y[1:])


def cosh_distance_unit(model: ModelTag, u: tuple, v: tuple) -> float:
    """cosh of the hyperbolic distance between unit-model coordinates."""
    if model is ModelTag.KLEIN:
        num = 1 - dot(u, v)
        den = math.sqrt(float((1 - norm_sq(u)) * (1 - norm_sq(v))))
        return float(num) / den
    if model is ModelTag.POINCARE:
        return 1 + 2 * float(norm_sq(vsub(u, v))) / float(
            (1 - norm_sq(u)) * (1 - norm_sq(v))
        )
    if model is ModelTag.UPPER_HALF_SPACE:
        return 1 + float(norm_sq(vsub(u, v))) / float(2 * u[-1] * v[-1])
    if model is ModelTag.HYPERBOLOID:
        return -float(lorentz_inner(u, v))
    if model is ModelTag.HEMISPHERE:
        return 1 + float(1 - dot(u, v)) / float(u[0] * v[0])
    raise ModelMismatch(f"unknown model {model}")  # pragma: no cover


def distance(p: ModelPoint, q: ModelPoint) -> float:
    """Hyperbolic distance between two points of the same model/curvature."""
    check_same_chart(p, q)
    validate_point(p)
    validate_point(q)
    if p.coords == q.coords:
        return 0.0
    c = cosh_distance_unit(p.model, p.unit_coords(), q.unit_coords())
    return p.curvature.radius * acosh_clamped(c)


def metric_tensor(p: ModelPoint) -> np.ndarray:
    """Point-wise Riemannian metric tensor, evaluated at p.

    Returns a d x d matrix for the Klein/Poincare/upper models and a
    (d+1) x (d+1) ambient form for hemisphere/hyperboloid.  The Poincare,
    upper and hemisphere tensors are positive multiples of the identity
    (conformal models); the Klein tensor is proportional to the identity
    only at the origin.
    """
    validate_point(p)
    u = np.asarray([float(x) for x in p.unit_coords()])
    model = p.model
    if model is ModelTag.KLEIN:
        s = 1.0 - float(u @ u)
        return np.eye(len(u)) / s + np.outer(u, u) / (s * s)
    if model is ModelTag.POINCARE:
        s = 1.0 - float(u @ u)
        return (4.0 / (s * s)) * np.eye(len(u))
    if model is ModelTag.UPPER_HALF_SPACE:
        return np.eye(len(u)) / (u[-1] * u[-1])
    if model is ModelTag.HEMISPHERE:
        return np.eye(len(u)) / (u[0] * u[0])
    if model is ModelTag.HYPERBOLOID:
        g = np.eye(len(u))
        g[0, 0] = -1.0
        return g
    raise ModelMismatch(f"unknown model {model}")  # pragma: no cover
