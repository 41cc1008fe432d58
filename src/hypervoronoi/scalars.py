"""Scalar and small-vector helpers generic over float and Fraction.

Every geometric routine in this package works on plain tuples whose
entries are either floats or exact rationals (`fractions.Fraction` /
`int`).  Rational inputs stay rational through every square-root-free
operation; square roots either succeed exactly (perfect squares) or
raise `ExactArithmeticUnavailable`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Union

from .errors import ArityMismatch, DomainViolation, ExactArithmeticUnavailable

Scalar = Union[int, float, Fraction]
Vector = tuple


def is_exact(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def all_exact(coords: Sequence[Scalar]) -> bool:
    return all(is_exact(x) for x in coords)


def exact_sqrt(x: Scalar) -> Fraction:
    """Square root of a nonnegative rational, exact or error.

    Raises ExactArithmeticUnavailable when x is not the square of a
    rational, so callers can surface "this path needs algebraic
    arithmetic" instead of silently degrading to float.
    """
    f = Fraction(x)
    if f < 0:
        raise ExactArithmeticUnavailable(f"square root of negative rational {f}")
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn != f.numerator or rd * rd != f.denominator:
        raise ExactArithmeticUnavailable(f"{f} is not a perfect rational square")
    return Fraction(rn, rd)


def sqrt_scalar(x: Scalar) -> Scalar:
    """sqrt that preserves exactness: Fraction in, Fraction out (or raise)."""
    if is_exact(x):
        return exact_sqrt(x)
    return math.sqrt(x)


# arccosh arguments may land epsilon below 1 through rounding; clamp a
# narrow window and reject anything further out as a real domain error.
ACOSH_CLAMP = 1e-12


def acosh_clamped(x: float) -> float:
    x = float(x)
    if x < 1.0:
        if x >= 1.0 - ACOSH_CLAMP:
            return 0.0
        raise DomainViolation(
            f"arccosh argument {x} below 1 by more than {ACOSH_CLAMP}",
            constraint="arccosh argument >= 1",
            excess=1.0 - x,
        )
    return math.log(x + math.sqrt(x * x - 1.0))


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise ArityMismatch(f"dot of length {len(u)} with length {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def norm_sq(u: Sequence[Scalar]) -> Scalar:
    return sum(a * a for a in u)


def vsub(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def as_floats(u: Sequence[Scalar]) -> tuple[float, ...]:
    return tuple(float(a) for a in u)
