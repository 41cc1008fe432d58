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


def bounded_str(x: Scalar) -> str:
    """A value for a one-line message: a float as it prints, an exact value
    as its sign and four significant digits times a power of ten
    (-1.898e+399).  The exact form is computed on the integers, never
    through float, so it stays short whatever the value's size."""
    if not is_exact(x):
        return str(x)
    f = Fraction(x)
    if not f:
        return "0"
    n, d = abs(f.numerator), f.denominator

    def at_least(e):  # n / d >= 10^e
        return n * 10**-e >= d if e < 0 else n >= d * 10**e

    e = (n.bit_length() - d.bit_length()) * 30103 // 100000  # log10 from the digit counts
    while not at_least(e):
        e -= 1
    while at_least(e + 1):
        e += 1
    num, den = (n * 10 ** (3 - e), d) if e <= 3 else (n, d * 10 ** (e - 3))
    m = (2 * num + den) // (2 * den)  # n / d / 10^(e - 3), rounded half up
    if m == 10000:
        m, e = 1000, e + 1
    return f"{'-' if f < 0 else ''}{m // 1000}.{m % 1000:03d}e{e:+03d}"


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


def row_floats(coeffs: Sequence[Scalar]) -> tuple[float, ...]:
    """Projective coefficients as floats.  An exact tuple is first divided
    by a power of two near its largest |coefficient|, so none leaves the
    float range; the division is exact in floating point, so every ratio
    of a tuple that converts without it stays bit for bit."""
    if not all_exact(coeffs):
        return as_floats(coeffs)
    e = max((c.numerator.bit_length() - c.denominator.bit_length() for c in coeffs if c), default=0)
    # n / (d 2^e) as one correctly rounded integer division, no Fraction made
    if e >= 0:
        return tuple(c.numerator / (c.denominator << e) for c in coeffs)
    return tuple((c.numerator << -e) / c.denominator for c in coeffs)
