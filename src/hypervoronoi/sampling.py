"""Deterministic samplers: the verification stream and random point sets.

The verification sampler is a pure function of (seed, index).  Sample i
of a stream is made from a fixed block of raw outputs of the
counter-based generator `numpy.random.Philox` keyed by the seed: the
block at counter offset i * (outputs per sample).  `ball_points` draws
the blocks of a whole stream in one call; a worker that advances the
generator to block i would make the same sample i, so fanning the stream
out cannot change a report (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC 2011).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .scalars import norm_sq

# Philox keys are 128-bit: verification seeds must lie in [0, SEED_LIMIT).
SEED_LIMIT = 2**128
# A stream's raw draw is one array of 8-byte outputs, whose size numpy
# counts in bytes in a signed 64-bit integer: it holds fewer than
# RAW_LIMIT outputs (see `count_limit`).
RAW_LIMIT = 2**60
# Raw 64-bit outputs per Philox counter step.
_BLOCK = 4


def _outputs_per_sample(d: int) -> int:
    """ceil(d/2) Box-Muller pairs plus one radius uniform, in whole blocks."""
    used = 2 * -(-d // 2) + 1
    return _BLOCK * -(-used // _BLOCK)


def count_limit(d: int) -> int:
    """The least sample count at dimension d whose raw draw cannot be
    indexed: counts must lie below it."""
    return -(-RAW_LIMIT // _outputs_per_sample(d))


def _ball_from_raw(raw: np.ndarray, d: int) -> np.ndarray:
    """Uniform points in the open unit d-ball, one per row of raw outputs.

    Box-Muller on uniforms in the open interval (0, 1) gives a standard
    normal direction that is never zero, so no draw is rejected.  The
    radius uniform keeps 32 bits, so 1 - radius >= 2**-33 / d stays far
    above the rounding of the scaled direction: every sample lies strictly
    inside the ball.
    """
    pairs = -(-d // 2)
    u = ((raw[:, : 2 * pairs] >> np.uint64(11)) + 0.5) * 2.0**-53
    rho = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    theta = 2.0 * np.pi * u[:, 1::2]
    z = np.empty((len(raw), 2 * pairs))
    z[:, 0::2] = rho * np.cos(theta)
    z[:, 1::2] = rho * np.sin(theta)
    z = z[:, :d]
    radius = (((raw[:, 2 * pairs] >> np.uint64(32)) + 0.5) * 2.0**-32) ** (1.0 / d)
    return z * (radius / np.sqrt((z * z).sum(axis=1)))[:, None]


def ball_points(seed: int, count: int, d: int) -> np.ndarray:
    """Samples 0 .. count-1 of the (seed, index) stream, shape (count, d)."""
    k = _outputs_per_sample(d)
    raw = np.random.Philox(key=seed).random_raw(count * k)
    return _ball_from_raw(raw.reshape(count, k), d)


def random_klein_points(n: int, d: int = 2, seed: int = 0, max_norm: float = 0.9):
    """n distinct pseudo-random unit-Klein points with |x| <= max_norm."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        direction = rng.standard_normal(d)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            continue
        radius = max_norm * float(rng.random()) ** (1.0 / d)
        p = tuple(float(c) * radius / norm for c in direction)
        if p not in points:
            points.append(p)
    return points


def rational_hemisphere_points(n: int, d: int = 2, seed: int = 0, max_norm: float = 0.8):
    """Exactly-rational points on the unit hemisphere (d+1 coordinates).

    Rational parameters t in the d-ball map to (1 - |t|^2, 2t) / (1 + |t|^2),
    which lies on the unit sphere identically, so membership is exact.
    """
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < n:
        direction = rng.standard_normal(d)
        norm = float(np.linalg.norm(direction))
        if norm < 1e-12:
            continue
        radius = max_norm * float(rng.random()) ** (1.0 / d)
        t = tuple(
            Fraction(float(c) * radius / norm).limit_denominator(10**6)
            for c in direction
        )
        n2 = norm_sq(t)
        if not n2 < 1:
            continue
        den = 1 + n2
        p = ((1 - n2) / den,) + tuple(2 * ti / den for ti in t)
        if p not in points:
            points.append(p)
    return points
