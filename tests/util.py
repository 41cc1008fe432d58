"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hypervoronoi import ModelPoint, ModelTag, build_complex, clipping, convert, geodesic, power
from hypervoronoi.hvd import COLLINEAR_MIN_SPAN

ALL_MODELS = (
    ModelTag.KLEIN,
    ModelTag.POINCARE,
    ModelTag.UPPER_HALF_SPACE,
    ModelTag.HEMISPHERE,
    ModelTag.HYPERBOLOID,
)


def random_klein_point(rng, d=2, max_norm=0.85) -> ModelPoint:
    while True:
        x = rng.uniform(-max_norm, max_norm, size=d)
        if float(x @ x) < max_norm * max_norm:
            return ModelPoint(ModelTag.KLEIN, tuple(float(c) for c in x))


def random_model_point(model: ModelTag, rng, d=2, max_norm=0.85) -> ModelPoint:
    return convert(random_klein_point(rng, d, max_norm), model)


def bisector_sample_point(p: ModelPoint, q: ModelPoint, surface, rng, max_norm=0.85):
    """A point on the bisector zero set, by bisection along a geodesic.

    Walks the geodesic between random same-model points on opposite
    sides of the surface; returns None when no sign change is found.
    """
    for _ in range(20):
        a = random_model_point(p.model, rng, p.dim, max_norm)
        b = random_model_point(p.model, rng, p.dim, max_norm)
        if a.coords == b.coords:
            continue
        fa = float(surface.evaluate(a.coords))
        fb = float(surface.evaluate(b.coords))
        if fa == 0.0:
            return a
        if fb == 0.0:
            return b
        if (fa > 0) == (fb > 0):
            continue
        lo, hi = 0.0, 1.0
        flo = fa
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            fm = float(surface.evaluate(geodesic(a, b, mid).coords))
            if fm == 0.0:
                lo = hi = mid
                break
            if (fm > 0) == (flo > 0):
                lo = mid
                flo = fm
            else:
                hi = mid
        return geodesic(a, b, 0.5 * (lo + hi))
    return None


class LinearIndex:
    """First-match scan over stored points: the reference for GridIndex."""

    def __init__(self, tol):
        self.tol = tol
        self.points = []

    def find(self, p):
        for k, q in enumerate(self.points):
            if all(abs(a - b) <= self.tol for a, b in zip(q, p)):
                return k
        return None

    def add(self, p):
        self.points.append(tuple(p))
        return len(self.points) - 1


def plain_cut_block(shapes, cell, tags, R, halfspace, clip_fn):
    """Reference for `power._cut_block`: every candidate of every cell in
    the given (nearest-first) order, one cell after the other, no screen."""
    shapes = list(shapes)
    for c, j in zip(cell.tolist(), tags.tolist()):
        hs = halfspace(c, j)
        shapes[c] = clip_fn(shapes[c], hs.normal, hs.offset, j)
    return shapes


def reference_complex(sites, clip):
    """build_complex with the window-then-every-candidate loop and linear merges."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(power, "_cut_block", plain_cut_block)
        m.setattr(clipping, "GridIndex", LinearIndex)
        return build_complex(sites, clip=clip)


def assert_same_complex(cx, ref):
    """Equal, and equal in repr: that tells -0.0 from 0.0 and shows vertex
    order, tags and faces."""
    assert cx == ref
    for field in ("cells", "adjacency", "facets", "power_vertices"):
        assert repr(getattr(cx, field)) == repr(getattr(ref, field))


def reference_collinear_groups(kleins, tol):
    """Reference for `hvd._collinear_groups`: every row (i, j), i < j, one
    `(n - i - 1) x n` array per anchor, the same formula and operation order."""
    if any(len(k) != 2 for k in kleins):
        return []
    K = np.array(kleins, dtype=float).reshape(-1, 2)
    n = len(K)
    found = set()
    for i in range(n - 1):
        ax, ay = K[i]
        ux = K[i + 1:, 0] - ax
        uy = K[i + 1:, 1] - ay
        ln = np.array([math.hypot(a, b) for a, b in zip(ux.tolist(), uy.tolist())])
        live = ln >= COLLINEAR_MIN_SPAN
        dist = np.abs(
            (K[:, 0] - ax)[None, :] * uy[live, None] - (K[:, 1] - ay)[None, :] * ux[live, None]
        ) / ln[live, None]
        near = dist <= tol
        near[:, i] = True
        near[np.arange(len(near)), np.flatnonzero(live) + i + 1] = True
        for row in near[near.sum(axis=1) >= 3]:
            found.add(tuple(np.flatnonzero(row).tolist()))
    out = [g for g in found if not any(set(g) < set(h) for h in found if h != g)]
    out.sort()
    return out
