"""Shared helpers for the test suite."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import ModelPoint, ModelTag, build_complex, clipping, convert, geodesic, power
from hypervoronoi.clipping import Face, Polygon, Polyhedron
from hypervoronoi.errors import CoincidentSites
from hypervoronoi.hvd import COLLINEAR_MIN_SPAN
from hypervoronoi.power import ROUNDS_TO_ZERO, Halfspace, WeightedSite
from hypervoronoi.scalars import all_exact, as_floats, dot, norm_sq

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
    the given (nearest-first) order, one cell after the other, no screen,
    each cut by `halfspace(c, j)`, also on float sites."""
    shapes = list(shapes)
    for c, j in zip(cell.tolist(), tags.tolist()):
        hs = halfspace(c, j)
        shapes[c] = clip_fn(shapes[c], hs.normal, hs.offset, j)
    return shapes


def reference_complex(sites, clip):
    """build_complex with the window-then-every-candidate loop, linear
    merges and the Python radical hyperplanes, so float cells are cut by
    Python rows, not by the pair table's columns."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(power, "_cut_block", plain_cut_block)
        m.setattr(power, "radical_hyperplane", reference_radical_hyperplane)
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


# --- the full power diagram from the lifted lower hull -------------------------

class PowerHull:
    """The full (unclipped) power diagram of `sites` from the lower convex
    hull of the lifted points (c, |c|^2 - w) (Aurenhammer, "Power
    diagrams", SIAM J. Comput. 16, 1987), taken with scipy's Qhull (Barber,
    Dobkin and Huhdanpaa, ACM TOMS 22, 1996): a reference that shares no
    code with `build_complex`.

    `vertices` maps the site set of each lower facet (the simplices Qhull
    triangulates one facet into, merged) to its power vertex; `pairs` holds
    the pairs (i, j), i < j, whose cells share a facet: the lower hull's
    edges, which lie on at least d facets (a diagonal inside a merged facet
    lies on fewer).  Floats throughout, so for input in general position.
    """

    PLANE_TOL = 1e-9  # neighbouring simplices within this lie in one facet
    TIE_TOL = 1e-9  # relative to max(1, |power|): a point ties the least power

    def __init__(self, sites):
        from scipy.spatial import ConvexHull

        self.d = d = len(sites[0].center)
        self.C = np.array([[float(c) for c in s.center] for s in sites])
        self.W = np.array([float(s.weight) for s in sites])
        self.H = (self.C * self.C).sum(axis=1) - self.W
        hull = ConvexHull(np.column_stack((self.C, self.H)))
        group = list(range(len(hull.simplices)))

        def root(k):
            while group[k] != k:
                k = group[k]
            return k

        for k, near in enumerate(hull.neighbors.tolist()):
            for m in near:
                if np.abs(hull.equations[k] - hull.equations[m]).max() <= self.PLANE_TOL:
                    group[root(k)] = root(m)
        simplices = [sorted(s) for s in hull.simplices.tolist()]
        roots = [root(k) for k in range(len(simplices))]
        facets, around = {}, {}
        for r, simplex in zip(roots, simplices):
            facets.setdefault(r, set()).update(simplex)
            for pair in itertools.combinations(simplex, 2):
                around.setdefault(pair, set()).add(r)
        self.lower = [s for s, eq in zip(simplices, hull.equations) if eq[d] < -self.PLANE_TOL]
        lower_roots = {r for r, eq in zip(roots, hull.equations) if eq[d] < -self.PLANE_TOL}
        origin = np.zeros(d)
        self.vertices = {frozenset(facets[r]): self._tied(facets[r], origin) for r in lower_roots}
        self.pairs = {
            pair for s in self.lower for pair in itertools.combinations(s, 2) if len(around[pair]) >= d
        }

    def _tied(self, S, centre):
        """The point closest to `centre` where the sites S have equal power."""
        S = sorted(S)
        A = 2 * (self.C[S[1:]] - self.C[S[0]])
        b = self.H[S[1:]] - self.H[S[0]] - A @ centre
        return centre + np.linalg.lstsq(A, b, rcond=None)[0]

    def _in_face(self, x, S):
        """Whether the sites S have the least power at x, within TIE_TOL."""
        pw = ((self.C - x) ** 2).sum(axis=1) - self.W
        return pw[sorted(S)].max() <= pw.min() + self.TIE_TOL * max(1.0, float(np.abs(pw).max()))

    def vertices_inside(self, clip):
        """{site set: power vertex} of the vertices strictly inside `clip`."""
        c, r = np.array(clip.center, dtype=float), float(clip.radius)
        return {S: v for S, v in self.vertices.items() if np.linalg.norm(v - c) < r}

    def pairs_meeting(self, clip):
        """The pairs whose facet comes closer to the clip centre than r.

        A convex facet's closest point to the centre is the centre's
        projection onto the span of one of its faces, lying in that face;
        the faces are the duals of the lower hull's faces holding the pair,
        which the lower simplices' vertex subsets cover.
        """
        c, r = np.array(clip.center, dtype=float), float(clip.radius)

        def meets(S):
            x = self._tied(S, c)
            return np.linalg.norm(x - c) < r and self._in_face(x, S)

        met = set()
        for s in self.lower:
            for pair in itertools.combinations(s, 2):
                if pair in self.pairs and pair not in met:
                    rest = [k for k in s if k not in pair]
                    faces = (
                        pair + extra for size in range(len(rest) + 1) for extra in itertools.combinations(rest, size)
                    )
                    if any(meets(S) for S in faces):
                        met.add(pair)
        return met

    def faces_inside(self, clip):
        """The Delaunay faces (site sets) whose power vertex lies inside
        `clip`, and whether they make a triangulation: every face a
        d-simplex, every pair meeting the ball an edge of a face."""
        faces = set(self.vertices_inside(clip))
        covered = {pair for f in faces for pair in itertools.combinations(sorted(f), 2)}
        simplicial = all(len(f) == self.d + 1 for f in faces)
        return faces, simplicial and self.pairs_meeting(clip) <= covered


# --- the rational kernel the integer homogeneous one replaced -----------------
# The clippers and the radical hyperplane as they were before exact cells
# were cut on integer homogeneous vertices, kept verbatim: every step in
# Fraction arithmetic.  The references for the integer kernel.

def _cut_point(v0, v1, f0, f1):
    t = f0 / (f0 - f1)
    return tuple(a + t * (b - a) for a, b in zip(v0, v1))


def fraction_clip_polygon(poly: Polygon, normal, offset, tag) -> Polygon:
    """Keep the side <normal, x> + offset <= 0; new edges get `tag`.

    One Sutherland-Hodgman step.  The zero-length edges a grazing cut
    leaves are dropped, keeping the later vertex and its tag.
    """
    if poly.empty:
        return poly
    verts, tags = poly.vertices, poly.tags
    vals = [dot(normal, v) + offset for v in verts]
    out_v, out_t = [], []
    for v0, v1, f0, f1, t in zip(verts, verts[1:] + verts[:1], vals, vals[1:] + vals[:1], tags):
        if f0 <= 0:
            out_v.append(v0)
            out_t.append(t)
            if f1 > 0:
                out_v.append(_cut_point(v0, v1, f0, f1))
                out_t.append(tag)
        elif f1 <= 0:
            out_v.append(_cut_point(v0, v1, f0, f1))
            out_t.append(t)
    keep = [not v == w for v, w in zip(out_v, out_v[1:] + out_v[:1])]
    if sum(keep) < 3:
        return Polygon([], [])
    return Polygon(list(itertools.compress(out_v, keep)), list(itertools.compress(out_t, keep)))


def fraction_clip_polyhedron(poly: Polyhedron, normal, offset, tag) -> Polyhedron:
    """Keep the side <normal, x> + offset <= 0; the cut face gets `tag`.

    A face leaves the kept side at its exit point and comes back at its
    entry point: a vertex on the plane, or the crossing of the edge to the
    outside vertex, made once per edge from its kept end.  The clipped
    face runs exit -> entry along the plane, so the cut face runs each
    such edge entry -> exit, and chaining them gives its ring.
    """
    if poly.empty:
        return poly
    vals = [dot(normal, v) + offset for v in poly.vertices]
    if not any(f > 0 for f in vals):
        return poly
    points = list(poly.vertices)
    crossings = {}  # (kept, outside) vertex indices -> the crossing point's index

    def meet(a, b):
        """Where the edge from kept vertex a to outside vertex b meets the plane."""
        if vals[a] == 0:
            return a
        k = crossings.get((a, b))
        if k is None:
            k = crossings[a, b] = len(points)
            points.append(_cut_point(points[a], points[b], vals[a], vals[b]))
        return k

    faces = []
    chain = {}  # entry -> exit of each clipped face's edge along the plane
    for face in poly.faces:
        ring = face.ring
        kept = []
        exit_k = first_entry = None
        for a, b in zip(ring, ring[1:] + ring[:1]):
            if vals[a] <= 0:
                kept.append(a)
                if vals[b] > 0:
                    exit_k = meet(a, b)
                    if exit_k != a:
                        kept.append(exit_k)
            elif vals[b] <= 0:
                entry_k = meet(b, a)
                if entry_k != b:
                    kept.append(entry_k)
                if exit_k is None:
                    first_entry = entry_k
                elif entry_k != exit_k:
                    chain[entry_k] = exit_k
        if first_entry is not None and first_entry != exit_k:
            chain[first_entry] = exit_k
        if len(kept) >= 3:
            faces.append(Face(face.tag, kept))
    while chain:
        k = next(iter(chain))
        ring = []
        while k in chain:
            ring.append(k)
            k = chain.pop(k)
        if len(ring) >= 3:
            faces.append(Face(tag, ring))
    # On float input a cut through a ~1e-16 edge can leave a vertex on two
    # faces only, on the line they share: it leaves both rings, and a face
    # left with fewer than three vertices goes.
    on = Counter(k for face in faces for k in face.ring)
    while thin := {k for k, count in on.items() if count < 3}:
        rings = ((f.tag, [k for k in f.ring if k not in thin]) for f in faces)
        faces = [Face(t, ring) for t, ring in rings if len(ring) >= 3]
        on = Counter(k for face in faces for k in face.ring)
    if len(faces) < 4:
        return Polyhedron([], [])
    used = sorted(on)
    index = {k: m for m, k in enumerate(used)}
    return Polyhedron(
        [points[k] for k in used], [Face(f.tag, [index[k] for k in f.ring]) for f in faces]
    )


def canonical_halfspace(hs: Halfspace) -> Halfspace:
    """Scale to unit normal (float) or primitive integer tuple (exact).

    Scaling is always by a positive factor, so orientation survives.
    """
    coeffs = hs.normal + (hs.offset,)
    if all_exact(coeffs):
        fracs = [Fraction(c) for c in coeffs]
        den = 1
        for f in fracs:
            den = den * f.denominator // math.gcd(den, f.denominator)
        ints = [int(f * den) for f in fracs]
        g = 0
        for v in ints:
            g = math.gcd(g, abs(v))
        if g:
            ints = [v // g for v in ints]
        return Halfspace(tuple(ints[:-1]), ints[-1])
    coeffs = as_floats(coeffs)
    scale = math.sqrt(sum(c * c for c in coeffs[:-1]))
    if scale == 0.0:
        scale = abs(coeffs[-1])
    if scale == 0.0:
        raise CoincidentSites(ROUNDS_TO_ZERO)
    return Halfspace(tuple(c / scale for c in coeffs[:-1]), coeffs[-1] / scale)


def reference_radical_hyperplane(s_i: WeightedSite, s_j: WeightedSite) -> Halfspace:
    """Locus of equal power distance, oriented so s_i's side is <= 0.

    Square-root free.  For equal centers with different weights the zero
    set is empty and the returned halfspace is the constant constraint
    (the smaller-power site wins everywhere).
    """
    if s_i.center == s_j.center and s_i.weight == s_j.weight:
        raise CoincidentSites("radical hyperplane of identical weighted sites")
    normal = tuple(2 * (b - a) for a, b in zip(s_i.center, s_j.center))
    offset = norm_sq(s_i.center) - norm_sq(s_j.center) + s_j.weight - s_i.weight
    return canonical_halfspace(Halfspace(normal, offset))
