"""Shared helpers for the test suite."""

from __future__ import annotations

import contextlib
import itertools
import math
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import ModelPoint, ModelTag, build_complex, clipping, convert, cutting, geodesic, power
from hypervoronoi.bisectors import CLASSIFY_TOL, SurfaceClass
from hypervoronoi.clipping import BOX_TAG, Face, Polygon, Polyhedron
from hypervoronoi.cutting import ROUNDS_TO_ZERO
from hypervoronoi.documents import (
    DIAGRAM_FORMAT,
    SCALAR_EXACT,
    SCALAR_FLOAT,
    PointSetDocument,
    delaunay_section,
    encode_number,
    encode_vector,
)
from hypervoronoi.errors import CoincidentSites
from hypervoronoi.hvd import COLLINEAR_MIN_SPAN
from hypervoronoi.power import Halfspace, WeightedSite
from hypervoronoi.scalars import all_exact, as_floats, dot, is_exact, norm_sq, row_floats, vsub

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


# --- named degenerate point sets ------------------------------------------------

def wheel_points(count: int = 8, radius: float = 0.6):
    """Equal-norm sites on a circle: the degenerate 'wheel' configuration."""
    pts = []
    for k in range(count):
        theta = 2.0 * np.pi * k / count
        pts.append((radius * float(np.cos(theta)), radius * float(np.sin(theta))))
    return pts


def unbounded_star_points(outer: int = 8, radius: float = 0.998):
    """One site at the origin plus a near-boundary co-circular ring.

    For the dual complex to be a star tree the ring's power vertices must
    leave the unit disk, which needs radius > ~0.9969 for outer = 8.
    """
    return [(0.0, 0.0)] + wheel_points(outer, radius)


def cocircular_square(radius: float = 0.4):
    """Four co-circular, equal-norm sites whose dual face is a quadrilateral."""
    return [(radius, 0.0), (0.0, radius), (-radius, 0.0), (0.0, -radius)]


def linear_merge_near(items, tol, accept=None):
    """Reference for `clipping.merge_near`: each item scans the groups made
    so far, first to last, and tries the first whose point is within tol
    of its own in every coordinate."""
    groups, points = [], []
    for point, sites in items:
        fpt = as_floats(point)
        k = next((k for k, q in enumerate(points) if all(abs(a - b) <= tol for a, b in zip(q, fpt))), None)
        if k is not None and (accept is None or accept(groups[k][0], groups[k][1] | set(sites))):
            groups[k][1].update(sites)
        else:
            points.append(fpt)
            groups.append([point, set(sites)])
    return groups


# --- cut blocks as shapes, and the Python reader: the references for `read` --

def least_first(shape):
    """The same polygon or polyhedron, each ring starting at its least
    vertex, the first of them: the start every reader gives a ring."""
    if isinstance(shape, Polygon):
        k = shape.vertices.index(min(shape.vertices)) if shape.vertices else 0
        return Polygon(shape.vertices[k:] + shape.vertices[:k], shape.tags[k:] + shape.tags[:k])
    starts = [f.ring.index(min(f.ring, key=shape.vertices.__getitem__)) for f in shape.faces]
    rings = (f.ring[k:] + f.ring[:k] for f, k in zip(shape.faces, starts))
    return Polyhedron(shape.vertices, [Face(f.tag, r) for f, r in zip(shape.faces, rings)])


def segment_min_norm_sq(v0, v1):
    """min over the segment [v0, v1] of squared distance to the origin:
    the scalar reference of `cutting._foot_inside`."""
    d = vsub(v1, v0)
    dd = norm_sq(d)
    if dd == 0:
        return norm_sq(v0)
    t = -dot(v0, d) / dd
    if t <= 0:
        return norm_sq(v0)
    if t >= 1:
        return norm_sq(v1)
    w = tuple(a + t * b for a, b in zip(v0, d))
    return norm_sq(w)


def _newell_normal(fv) -> list:
    """Newell's normal of a float ring: its length is twice the area."""
    n = [0.0, 0.0, 0.0]
    for u, w in zip(fv, fv[1:] + fv[:1]):
        n[0] += (u[1] - w[1]) * (u[2] + w[2])
        n[1] += (u[2] - w[2]) * (u[0] + w[0])
        n[2] += (u[0] - w[0]) * (u[1] + w[1])
    return n


def face_area(verts) -> float:
    """Area via Newell's formula (float verts, assumed planar, ordered);
    squares by multiplication, as `cutting._face_facets` takes them."""
    n = _newell_normal(verts)
    return 0.5 * math.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])


def face_min_norm_sq(verts) -> float:
    """min squared distance from the origin to a planar convex face (float)."""
    fv = [as_floats(v) for v in verts]
    edges = list(zip(fv, fv[1:] + fv[:1]))
    best = min(min(norm_sq(v) for v in fv), min(float(segment_min_norm_sq(u, w)) for u, w in edges))
    # interior: the origin's foot on the face plane, inside when no two
    # edges see it on opposite sides
    n = _newell_normal(fv)
    nn = norm_sq(n)
    if nn == 0:
        return best
    t = dot(fv[0], n) / nn
    foot = [t * c for c in n]
    sides = []
    for u, w in edges:
        e, r = vsub(w, u), vsub(foot, u)
        cr = (e[1] * r[2] - e[2] * r[1], e[2] * r[0] - e[0] * r[2], e[0] * r[1] - e[1] * r[0])
        sides.append(dot(cr, n))
    if all(x >= 0 for x in sides) or all(x <= 0 for x in sides):
        best = min(best, norm_sq(foot))
    return best


def ball_test(points):
    """Which points lie strictly inside the unit ball, and whether the
    segment between points k and j meets it."""
    return [norm_sq(v) < 1 for v in points], lambda k, j: segment_min_norm_sq(points[k], points[j]) < 1


def polygon_facets(poly, exact):
    """Radical edges of positive length (exactly so on rational input;
    above FACET_MEASURE_TOL on float input) that meet the open unit ball
    (exact likewise, on the integers).  An edge with an end strictly
    inside the ball does at once."""
    if exact:
        inside, meets = clipping.integer_ball_test([clipping.to_homogeneous(v) for v in poly.vertices])
    else:
        inside, meets = ball_test(poly.vertices)
    for k, (tag, v0, v1) in enumerate(poly.edges()):
        if tag is BOX_TAG:
            continue
        if not ((v0 != v1) if exact else (math.sqrt(float(norm_sq(vsub(v1, v0)))) > cutting.FACET_MEASURE_TOL)):
            continue
        j = (k + 1) % len(poly.vertices)
        if inside[k] or inside[j] or meets(k, j):
            yield tag, (v0, v1)


def polyhedron_facets(polyh):
    """Radical faces of a polyhedron on affine vertices, their float64
    images taken once, whose `face_area` is above FACET_MEASURE_TOL^2 and
    that meet the open unit ball: a vertex strictly inside, or
    `face_min_norm_sq` below 1 (the reference of `cutting._face_facets`)."""
    fv = [as_floats(v) for v in polyh.vertices]
    inside = [norm_sq(v) < 1 for v in fv]
    for face in polyh.faces:
        if face.tag is BOX_TAG:
            continue
        points = [fv[k] for k in face.ring]
        if not face_area(points) > cutting.FACET_MEASURE_TOL * cutting.FACET_MEASURE_TOL:
            continue
        if any(inside[k] for k in face.ring) or face_min_norm_sq(points) < 1:
            yield face.tag, tuple(polyh.points(face))


def block_shapes(block):
    """A cut block's cells as Python shapes, as they stand: `_Rings` and
    `_Polyhedra` made from their arrays, `_Cells` compacted, on integer
    homogeneous vertices; a `ShapeBlock`'s own."""
    if isinstance(block, ShapeBlock):
        return block.shapes
    if isinstance(block, cutting._Cells):
        return [cell.compact() for cell in block.cells]
    if isinstance(block, cutting._Polyhedra):
        return [block.shape(c) for c in range(len(block.N))]
    live = np.arange(block.V.shape[1]) < block.L[:, None]  # cell, slot
    points = list(zip(*(x.T[live].tolist() for x in block.V)))
    tags = [BOX_TAG if t < 0 else t for t in block.T.T[live].tolist()]
    ends = np.cumsum(block.L).tolist()
    return [Polygon(points[e - n:e], tags[e - n:e]) if n else Polygon([], []) for e, n in zip(ends, block.L.tolist())]


def as_read(shape):
    """A cut cell as its block's reader takes it: in Fractions if it is on
    homogeneous vertices, each ring started at its least vertex."""
    if shape.vertices and len(shape.vertices[0]) > (2 if isinstance(shape, Polygon) else 3):
        shape = replace(shape, vertices=[clipping.to_affine(v) for v in shape.vertices])
    return least_first(shape)


class ShapeBlock:
    """A block of cells as Python shapes, read by the Python reader, a cell
    at a time: the reference for every block's `read`."""

    def __init__(self, shapes):
        self.shapes = shapes

    def read(self, first):
        empty, found, candidates = [], [], []
        for i, shape in enumerate(map(as_read, self.shapes), first):
            exact = all(all_exact(v) for v in shape.vertices)
            if isinstance(shape, Polygon):
                facets, vertices = polygon_facets(shape, exact), cutting._polygon_vertices(shape, i)
            else:
                facets, vertices = polyhedron_facets(shape), cutting._polyhedron_vertices(shape, i)
            empty.append(shape.empty)
            found += [((i, j) if i < j else (j, i), facet) for j, facet in facets]
            candidates += vertices
        return empty, found, candidates


@contextlib.contextmanager
def python_reader():
    """Every block a build cuts read by the Python reader (`ShapeBlock`)."""
    cut_block = cutting._cut_block
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cutting, "_cut_block", lambda *args: ShapeBlock(block_shapes(cut_block(*args))))
        yield


@contextlib.contextmanager
def recorded_cells():
    """A list that receives every cell the builds inside the block cut, in
    cut order, as its reader takes it (`as_read`)."""
    cells = []
    cut_block = cutting._cut_block

    def recording(*args):
        block = cut_block(*args)
        cells.extend(map(as_read, block_shapes(block)))
        return block

    with pytest.MonkeyPatch.context() as m:
        m.setattr(cutting, "_cut_block", recording)
        yield cells


def cut_and_build(sites):
    """build_complex, and the cells its cut made (`recorded_cells`)."""
    with recorded_cells() as cells:
        cx = build_complex(sites)
    assert len(cells) == (len(cx.cells) if cx.explicit else 0)
    return cx, cells


def plain_cut_block(window, home, feed, side, reverse=False):
    """Reference for `cutting._cut_block`: every other site of every cell,
    nearest centre first (ties by index; farthest first with `reverse`),
    one cell after the other, no screen and no query, each cut by the
    Python clipper: by `side(i, j)` on exact sites, on float sites by the
    lower site's `power.radical_hyperplane` with the higher, of their
    float images, or its negation, and read by the Python reader."""
    C, _, W, _, _ = feed.arrays
    if side is None:
        images = [WeightedSite(tuple(c), w) for c, w in zip(C.tolist(), W.tolist())]
        side = lambda i, j: power.radical_hyperplane(images[i], images[j]) if i < j else -side(j, i)
    clip_fn = clipping.clip_polygon if isinstance(window, Polygon) else clipping.clip_polyhedron
    shapes = []
    for i in home.tolist():
        shape = window
        order = np.argsort(((C - C[i]) ** 2).sum(axis=1), kind="stable").tolist()
        for j in order[::-1] if reverse else order:
            if j != i:
                hs = side(i, j)
                shape = clip_fn(shape, hs.normal, hs.offset, j)
        shapes.append(shape.compact())
    return ShapeBlock(shapes)


def reference_complex(sites):
    """`cut_and_build` with the window-then-every-candidate loop, linear
    merges, the Python radical hyperplanes, so float cells are cut by
    Python rows, not by the pair table's columns, and the Python reader."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(cutting, "_cut_block", plain_cut_block)
        m.setattr(power, "radical_hyperplane", reference_radical_hyperplane)
        m.setattr(clipping, "merge_near", linear_merge_near)
        return cut_and_build(sites)


def assert_same_complex(got, want):
    """Two `cut_and_build` results are equal, and equal in repr (which
    tells -0.0 from 0.0 and shows vertex order, tags and faces): every
    cut cell, vertex for vertex, and the complex."""
    (cx, cells), (ref, ref_cells) = got, want
    assert cells == ref_cells and repr(cells) == repr(ref_cells)
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
        self.vertices = {frozenset(facets[r]): self._tied(facets[r]) for r in lower_roots}
        self.pairs = {
            pair for s in self.lower for pair in itertools.combinations(s, 2) if len(around[pair]) >= d
        }

    def _tied(self, S):
        """The point closest to the origin where the sites S have equal power."""
        S = sorted(S)
        A = 2 * (self.C[S[1:]] - self.C[S[0]])
        return np.linalg.lstsq(A, self.H[S[1:]] - self.H[S[0]], rcond=None)[0]

    def _in_face(self, x, S):
        """Whether the sites S have the least power at x, within TIE_TOL."""
        pw = ((self.C - x) ** 2).sum(axis=1) - self.W
        return pw[sorted(S)].max() <= pw.min() + self.TIE_TOL * max(1.0, float(np.abs(pw).max()))

    def vertices_inside(self):
        """{site set: power vertex} of the vertices strictly inside the unit ball."""
        return {S: v for S, v in self.vertices.items() if np.linalg.norm(v) < 1}

    def pairs_meeting(self):
        """The pairs whose facet meets the open unit ball.

        A convex facet's closest point to the origin is the origin's
        projection onto the span of one of its faces, lying in that face;
        the faces are the duals of the lower hull's faces holding the pair,
        which the lower simplices' vertex subsets cover.
        """

        def meets(S):
            x = self._tied(S)
            return np.linalg.norm(x) < 1 and self._in_face(x, S)

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

    def faces_inside(self):
        """The Delaunay faces (site sets) whose power vertex lies inside
        the unit ball, and whether they make a triangulation: every face a
        d-simplex, every pair meeting the ball an edge of a face."""
        faces = set(self.vertices_inside())
        covered = {pair for f in faces for pair in itertools.combinations(sorted(f), 2)}
        simplicial = all(len(f) == self.d + 1 for f in faces)
        return faces, simplicial and self.pairs_meeting() <= covered


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


# --- the diagram document as a dict --------------------------------------------
# The reference of the one-pass writer `documents.diagram_to_document`, whose
# text must be `dump_json` of this dict byte for byte.


def _surface_class_name(surface) -> str:
    """`classify(surface).value`, "degenerate" where it raises: the scalar
    reference of `bisectors.classify_rows`."""
    coeffs = row_floats(surface.coefficients())
    bound = CLASSIFY_TOL * max(abs(c) for c in coeffs)
    lam, b = coeffs[0], coeffs[-1]
    if abs(lam) <= bound:
        if surface.model is ModelTag.HEMISPHERE and abs(coeffs[1]) <= bound:
            return SurfaceClass.VERTICAL_SPHERE.value
        if abs(b) <= bound:
            return SurfaceClass.HYPERPLANE_THROUGH_ORIGIN.value
        return SurfaceClass.HYPERPLANE.value
    radius_sq = sum(c * c for c in coeffs[1:-1]) / (4 * lam * lam) - b / lam
    return "degenerate" if radius_sq <= 0 else SurfaceClass.SPHERE.value


def reference_document(
    diagram,
    dual=None,
    degeneracies=None,
    verification=None,
    input_doc: PointSetDocument | None = None,
) -> dict:
    """The dict of a VoronoiDiagram's document (plus optional sections):
    `dump_json` of it is the text `documents.diagram_to_document` writes."""
    cx = diagram.complex
    exact = all(
        is_exact(c) for s in cx.sites for c in s.center + (s.weight,)
    )
    scalar = SCALAR_EXACT if exact else SCALAR_FLOAT
    if input_doc is None:
        input_doc = PointSetDocument(
            dimension=diagram.dimension,
            curvature=diagram.curvature.kappa,
            model=diagram.model,
            scalar=scalar,
            points=[p.coords for p in diagram.sites],
        )
    enc = lambda x: encode_number(x, exact)
    doc = {
        "format": DIAGRAM_FORMAT,
        "input": input_doc.to_json(),
        "route": diagram.route,
        "chart": {"model": "klein", "curvature": -1.0},
        "sites": [
            {
                "index": k,
                "center": encode_vector(s.center, exact),
                "weight": enc(s.weight),
            }
            for k, s in enumerate(cx.sites)
        ],
        "cells": [
            {
                "site": k,
                "empty": cell.empty,
                "halfspaces": [
                    {
                        "neighbor": j,
                        "normal": encode_vector(cell.halfspaces[j].normal, exact),
                        "offset": enc(cell.halfspaces[j].offset),
                    }
                    for j in sorted(cell.halfspaces)
                ],
            }
            for k, cell in enumerate(cx.cells)
        ],
        "clip": {
            "center": encode_vector((0,) * cx.dimension, exact),
            "radius": enc(1),
        },
        "adjacency": [list(pair) for pair in sorted(cx.adjacency)],
        "facets": [
            {
                "pair": list(pair),
                "points": [encode_vector(v, exact) for v in cx.facets[pair]],
            }
            for pair in sorted(cx.facets)
        ],
        "power_vertices": [
            {
                "point": encode_vector(v.point, exact),
                "sites": sorted(v.sites),
            }
            for v in sorted(
                cx.power_vertices, key=lambda v: tuple(sorted(v.sites))
            )
        ],
        "boundaries": [
            {
                "pair": list(pair),
                "model": diagram.model.value,
                "lambda": enc(surface.lam),
                "a": encode_vector(surface.a, exact),
                "b": enc(surface.b),
                "class": _surface_class_name(surface),
            }
            for pair, surface in sorted(diagram.boundaries.items())
        ],
    }
    if dual is not None:
        doc["delaunay"] = delaunay_section(dual)
    if degeneracies is not None:
        doc["degeneracies"] = {
            "cocircular_groups": [list(g) for g in degeneracies.cocircular_groups],
            "collinear_groups": [list(g) for g in degeneracies.collinear_groups],
            "equal_norm_groups": [list(g) for g in degeneracies.equal_norm_groups],
            "equal_height_groups": [list(g) for g in degeneracies.equal_height_groups],
            "notes": list(degeneracies.notes),
        }
    if verification is not None:
        doc["verification"] = {
            "sample_count": verification.sample_count,
            "excluded": verification.excluded,
            "checked": verification.checked,
            "disagreements": verification.disagreements,
            "agreement_rate": verification.agreement_rate,
            "max_gap": verification.max_gap,
            "seed": verification.seed,
            "band": verification.band,
            "witness": verification.witness,
        }
    return doc


def _reference_values(A, b, X):
    """Row values, rows x samples, summed coordinate by coordinate."""
    vals = A[:, 0, None] * X[:, 0]
    for i in range(1, X.shape[1]):
        vals += A[:, i, None] * X[:, i]
    return vals + b[:, None]


def reference_label_samples(X, table):
    """`hvd.label_samples` as the loop over every cell at every sample."""
    sites, offsets, _, A, b = table
    labels = np.full(len(X), -1, dtype=np.intp)
    margin = np.full(len(X), np.inf)
    best = np.full(len(X), np.inf)
    for k, site in enumerate(sites):
        rows = slice(offsets[k], offsets[k + 1])
        if offsets[k] < offsets[k + 1]:
            vals = _reference_values(A[rows], b[rows], X)
            worst, near = vals.max(axis=0), np.abs(vals).min(axis=0)
        else:
            worst, near = np.full(len(X), -np.inf), np.full(len(X), np.inf)
        win = worst < best
        best[win], labels[win], margin[win] = worst[win], site, near[win]
    return labels, margin


def reference_oracle(X, hubs):
    """The oracle as whole (sample, site) matrices, with `hvd._oracle`'s
    arithmetic: each sample's nearest site and every cosh."""
    dot, norm = X[:, :1] * hubs[:, 1], X[:, 0] * X[:, 0]
    for i in range(1, X.shape[1]):
        dot += X[:, i : i + 1] * hubs[:, i + 1]
        norm += X[:, i] * X[:, i]
    cosh = (1.0 - dot) / (np.sqrt(1.0 - norm)[:, None] * hubs[:, 0])
    return np.argmin((1.0 - dot) / hubs[:, 0], axis=1), cosh


def reference_report(X, labels, margin, hubs, table, radius, seed, band):
    """`hvd.oracle_report` from the whole cosh matrix, with the witness
    facet found by a loop over the oracle site's first cell."""
    from hypervoronoi.hvd import NEAREST_TIE_TOL, VerificationReport

    oracle, cosh = reference_oracle(X, hubs)
    excluded = margin < band
    rows = np.nonzero(~excluded & (labels != oracle))[0]
    da = radius * np.arccosh(np.maximum(1.0, cosh[rows, labels[rows]]))
    da[labels[rows] < 0] = np.inf
    db = radius * np.arccosh(np.maximum(1.0, cosh[rows, oracle[rows]]))
    gaps = np.abs(da - db)
    rows, gaps = rows[gaps > NEAREST_TIE_TOL], gaps[gaps > NEAREST_TIE_TOL]
    witness = None
    if len(rows):
        k = int(rows[0])
        sites, offsets, neighbors, A, b = table
        facet, best = None, None
        for c, site in enumerate(sites):
            if site == oracle[k]:
                for r in range(offsets[c], offsets[c + 1]):
                    v = _reference_values(A[r : r + 1], b[r : r + 1], X[k : k + 1])[0, 0]
                    if best is None or v > best:
                        facet, best = int(neighbors[r]), v
                break
        witness = {
            "sample_index": k,
            "chart_point": tuple(float(c) for c in X[k]),
            "diagram_label": int(labels[k]),
            "oracle_label": int(oracle[k]),
            "facet": facet,
            "distance_gap": float(gaps[0]),
        }
    return VerificationReport(
        sample_count=len(X),
        excluded=int(excluded.sum()),
        checked=int((~excluded).sum()),
        disagreements=len(rows),
        max_gap=float(gaps.max()) if len(rows) else 0.0,
        witness=witness,
        seed=seed,
        band=band,
    )
