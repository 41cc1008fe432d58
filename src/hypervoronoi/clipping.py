"""Halfspace clipping of convex polygons (d=2) and polyhedra (d=3).

Internal machinery for the power-diagram engine.  Every boundary element
carries a tag: the index of the neighbor site whose radical hyperplane
produced it, or BOX_TAG for the artificial bounding-box walls.  Both
clippers run one Sutherland-Hodgman step, `_clip_ring`: a polygon is one
ring, a polyhedron clips each face as a ring and closes the cut with a
new face through the crossing points.  All intersection arithmetic is a
single division, so rational inputs stay rational.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .scalars import as_floats, dot, norm_sq, vsub

BOX_TAG = None


# --- polygons (d = 2) --------------------------------------------------------

@dataclass
class Polygon:
    """Convex polygon; edge k runs vertices[k] -> vertices[(k+1) % m]."""

    vertices: list
    tags: list

    @property
    def empty(self) -> bool:
        return len(self.vertices) < 3

    def edges(self):
        m = len(self.vertices)
        for k in range(m):
            yield self.tags[k], self.vertices[k], self.vertices[(k + 1) % m]


def box_polygon(h) -> Polygon:
    """The square [-h, h]^2 around the origin, counterclockwise."""
    return Polygon([(-h, -h), (h, -h), (h, h), (-h, h)], [BOX_TAG] * 4)


def _cut_point(v0, v1, f0, f1):
    t = f0 / (f0 - f1)
    return tuple(a + t * (b - a) for a, b in zip(v0, v1))


def _clip_ring(verts, tags, normal, offset, tag):
    """One Sutherland-Hodgman step on a convex ring of vertices.

    Keeps the side <normal, x> + offset <= 0 and drops the zero-length
    edges a grazing cut leaves.  `tags` yields the label of each edge in
    turn (verts[k] -> verts[k+1] first at k = 0); the new edge along the
    cut gets `tag`.  Returns the kept ring, its edge tags and the
    crossing points.
    """
    vals = [dot(normal, v) + offset for v in verts]
    out_v, out_t, cuts = [], [], []
    for v0, v1, f0, f1, t in zip(verts, verts[1:] + verts[:1], vals, vals[1:] + vals[:1], tags):
        if f0 <= 0:
            out_v.append(v0)
            out_t.append(t)
            if f1 > 0:
                w = _cut_point(v0, v1, f0, f1)
                out_v.append(w)
                out_t.append(tag)
                cuts.append(w)
        elif f1 <= 0:
            w = _cut_point(v0, v1, f0, f1)
            out_v.append(w)
            out_t.append(t)
            cuts.append(w)
    keep = [not v == w for v, w in zip(out_v, out_v[1:] + out_v[:1])]
    return list(itertools.compress(out_v, keep)), list(itertools.compress(out_t, keep)), cuts


def clip_polygon(poly: Polygon, normal, offset, tag) -> Polygon:
    """Keep the side <normal, x> + offset <= 0; new edges get `tag`."""
    if poly.empty:
        return poly
    verts, tags, _ = _clip_ring(poly.vertices, poly.tags, normal, offset, tag)
    return Polygon(verts, tags) if len(verts) >= 3 else Polygon([], [])


def segment_min_norm_sq(v0, v1):
    """min over the segment [v0, v1] of squared distance to the origin."""
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


# --- polyhedra (d = 3) -------------------------------------------------------

@dataclass
class Face:
    tag: object
    vertices: list


@dataclass
class Polyhedron:
    faces: list

    @property
    def empty(self) -> bool:
        return len(self.faces) < 4


def box_polyhedron(h) -> Polyhedron:
    """The cube [-h, h]^3 around the origin."""
    x0 = y0 = z0 = -h
    x1 = y1 = z1 = h
    quads = [
        [(x0, y0, z0), (x0, y1, z0), (x0, y1, z1), (x0, y0, z1)],  # x = x0
        [(x1, y0, z0), (x1, y0, z1), (x1, y1, z1), (x1, y1, z0)],  # x = x1
        [(x0, y0, z0), (x0, y0, z1), (x1, y0, z1), (x1, y0, z0)],  # y = y0
        [(x0, y1, z0), (x1, y1, z0), (x1, y1, z1), (x0, y1, z1)],  # y = y1
        [(x0, y0, z0), (x1, y0, z0), (x1, y1, z0), (x0, y1, z0)],  # z = z0
        [(x0, y0, z1), (x0, y1, z1), (x1, y1, z1), (x1, y0, z1)],  # z = z1
    ]
    return Polyhedron([Face(BOX_TAG, q) for q in quads])


def _order_ring(points, normal):
    """Order coplanar points into a convex ring around their centroid."""
    pts = []
    for p in points:
        if not any(p == q for q in pts):
            pts.append(p)
    if len(pts) < 3:
        return None
    fpts = [as_floats(p) for p in pts]
    cx = [sum(c[i] for c in fpts) / len(fpts) for i in range(3)]
    nf = as_floats(normal)
    # orthonormal-ish basis in the cutting plane
    axis = min(range(3), key=lambda i: abs(nf[i]))
    e1 = [0.0, 0.0, 0.0]
    e1[axis] = 1.0
    proj = sum(e1[i] * nf[i] for i in range(3)) / sum(c * c for c in nf)
    e1 = [e1[i] - proj * nf[i] for i in range(3)]
    e2 = [
        nf[1] * e1[2] - nf[2] * e1[1],
        nf[2] * e1[0] - nf[0] * e1[2],
        nf[0] * e1[1] - nf[1] * e1[0],
    ]
    def angle(k):
        v = [fpts[k][i] - cx[i] for i in range(3)]
        return math.atan2(
            sum(v[i] * e2[i] for i in range(3)), sum(v[i] * e1[i] for i in range(3))
        )
    order = sorted(range(len(pts)), key=angle)
    return [pts[k] for k in order]


def clip_polyhedron(poly: Polyhedron, normal, offset, tag) -> Polyhedron:
    """Keep the side <normal, x> + offset <= 0; the cut face gets `tag`."""
    if poly.empty:
        return poly
    new_faces = []
    cut_points = []
    for face in poly.faces:
        kept, _, cuts = _clip_ring(face.vertices, itertools.repeat(face.tag), normal, offset, tag)
        if len(kept) >= 3:
            new_faces.append(Face(face.tag, kept))
        cut_points.extend(cuts)
    ring = _order_ring(cut_points, normal) if cut_points else None
    if ring is not None:
        new_faces.append(Face(tag, ring))
    return Polyhedron(new_faces) if len(new_faces) >= 4 else Polyhedron([])


def face_area(verts) -> float:
    """Area via Newell's formula (verts assumed planar, ordered)."""
    n = [0.0, 0.0, 0.0]
    fv = [as_floats(v) for v in verts]
    m = len(fv)
    for k in range(m):
        u, w = fv[k], fv[(k + 1) % m]
        n[0] += (u[1] - w[1]) * (u[2] + w[2])
        n[1] += (u[2] - w[2]) * (u[0] + w[0])
        n[2] += (u[0] - w[0]) * (u[1] + w[1])
    return 0.5 * math.sqrt(n[0] ** 2 + n[1] ** 2 + n[2] ** 2)


def face_min_norm_sq(verts) -> float:
    """min squared distance from the origin to a planar convex face (float)."""
    fv = [as_floats(v) for v in verts]
    best = min(norm_sq(v) for v in fv)
    m = len(fv)
    for k in range(m):
        best = min(best, float(segment_min_norm_sq(fv[k], fv[(k + 1) % m])))
    # interior: project the origin onto the face plane, test containment
    e1 = [fv[1][i] - fv[0][i] for i in range(3)]
    e2 = [fv[-1][i] - fv[0][i] for i in range(3)]
    n = [
        e1[1] * e2[2] - e1[2] * e2[1],
        e1[2] * e2[0] - e1[0] * e2[2],
        e1[0] * e2[1] - e1[1] * e2[0],
    ]
    nn = sum(c * c for c in n)
    if nn == 0:
        return best
    t = sum(fv[0][i] * n[i] for i in range(3)) / nn
    foot = [t * n[i] for i in range(3)]
    inside = True
    sign = 0
    for k in range(m):
        u, w = fv[k], fv[(k + 1) % m]
        edge = [w[i] - u[i] for i in range(3)]
        rel = [foot[i] - u[i] for i in range(3)]
        cr = [
            edge[1] * rel[2] - edge[2] * rel[1],
            edge[2] * rel[0] - edge[0] * rel[2],
            edge[0] * rel[1] - edge[1] * rel[0],
        ]
        s = sum(cr[i] * n[i] for i in range(3))
        if s > 0:
            cur = 1
        elif s < 0:
            cur = -1
        else:
            continue
        if sign == 0:
            sign = cur
        elif cur != sign:
            inside = False
            break
    if inside:
        best = min(best, sum(c * c for c in foot))
    return best


def polyhedron_vertices(poly: Polyhedron, merge_tol: float):
    """Cluster face corners into vertices with their incident face tags.

    Returns a list of (point, set_of_tags).  merge_tol is an absolute
    coordinate tolerance (0 merges exact duplicates only).
    """
    index = GridIndex(merge_tol)
    out = []  # (point, tagset)
    for face in poly.faces:
        for v in face.vertices:
            fv = as_floats(v)
            k = index.find(fv)
            if k is None:
                index.add(fv)
                out.append((v, {face.tag}))
            else:
                out[k][1].add(face.tag)
    return out


# --- proximity index ---------------------------------------------------------

class GridIndex:
    """Float points, answering "the first stored point within `tol`".

    `find(p)` returns the least index of a stored point whose Chebyshev
    distance to p is <= tol (computed as `abs(a - b) <= tol` per
    coordinate), the answer a scan of the stored points in insertion order
    gives.  Points are bucketed by `c // (2 tol)` per coordinate and a query
    searches the 3^d neighbouring buckets.  The bucket width is 2 tol, not
    tol: with width tol, a pair such as (tol, -1e-30), whose float
    difference rounds to tol, lies two buckets apart.  With tol == 0 the
    bucket key is the point itself.
    """

    def __init__(self, tol: float):
        self.tol = tol
        self.width = 2.0 * tol
        self.points = []
        self.buckets = {}  # key -> indices, increasing

    def _key(self, p):
        if not self.width:
            return tuple(p)
        return tuple(c // self.width for c in p)

    def find(self, p):
        """Least index of a stored point within tol of p, or None."""
        key = self._key(p)
        if not self.width:
            hits = self.buckets.get(key)
            return hits[0] if hits else None
        tol, points, buckets = self.tol, self.points, self.buckets
        best = None
        for near in itertools.product(*((c - 1.0, c, c + 1.0) for c in key)):
            for idx in buckets.get(near, ()):
                if best is not None and idx >= best:
                    break
                if all(abs(a - b) <= tol for a, b in zip(points[idx], p)):
                    best = idx
                    break
        return best

    def add(self, p) -> int:
        """Store p and return its index."""
        k = len(self.points)
        self.points.append(tuple(p))
        self.buckets.setdefault(self._key(p), []).append(k)
        return k
