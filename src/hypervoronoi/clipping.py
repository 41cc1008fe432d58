"""Halfspace clipping of convex polygons (d=2) and polyhedra (d=3).

Internal machinery for the power-diagram engine.  Every boundary element
carries a tag: the index of the neighbor site whose radical hyperplane
produced it, or BOX_TAG for the artificial bounding-box walls.  A polygon
is one ring of points, clipped by one Sutherland-Hodgman step.  A
polyhedron is one table of points, `vertices`, and faces that are rings
of indices into it, all wound the same way, as in Voro++'s cell (Rycroft,
Chaos 19, 041111, 2009).  A cut evaluates each vertex once, makes each
cut edge's crossing point once, keeps a vertex on the plane as it is, and
closes the cell by chaining the clipped faces' new edges.

One ring logic serves both routes; only a cut's two arithmetic steps
depend on the vertices.  Affine vertices (float, or rational) take the
side value <normal, x> + offset and a crossing by one division.  On the
exact route a vertex is a primitive integer homogeneous tuple
(X_1, ..., X_d, Z), Z > 0, whose entries have gcd 1, and the cut's row is
integer: the side value <normal, X> + offset Z is one integer dot product
with the sign of the rational value, and the crossing f1 v0 - f0 v1 needs
no division, only its gcd (Yap, "Towards exact geometric computation",
CGTA 7, 1997).  Such a tuple is unique for its point, so `==` on vertices
is equality of points on both routes.  `to_homogeneous` and `to_affine`
convert a rational point; the exact reader tests vertices against the
ball on the integers (`integer_ball_test`) and makes `Fraction`s only
for the points it returns.

`merge_near` is the one merge of near points, for power vertices and
Delaunay faces.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

import numpy as np

from .scalars import dot, norm_sq

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

    def compact(self) -> Polygon:
        """The polygon itself: its ring holds no dead vertex (see
        `Polyhedron.compact`)."""
        return self


def box_polygon(h) -> Polygon:
    """The square [-h, h]^2 around the origin, counterclockwise."""
    return Polygon([(-h, -h), (h, -h), (h, h), (-h, h)], [BOX_TAG] * 4)


def to_homogeneous(point) -> tuple:
    """The primitive integer homogeneous tuple (X_1, ..., X_d, Z) of a
    rational point: Z > 0 is the least common denominator."""
    fracs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in point]
    z = math.lcm(*(f.denominator for f in fracs))
    return tuple(f.numerator * (z // f.denominator) for f in fracs) + (z,)


def to_affine(vertex) -> tuple:
    """The rational point X / Z of a homogeneous vertex, as Fractions."""
    z = vertex[-1]
    return tuple(Fraction(x, z) for x in vertex[:-1])


def _cut_point(v0, v1, f0, f1):
    t = f0 / (f0 - f1)
    return tuple([a + t * (b - a) for a, b in zip(v0, v1)])


def _homogeneous_cut_point(v0, v1, f0, f1):
    """f1 v0 - f0 v1 over its gcd, signed so that Z > 0: the plane's
    crossing of the edge between two homogeneous vertices of opposite sides."""
    w = [f1 * a - f0 * b for a, b in zip(v0, v1)]
    g = math.gcd(*w)
    if w[-1] < 0:
        g = -g
    return tuple(c // g for c in w)


def _side_values(verts, normal, offset):
    """Each vertex's side value and the crossing function of the cut.  A
    polyhedron's dead vertices (None, see `clip_polyhedron`) read 0."""
    live = verts[0] if verts[0] is not None else next(v for v in verts if v is not None)
    if len(live) > len(normal):  # homogeneous, on the exact route
        row = (*normal, offset)
        return [0 if v is None else sum(map(mul, row, v)) for v in verts], _homogeneous_cut_point
    return [0.0 if v is None else dot(normal, v) + offset for v in verts], _cut_point


def clip_polygon(poly: Polygon, normal, offset, tag) -> Polygon:
    """Keep the side <normal, x> + offset <= 0; new edges get `tag`.

    One Sutherland-Hodgman step.  The zero-length edges a grazing cut
    leaves are dropped, keeping the later vertex and its tag.
    """
    if poly.empty:
        return poly
    verts, tags = poly.vertices, poly.tags
    vals, cut_point = _side_values(verts, normal, offset)
    out_v, out_t = [], []
    for v0, v1, f0, f1, t in zip(verts, verts[1:] + verts[:1], vals, vals[1:] + vals[:1], tags):
        if f0 <= 0:
            out_v.append(v0)
            out_t.append(t)
            if f1 > 0:
                out_v.append(cut_point(v0, v1, f0, f1))
                out_t.append(tag)
        elif f1 <= 0:
            out_v.append(cut_point(v0, v1, f0, f1))
            out_t.append(t)
    keep = [not v == w for v, w in zip(out_v, out_v[1:] + out_v[:1])]
    if sum(keep) < 3:
        return Polygon([], [])
    return Polygon(list(itertools.compress(out_v, keep)), list(itertools.compress(out_t, keep)))


def integer_ball_test(vertices):
    """Which integer homogeneous vertices lie strictly inside the unit
    ball, and whether the segment between vertices k and j meets it, on
    the integers.  A vertex X / Z is inside when |X|^2 < Z^2.  A segment
    X0 / Z0 -> X1 / Z1 with neither end inside meets the ball when its
    foot parameter t = -<X0, E> Z1 / |E|^2, E = X1 Z0 - X0 Z1, lies in
    (0, 1) and |X0|^2 |E|^2 - <X0, E>^2 < Z0^2 |E|^2."""
    P, Q = [v[:-1] for v in vertices], [v[-1] for v in vertices]
    inside = [norm_sq(p) < q * q for p, q in zip(P, Q)]

    def meets(k, j):
        (p0, q0), (p1, q1) = (P[k], Q[k]), (P[j], Q[j])
        e = [a * q0 - b * q1 for a, b in zip(p1, p0)]
        pe, ee = dot(p0, e), norm_sq(e)
        return 0 < -pe * q1 < ee and norm_sq(p0) * ee - pe * pe < q0 * q0 * ee

    return inside, meets


# --- polyhedra (d = 3) -------------------------------------------------------

@dataclass
class Face:
    """A face's tag and its ring of indices into the polyhedron's vertices."""

    tag: object
    ring: list


@dataclass
class Polyhedron:
    """Convex polyhedron: one point table and faces of indices into it.

    Every ring runs clockwise seen from outside, so each edge lies on two
    faces, once in each direction.  Every vertex a face uses lies on at
    least three faces.  A vertex no face uses any more is None in the
    table (dead) until `compact` takes it out.
    """

    vertices: list
    faces: list

    @property
    def empty(self) -> bool:
        return len(self.faces) < 4

    def points(self, face: Face) -> list:
        return [self.vertices[k] for k in face.ring]

    def compact(self) -> Polyhedron:
        """The same polyhedron, its dead vertices taken out of the table;
        the others keep their order."""
        if None not in self.vertices:
            return self
        used = [k for k, v in enumerate(self.vertices) if v is not None]
        index = dict(zip(used, range(len(used))))
        return Polyhedron(
            [self.vertices[k] for k in used], [Face(f.tag, [index[k] for k in f.ring]) for f in self.faces]
        )


def box_polyhedron(h) -> Polyhedron:
    """The cube [-h, h]^3 around the origin; corner 4x + 2y + z has
    coordinate h on each axis whose bit is set, -h on the others."""
    corners = [(x, y, z) for x in (-h, h) for y in (-h, h) for z in (-h, h)]
    rings = [
        [0, 2, 3, 1],  # x = -h
        [4, 5, 7, 6],  # x = h
        [0, 1, 5, 4],  # y = -h
        [2, 6, 7, 3],  # y = h
        [0, 4, 6, 2],  # z = -h
        [1, 3, 7, 5],  # z = h
    ]
    return Polyhedron(corners, [Face(BOX_TAG, r) for r in rings])


def clip_polyhedron(poly: Polyhedron, normal, offset, tag) -> Polyhedron:
    """Keep the side <normal, x> + offset <= 0; the cut face gets `tag`.

    A face leaves the kept side at its exit point and comes back at its
    entry point: a vertex on the plane, or the crossing of the edge to the
    outside vertex, made once per edge from its kept end.  The clipped
    face runs exit -> entry along the plane, so the cut face runs each
    such edge entry -> exit, and chaining them gives its ring.  A face
    with no outside vertex is kept as it is.  The outside vertices die
    (None) in place and the crossings are appended, so a cell's table,
    compacted once when its cuts end, is the table that compacting after
    every cut would give.
    """
    if poly.empty:
        return poly
    vals, cut_point = _side_values(poly.vertices, normal, offset)
    outside = [k for k, f in enumerate(vals) if not f <= 0]
    if not any(vals[k] > 0 for k in outside):
        return poly
    gone = set(outside)
    points = list(poly.vertices)
    old = len(points)
    crossings = {}  # (kept, outside) vertex indices -> the crossing point's index

    def meet(a, b):
        """Where the edge from kept vertex a to outside vertex b meets the plane."""
        if vals[a] == 0:
            return a
        k = crossings.get((a, b))
        if k is None:
            k = crossings[a, b] = len(points)
            points.append(cut_point(points[a], points[b], vals[a], vals[b]))
        return k

    faces, changed = [], []
    dropped = False  # whether a ring with a kept vertex went
    chain = {}  # entry -> exit of each clipped face's edge along the plane
    for face in poly.faces:
        ring = face.ring
        if gone.isdisjoint(ring):
            faces.append(face)
            continue
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
            changed.append(Face(face.tag, kept))
            faces.append(changed[-1])
        else:
            dropped = dropped or bool(kept)
    while chain:
        k = next(iter(chain))
        ring = []
        while k in chain:
            ring.append(k)
            k = chain.pop(k)
        if len(ring) >= 3:
            changed.append(Face(tag, ring))
            faces.append(changed[-1])
        else:
            dropped = dropped or bool(ring)
    # Unless a ring with a kept vertex went, a kept vertex stays on all its
    # faces, so only a crossing can lie on fewer than three.  On float input
    # a cut through a ~1e-16 edge can leave a vertex on two faces only, on
    # the line they share: it leaves both rings, and a face left with fewer
    # than three vertices goes.
    on = Counter(itertools.chain.from_iterable(face.ring for face in changed))
    if dropped or any(on[k] < 3 for k in range(old, len(points))):
        on = Counter(k for face in faces for k in face.ring)
        while thin := {k for k, count in on.items() if count < 3}:
            rings = ((f.tag, [k for k in f.ring if k not in thin]) for f in faces)
            faces = [Face(t, ring) for t, ring in rings if len(ring) >= 3]
            on = Counter(k for face in faces for k in face.ring)
        dead = (k for k in range(len(points)) if k not in on)
    else:
        dead = outside
    if len(faces) < 4:
        return Polyhedron([], [])
    for k in dead:
        points[k] = None
    return Polyhedron(points, faces)


# --- merging near points ----------------------------------------------------

def _near_pairs(P, tol):
    """Every pair (a, b), a < b, of rows of the float array P whose
    coordinates all differ by at most tol (`abs(a - b) <= tol`), as two
    arrays sorted by b, then a.  Rows sorted on their first coordinate x
    are paired within a window: a row past fl(x + 2 tol) lies more than
    2 tol beyond x, so its float difference from x rounds above tol."""
    order = np.argsort(P[:, 0], kind="stable")
    x = P[order, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        reach = np.where(np.isnan(x), 0, np.searchsorted(x, x + 2 * tol, side="right"))
        count = np.maximum(reach - np.arange(len(x)) - 1, 0)
        first = np.repeat(np.arange(len(x)), count)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
        a, b = order[first], order[second]
        near = (np.abs(P[a] - P[b]) <= tol).all(axis=1)
    a, b = np.minimum(a, b)[near], np.maximum(a, b)[near]
    by = np.lexsort((a, b))
    return a[by], b[by]


def merge_near(items, tol, accept=None) -> list:
    """Group (point, sites) items, taken in order, by float proximity.

    An item joins the earliest group whose point lies within `tol` of its
    own in every coordinate (`abs(a - b) <= tol` on their float images),
    if `accept(group point, union of sites)` holds or no `accept` is
    given; otherwise it starts a group of its own.  Returns [group point,
    set of sites] lists, in order of creation.  Every pair within tol is
    found at once (`_near_pairs`); only the items with an earlier one are
    taken in turn.
    """
    items = list(items)
    if not items:
        return []
    P = np.fromiter(itertools.chain.from_iterable(p for p, _ in items), float).reshape(len(items), -1)
    a, b = _near_pairs(P, tol)
    earlier, later = a.tolist(), b.tolist()
    starts = np.flatnonzero(np.diff(b, prepend=-1)).tolist()
    lead = [True] * len(items)  # whether each item starts a group
    members = {}  # a group's first item -> the items that joined it, in order
    for start, stop in zip(starts, starts[1:] + [len(later)]):
        k = earlier[start]
        if not lead[k]:
            k = next((k for k in earlier[start + 1:stop] if lead[k]), None)
            if k is None:
                continue
        item = later[start]
        if accept is not None:
            union = set(items[k][1]).union(*(items[m][1] for m in members.get(k, ())), items[item][1])
            if not accept(items[k][0], union):
                continue
        members.setdefault(k, []).append(item)
        lead[item] = False
    groups = []
    for k in itertools.compress(range(len(items)), lead):
        sites = set(items[k][1])
        for m in members.get(k, ()):
            sites.update(items[m][1])
        groups.append([items[k][0], sites])
    return groups
