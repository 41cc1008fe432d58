"""The clippers against the loops they replaced: `clip_polygon` against
the polygon loop, `clip_polyhedron`'s vertex table against the per-face
loop that ordered each cut face by angle."""

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import clipping
from hypervoronoi.clipping import BOX_TAG, Polygon
from hypervoronoi.scalars import as_floats, dot


# --- reference: the separate polygon and face loops, kept verbatim -------------

def _ref_cut_point(v0, v1, f0, f1):
    t = f0 / (f0 - f1)
    return tuple(a + t * (b - a) for a, b in zip(v0, v1))


def ref_clip_polygon(poly, normal, offset, tag):
    if poly.empty:
        return poly
    verts, tags = poly.vertices, poly.tags
    m = len(verts)
    vals = [dot(normal, v) + offset for v in verts]
    out_v, out_t = [], []
    for k in range(m):
        v0, v1 = verts[k], verts[(k + 1) % m]
        f0, f1 = vals[k], vals[(k + 1) % m]
        t = tags[k]
        if f0 <= 0:
            out_v.append(v0)
            out_t.append(t)
            if f1 > 0:
                out_v.append(_ref_cut_point(v0, v1, f0, f1))
                out_t.append(tag)
        elif f1 <= 0:
            out_v.append(_ref_cut_point(v0, v1, f0, f1))
            out_t.append(t)
    verts2, tags2 = [], []
    for k in range(len(out_v)):
        if not out_v[k] == out_v[(k + 1) % len(out_v)]:
            verts2.append(out_v[k])
            tags2.append(out_t[k])
    if len(verts2) < 3:
        return Polygon([], [])
    return Polygon(verts2, tags2)


def _ref_clip_face(verts, normal, offset):
    m = len(verts)
    vals = [dot(normal, v) + offset for v in verts]
    out, cuts = [], []
    for k in range(m):
        v0, v1 = verts[k], verts[(k + 1) % m]
        f0, f1 = vals[k], vals[(k + 1) % m]
        if f0 <= 0:
            out.append(v0)
            if f1 > 0:
                w = _ref_cut_point(v0, v1, f0, f1)
                out.append(w)
                cuts.append(w)
        elif f1 <= 0:
            w = _ref_cut_point(v0, v1, f0, f1)
            out.append(w)
            cuts.append(w)
    dedup = [out[k] for k in range(len(out)) if not out[k] == out[(k + 1) % len(out)]]
    return dedup, cuts


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


@dataclass
class RefFace:
    tag: object
    vertices: list


@dataclass
class RefPolyhedron:
    faces: list

    @property
    def empty(self) -> bool:
        return len(self.faces) < 4


def ref_box_polyhedron(h):
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
    return RefPolyhedron([RefFace(BOX_TAG, q) for q in quads])


def ref_clip_polyhedron(poly, normal, offset, tag):
    if poly.empty:
        return poly
    new_faces = []
    cut_points = []
    for face in poly.faces:
        kept, cuts = _ref_clip_face(face.vertices, normal, offset)
        if len(kept) >= 3:
            new_faces.append(RefFace(face.tag, kept))
        cut_points.extend(cuts)
    ring = _order_ring(cut_points, normal) if cut_points else None
    if ring is not None:
        new_faces.append(RefFace(tag, ring))
    if len(new_faces) < 4:
        return RefPolyhedron([])
    return RefPolyhedron(new_faces)


# --- the vertex-indexed polyhedron against the reference -----------------------

# float cells agree with the reference vertex for vertex to this, after
# the reference's ~1e-15 edges (a crossing made once from each end) close
FLOAT_TOL = 1e-12


def _close(p, q, tol):
    return all(abs(a - b) <= tol for a, b in zip(p, q))


def _ring_without_short_edges(ring, tol):
    out = []
    for p in ring:
        if not out or not _close(p, out[-1], tol):
            out.append(p)
    if len(out) > 1 and _close(out[0], out[-1], tol):
        out.pop()
    return out


def _same_ring(r, s, tol):
    """r is s started elsewhere, in either direction, up to tol per vertex."""
    m = len(r)
    return m == len(s) and any(
        all(_close(r[i], t[(i + k) % m], tol) for i in range(m))
        for t in (s, s[::-1])
        for k in range(m)
    )


def as_reference(poly):
    """A vertex-indexed polyhedron in the reference's form."""
    return RefPolyhedron([RefFace(f.tag, poly.points(f)) for f in poly.faces])


def assert_same_faces(got, want, tol):
    """The two cells have the same multiset of (tag, ring) faces.  On float
    input the reference's short edges close first; a face left with fewer
    than three vertices goes, and so does a cell left with fewer than four
    faces."""
    sides = [[(f.tag, f.vertices) for f in cell.faces] for cell in (as_reference(got), want)]
    if tol:
        sides = [[(t, _ring_without_short_edges(r, tol)) for t, r in side] for side in sides]
        sides = [[(t, r) for t, r in side if len(r) >= 3] for side in sides]
        sides = [side if len(side) >= 4 else [] for side in sides]
    left, right = sides
    assert len(left) == len(right)
    for tag, ring in left:
        match = next(k for k, (t, r) in enumerate(right) if t == tag and _same_ring(ring, r, tol))
        del right[match]


def assert_closed_surface(poly):
    """Each edge on two faces, once each way; V - E + F = 2; every vertex
    on at least three faces, once the table is compacted."""
    poly = poly.compact()
    edges = Counter(
        (a, b) for face in poly.faces for a, b in zip(face.ring, face.ring[1:] + face.ring[:1])
    )
    assert all(n == 1 and edges[b, a] == 1 for (a, b), n in edges.items())
    assert len(poly.vertices) - len(edges) // 2 + len(poly.faces) == 2
    on = Counter(k for face in poly.faces for k in set(face.ring))
    assert sorted(on) == list(range(len(poly.vertices)))
    assert min(on.values()) >= 3


def assert_cut_vertices(before, after, normal, offset):
    """The cut cell's vertices are the vertices of `before` inside the cut
    (those on the plane only as far as its faces hold them) and one
    crossing per cut edge, made from its kept end; the outside vertices
    die in place."""
    before, after = before.compact(), after.compact()
    vals = [dot(normal, v) + offset for v in before.vertices]
    required = Counter(v for v, f in zip(before.vertices, vals) if f < 0)
    on_plane = Counter(v for v, f in zip(before.vertices, vals) if f == 0)
    for face in before.faces:
        for a, b in zip(face.ring, face.ring[1:] + face.ring[:1]):
            if vals[a] < 0 < vals[b]:
                required[
                    _ref_cut_point(before.vertices[a], before.vertices[b], vals[a], vals[b])
                ] += 1
    have = Counter(after.vertices)
    if not after.empty:
        assert not required - have
    assert not have - required - on_plane


# --- random and grazing cuts ---------------------------------------------------

def _corners(shape):
    if isinstance(shape, Polygon):
        return shape.vertices
    return [v for face in shape.faces for v in face.vertices]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _cut(rng, shape, kind, scalar):
    """A cut (normal, offset) of `shape`: random, or grazing one of its
    vertices ("vertex") or containing one of its edges ("edge")."""
    d = 2 if isinstance(shape, Polygon) else 3
    normal = tuple(scalar(int(c)) / 8 for c in rng.integers(-8, 9, d))
    if not any(normal):
        normal = (scalar(1),) + (scalar(0),) * (d - 1)
    corners = _corners(shape)
    if kind == "random" or not corners:
        return normal, scalar(int(rng.integers(-24, 25))) / 16
    if kind == "vertex":
        v = corners[int(rng.integers(len(corners)))]
        return normal, -dot(normal, v)
    # an edge on the plane
    if d == 2:
        k = int(rng.integers(len(shape.vertices)))
        v0, v1 = shape.vertices[k], shape.vertices[(k + 1) % len(shape.vertices)]
        normal = (v0[1] - v1[1], v1[0] - v0[0])
    else:
        face = shape.faces[int(rng.integers(len(shape.faces)))]
        k = int(rng.integers(len(face.vertices)))
        v0, v1 = face.vertices[k], face.vertices[(k + 1) % len(face.vertices)]
        normal = _cross(tuple(b - a for a, b in zip(v0, v1)), normal)
    if rng.integers(2):
        normal = tuple(-c for c in normal)
    return normal, -dot(normal, v0)


CLIPPERS = {
    2: (clipping.box_polygon, clipping.box_polygon, clipping.clip_polygon, ref_clip_polygon),
    3: (clipping.box_polyhedron, ref_box_polyhedron, clipping.clip_polyhedron, ref_clip_polyhedron),
}


@pytest.mark.parametrize("kind", ["random", "vertex", "edge"])
@pytest.mark.parametrize("scalar", [float, Fraction])
@pytest.mark.parametrize("d", [2, 3])
def test_ring_step_matches_the_separate_loops(d, scalar, kind):
    box, ref_box, clip_fn, ref_fn = CLIPPERS[d]
    rng = np.random.default_rng(d * 100 + (scalar is Fraction) * 10 + len(kind))
    tol = 0 if scalar is Fraction else FLOAT_TOL
    grazed = emptied = 0
    for trial in range(30):
        got, want = box(scalar(2)), ref_box(scalar(2))
        for step in range(6):
            # alternate grazing cuts with random ones so both act on cells
            normal, offset = _cut(rng, want, kind if step % 2 else "random", scalar)
            before = got
            got = clip_fn(got, normal, offset, step)
            want = ref_fn(want, normal, offset, step)
            if d == 2:
                assert got == want
                assert repr(got) == repr(want)
            else:
                assert_same_faces(got, want, tol)
                assert_cut_vertices(before, got, normal, offset)
                if not got.empty:
                    assert_closed_surface(got)
            grazed += any(dot(normal, v) + offset == 0 for v in _corners(want))
            emptied += want.empty
    assert grazed > 0 and emptied > 0


@pytest.mark.parametrize("kind", ["vertex", "edge"])
def test_float_cuts_through_the_cells_own_vertices(kind):
    # cuts taken from the clipped cell itself hold its float vertices
    # exactly, and some of them hold edges ~1e-16 long
    rng = np.random.default_rng(700 + len(kind))
    on_plane = 0
    for trial in range(60):
        got = clipping.box_polyhedron(2.0)
        for step in range(6):
            normal, offset = _cut(rng, as_reference(got), kind if step % 2 else "random", float)
            before = got
            got = clipping.clip_polyhedron(got, normal, offset, step)
            assert_cut_vertices(before, got, normal, offset)
            if not got.empty:
                assert_closed_surface(got)
            on_plane += any(dot(normal, v) + offset == 0 for v in got.compact().vertices)
    assert on_plane > 0


# six float cuts of the box; the fourth and sixth hold an edge of the cell,
# and the sixth then holds an edge ~4e-16 long as well
TINY_EDGE_CHAIN = [
    ((0.5, -0.25, -0.625), -1.4375),
    ((4.4, 0.8, 2.0), -7.400000000000001),
    ((-0.375, -1.0, -0.25), -0.125),
    ((-1.8026315789473684, 0.9013157894736842, 0.9013157894736843), 2.478618421052632),
    ((-1.0, -0.625, 0.25), 0.125),
    ((0.3437499999999998, -0.09374999999999992, 0.15624999999999983), -0.265625),
]


def test_cut_through_a_tiny_edge_leaves_every_vertex_on_three_faces():
    got = clipping.box_polyhedron(2.0)
    for step, (normal, offset) in enumerate(TINY_EDGE_CHAIN):
        before = got
        got = clipping.clip_polyhedron(got, normal, offset, step)
        assert_cut_vertices(before, got, normal, offset)
        assert_closed_surface(got)
    assert len(got.faces) == 5


# --- the integer homogeneous kernel ----------------------------------------------

def test_homogeneous_round_trip():
    for point in [(Fraction(1, 2), Fraction(-2, 3)), (0, 5), (Fraction(7, 4), 0, Fraction(-7, 6))]:
        v = clipping.to_homogeneous(point)
        assert all(type(c) is int for c in v) and math.gcd(*v) == 1 and v[-1] > 0
        assert clipping.to_affine(v) == point
    assert clipping.to_homogeneous((Fraction(2, 4), Fraction(3, 6))) == (1, 1, 2)


def test_every_crossing_is_primitive_with_positive_z():
    rng = np.random.default_rng(31)
    for trial in range(300):
        d = 2 + trial % 2
        v0, v1 = (
            clipping.to_homogeneous(tuple(Fraction(int(a), int(b)) for a, b in zip(nums, dens)))
            for nums, dens in ((rng.integers(-99, 99, d), rng.integers(1, 60, d)) for _ in range(2))
        )
        row = tuple(int(c) for c in rng.integers(-50, 50, d + 1))
        f0, f1 = (sum(a * b for a, b in zip(row, v)) for v in (v0, v1))
        if f0 * f1 >= 0:
            continue
        for w in (clipping._homogeneous_cut_point(v0, v1, f0, f1), clipping._homogeneous_cut_point(v1, v0, f1, f0)):
            assert all(type(c) is int for c in w) and math.gcd(*w) == 1 and w[-1] > 0
            assert sum(a * b for a, b in zip(row, w)) == 0  # on the plane
            # the Fraction crossing, from either end
            p0, p1 = clipping.to_affine(v0), clipping.to_affine(v1)
            want = _ref_cut_point(p0, p1, Fraction(f0, v0[-1]), Fraction(f1, v1[-1]))
            assert clipping.to_affine(w) == want
