"""The shared ring step against the two clip loops it replaced."""

from fractions import Fraction

import numpy as np
import pytest

from hypervoronoi import clipping
from hypervoronoi.clipping import Face, Polygon, Polyhedron
from hypervoronoi.scalars import dot


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


def ref_clip_polyhedron(poly, normal, offset, tag):
    if poly.empty:
        return poly
    new_faces = []
    cut_points = []
    for face in poly.faces:
        kept, cuts = _ref_clip_face(face.vertices, normal, offset)
        if len(kept) >= 3:
            new_faces.append(Face(face.tag, kept))
        cut_points.extend(cuts)
    ring = clipping._order_ring(cut_points, normal) if cut_points else None
    if ring is not None:
        new_faces.append(Face(tag, ring))
    if len(new_faces) < 4:
        return Polyhedron([])
    return Polyhedron(new_faces)


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
    2: (clipping.box_polygon, clipping.clip_polygon, ref_clip_polygon),
    3: (clipping.box_polyhedron, clipping.clip_polyhedron, ref_clip_polyhedron),
}


@pytest.mark.parametrize("kind", ["random", "vertex", "edge"])
@pytest.mark.parametrize("scalar", [float, Fraction])
@pytest.mark.parametrize("d", [2, 3])
def test_ring_step_matches_the_separate_loops(d, scalar, kind):
    box, clip_fn, ref_fn = CLIPPERS[d]
    rng = np.random.default_rng(d * 100 + (scalar is Fraction) * 10 + len(kind))
    grazed = emptied = 0
    for trial in range(30):
        got = want = box(scalar(2))
        for step in range(6):
            # alternate grazing cuts with random ones so both act on cells
            normal, offset = _cut(rng, want, kind if step % 2 else "random", scalar)
            got = clip_fn(got, normal, offset, step)
            want = ref_fn(want, normal, offset, step)
            assert got == want
            assert repr(got) == repr(want)
            grazed += any(dot(normal, v) + offset == 0 for v in _corners(want))
            emptied += want.empty
    assert grazed > 0 and emptied > 0
