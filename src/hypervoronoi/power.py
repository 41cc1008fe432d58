"""Power (Laguerre) diagram engine: weighted sites, radical hyperplanes,
halfspace-clipped cells, ball clipping and point location.

The hyperbolic pipelines reduce to this module: Klein points map to
weighted sites through `klein_site_map` (algebraic: one square root per
site), hemisphere points through `hemisphere_site_map` (rational).  The
two maps agree under the vertical lift.

A build has one arithmetic: exact sites (every centre coordinate and
weight an int or a Fraction) are built exactly, any other site set as
its sites' float64 images.  Every float row is a column of
`cutting.pair_rows`, made in numpy from the site arrays; every exact row
is the primitive integer row made from two sites' `WeightedSite.integer_row`s.

For d in {2, 3}, `build_complex` runs in four stages.
1. Cut (`cutting`): every cell is cut from a window (the clip ball's
   bounding cube: centre c, half-width r) by the candidates that change
   it, nearest site centre first, a block of cells at a time.  On exact
   sites a radical hyperplane is made once, only for a cut that runs or
   a facet that survives, and `Fraction`s are made once per vertex, when
   the cell's cuts end.
2. Facets: one pass over the finished cells, their rings started at
   their least vertex (no output depends on the cut order), reads the
   vertex candidates and the facets that come closer to the clip centre
   than r (d=2: exact, on the integers, on rational input).  The facets'
   keys are the adjacency.  Float cells are read a block at a time in
   numpy (`_read_rings`, `_read_polyhedra`), exact ones one at a time.
3. Halfspaces: `_halfspaces` gives each facet's lower cell its row and
   the higher cell the negation; a float row is its cut's `pair_rows`
   column, bit for bit.  A cell that misses the centre (the `locate` tie
   set) is empty without a facet, since the window lies outside the
   open ball.
4. Merge: vertices of neighbouring cells merge into power vertices
   within a tolerance, in one array pass (`clipping.merge_near`).
Other dimensions keep every cell's n-1 halfspaces, from `_halfspaces`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import chain

import numpy as np

from . import clipping, cutting
from .clipping import BOX_TAG, Polygon, Polyhedron
from .errors import (
    ArityMismatch,
    CoincidentSites,
    DomainViolation,
    DuplicateSites,
    EmptySites,
)
from .scalars import all_exact, as_floats, dot, norm_sq, sqrt_scalar, vsub

# Klein-mapped sites switch from imaginary to real ball radius exactly at
# |p|^2 = 4 (sqrt(5) - 2); kept as a named constant for tests.
KLEIN_WEIGHT_SIGN_THRESHOLD = 4.0 * (math.sqrt(5.0) - 2.0)

TIE_TOL = 1e-12
FACET_MEASURE_TOL = 1e-10
VERTEX_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class WeightedSite:
    """Euclidean center with a real weight (squared radius, may be < 0)."""

    center: tuple
    weight: object
    origin_index: int = -1

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))

    @functools.cached_property
    def integer_row(self):
        """(A, B, D) with centre A / D and |centre|^2 - weight = B / D in
        integers, D > 0; None unless the site is exact."""
        if not all_exact(self.center + (self.weight,)):
            return None
        fracs = [Fraction(c) for c in self.center]
        b = norm_sq(fracs) - Fraction(self.weight)
        den = math.lcm(*(f.denominator for f in fracs), b.denominator)
        a = tuple(f.numerator * (den // f.denominator) for f in fracs)
        return a, b.numerator * (den // b.denominator), den


@dataclass(frozen=True)
class Halfspace:
    """{x : <normal, x> + offset <= 0}.

    A zero normal with nonzero offset encodes the degenerate radical
    "hyperplane" of two concentric sites: the constraint is constant,
    satisfied everywhere or nowhere.
    """

    normal: tuple
    offset: object

    def __post_init__(self):
        object.__setattr__(self, "normal", tuple(self.normal))

    def evaluate(self, x):
        if len(x) != len(self.normal):
            raise ArityMismatch(
                f"halfspace arity {len(self.normal)}, point arity {len(x)}"
            )
        return dot(self.normal, x) + self.offset

    def __neg__(self) -> Halfspace:
        """The other side of the same hyperplane."""
        return Halfspace(tuple(-c for c in self.normal), -self.offset)


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: object

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))


def unit_ball(d: int) -> Ball:
    return Ball((0,) * d, 1)


def power_distance(s: WeightedSite, x) -> object:
    """<c - x, c - x> - w; exact on rational input."""
    if len(x) != len(s.center):
        raise ArityMismatch(f"site arity {len(s.center)}, point arity {len(x)}")
    return norm_sq(vsub(s.center, x)) - s.weight


def radical_hyperplane(s_i: WeightedSite, s_j: WeightedSite) -> Halfspace:
    """Locus of equal power distance, oriented so s_i's side is <= 0.

    Square-root free.  For equal centers with different weights the zero
    set is empty and the returned halfspace is the constant constraint
    (the smaller-power site wins everywhere).  Two exact sites give the
    primitive integer row from their integer rows: the rational row times
    D_i D_j > 0, over its gcd.  Other sites give the unit-normal row of
    their float64 images, the column `cutting.pair_rows` makes for the pair.
    """
    if s_i.center == s_j.center and s_i.weight == s_j.weight:
        raise CoincidentSites("radical hyperplane of identical weighted sites")
    row_i, row_j = s_i.integer_row, s_j.integer_row
    if row_i is not None and row_j is not None:
        (a_i, b_i, d_i), (a_j, b_j, d_j) = row_i, row_j
        row = [2 * (x_j * d_i - x_i * d_j) for x_i, x_j in zip(a_i, a_j)] + [b_i * d_j - b_j * d_i]
        g = math.gcd(*row)
        return Halfspace(tuple(c // g for c in row[:-1]), row[-1] // g)
    d = len(s_i.center)
    if len(s_j.center) != d:
        raise ArityMismatch("sites have inconsistent dimensions")
    try:
        arrays = cutting.site_arrays([s_i, s_j], d)
        row = cutting.pair_rows(arrays, np.array([0]), np.array([1]), True)[:d + 1, 0].tolist()
    except CoincidentSites:
        raise CoincidentSites(cutting.ROUNDS_TO_ZERO) from None
    return Halfspace(row[:d], row[d])


def klein_site_map(p, origin_index: int = -1) -> WeightedSite:
    """Map a unit-Klein point to its power-diagram site.

    center = p / (2 sqrt(1 - |p|^2)),
    weight = |p|^2 / (4 (1 - |p|^2)) - 1 / sqrt(1 - |p|^2).
    The radical hyperplane of two mapped sites is the Klein bisector.
    Requires a square root: rational input raises unless 1 - |p|^2 is a
    perfect square (use the hemisphere map for rational pipelines).
    """
    n2 = norm_sq(p)
    s2 = 1 - n2
    if not float(s2) > 0:
        raise DomainViolation(
            f"Klein point has squared norm {float(n2)} >= 1",
            constraint="sum x_i^2 < 1",
        )
    s = sqrt_scalar(s2)
    center = tuple(x / (2 * s) for x in p)
    weight = n2 / (4 * s2) - 1 / s
    return WeightedSite(center, weight, origin_index)


def hemisphere_site_map(p, origin_index: int = -1) -> WeightedSite:
    """Map a unit-hemisphere point (d+1 coords) to its power site on H_0.

    center = (p_1, ..., p_d) / (2 p_0),  weight = <c, c> - 1/p_0.
    Rational in, rational out.  The weight's sign was fixed once against
    the equidistance oracle (the projected bisector constant must read
    1/p_0 - 1/q_0); the mapped sites coincide with `klein_site_map` of
    the vertical projection.
    """
    if len(p) < 3:
        raise ArityMismatch("hemisphere point needs at least 3 coordinates")
    if not p[0] > 0:
        raise DomainViolation(
            f"hemisphere x_0 = {float(p[0])} is not positive", constraint="x_0 > 0"
        )
    center = tuple(x / (2 * p[0]) for x in p[1:])
    weight = norm_sq(center) - 1 / p[0]
    return WeightedSite(center, weight, origin_index)


def locate(x, sites) -> tuple[int, tuple[int, ...]]:
    """Exhaustive power point location: argmin index plus the tie set."""
    if not sites:
        raise EmptySites("locate needs at least one site")
    powers = [power_distance(s, x) for s in sites]
    best = min(powers)
    if all_exact(powers):
        ties = tuple(i for i, v in enumerate(powers) if v == best)
    else:
        fb = float(best)
        ties = tuple(i for i, v in enumerate(powers) if float(v) - fb <= TIE_TOL)
    return ties[0], ties


# --- complex construction ----------------------------------------------------

@dataclass
class ConvexCell:
    site_index: int
    halfspaces: dict  # neighbor index -> Halfspace (this cell's side <= 0)
    shape: Polygon | Polyhedron | None  # the clipped cell for d = 2 or 3; None above
    empty: bool


@dataclass(frozen=True)
class PowerVertex:
    point: tuple
    sites: frozenset


@dataclass
class PowerComplex:
    dimension: int
    sites: list
    cells: list
    power_vertices: list
    facets: dict  # (i, j), i < j -> facet geometry: segment (d=2) or polygon (d=3)
    clip: Ball

    @property
    def adjacency(self) -> set:
        """{(i, j), i < j} whose shared facet meets the open clip ball: the
        keys of `facets`."""
        return set(self.facets)

    @property
    def explicit(self) -> bool:
        """Whether cells carry their clipped geometry (d = 2 or 3)."""
        return self.dimension in (2, 3)


def _check_sites(sites) -> int:
    if not sites:
        raise EmptySites("build_complex needs at least one site")
    d = len(sites[0].center)
    seen = {}
    for k, s in enumerate(sites):
        if len(s.center) != d:
            raise ArityMismatch("sites have inconsistent dimensions")
        key = (s.center, s.weight)
        if key in seen:
            raise DuplicateSites(f"sites {seen[key]} and {k} coincide")
        seen[key] = k
    return d


def _integer_ball_test(points, clip):
    """Which rational points lie strictly inside the clip ball, and whether
    the segment between points k and j comes closer to its centre than r,
    on the integers (a float centre or squared radius is taken at its
    exact value).  With the centre C / D and r^2 = M / N cleared of
    denominators, a point X / Z is P / Q for P = D X - C Z and Q = D Z > 0,
    inside when N |P|^2 < M Q^2.
    A segment P0 / Q0 -> P1 / Q1 with neither end inside comes closer than
    r when its foot parameter t = -<P0, E> Q1 / |E|^2, E = P1 Q0 - P0 Q1,
    lies in (0, 1) and N (|P0|^2 |E|^2 - <P0, E>^2) < M Q0^2 |E|^2."""
    centre = clipping.to_homogeneous(clip.center)
    C, D = centre[:-1], centre[-1]
    r2 = Fraction(clip.radius**2)
    M, N = r2.numerator, r2.denominator
    P, Q = [], []
    for v in map(clipping.to_homogeneous, points):
        P.append(tuple(D * x - c * v[-1] for x, c in zip(v, C)))
        Q.append(D * v[-1])
    inside = [N * norm_sq(p) < M * q * q for p, q in zip(P, Q)]

    def meets(k, j):
        (p0, q0), (p1, q1) = (P[k], Q[k]), (P[j], Q[j])
        e = [a * q0 - b * q1 for a, b in zip(p1, p0)]
        pe, ee = dot(p0, e), norm_sq(e)
        return 0 < -pe * q1 < ee and N * (norm_sq(p0) * ee - pe * pe) < M * q0 * q0 * ee

    return inside, meets


def _polygon_facets(poly, tol, exact, clip):
    """Radical edges of an exact polygon that have positive length and
    come closer to the clip centre than its radius, exactly, on the
    integers; an edge with an end strictly inside the ball does at once.
    Float polygons are read in numpy (`_read_rings`)."""
    inside, meets = _integer_ball_test(poly.vertices, clip)
    for k, (tag, v0, v1) in enumerate(poly.edges()):
        if tag is BOX_TAG or v0 == v1:
            continue
        j = (k + 1) % len(poly.vertices)
        if inside[k] or inside[j] or meets(k, j):
            yield tag, (v0, v1)


def _below(bound):
    """(f, strict) such that a float x is below the real bound >= 0 (an
    int, float or Fraction), compared exactly as Python compares them, iff
    x < f when strict, x <= f otherwise."""
    try:
        f = float(bound)
    except OverflowError:
        return math.inf, True
    return f, not math.isfinite(f) or Fraction(f) >= bound


def _read_rings(rings, first, clip, tol):
    """The Python reader's result on a block of float polygons
    (`cutting._Rings`, cells first, first + 1, ...), in numpy.

    Each ring starts at its least vertex.  A facet is a radical edge
    longer than tol that comes closer to the clip centre than r: an end
    strictly inside, or the foot of the centre strictly between its ends
    and inside (`clipping.segment_min_norm_sq`: the same IEEE operations in
    the same order, sums from +0.0; the test against r^2 exact).  Returns
    the polygons, the facets ((i, j), (v0, v1)), i < j, each at its first
    occurrence, and the vertex candidates: the corners where two radical
    edges of different tags meet, with cell i and those tags."""
    rings.least_first()
    P, T, L = rings.P, rings.T, rings.L
    col = np.arange(P.shape[2])
    slot = np.arange(P.shape[1])[:, None]
    nxt = np.where(slot + 1 < L, slot + 1, 0)
    radical = (slot < L) & (T >= 0)
    r2, strict = _below(clip.radius**2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        E = P[:, nxt, col] - P
        long = np.sqrt(E[0] * E[0] + E[1] * E[1]) > tol
        X = P - np.array([float(c) for c in clip.center])[:, None, None]
        sq = X[0] * X[0] + X[1] * X[1]
        D = X[:, nxt, col] - X
        dd = D[0] * D[0] + D[1] * D[1]
        t = -(0.0 + X[0] * D[0] + X[1] * D[1]) / dd
        W = X + t * D
        foot = W[0] * W[0] + W[1] * W[1]
        inside = sq < r2 if strict else sq <= r2
        meets = (dd != 0) & (t > 0) & (t < 1) & (foot < r2 if strict else foot <= r2)
    facet = radical & long & (inside | inside[nxt, col] | meets)
    prev = T[np.where(slot > 0, slot - 1, L - 1), col]
    corner = radical & (prev >= 0) & (prev != T)
    polys = rings.shapes()
    vertex = list(chain.from_iterable(p.vertices for p in polys)).__getitem__  # cell by cell
    base = np.cumsum(L) - L
    c, k = np.nonzero(facet.T)
    i, j = first + c, T[k, c]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    once = np.sort(np.unique(lo * (int(hi.max(initial=0)) + 1) + hi, return_index=True)[1])
    c, k = c[once], k[once]
    ends = (base[c] + k).tolist(), (base[c] + nxt[k, c]).tolist()
    found = list(zip(zip(lo[once].tolist(), hi[once].tolist()), zip(*(map(vertex, e) for e in ends))))
    c, k = np.nonzero(corner.T)
    sites = zip((first + c).tolist(), prev[k, c].tolist(), T[k, c].tolist())
    candidates = list(zip(map(vertex, (base[c] + k).tolist()), map(frozenset, sites)))
    return polys, found, candidates


def _read_polyhedra(cells, first, clip, tol):
    """The Python reader's result on a block of float polyhedra
    (`cutting._Polyhedra`, cells first, first + 1, ...), in numpy.

    Each ring starts at its least vertex.  A facet is a radical face of
    Newell area above tol^2 that comes closer to the clip centre than r: a
    vertex strictly inside, or `clipping.face_min_norm_sq` below r^2.  The
    IEEE operations are `clipping`'s, in the same order, sums from +0.0;
    the test against r^2 is exact, and an area within 1e-12 of tol^2 is
    taken by `clipping.face_area` itself (Python squares by `pow`, which
    can round x * x the other way).  Coordinates of magnitude over 1e60,
    whose products could overflow, and clip centres that are not floats
    send the block to the Python reader.  Returns the polyhedra, the
    facets ((i, j), points), i < j, each at its first occurrence, and the
    vertex candidates: the vertices on three radical faces or more, with
    cell i and their tags."""
    if not (np.abs(cells.V) <= 1e60).all() or not all(isinstance(c, (int, float)) for c in clip.center):
        polys = [p.least_first() for p in cells.shapes()]
        found, candidates = [], []
        for i, p in enumerate(polys, first):
            found += [((i, j) if i < j else (j, i), facet) for j, facet in _polyhedron_facets(p, tol, False, clip)]
            candidates += _polyhedron_vertices(p, i)
        return polys, found, candidates
    cells.least_first()
    polys = cells.shapes()
    V, F, FL, FT = cells.V, cells.F, cells.FL, cells.FT
    m, S, K = len(F), V.shape[1], F.shape[2]
    c, g = np.nonzero((FL > 0) & (FT >= 0))  # the radical faces, one row each
    rows, L, tags = F[c, g], FL[c, g], FT[c, g]
    pos = np.arange(K)
    ring = pos < L[:, None]
    tt = tol * tol
    r2, strict = _below(clip.radius**2)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        U = np.stack([x.take(rows * m + c[:, None]) for x in V])  # coordinate, face, position
        W = np.where(pos + 1 == L[:, None], U[..., :1], np.concatenate((U[..., 1:], U[..., :1]), axis=2))
        n = _newell_sums(U, W, L)
        area = 0.5 * np.sqrt(n[0] * n[0] + n[1] * n[1] + n[2] * n[2])
        big = area > tt
        for f in np.flatnonzero(np.abs(area - tt) <= 1e-12 * tt).tolist():
            big[f] = clipping.face_area([tuple(p) for p in U[:, f, :L[f]].T.tolist()]) > tt
        if any(clip.center):
            centre = np.array([float(x) for x in clip.center])[:, None, None]
            U, W = U - centre, W - centre
            n = _newell_sums(U, W, L)
        below = (lambda x: x < r2) if strict else (lambda x: x <= r2)
        facet = big & (ring & below(U[0] * U[0] + U[1] * U[1] + U[2] * U[2])).any(axis=1)
        # `face_min_norm_sq` where no vertex is inside
        rest = np.flatnonzero(big & ~facet)
        U, W, n, ring = U[:, rest], W[:, rest], n[:, rest], ring[rest]
        D = W - U
        dd = D[0] * D[0] + D[1] * D[1] + D[2] * D[2]
        t = -(0.0 + U[0] * D[0] + U[1] * D[1] + U[2] * D[2]) / dd
        X = U + t * D
        meets = (dd != 0) & (t > 0) & (t < 1) & below(X[0] * X[0] + X[1] * X[1] + X[2] * X[2])
        # the centre's foot on the face plane, inside when no two edges see it on opposite sides
        nn = n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
        foot = (0.0 + U[0, :, 0] * n[0] + U[1, :, 0] * n[1] + U[2, :, 0] * n[2]) / nn * n
        R = foot[..., None] - U
        side = (
            0.0 + (D[1] * R[2] - D[2] * R[1]) * n[0, :, None] + (D[2] * R[0] - D[0] * R[2]) * n[1, :, None]
            + (D[0] * R[1] - D[1] * R[0]) * n[2, :, None]
        )
        interior = (nn != 0) & (((side >= 0) | ~ring).all(axis=1) | ((side <= 0) | ~ring).all(axis=1))
        interior &= below(foot[0] * foot[0] + foot[1] * foot[1] + foot[2] * foot[2])
        facet[rest] = (ring & meets).any(axis=1) | interior
    i, j = first + c[facet], tags[facet]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    once = np.flatnonzero(facet)[np.sort(np.unique(lo * (int(hi.max(initial=0)) + 1) + hi, return_index=True)[1])]
    found = [
        ((min(i, j), max(i, j)), tuple(map(polys[i - first].vertices.__getitem__, polys[i - first].faces[g].ring)))
        for i, j, g in zip((first + c[once]).tolist(), tags[once].tolist(), g[once].tolist())
    ]
    # each vertex's radical tags, vertices in table order, tags in face
    # order: each set is made as `_polyhedron_vertices` makes it
    f, k = np.nonzero(pos < L[:, None])
    key = c[f] * S + rows[f, k]
    order = np.argsort(key, kind="stable")
    key, tag = key[order], tags[f][order].tolist()
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    ends = np.r_[starts[1:], len(key)]
    three = np.flatnonzero(ends - starts >= 3)
    candidates = []
    for v, s, e in zip(key[starts[three]].tolist(), starts[three].tolist(), ends[three].tolist()):
        site_tags = set(tag[s:e])
        if len(site_tags) >= 3:
            candidates.append((polys[v // S].vertices[v % S], frozenset(site_tags | {first + v // S})))
    return polys, found, candidates


def _newell_sums(U, W, L):
    """`clipping._newell_normal` of each ring, its edges' ends U and W
    (coordinate, ring, position), L long: the terms summed in ring order
    from 0.0."""
    terms = np.stack((
        (U[1] - W[1]) * (U[2] + W[2]), (U[2] - W[2]) * (U[0] + W[0]), (U[0] - W[0]) * (U[1] + W[1]),
    ))
    sums = np.cumsum(np.concatenate((np.zeros_like(terms[..., :1]), terms), axis=2), axis=2)
    return sums[:, np.arange(len(L)), L]


def _polyhedron_facets(polyh, tol, exact, clip):
    """Radical faces of float area above tol^2 that come closer to the
    clip centre than its radius (float), on either route.  A face with a
    vertex strictly inside the ball does at once.  The vertex table is
    taken in floats once."""
    fv = [as_floats(v) for v in polyh.vertices]
    rel = [as_floats(vsub(v, clip.center)) for v in polyh.vertices] if any(clip.center) else fv
    r2 = clip.radius**2
    inside = [norm_sq(v) < r2 for v in rel]
    for face in polyh.faces:
        if face.tag is BOX_TAG:
            continue
        if not clipping.face_area([fv[k] for k in face.ring]) > tol * tol:
            continue
        if any(inside[k] for k in face.ring) or clipping.face_min_norm_sq(
            [rel[k] for k in face.ring]
        ) < r2:
            yield face.tag, tuple(polyh.points(face))


def _polygon_vertices(poly, i):
    """Corners where two radical edges meet: cells i, previous and next tag."""
    for k, point in enumerate(poly.vertices):
        t_prev, t_cur = poly.tags[k - 1], poly.tags[k]
        if t_prev is not BOX_TAG and t_cur is not BOX_TAG and t_prev != t_cur:
            yield point, frozenset((i, t_prev, t_cur))


def _polyhedron_vertices(polyh, i):
    """Vertices on at least three radical faces, with cell i."""
    tags = [set() for _ in polyh.vertices]
    for face in polyh.faces:
        if face.tag is not BOX_TAG:
            for k in face.ring:
                tags[k].add(face.tag)
    for point, site_tags in zip(polyh.vertices, tags):
        if len(site_tags) >= 3:
            yield point, frozenset(site_tags | {i})


def _halfspaces(pairs, n, arrays, side=None):
    """Every cell's halfspaces, {neighbour: Halfspace} in ascending
    neighbour order, for the sorted pairs (i, j), i < j: cell i gets the
    exact row side(i, j) on exact sites, or else the pair's
    `cutting.pair_rows` column, made `cutting.BLOCK_PAIRS` pairs at a time;
    cell j gets its negation."""
    d = arrays[0].shape[1]
    own = [{} for _ in range(n)]
    step = cutting.BLOCK_PAIRS
    for start in range(0, len(pairs), step):
        part = pairs[start:start + step]
        if side is None:
            home, tags = np.array(part, dtype=np.intp).T
            rows = cutting.pair_rows(arrays, home, tags, True)[:d + 1].T.tolist()
            made = [Halfspace(r[:d], r[d]) for r in rows]
        else:
            made = [side(i, j) for i, j in part]
        for (i, j), hs in zip(part, made):
            own[i][j], own[j][i] = hs, -hs
    return own


def build_complex(sites, clip: Ball) -> PowerComplex:
    """Construct the power diagram of the given sites, restricted to the
    open `clip` ball (the model ball for hyperbolic pipelines).

    Sites that are not all exact are built as their float64 images: the
    result equals, but for `sites`, the build on those images.  For d in
    {2, 3} it runs in four stages: cut every cell, read the finished
    cells' facets and vertex candidates, make the facets' halfspaces,
    merge the vertices.  Other dimensions make every pair's halfspaces."""
    sites = list(sites)
    d = _check_sites(sites)
    n = len(sites)
    if len(clip.center) != d:
        raise ArityMismatch("clip ball dimension does not match sites")
    exact = all(all_exact(s.center + (s.weight,)) for s in sites)
    arrays = cutting.site_arrays(sites, d)
    # from here on one arithmetic: the exact sites, or the others' float64 images
    images = zip(sites, arrays[0].tolist(), arrays[2].tolist())
    work = sites if exact else [WeightedSite(tuple(c), w, s.origin_index) for s, c, w in images]
    made = {}  # (i, j), i < j -> radical_hyperplane(work[i], work[j])

    def side(i, j):  # cell i's side of the (i, j) radical hyperplane
        key = (i, j) if i < j else (j, i)
        if key not in made:  # raises nothing: the sites are distinct, their table rows nonzero
            made[key] = radical_hyperplane(work[key[0]], work[key[1]])
        return made[key] if i < j else -made[key]

    exact_side = side if exact else None
    if d not in (2, 3):
        own = _halfspaces([(i, j) for i in range(n) for j in range(i + 1, n)], n, arrays, exact_side)
        cells = [ConvexCell(i, own[i], None, False) for i in range(n)]
        return PowerComplex(d, sites, cells, [], {}, clip)

    # the window is the clip ball's bounding cube: its walls lie outside the open ball
    scalar = Fraction if exact else float
    centre, r = tuple(map(scalar, clip.center)), scalar(clip.radius)
    # per dimension: the window, its clipper, in-ball facets of positive
    # measure, vertex site sets (float cells: `_read_rings`, `_read_polyhedra`)
    box, clip_fn, cell_facets, cell_vertices = {
        2: (clipping.box_polygon, clipping.clip_polygon, _polygon_facets, _polygon_vertices),
        3: (clipping.box_polyhedron, clipping.clip_polyhedron, _polyhedron_facets, _polyhedron_vertices),
    }[d]
    window = box(r)  # about the centre; exact sites are cut on integer homogeneous vertices
    corners = [tuple(a + b for a, b in zip(centre, v)) for v in window.vertices]
    window = replace(window, vertices=[clipping.to_homogeneous(v) for v in corners] if exact else corners)

    # 1. cut every cell, a block of cells at a time, nearest centre first
    blocks = cutting.cut_cells(window, arrays, exact, side, clip_fn)

    # 2. the finished cells' facets (the lower cell's, if it has one) and
    # vertex candidates, each ring started at its least vertex
    shapes, facets, vertex_candidates = [], {}, []
    tol = FACET_MEASURE_TOL * float(r)
    for block in blocks:
        if not isinstance(block, list):  # float cells, read in numpy
            read = _read_rings if isinstance(block, cutting._Rings) else _read_polyhedra
            block, found, candidates = read(block, len(shapes), clip, tol)
            shapes += block
            vertex_candidates += candidates
            for key, facet in found:
                facets.setdefault(key, facet)
            continue
        for shape in block:
            i = len(shapes)
            if exact:
                shape = replace(shape, vertices=[clipping.to_affine(v) for v in shape.vertices])
            shapes.append(shape.least_first())
            for j, facet in cell_facets(shapes[i], tol, exact, clip):
                facets.setdefault((i, j) if i < j else (j, i), facet)
            vertex_candidates.extend(cell_vertices(shapes[i], i))

    # 3. the facets' halfspaces; a cell that misses the centre (the `locate`
    # tie set) is empty without one, since the window lies outside the open ball
    own = _halfspaces(sorted(facets), n, arrays, exact_side)
    holders = locate(clip.center, work)[1]
    cells = [
        ConvexCell(i, own[i], shape, shape.empty or (i not in holders and not own[i]))
        for i, shape in enumerate(shapes)
    ]

    # 4. merge the vertices of neighbouring cells into power vertices
    merged = clipping.merge_near(vertex_candidates, VERTEX_MERGE_TOL * float(r))
    power_vertices = [PowerVertex(point, frozenset(sites)) for point, sites in merged if len(sites) >= d + 1]
    return PowerComplex(d, sites, cells, power_vertices, facets, clip)
