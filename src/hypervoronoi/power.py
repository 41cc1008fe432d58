"""Power (Laguerre) diagram engine: weighted sites, radical hyperplanes,
halfspace-clipped cells, ball clipping and point location.

The hyperbolic pipelines reduce to this module: Klein points map to
weighted sites through `klein_site_map` (algebraic: one square root per
site), hemisphere points through `hemisphere_site_map` (rational).  The
two maps agree under the vertical lift.

A build has one arithmetic: exact sites (every centre coordinate and
weight an int or a Fraction) are built exactly, any other site set as
its sites' float64 images.  Every float row is a column of `_pair_rows`,
made in numpy from the site arrays; every exact row is the primitive
integer row made from two sites' `WeightedSite.integer_row`s.

For d in {2, 3}, one loop over blocks of cells, with a small
per-dimension table, cuts each cell from a window (the clip ball's
bounding cube: centre c, half-width r) with the exact clipper of
`clipping`, nearest site centre first, as Voro++ does (Rycroft, Chaos
19, 041111, 2009).  The cells of a block (at most BLOCK_PAIRS
cell-candidate pairs, or one cell) advance in lockstep.  Each step, one
float screen evaluates every remaining pair's row at its cell's vertices
and drops those whose candidate provably contains the cell: such a cut
would be a no-op now and at its turn, so the cells equal those of every
cut, vertex for vertex.  Then each cell cuts by its nearest remaining
candidate.  On float sites the screen's row is the cut: the clipper gets
its Python floats and its side values at the cell's vertices from the
same numpy expression, and `Halfspace`s are made only for the facets
that survive, from the same rows.  On exact sites a radical hyperplane
is made once, only for a cut that runs or a facet that survives, each
cell is cut on integer homogeneous vertices (see `clipping`), the screen
reads them as X / Z, and `Fraction`s are made once per vertex, when the
cell's cuts end.  Rings start at their least vertex, so no output
depends on the cut order.  One predicate, "the facet comes closer to the
clip centre than r" (d=2: exact, on the integers, on rational input),
decides adjacency, facets, each cell's halfspaces (negated for a lower
neighbour) and emptiness: a cell that misses the centre (the `locate`
tie set) is empty without such a facet, since the window lies outside
the open ball.  Vertices of neighbouring cells merge into power vertices
within a tolerance.  Other dimensions keep every cell's n-1 halfspaces:
integer rows, or table columns made a block of cells at a time.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import clipping
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
# Relative margin of the float screen in `_cut_block`.  It only decides
# which provable no-op cuts are skipped, never the geometry: a hyperplane
# within the margin of the cell is cut with exactly, as before.
CLIP_SKIP_TOL = 1e-9
# Most (cell, candidate) pairs one block of cells screens in lockstep, so
# the screen's temporaries stay this size whatever the number of sites.
BLOCK_PAIRS = 1 << 13
# Why two distinct float sites have no radical hyperplane: its normal's
# squares underflow and its offset is 0.
ROUNDS_TO_ZERO = "radical hyperplane rounds to zero in float64"


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
    their float64 images, the column `_pair_rows` makes for the pair.
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
        row = _pair_rows(_site_arrays([s_i, s_j], d), np.array([0]), np.array([1]), True)[:d + 1, 0].tolist()
    except CoincidentSites:
        raise CoincidentSites(ROUNDS_TO_ZERO) from None
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
    adjacency: set  # {(i, j), i < j} whose shared facet meets the open clip ball
    power_vertices: list
    facets: dict  # (i, j) -> facet geometry: segment (d=2) or polygon (d=3)
    clip: Ball
    box_halfwidth: float

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


def _side_table(X, R):
    """<normal, x> + offset of each column of R at the vertices X, whose
    first axis is the coordinate and last the column, in `dot`'s operation
    order: summed from 0.0, as Python's `sum` starts from 0."""
    d = len(X)
    vals = X[0] * R[0]
    vals += 0.0
    for k in range(1, d):
        vals += X[k] * R[k]
    vals += R[d]
    return vals


def _screen(R, V, counts):
    """Per pair, the max over its cell's vertices of its side value.

    R: the pairs' columns, as `_cut_block` takes them; V: the cells'
    vertices, (coordinate, slot, cell), padded; counts: the number of
    pairs of each cell, whose pairs are contiguous and in cell order.
    Slots are taken a few at a time, so that no temporary holds much more
    than BLOCK_PAIRS values per coordinate.
    """
    slots = V.shape[1]
    step = max(1, BLOCK_PAIRS // R.shape[1])
    worst = None
    for s in range(0, slots, step):
        val = _side_table(np.repeat(V[:, s:s + step], counts, axis=2), R).max(axis=0)
        worst = val if worst is None else np.maximum(worst, val)
    return worst


def _site_arrays(sites, d):
    """The sites' float64 images as arrays for `_pair_rows`: centres C,
    |c|^2 (summed as `dot` sums), weights W, and per site |c|_1 and
    |c|^2 + |w|, which bound a row and its rounding.  A site beyond the
    float range is a domain error."""
    try:
        S = np.array([as_floats(s.center + (s.weight,)) for s in sites]).reshape(len(sites), d + 1)
    except OverflowError as e:
        raise DomainViolation(f"site out of float range: {e}") from e
    C, W = S[:, :d], S[:, d]
    with np.errstate(over="ignore", invalid="ignore"):
        N = sum(C[:, k] * C[:, k] for k in range(d))
        return C, N, W, np.abs(C).sum(axis=1), N + np.abs(W)


def _pair_rows(arrays, home, tags, strict):
    """The float rows of the pairs (home[p], tags[p]), one column each:
    [normal | offset] on home's side, then (s1, s0), which bound |normal|_1
    and |offset| and the rounding of each, all over the row's scale.

    A row is (lo, hi)'s 2 (c_hi - c_lo), |c_lo|^2 - |c_hi|^2 + w_hi - w_lo,
    divided by its normal's norm (its squares summed from 0.0, as Python's
    `sum` starts from 0), or by |offset| when that is 0, and negated when
    home is the higher index.  It is every non-exact row of the package:
    `radical_hyperplane`'s on float sites, the cuts and halfspaces of a
    build on them, and on exact sites the screen's estimate.  With
    `strict` (non-exact sites) a row that rounds to zero raises;
    otherwise its column is left inf or nan, which the screen never skips.
    """
    C, N, W, L1, P = arrays
    d = C.shape[1]
    lo, hi = np.minimum(home, tags), np.maximum(home, tags)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        normal = (2 * (C[hi] - C[lo])).T
        sq = 0.0
        for c in normal:
            sq = sq + c * c
        offset = N[lo] - N[hi] + W[hi] - W[lo]
        scale = np.sqrt(sq)
        scale = np.where(scale == 0.0, np.abs(offset), scale)
        if strict and not scale.all():
            p = int(np.flatnonzero(scale == 0.0)[0])
            raise CoincidentSites(f"sites {lo[p]} and {hi[p]}: {ROUNDS_TO_ZERO}")
        R = np.vstack((normal, offset, 2 * (L1[home] + L1[tags]), P[home] + P[tags])) / scale
    flip = home > tags
    R[:d + 1, flip] = -R[:d + 1, flip]
    return R


def _cut_block(shapes, cell, tags, R, halfspace, clip_fn):
    """Cut a block of cells in lockstep, each by the candidates that change it.

    Pair p is candidate tags[p] of shapes[cell[p]]; each cell's pairs are
    contiguous and in cut order.  R: one column per pair, as `_pair_rows`
    makes it.  On affine (float) vertices a column is its cut: the clipper
    gets its normal and offset and its side values at the cell's vertices,
    the screen's `_side_table` over the cells cut at the step.  On integer
    homogeneous vertices (the exact route), read as X / Z by the screen,
    halfspace(c, j) gives the exact halfspace, asked for when j's cut of
    cell c runs.  Each step screens every live pair against its cell's
    current vertices, then every cell with a live pair cuts by its first.
    A pair is dropped for good once its float value is finite and below
    -CLIP_SKIP_TOL * (max|vertex coordinate| * s1 + s0) at every vertex of
    its cell: the exact clip would keep every vertex.  Returns the cut
    shapes.
    """
    shapes = list(shapes)
    d = len(R) - 3
    ids = np.array((cell, tags), dtype=np.intp)
    live = np.ones(len(shapes), dtype=bool)  # cells not yet empty
    while ids.shape[1]:
        cell = ids[0]
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        counts = np.diff(np.r_[starts, len(cell)])
        verts = [shapes[c].vertices for c in cell[starts].tolist()]
        homogeneous = len(verts[0][0]) > d
        if homogeneous:  # X_k / Z, correctly rounded
            verts = [[tuple(x / v[-1] for x in v[:-1]) for v in vs] for vs in verts]
        slots = max(map(len, verts))  # pad with each cell's first vertex
        V = np.array([v + v[:1] * (slots - len(v)) for v in verts], dtype=float).T.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            worst = _screen(R, V, counts)
            reach = np.repeat(np.abs(V).max(axis=(0, 1)), counts)
            slack = CLIP_SKIP_TOL * (reach * R[d + 1] + R[d + 2])
            keep = ~(np.isfinite(worst) & (worst < -slack))
        kept = np.flatnonzero(keep)
        if not len(kept):
            break
        held = cell[kept]
        first = kept[np.r_[True, held[1:] != held[:-1]]]  # each cell's next cut
        cuts = zip(cell[first].tolist(), ids[1, first].tolist())
        if homogeneous:
            for c, j in cuts:
                hs = halfspace(c, j)
                shapes[c] = clip_fn(shapes[c], hs.normal, hs.offset, j)
                live[c] = not shapes[c].empty
        else:
            at = np.repeat(np.arange(len(starts)), counts)[first]  # each cut's cell in V
            with np.errstate(over="ignore", invalid="ignore"):
                vals = _side_table(V[:, :, at], R[:, first]).T.tolist()
            for (c, j), row, f in zip(cuts, R[:d + 1, first].T.tolist(), vals):
                shapes[c] = clip_fn(shapes[c], row[:d], row[d], j, f[:len(shapes[c].vertices)])
                live[c] = not shapes[c].empty
        keep[first] = False
        keep &= live[cell]
        kept = np.flatnonzero(keep)
        R, ids = R.take(kept, axis=1), ids.take(kept, axis=1)
    return shapes


def _ball_test(points, clip):
    """Which points lie strictly inside the clip ball, and whether the
    segment between points k and j comes closer to its centre than r."""
    rel = [vsub(v, clip.center) for v in points]
    r2 = clip.radius**2
    return [norm_sq(v) < r2 for v in rel], lambda k, j: clipping.segment_min_norm_sq(rel[k], rel[j]) < r2


def _integer_ball_test(points, clip):
    """`_ball_test` on the integers, for rational points (a float centre
    or squared radius is taken at its exact value).  With the centre C / D
    and r^2 = M / N
    cleared of denominators, a point X / Z is
    P / Q for P = D X - C Z and Q = D Z > 0, inside when N |P|^2 < M Q^2.
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
    """Radical edges of positive length (exactly so on rational input)
    that come closer to the clip centre than its radius (exact likewise,
    on the integers).  An edge with an end strictly inside the ball does
    at once."""
    inside, meets = (_integer_ball_test if exact else _ball_test)(poly.vertices, clip)
    for k, (tag, v0, v1) in enumerate(poly.edges()):
        if tag is BOX_TAG:
            continue
        if not ((v0 != v1) if exact else (math.sqrt(float(norm_sq(vsub(v1, v0)))) > tol)):
            continue
        j = (k + 1) % len(poly.vertices)
        if inside[k] or inside[j] or meets(k, j):
            yield tag, (v0, v1)


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


def _blocks(n):
    """Cells 0..n-1 in blocks of at most BLOCK_PAIRS cell-candidate pairs,
    or one cell."""
    per_block = max(1, BLOCK_PAIRS // max(1, n - 1))
    return (np.arange(start, min(n, start + per_block)) for start in range(0, n, per_block))


def _table_halfspaces(arrays, n):
    """Every cell's n - 1 halfspaces on non-exact sites, in ascending
    neighbour order: the columns of `_pair_rows`, a block at a time."""
    d = arrays[0].shape[1]
    out = []
    for block in _blocks(n):
        others = np.tile(np.arange(n), (len(block), 1))
        tags = others[others != block[:, None]]
        rows = _pair_rows(arrays, np.repeat(block, n - 1), tags, True)[:d + 1].T.tolist()
        pairs = [(j, Halfspace(r[:d], r[d])) for j, r in zip(tags.tolist(), rows)]
        out.extend(dict(pairs[k:k + n - 1]) for k in range(0, len(pairs), n - 1))
    return out


def build_complex(sites, clip: Ball) -> PowerComplex:
    """Construct the power diagram of the given sites, restricted to the
    open `clip` ball (the model ball for hyperbolic pipelines).

    Sites that are not all exact are built as their float64 images: the
    result equals, but for `sites`, the build on those images."""
    sites = list(sites)
    d = _check_sites(sites)
    n = len(sites)
    if len(clip.center) != d:
        raise ArityMismatch("clip ball dimension does not match sites")
    exact = all(all_exact(s.center + (s.weight,)) for s in sites)
    arrays = _site_arrays(sites, d)
    # from here on one arithmetic: the exact sites, or the others' float64 images
    images = zip(sites, arrays[0].tolist(), arrays[2].tolist())
    work = sites if exact else [WeightedSite(tuple(c), w, s.origin_index) for s, c, w in images]
    made = {}  # (i, j), i < j -> radical_hyperplane(work[i], work[j])

    def side(i, j):  # cell i's side of the (i, j) radical hyperplane
        key = (i, j) if i < j else (j, i)
        if key not in made:  # raises nothing: the sites are distinct, their table rows nonzero
            made[key] = radical_hyperplane(work[key[0]], work[key[1]])
        return made[key] if i < j else -made[key]

    # the window is the clip ball's bounding cube: its walls lie outside the open ball
    scalar = Fraction if exact else float
    centre, r = tuple(map(scalar, clip.center)), scalar(clip.radius)
    halfwidth = float(r)
    if d not in (2, 3):
        own = _table_halfspaces(arrays, n) if not exact else [
            {j: side(i, j) for j in range(n) if j != i} for i in range(n)
        ]
        cells = [ConvexCell(i, own[i], None, False) for i in range(n)]
        return PowerComplex(d, sites, cells, set(), [], {}, clip, halfwidth)

    holders = locate(clip.center, work)[1]  # cells holding the centre
    C = arrays[0]

    # per dimension: the window, its clipper, in-ball facets of positive
    # measure, vertex site sets
    box, clip_fn, cell_facets, cell_vertices = {
        2: (clipping.box_polygon, clipping.clip_polygon, _polygon_facets, _polygon_vertices),
        3: (clipping.box_polyhedron, clipping.clip_polyhedron, _polyhedron_facets, _polyhedron_vertices),
    }[d]
    shapes = []
    adjacency = set()
    facets = {}
    rows = {}  # float sites: (i, j) -> cell i's table row of its facet j
    vertex_candidates = []
    window = box(r)  # about the centre; exact sites are cut on integer homogeneous vertices
    corners = [tuple(a + b for a, b in zip(centre, v)) for v in window.vertices]
    window = replace(window, vertices=[clipping.to_homogeneous(v) for v in corners] if exact else corners)
    for block in _blocks(n):
        start = int(block[0])
        cell = np.repeat(np.arange(len(block)), n - 1)
        with np.errstate(over="ignore", invalid="ignore"):
            dist = ((C[None, :, :] - C[block, None, :]) ** 2).sum(axis=2)
        order = np.argsort(dist, axis=1, kind="stable")  # nearest first
        tags = order[order != block[:, None]]
        R = _pair_rows(arrays, cell + start, tags, not exact)
        cut = _cut_block([window] * len(block), cell, tags, R, lambda c, j: side(start + c, j), clip_fn)
        found = []  # (cell, neighbour) of each facet
        for i, shape in enumerate(cut, start):
            if exact:
                shape = replace(shape, vertices=[clipping.to_affine(v) for v in shape.vertices])
            shape = shape.least_first()
            for j, facet in cell_facets(shape, FACET_MEASURE_TOL * halfwidth, exact, clip):
                key = (i, j) if i < j else (j, i)
                adjacency.add(key)
                facets.setdefault(key, facet)  # the lower cell's, if it has one
                found.append((i, j))
            vertex_candidates.extend(cell_vertices(shape, i))
            shapes.append(shape)
        if not exact and found:
            column = np.empty((len(block), n), dtype=np.intp)  # (cell, neighbour) -> pair
            column[cell, tags] = np.arange(len(tags))
            at = np.array(found) - (start, 0)
            rows.update(zip(found, R[:d + 1, column[at[:, 0], at[:, 1]]].T.tolist()))

    def own_side(i, j):  # cell i's side of a facet's hyperplane
        if exact:
            return side(i, j)
        row = rows.get((i, j)) or [-c for c in rows[j, i]]
        return Halfspace(row[:d], row[d])

    own = [{} for _ in range(n)]  # in ascending neighbour order
    for i, j in sorted(adjacency):
        own[i][j], own[j][i] = own_side(i, j), own_side(j, i)
    cells = [
        ConvexCell(i, own[i], shape, shape.empty or (i not in holders and not own[i]))
        for i, shape in enumerate(shapes)
    ]
    merged = clipping.merge_near(vertex_candidates, VERTEX_MERGE_TOL * halfwidth)
    power_vertices = [PowerVertex(point, frozenset(sites)) for point, sites in merged if len(sites) >= d + 1]
    return PowerComplex(d, sites, cells, adjacency, power_vertices, facets, clip, halfwidth)
