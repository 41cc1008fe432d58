"""End-to-end hyperbolic Voronoi pipelines, Delaunay duals and the oracle.

Both routes reduce a point set to weighted sites on the unit-Klein chart
and clip the resulting power diagram with the unit ball:

* klein route      - sites from `klein_site_map` (one sqrt per site);
* hemisphere route - sites from `hemisphere_site_map` on the lifted
  coordinates (rational: exact with rational d+1 input).

The defining oracle (exhaustive nearest-site by hyperbolic distance)
lives here too, along with its sampling-based `verify` harness.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import clipping, cutting, power, sampling
from .bisectors import _from_klein_coeffs, scale_surface
from .conversions import hub_coords
from .errors import (
    DuplicateSites,
    EmptySites,
    ModelMismatch,
    NoExplicitGeometry,
    NumericalUnderflow,
)
from .models import (
    Curvature,
    ModelPoint,
    ModelTag,
    cosh_distance_unit,
    distance,
)
from .power import PowerComplex, build_complex
from .scalars import all_exact, as_floats, norm_sq, row_floats

ROUTE_KLEIN = "klein"
ROUTE_HEMISPHERE = "hemisphere"

NEAREST_TIE_TOL = 1e-12
BOUNDARY_BAND = 1e-7
# Coordinate tolerance for merging degenerate dual vertices, confirmed by
# relative agreement of the incident-site circumdistances.
DUAL_MERGE_TOL = 1e-9
# Tolerance of every group `detect_degeneracies` reports (scales: README).
# Its co-spherical groups are `delaunay`'s merged dual faces, hence the tie.
DEGENERACY_TOL = DUAL_MERGE_TOL
# Klein pairs closer than this (absolute) span no line in the collinear scan.
COLLINEAR_MIN_SPAN = 1e-15
# A row whose least value over a tile exceeds TILE_EXCLUDE_TOL times its
# scale there excludes its cell from the tile (README: Tolerances).
TILE_EXCLUDE_TOL = 1e-12
# (sample, row) or (sample, site) values the labeller and the oracle hold at a time.
BLOCK_VALUES = 1 << 16
# A float site's Klein point must lie strictly below this on each of its
# cell's unit-normal rows (README: Tolerances).
OWN_SITE_TOL = 0.0
# Why a float build can lose a site's cell.
FLOAT_CAUSE = "the sites are too near the boundary or too near each other"


@dataclass
class VoronoiDiagram:
    model: ModelTag
    curvature: Curvature
    sites: tuple
    complex: PowerComplex
    boundaries: dict  # (i, j), i < j -> ImplicitSurface in `model`, site i side < 0
    route: str
    hub_points: tuple  # per site: unit hemisphere lift (x0, klein coords...)

    @property
    def dimension(self) -> int:
        return self.complex.dimension

    @cached_property
    def dual_faces(self) -> tuple:
        """Site sets of the power vertices strictly inside the unit ball
        (|v|^2 < 1, as for facets: on the integers on rational input),
        merged within DUAL_MERGE_TOL: the Delaunay faces, unsorted.  Made
        once per diagram for `delaunay` and `detect_degeneracies`."""
        vertices = self.complex.power_vertices
        if all_exact([c for v in vertices for c in v.point]):
            test = clipping.integer_ball_test([clipping.to_homogeneous(v.point) for v in vertices])[0]
        else:
            test = [norm_sq(v.point) < 1 for v in vertices]
        inside = list(itertools.compress(vertices, test))
        kleins = [h[1:] for h in self.hub_points]
        return tuple(frozenset(g[1]) for g in _merge_dual_vertices(inside, kleins, DUAL_MERGE_TOL))


@dataclass
class DelaunayComplex:
    faces: list  # site-index frozensets; size d+1 unless degenerate
    edges: set  # (i, j) pairs, i < j
    is_triangulation: bool


@dataclass
class DegeneracyReport:
    cocircular_groups: list
    collinear_groups: list
    equal_norm_groups: list
    equal_height_groups: list
    notes: list

    @property
    def empty(self) -> bool:
        return not (
            self.cocircular_groups
            or self.collinear_groups
            or self.equal_norm_groups
            or self.equal_height_groups
        )


@dataclass
class VerificationReport:
    sample_count: int
    excluded: int
    checked: int
    disagreements: int
    max_gap: float
    witness: dict | None
    seed: int
    band: float

    @property
    def agreement_rate(self) -> float:
        return 1.0 if self.checked == 0 else 1.0 - self.disagreements / self.checked

    @property
    def ok(self) -> bool:
        return self.disagreements == 0


def _check_point_set(points):
    if not points:
        raise EmptySites("need at least one site")
    first = points[0]
    exact = all(all_exact(p.coords) for p in points)  # keyed by numerator and denominator: no Fraction hashed
    seen = {}
    for k, p in enumerate(points):
        if p.model is not first.model:
            raise ModelMismatch(f"site {k} is in model {p.model.value}")
        if p.curvature.kappa != first.curvature.kappa:
            raise ModelMismatch(f"site {k} has curvature {p.curvature.kappa}")
        key = tuple((c.numerator, c.denominator) for c in p.coords) if exact else p.coords
        if key in seen:
            raise DuplicateSites(f"sites {seen[key]} and {k} coincide")
        seen[key] = k


def oracle_hubs(points, route: str) -> list:
    """The hub lifts of `points` that the nearest-site oracle measures from,
    for a diagram built on `route`: `hub_coords` on the hemisphere route.
    The Klein route builds on the Klein coordinates alone, so their lift is
    made again (`power.klein_lift`): a hemisphere point's given x0 can be
    far from it, 5e-324 where the Klein lift is 1.5e-8."""
    hubs = [hub_coords(p) for p in points]
    return [power.klein_lift(h[1:]) for h in hubs] if route == ROUTE_KLEIN else hubs


def voronoi(points, route: str = ROUTE_KLEIN) -> VoronoiDiagram:
    """Hyperbolic Voronoi diagram of a finite point set.

    The diagram is computed on the unit-Klein chart as a power diagram
    clipped to the unit ball; boundary surfaces are transported back to
    the input model at the input curvature.  A hyperbolic Voronoi cell
    holds its own site, so on float sites a cell the build leaves empty,
    or one whose site's Klein point is not below OWN_SITE_TOL on each of
    its rows (sites too near the boundary or too near each other for
    float64), raises NumericalUnderflow naming the first such site,
    instead of making a wrong diagram.  Exact sites lie inside their
    cells by construction.
    """
    points = [p if isinstance(p, ModelPoint) else ModelPoint(*p) for p in points]
    if route not in (ROUTE_KLEIN, ROUTE_HEMISPHERE):
        raise ValueError(f"unknown route {route!r}")
    _check_point_set(points)
    hubs = oracle_hubs(points, route)
    if route == ROUTE_KLEIN:
        sites = [power.klein_site_map(h[1:]) for h in hubs]
    else:
        sites = [power.hemisphere_site_map(h) for h in hubs]
    d = points[0].dim
    cx = build_complex(sites)
    empty = next((i for i, cell in enumerate(cx.cells) if cell.empty), None)
    if empty is not None:
        raise NumericalUnderflow(f"site {empty}: its cell is empty in float64: {FLOAT_CAUSE}")
    if not all(map(all_exact, hubs)):
        _check_own_sites(cx.cells, hubs, d)
    model = points[0].model
    curvature = points[0].curvature
    boundaries = {}
    for (i, j) in sorted(cx.adjacency):
        hs = cx.cells[i].halfspaces[j]
        surface = _from_klein_coeffs(hs.normal, hs.offset, model)  # the chart's row, in the input model
        boundaries[(i, j)] = scale_surface(surface, curvature, to_unit=False)
    return VoronoiDiagram(
        model=model,
        curvature=curvature,
        sites=tuple(points),
        complex=cx,
        boundaries=boundaries,
        route=route,
        hub_points=tuple(hubs),
    )


def _check_own_sites(cells, hubs, d):
    """Each float site's Klein point (its hub's last d coordinates) lies
    strictly inside its own cell: below OWN_SITE_TOL on each of the cell's
    unit-normal rows of `cell_matrices`."""
    _, offsets, _, A, b = cell_matrices([(i, cell.halfspaces) for i, cell in enumerate(cells)], d)
    kleins = np.array([as_floats(h[1:]) for h in hubs]).reshape(-1, d)
    worst = _extremes(A.T, b, offsets, np.arange(len(cells)), list(kleins.T))[0]
    outside = np.flatnonzero(worst >= OWN_SITE_TOL)
    if len(outside):
        k = int(outside[0])
        where = f"{worst[k]:.3g} outside" if worst[k] > 0 else "on the boundary of"
        raise NumericalUnderflow(f"site {k}: it lies {where} its own cell in float64: {FLOAT_CAUSE}")


def nearest_site(x: ModelPoint, points) -> tuple[int, tuple[int, ...]]:
    """Exhaustive argmin of hyperbolic distance; the defining oracle.

    Returns (winner, tie_set); ties are distances within 1e-12 of the
    minimum, lowest index first.
    """
    points = list(points)
    if not points:
        raise EmptySites("nearest_site needs at least one site")
    dists = [distance(x, p) for p in points]
    best = min(dists)
    ties = tuple(i for i, v in enumerate(dists) if v - best <= NEAREST_TIE_TOL)
    return ties[0], ties


def _merge_dual_vertices(vertices, klein_sites, tol):
    """Merge coincident dual vertices; union their incident site sets.

    Merging is by coordinate proximity and is confirmed by the union's
    circumdistances agreeing to `tol` relative (otherwise kept apart).
    Returns `clipping.merge_near`'s [point, sites] groups.
    """

    def concyclic(point, union):
        centre = as_floats(point)
        coshes = [cosh_distance_unit(ModelTag.KLEIN, centre, as_floats(klein_sites[s])) for s in union]
        return max(coshes) - min(coshes) <= tol * max(1.0, max(coshes))

    return clipping.merge_near([(v.point, v.sites) for v in vertices], tol, concyclic)


def delaunay(diagram: VoronoiDiagram) -> DelaunayComplex:
    """Dual Delaunay complex of a diagram built with explicit geometry.

    A dual face appears iff its power vertex lies strictly inside the
    unit ball; the edges are the complex's adjacency, whose facets meet
    the open ball.  The dual is a triangulation iff every face is a
    d-simplex and every edge is covered by a face.
    """
    cx = diagram.complex
    if not cx.explicit:
        raise NoExplicitGeometry("diagram was built without explicit geometry")
    d = cx.dimension
    faces = sorted(diagram.dual_faces, key=lambda f: tuple(sorted(f)))
    edges = set(cx.adjacency)
    simplicial = all(len(f) == d + 1 for f in faces)
    covered = {pair for f in faces for pair in itertools.combinations(sorted(f), 2)}
    return DelaunayComplex(faces=faces, edges=edges, is_triangulation=simplicial and edges <= covered)


def detect_degeneracies(diagram: VoronoiDiagram) -> DegeneracyReport:
    """Flag equal-norm/equal-height groups, collinear groups (in the
    Klein chart) and hyperbolically co-spherical groups (the dual faces
    `delaunay` reads, `diagram.dual_faces`, with more than d + 1 sites),
    within DEGENERACY_TOL."""
    points = diagram.sites
    model = diagram.model
    d = diagram.dimension
    notes = [
        f"tolerance {DEGENERACY_TOL}: relative to max(1, |value|) for equal norms and heights;"
        " absolute Klein distance to the line for collinear groups; absolute Klein coordinate"
        " distance, with circumdistance cosh relative to max(1, cosh), for co-spherical groups"
    ]

    equal_norm = []
    equal_height = []
    if model is ModelTag.UPPER_HALF_SPACE:
        keys = [float(p.unit_coords()[-1]) for p in points]
        equal_height = _equal_value_groups(keys, DEGENERACY_TOL)
    elif model in (ModelTag.KLEIN, ModelTag.POINCARE):
        keys = [math.sqrt(float(norm_sq(p.unit_coords()))) for p in points]
        equal_norm = _equal_value_groups(keys, DEGENERACY_TOL)
    else:
        # hemisphere / hyperboloid: equal x0 is the ball-model equal norm
        keys = [float(p.unit_coords()[0]) for p in points]
        equal_norm = _equal_value_groups(keys, DEGENERACY_TOL)

    kleins = [as_floats(h[1:]) for h in diagram.hub_points]
    collinear = _collinear_groups(kleins, DEGENERACY_TOL) if len(points) >= 3 else []

    cocircular = []
    if not diagram.complex.explicit:
        notes.append("co-spherical detection skipped for d > 3 (no explicit geometry)")
    elif len(points) >= d + 2:
        cocircular = sorted(tuple(sorted(g)) for g in diagram.dual_faces if len(g) > d + 1)

    return DegeneracyReport(
        cocircular_groups=cocircular,
        collinear_groups=collinear,
        equal_norm_groups=equal_norm,
        equal_height_groups=equal_height,
        notes=notes,
    )


def _equal_value_groups(values, tol):
    order = sorted(range(len(values)), key=lambda k: values[k])
    groups = []
    current = [order[0]] if order else []
    for prev, nxt in zip(order, order[1:]):
        if abs(values[nxt] - values[prev]) <= tol * max(1.0, abs(values[nxt])):
            current.append(nxt)
        else:
            if len(current) >= 2:
                groups.append(tuple(sorted(current)))
            current = [nxt]
    if len(current) >= 2:
        groups.append(tuple(sorted(current)))
    return groups


def _collinear_groups(kleins, tol):
    """Maximal groups of >= 3 Klein points within `tol` of one line.

    The row of an anchor i and a later point j collects every k with
    |(k - a) x u| / |u| <= tol, u = b - a, a = K[i], b = K[j].  Only
    candidate rows are evaluated, with that formula in that operation
    order.  Seen from the anchor, such a k at distance r lies within
    asin(tol / r) of j's direction modulo pi.  So the other points'
    directions are sorted around the anchor, and row (i, j) is a candidate
    when j has a sorted neighbour (the first and last wrap around by pi)
    within asin(slack / r_min), r_min the least distance from the anchor;
    slack = 4 tol plus rounding.  A point within slack of the anchor may
    lie on every line through it: then every row of the anchor is a
    candidate.  O(n^2 log n) for points in general position; anchors are
    taken in blocks of at most `cutting.BLOCK_PAIRS` (anchor, point) pairs.
    """
    if any(len(k) != 2 for k in kleins):
        return []  # collinearity scan is planar only
    K = np.array(kleins, dtype=float).reshape(-1, 2)
    n = len(K)
    if n < 3:
        return []
    slack = 4 * tol + 64 * np.finfo(float).eps
    step = max(1, cutting.BLOCK_PAIRS // n)
    rows_i, rows_j = [], []
    for lo in range(0, n, step):
        anchors = np.arange(lo, min(n, lo + step))
        own = (np.arange(len(anchors)), anchors)
        DX = K[None, :, 0] - K[anchors, None, 0]
        DY = K[None, :, 1] - K[anchors, None, 1]
        r2 = DX * DX + DY * DY
        r2[own] = np.inf
        rmin = np.sqrt(r2.min(axis=1))
        delta = np.arcsin(slack / np.maximum(rmin, slack))
        delta[rmin <= slack] = np.inf
        alpha = np.arctan2(DY, DX)
        alpha[alpha < 0] += np.pi  # in [0, pi]: pi and 0 are one direction
        alpha[own] = np.inf  # sorts last, out of the circle
        order = np.argsort(alpha, axis=1)[:, : n - 1]
        s = np.take_along_axis(alpha, order, axis=1)
        wrap = (s[:, 0] + np.pi - s[:, -1])[:, None]
        gaps = np.concatenate([wrap, np.diff(s, axis=1), wrap], axis=1)
        close = np.minimum(gaps[:, :-1], gaps[:, 1:]) <= delta[:, None]
        cand = np.zeros((len(anchors), n), dtype=bool)
        np.put_along_axis(cand, order, close, axis=1)
        ii, jj = np.nonzero(cand & (np.arange(n)[None, :] > anchors[:, None]))
        rows_i.append(anchors[ii])
        rows_j.append(jj)
    I, J = np.concatenate(rows_i), np.concatenate(rows_j)
    found = set()
    for lo in range(0, len(I), step):
        i, j = I[lo : lo + step], J[lo : lo + step]
        ux = K[j, 0] - K[i, 0]
        uy = K[j, 1] - K[i, 1]
        ln = np.array([math.hypot(a, b) for a, b in zip(ux.tolist(), uy.tolist())])
        live = ln >= COLLINEAR_MIN_SPAN
        i, j, ux, uy, ln = i[live], j[live], ux[live, None], uy[live, None], ln[live, None]
        ax, ay = K[i, 0][:, None], K[i, 1][:, None]
        dist = np.abs((K[None, :, 0] - ax) * uy - (K[None, :, 1] - ay) * ux) / ln
        near = dist <= tol
        near[np.arange(len(i)), i] = True
        near[np.arange(len(i)), j] = True
        for row in near[near.sum(axis=1) >= 3]:
            found.add(tuple(np.flatnonzero(row).tolist()))
    # keep only maximal groups; a larger group holding g holds its first point
    sets = {g: frozenset(g) for g in found}
    holders = {}
    for g, sg in sets.items():
        for k in g:
            holders.setdefault(k, []).append(sg)
    return sorted(g for g, sg in sets.items() if not any(sg < h for h in holders[g[0]]))


# --- sampling-based verification ---------------------------------------------
# One core for `verify` on a built diagram and `check` on a stored document:
# both supply (site, empty, {neighbor: Halfspace}) cells and the sites' hub lifts.

def cell_matrices(cells, d: int) -> tuple:
    """One row table of (site, {neighbor: Halfspace}) cells: (sites,
    offsets, neighbors, A, b), cell k's rows being offsets[k] to
    offsets[k + 1], in neighbor order.  Rows are `row_floats` (all-float
    rows as they are), scaled to unit normals (a zero normal is left
    unscaled)."""
    sites, counts, neighbors, rows = [], [], [], []
    for site, halfspaces in cells:
        sites.append(site)
        counts.append(len(halfspaces))
        for j in sorted(halfspaces):
            neighbors.append(j)
            rows.append(halfspaces[j].normal + (halfspaces[j].offset,))
    flat = [c for row in rows for c in row]
    if {*map(type, flat)} <= {float}:
        M = np.array(flat, dtype=float).reshape(-1, d + 1)
    else:
        M = np.array([row_floats(row) for row in rows], dtype=float).reshape(-1, d + 1)
    norms = np.linalg.norm(M[:, :d], axis=1)
    norms[norms == 0.0] = 1.0
    offsets = np.zeros(len(sites) + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    columns = np.ascontiguousarray(M[:, :d].T) / norms  # A's columns, each contiguous
    return np.array(sites, dtype=np.intp), offsets, np.array(neighbors, dtype=np.intp), columns.T, M[:, d] / norms


def _extremes(a, b, offsets, cells, x) -> tuple:
    """The max row value and the least |row value| of each of `cells` at
    the point of coordinate columns x[i] (-inf and inf without rows).

    Columns a[i] and b hold the rows, a cell's from offsets[cell].  Rows
    are taken rank by rank, the cells with the most rows first, so each
    rank is one pass over a prefix."""
    count = np.diff(offsets)[cells]
    order = np.argsort(-count)
    ends = np.searchsorted(-count[order], -np.arange(count.max(initial=0)))
    base, x = offsets[cells[order]], [xi[order] for xi in x]
    worst, near = np.full(len(cells), -np.inf), np.full(len(cells), np.inf)
    for j, e in enumerate(ends):
        row = base[:e] + j
        v = cutting.side_values([xi[:e] for xi in x], [ai[row] for ai in a] + [b[row]])
        np.maximum(worst[:e], v, out=worst[:e])
        np.minimum(near[:e], np.abs(v, out=v), out=near[:e])
    worst[order], near[order] = worst.copy(), near.copy()
    return worst, near


def _ranges(lo, counts) -> np.ndarray:
    """The index ranges lo[k] .. lo[k] + counts[k] - 1, concatenated."""
    ends = np.cumsum(counts)
    return np.repeat(lo - ends + counts, counts) + np.arange(ends[-1] if len(ends) else 0)


def _chunks(cost):
    """Ranges of consecutive items whose costs add up to at most
    BLOCK_VALUES, or of one item."""
    total = np.cumsum(cost)
    a = 0
    while a < len(total):
        z = max(a + 1, int(np.searchsorted(total, total[a] - cost[a] + BLOCK_VALUES, side="right")))
        yield a, z
        a = z


def _tile_candidates(X, table) -> tuple:
    """Samples in tiles and the cells each tile may hold.

    The samples' bounding box is cut into 2^L tiles an axis, about two a
    cell width: 2^d tiles per cell, 4n in the plane.  Tiles are refined level by level (Morton order), from
    the finest level whose whole grid makes at most BLOCK_VALUES / 8
    (tile, cell) pairs.  A cell stays with a tile unless one of its rows
    (a, b) has a . c + b - |a| . h > TILE_EXCLUDE_TOL (|a|_1 m + |b|) there
    (centre c, half-widths h, m = max(1, max_i |c_i| + h_i)).  That bound
    is far above the rounding of the test and of the row at any sample of
    the tile, so the row is > 0 at each.  Refinement stops early where
    tiles no longer separate cells (more than BLOCK_VALUES pairs and 16
    cells a tile).  Returns (order, tile, cells, start): the samples in
    tile order, the tile of each, and each tile's cells, ascending, at
    start[t] to start[t + 1] of cells.
    """
    sites, offsets, _, A, b = table
    n, d = X.shape
    levels = 1 + round(math.log2(len(sites)) / d)
    lo = X.min(axis=0)
    span = X.max(axis=0) - lo
    span[span == 0.0] = 1.0
    T = np.minimum(((X - lo) * ((1 << levels) / span)).astype(np.int64), (1 << levels) - 1)
    code = np.zeros(n, dtype=np.int64)
    for bit in range(levels):
        for i in range(d):
            code |= ((T[:, i] >> bit) & 1) << (bit * d + i)
    order = np.argsort(code)
    code = code[order]
    a = list(A.T) + [-TILE_EXCLUDE_TOL * np.abs(A).sum(axis=1)]
    top = max(0, min(levels, (((BLOCK_VALUES >> 3) // len(sites)).bit_length() - 1) // d))
    for level in range(top, levels + 1):
        tag = code >> (d * (levels - level))
        first = np.flatnonzero(np.r_[True, tag[1:] != tag[:-1]])
        if level == top:
            tiles = np.repeat(np.arange(len(first)), len(sites))
            cells = np.tile(np.arange(len(sites)), len(first))
        else:
            child = np.searchsorted(tag[first], occupied << d)
            fan = (np.searchsorted(tag[first], (occupied + 1) << d) - child)[tiles]
            if fan.sum() > max(BLOCK_VALUES, 16 * len(first)):
                break
            tiles, cells = _ranges(child[tiles], fan), np.repeat(cells, fan)
        occupied, at = tag[first], first
        half = span / (2 << level)
        centre = lo + ((T[order[first]] >> (levels - level)) * 2 + 1) * half
        x = [ci[tiles] for ci in centre.T] + [np.maximum(1.0, (np.abs(centre) + half).max(axis=1))[tiles]]
        shift = b - TILE_EXCLUDE_TOL * np.abs(b) - sum(h * np.abs(ai) for h, ai in zip(half, a))
        keep = ~(_extremes(a, shift, offsets, cells, x)[0] > 0.0)
        tiles, cells = tiles[keep], cells[keep]
    keep = np.lexsort((cells, tiles))
    tile = np.repeat(np.arange(len(at)), np.diff(np.r_[at, n]))
    return order, tile, cells[keep], np.searchsorted(tiles[keep], np.arange(len(at) + 1))


def _assign(X, table, samples, per, cells, labels, margin, bound) -> np.ndarray:
    """Label each of `samples` from its `per` next `cells`, ascending: the
    first cell of least max row value, when that is <= bound (nan counting
    as inf).  Every per is >= 1.  Returns the samples left unlabelled."""
    sites, offsets, _, A, b = table
    at = np.repeat(samples, per)
    worst, near = _extremes(A.T, b, offsets, cells, [X[at, i] for i in range(X.shape[1])])
    worst[np.isnan(worst)] = np.inf
    least = np.minimum.reduceat(worst, np.cumsum(per) - per)
    hit = np.flatnonzero(worst == np.repeat(least, per))
    win = hit[np.r_[True, at[hit[1:]] != at[hit[:-1]]]]
    ok = least <= bound
    labels[samples[ok]] = sites[cells[win[ok]]]
    margin[samples[ok]] = near[win[ok]]
    return samples[~ok]


def label_samples(X: np.ndarray, table) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's cell and its boundary margin, for a `cell_matrices` table.

    The label is the site of the cell with the least maximum row value,
    the first such cell on ties (-1 when no value is below inf; nan counts
    as inf); the margin is the least |value| over that cell's rows.  A cell
    without rows is the whole space.  A sample is labelled from the cells
    its tile may hold (`_tile_candidates`) when their least value is <= 0,
    for every other cell is > 0 there; any other sample, and every sample
    when a coordinate reaches 2^1000 in magnitude or d > 60, against all
    cells.
    Values are made one coordinate at a time, so labels and margins are
    those of the loop over all cells, bit for bit.  Samples go about
    BLOCK_VALUES rows at a time.
    """
    sites, offsets = table[0], table[1]
    labels = np.full(len(X), -1, dtype=np.intp)
    margin = np.full(len(X), np.inf)
    if not len(X) or not len(sites):
        return labels, margin
    cost = np.maximum(np.diff(offsets), 1)
    rest = [np.arange(len(X))]
    if X.shape[1] <= 60 and np.abs(X).max() < 2.0**1000:
        order, tile, cells, start = _tile_candidates(X, table)
        per = np.diff(start)[tile]
        rest = [order[per == 0]]
        load = np.r_[0, np.cumsum(cost[cells])]
        load = (load[start[1:]] - load[start[:-1]])[tile]
        live = per > 0
        order, tile, per, load = order[live], tile[live], per[live], load[live]
        for a, z in _chunks(load):
            pc = cells[_ranges(start[tile[a:z]], per[a:z])]
            rest.append(_assign(X, table, order[a:z], per[a:z], pc, labels, margin, 0.0))
    rest, m = np.concatenate(rest), len(sites)
    for a, z in _chunks(np.full(len(rest), cost.sum())):
        every = np.tile(np.arange(m), z - a)
        _assign(X, table, rest[a:z], np.full(z - a, m), every, labels, margin, sys.float_info.max)
    return labels, margin


def _cosh(X: np.ndarray, hubs: np.ndarray, sites: np.ndarray) -> np.ndarray:
    """cosh of the unit-curvature distance from each sample to its site,
    (1 - x . k) / (sqrt(1 - |x|^2) h0) for the hub lift (h0, k), one
    coordinate at a time; nan where the site is -1."""
    h = hubs[sites]
    dot, norm = X[:, 0] * h[:, 1], X[:, 0] * X[:, 0]
    for i in range(1, X.shape[1]):
        dot += X[:, i] * h[:, i + 1]
        norm += X[:, i] * X[:, i]
    cosh = (1.0 - dot) / (np.sqrt(1.0 - norm) * h[:, 0])
    cosh[sites < 0] = np.nan
    return cosh


def _oracle(X: np.ndarray, hubs: np.ndarray, labels: np.ndarray) -> tuple:
    """The nearest-site oracle: per sample the site of least hyperbolic
    distance, the first on ties, and the `_cosh` of it and of the
    labelled site.  The nearest site has the least (1 - x . k) / h0, the
    cosh times the sample's sqrt(1 - |x|^2), made BLOCK_VALUES (sample,
    site) values at a time, one coordinate at a time."""
    nearest = np.empty(len(X), dtype=np.intp)
    step = max(1, BLOCK_VALUES // len(hubs))
    for a in range(0, len(X), step):
        x = X[a : a + step]
        g = x[:, :1] * hubs[:, 1]
        for i in range(1, x.shape[1]):
            g += x[:, i : i + 1] * hubs[:, i + 1]
        np.subtract(1.0, g, out=g)
        nearest[a : a + step] = np.argmin(np.divide(g, hubs[:, 0], out=g), axis=1)
    return nearest, _cosh(X, hubs, nearest), _cosh(X, hubs, labels)


def _facet(x, table, site):
    """The neighbor of `site`'s first cell whose row is largest at x (None
    when the site has no cell or the cell no rows)."""
    sites, offsets, neighbors, A, b = table
    k = np.flatnonzero(sites == site)
    if not len(k) or offsets[k[0]] == offsets[k[0] + 1]:
        return None
    rows = slice(offsets[k[0]], offsets[k[0] + 1])
    v = cutting.side_values(x, [*A.T[:, rows], b[rows]])
    return int(neighbors[rows][np.argmax(v)])


def oracle_report(X, labels, margin, hubs, table, radius: float, seed: int) -> VerificationReport:
    """Compare labels with the nearest-site oracle.

    Samples with margin below BOUNDARY_BAND are excluded; a label that is
    not the oracle's disagrees unless the two distances are within
    NEAREST_TIE_TOL.
    The witness is the first disagreeing sample, with the facet of the
    oracle site's cell that excludes it (`_facet`).
    """
    oracle, at_oracle, at_label = _oracle(X, hubs, labels)
    excluded = margin < BOUNDARY_BAND
    rows = np.nonzero(~excluded & (labels != oracle))[0]
    da = radius * np.arccosh(np.maximum(1.0, at_label[rows]))
    da[labels[rows] < 0] = np.inf  # no cell claims the sample
    db = radius * np.arccosh(np.maximum(1.0, at_oracle[rows]))
    gaps = np.abs(da - db)
    wrong = gaps > NEAREST_TIE_TOL
    rows, gaps = rows[wrong], gaps[wrong]
    witness = None
    if len(rows):
        k = int(rows[0])
        witness = {
            "sample_index": k,
            "chart_point": tuple(float(c) for c in X[k]),
            "diagram_label": int(labels[k]),
            "oracle_label": int(oracle[k]),
            "facet": _facet(X[k], table, oracle[k]),
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
        band=BOUNDARY_BAND,
    )


def _labelled_samples(cells, hub_points, sample_count: int, seed: int):
    hubs = np.array([as_floats(h) for h in hub_points], dtype=float)
    d = hubs.shape[1] - 1
    X = sampling.ball_points(seed, sample_count, d)
    # an empty cell has no halfspaces: it would be the whole space
    table = cell_matrices([(i, h) for i, empty, h in cells if not empty], d)
    labels, margin = label_samples(X, table)
    return X, labels, margin, hubs, table


def _diagram_cells(diagram: VoronoiDiagram) -> list:
    return [(i, cell.empty, cell.halfspaces) for i, cell in enumerate(diagram.complex.cells)]


def sample_labels(diagram: VoronoiDiagram, sample_count: int, seed: int):
    """Deterministic verification samples with both labelings.

    Returns (samples, cell_labels, oracle_labels, boundary_margin):
    samples in the unit-Klein chart, labels from the cells' halfspaces,
    oracle labels from hyperbolic nearest-site, and each sample's distance
    to the nearest facet hyperplane of its cell.
    """
    X, labels, margin, hubs, _ = _labelled_samples(
        _diagram_cells(diagram), diagram.hub_points, sample_count, seed
    )
    return X, labels, _oracle(X, hubs, labels)[0], margin


def verify_cells(
    cells,
    hub_points,
    radius: float,
    sample_count: int,
    seed: int,
) -> VerificationReport:
    """Check (site, empty, {neighbor: Halfspace}) cells against the
    nearest-site oracle of the sites' hub lifts, on samples 0..sample_count-1
    of `seed`; a cell flagged empty labels no sample."""
    X, labels, margin, hubs, table = _labelled_samples(cells, hub_points, sample_count, seed)
    return oracle_report(X, labels, margin, hubs, table, radius, seed)


def verify(
    diagram: VoronoiDiagram,
    sample_count: int = 10_000,
    seed: int = 42,
) -> VerificationReport:
    """Compare diagram cell membership against the nearest-site oracle.

    Samples are uniform in the unit-Klein chart ball; samples within
    BOUNDARY_BAND of a facet hyperplane of their cell are excluded and
    counted.
    """
    return verify_cells(
        _diagram_cells(diagram), diagram.hub_points, diagram.curvature.radius,
        sample_count, seed,
    )
