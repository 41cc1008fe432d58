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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import clipping, cutting, power, sampling
from .bisectors import ImplicitSurface, scale_surface, transport_surface
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
from .power import PowerComplex, build_complex, unit_ball
from .scalars import as_floats, norm_sq, row_floats, sqrt_scalar, vsub

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
        """Site sets of the power vertices strictly inside the complex's clip
        ball (|v - centre|^2 < r^2, exact on rational input, as for facets),
        merged within DUAL_MERGE_TOL: the Delaunay faces, unsorted.  Made
        once per diagram for `delaunay` and `detect_degeneracies`."""
        clip = self.complex.clip
        r2 = clip.radius**2
        inside = [v for v in self.complex.power_vertices if norm_sq(vsub(v.point, clip.center)) < r2]
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
    seen = {}
    for k, p in enumerate(points):
        if p.model is not first.model:
            raise ModelMismatch(f"site {k} is in model {p.model.value}")
        if p.curvature.kappa != first.curvature.kappa:
            raise ModelMismatch(f"site {k} has curvature {p.curvature.kappa}")
        if p.coords in seen:
            raise DuplicateSites(f"sites {seen[p.coords]} and {k} coincide")
        seen[p.coords] = k


def voronoi(points, route: str = ROUTE_KLEIN) -> VoronoiDiagram:
    """Hyperbolic Voronoi diagram of a finite point set.

    The diagram is computed on the unit-Klein chart as a power diagram
    clipped to the unit ball; boundary surfaces are transported back to
    the input model at the input curvature.  A hyperbolic Voronoi cell
    holds its own site, so a cell the build leaves empty (float sites
    too near the boundary for float64) raises NumericalUnderflow naming
    the first such site, instead of making a wrong diagram.
    """
    points = [p if isinstance(p, ModelPoint) else ModelPoint(*p) for p in points]
    if route not in (ROUTE_KLEIN, ROUTE_HEMISPHERE):
        raise ValueError(f"unknown route {route!r}")
    _check_point_set(points)
    hubs = [hub_coords(p) for p in points]
    if route == ROUTE_KLEIN:
        sites = [power.klein_site_map(h[1:], i) for i, h in enumerate(hubs)]
        # the oracle's lifts are those of the Klein coordinates the build uses
        hubs = [(sqrt_scalar(1 - norm_sq(h[1:])),) + tuple(h[1:]) for h in hubs]
    else:
        sites = [power.hemisphere_site_map(h, i) for i, h in enumerate(hubs)]
    d = points[0].dim
    cx = build_complex(sites, clip=unit_ball(d))
    empty = next((cell.site_index for cell in cx.cells if cell.empty), None)
    if empty is not None:
        raise NumericalUnderflow(f"site {empty}: its cell is empty in float64, too near the boundary")
    model = points[0].model
    curvature = points[0].curvature
    boundaries = {}
    for (i, j) in sorted(cx.adjacency):
        hs = cx.cells[i].halfspaces[j]
        chart = ImplicitSurface(0, hs.normal, hs.offset, ModelTag.KLEIN)
        moved = transport_surface(chart, model)
        boundaries[(i, j)] = scale_surface(moved, curvature, to_unit=False)
    return VoronoiDiagram(
        model=model,
        curvature=curvature,
        sites=tuple(points),
        complex=cx,
        boundaries=boundaries,
        route=route,
        hub_points=tuple(hubs),
    )


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
    clip ball; the edges are the complex's adjacency, whose facets meet
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

def cell_matrices(cells, d: int) -> list:
    """Per cell (site, A, b): halfspace rows in neighbor order, as
    `row_floats`, scaled to unit normals (a zero normal is left unscaled)."""
    mats = []
    for site, halfspaces in cells:
        ordered = [halfspaces[j] for j in sorted(halfspaces)]
        rows = np.array([row_floats(h.normal + (h.offset,)) for h in ordered], dtype=float).reshape(-1, d + 1)
        A, b = rows[:, :d], rows[:, d]
        norms = np.linalg.norm(A, axis=1)
        norms[norms == 0.0] = 1.0
        mats.append((site, A / norms[:, None], b / norms))
    return mats


def label_samples(X: np.ndarray, mats) -> tuple[np.ndarray, np.ndarray]:
    """Each sample's cell and its boundary margin.

    The label is the site of the cell with the least maximum halfspace
    value, the first such cell on ties (-1 when there is no cell); the
    margin is the least |value| over that cell's own halfspaces.  A cell
    without halfspaces is the whole space.  Loops over cells: temporaries
    are samples x facets.
    """
    XT = np.ascontiguousarray(X.T)  # facets x samples rows reduce fastest
    labels = np.full(len(X), -1, dtype=np.intp)
    margin = np.full(len(X), np.inf)
    best = np.full(len(X), np.inf)
    for site, A, b in mats:
        if len(b):
            vals = A @ XT
            vals += b[:, None]
            worst = vals.max(axis=0)
            near = np.abs(vals, out=vals).min(axis=0)
        else:
            worst, near = np.full(len(X), -np.inf), np.full(len(X), np.inf)
        win = worst < best
        np.copyto(best, worst, where=win)
        np.copyto(labels, site, where=win)
        np.copyto(margin, near, where=win)
    return labels, margin


def _oracle_cosh(X: np.ndarray, hubs: np.ndarray) -> np.ndarray:
    """cosh of the unit-curvature distance from each sample to each site."""
    xnorm = 1.0 - (X**2).sum(axis=1)
    return (1.0 - X @ hubs[:, 1:].T) / (np.sqrt(xnorm)[:, None] * hubs[None, :, 0])


def oracle_report(
    X, labels, margin, hubs, radius: float, seed: int, band: float
) -> VerificationReport:
    """Compare labels with the nearest-site oracle.

    Samples with margin below `band` are excluded; a label that is not the
    oracle's disagrees unless the two distances are within NEAREST_TIE_TOL.
    The witness is the first disagreeing sample.
    """
    cosh = _oracle_cosh(X, hubs)
    oracle = np.argmin(cosh, axis=1)
    excluded = margin < band
    rows = np.nonzero(~excluded & (labels != oracle))[0]
    da = radius * np.arccosh(np.maximum(1.0, cosh[rows, labels[rows]]))
    da[labels[rows] < 0] = np.inf  # no cell claims the sample
    db = radius * np.arccosh(np.maximum(1.0, cosh[rows, oracle[rows]]))
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


def _labelled_samples(cells, hub_points, sample_count: int, seed: int):
    hubs = np.array([as_floats(h) for h in hub_points], dtype=float)
    d = hubs.shape[1] - 1
    X = sampling.ball_points(seed, sample_count, d)
    # an empty cell has no halfspaces: it would be the whole space
    labels, margin = label_samples(X, cell_matrices([(i, h) for i, empty, h in cells if not empty], d))
    return X, labels, margin, hubs


def _diagram_cells(diagram: VoronoiDiagram) -> list:
    return [(cell.site_index, cell.empty, cell.halfspaces) for cell in diagram.complex.cells]


def sample_labels(diagram: VoronoiDiagram, sample_count: int, seed: int):
    """Deterministic verification samples with both labelings.

    Returns (samples, cell_labels, oracle_labels, boundary_margin):
    samples in the unit-Klein chart, labels from the cells' halfspaces,
    oracle labels from hyperbolic nearest-site, and each sample's distance
    to the nearest facet hyperplane of its cell.
    """
    X, labels, margin, hubs = _labelled_samples(
        _diagram_cells(diagram), diagram.hub_points, sample_count, seed
    )
    return X, labels, np.argmin(_oracle_cosh(X, hubs), axis=1), margin


def verify_cells(
    cells,
    hub_points,
    radius: float,
    sample_count: int,
    seed: int,
    band: float = BOUNDARY_BAND,
) -> VerificationReport:
    """Check (site, empty, {neighbor: Halfspace}) cells against the
    nearest-site oracle of the sites' hub lifts, on samples 0..sample_count-1
    of `seed`; a cell flagged empty labels no sample."""
    X, labels, margin, hubs = _labelled_samples(cells, hub_points, sample_count, seed)
    return oracle_report(X, labels, margin, hubs, radius, seed, band)


def verify(
    diagram: VoronoiDiagram,
    sample_count: int = 10_000,
    seed: int = 42,
    band: float = BOUNDARY_BAND,
) -> VerificationReport:
    """Compare diagram cell membership against the nearest-site oracle.

    Samples are uniform in the unit-Klein chart ball; samples within
    `band` of a facet hyperplane of their cell are excluded and counted.
    """
    return verify_cells(
        _diagram_cells(diagram), diagram.hub_points, diagram.curvature.radius,
        sample_count, seed, band,
    )
