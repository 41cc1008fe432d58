"""Power (Laguerre) diagram engine: weighted sites, radical hyperplanes,
halfspace-clipped cells, ball clipping and point location.

The hyperbolic pipelines reduce to this module: Klein points map to
weighted sites through `klein_site_map` (algebraic: one square root per
site), hemisphere points through `hemisphere_site_map` (rational).  The
two maps agree under the vertical lift.

`build_complex` makes each radical hyperplane once, into the pair table
`PowerComplex.pairs`; its float matrix, every cell's halfspaces (the
negated entry for a lower neighbour) and the diagram's boundaries all
read that table.  For d in {2, 3} one loop over cells, with a small
per-dimension table (window, clipper, facets, vertices), cuts each cell
from a bounding window by its radical hyperplanes with the exact clipper
of `clipping`, in neighbour order.  Before each cut a float screen
evaluates every remaining hyperplane at the cell's current vertices
(each vertex once: a polygon's ring, a polyhedron's vertex table) and
drops those that provably contain the cell: the cell only shrinks, so
such a cut would be a no-op now and at its turn.  The cuts that run are
the full sequence minus its no-ops, so the cells are the same, vertex
for vertex, on float and rational input; the work is output sensitive,
about one cut per facet or transient edge of a cell.  A d=3 vertex's
site set is cell i and the tags of the faces that hold it; one
tolerance merge across cells joins the vertices of neighbouring cells
into power vertices.  A clipped cell is
empty when its shape is, or when it misses the clip ball's centre (the
`locate` tie set) and its boundary (edges for d=2, exact on rational
input; faces for d=3) stays at distance >= r from that centre.  Other
dimensions keep every cell's n-1 halfspaces (implicit representation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
# Relative margin of the float screen in `_clip_cell`.  It only decides
# which provable no-op cuts are skipped, never the geometry: a hyperplane
# within the margin of the cell is cut with exactly, as before.
CLIP_SKIP_TOL = 1e-9
# `_solve2` lines are parallel below |det| = this * max(1, largest |coefficient|).
PARALLEL_TOL = 1e-13
# Cap on a candidate vertex coordinate that sizes an unclipped window.
WINDOW_VERTEX_CAP = 1e9


@dataclass(frozen=True)
class WeightedSite:
    """Euclidean center with a real weight (squared radius, may be < 0)."""

    center: tuple
    weight: object
    origin_index: int = -1

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(self.center))


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
    return Halfspace(tuple(c / scale for c in coeffs[:-1]), coeffs[-1] / scale)


def radical_hyperplane(s_i: WeightedSite, s_j: WeightedSite) -> Halfspace:
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


def locate(x, sites, tol: float = TIE_TOL) -> tuple[int, tuple[int, ...]]:
    """Exhaustive power point location: argmin index plus the tie set."""
    if not sites:
        raise EmptySites("locate needs at least one site")
    powers = [power_distance(s, x) for s in sites]
    best = min(powers)
    if all_exact(powers):
        ties = tuple(i for i, v in enumerate(powers) if v == best)
    else:
        fb = float(best)
        ties = tuple(i for i, v in enumerate(powers) if float(v) - fb <= tol)
    return ties[0], ties


# --- complex construction ----------------------------------------------------

@dataclass
class ConvexCell:
    site_index: int
    halfspaces: dict  # neighbor index -> Halfspace (this cell's side <= 0)
    clip: Ball | None
    polygon: Polygon | None = None
    polyhedron: Polyhedron | None = None
    empty: bool = False


@dataclass(frozen=True)
class PowerVertex:
    point: tuple
    sites: frozenset

    @property
    def degenerate(self) -> bool:
        return len(self.sites) > len(self.point) + 1


@dataclass
class PowerComplex:
    dimension: int
    sites: list
    # the pair table: (i, j), i < j -> radical_hyperplane(sites[i], sites[j]),
    # made once per build; every other form of a bisector is read from it
    pairs: dict
    cells: list
    adjacency: set  # {(i, j), i < j} sharing a positive-measure facet
    power_vertices: list
    facets: dict  # (i, j) -> facet geometry: segment (d=2) or polygon (d=3)
    clip: Ball | None
    explicit: bool
    box_halfwidth: float = 0.0


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


def _cell_halfspaces(pairs, i: int, n: int) -> dict:
    """Cell i's side of each radical hyperplane, in neighbour order."""
    return {j: pairs[i, j] if i < j else -pairs[j, i] for j in range(n) if j != i}


def _solve2(h1: Halfspace, h2: Halfspace):
    (a1, b1), c1 = as_floats(h1.normal), float(h1.offset)
    (a2, b2), c2 = as_floats(h2.normal), float(h2.offset)
    det = a1 * b2 - a2 * b1
    if abs(det) < PARALLEL_TOL * max(1.0, abs(a1), abs(b1), abs(a2), abs(b2)):
        return None
    return ((b1 * c2 - b2 * c1) / det, (a2 * c1 - a1 * c2) / det)


def _solve3(h1, h2, h3):
    a = np.array([as_floats(h.normal) for h in (h1, h2, h3)], dtype=float)
    b = -np.array([float(h.offset) for h in (h1, h2, h3)], dtype=float)
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    if not np.all(np.isfinite(x)):
        return None
    return tuple(float(v) for v in x)


def _box_halfwidth(sites, pairs, matrix, clip, d) -> float:
    """Window big enough to contain the clip ball, every hyperplane foot
    point and (for unclipped diagrams) every candidate vertex."""
    scale = 1.0
    if clip is not None:
        reach = float(clip.radius) + max((abs(c) for c in as_floats(clip.center)), default=0.0)
        scale = max(scale, reach)
    for s in sites:
        for c in s.center:
            scale = max(scale, abs(float(c)))
    # foot point of each hyperplane: |offset| / |normal|, zero normals skipped
    with np.errstate(over="ignore"):
        length = np.sqrt((matrix[:, :-1] * matrix[:, :-1]).sum(axis=1))
    live = length > 0
    if live.any():
        scale = max(scale, float((np.abs(matrix[live, -1]) / length[live]).max()))
    n = len(sites)
    if clip is None and n >= d + 1:
        cap = WINDOW_VERTEX_CAP
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    if d == 2:
                        pt = _solve2(pairs[i, j], pairs[i, k])
                        if pt is not None:
                            scale = max(scale, min(cap, max(abs(v) for v in pt)))
                    else:
                        for l in range(k + 1, n):
                            pt = _solve3(pairs[i, j], pairs[i, k], pairs[i, l])
                            if pt is not None:
                                scale = max(scale, min(cap, max(abs(v) for v in pt)))
    return 2.0 * scale + 1.0


def _merge_vertex_candidates(candidates, tol):
    """candidates: list of (point, siteset) in deterministic order."""
    index = clipping.GridIndex(tol)
    groups = []  # (point, set), in index order
    for point, sites in candidates:
        fpt = as_floats(point)
        k = index.find(fpt)
        if k is None:
            index.add(fpt)
            groups.append((point, set(sites)))
        else:
            groups[k][1].update(sites)
    return [PowerVertex(point, frozenset(sites)) for point, sites in groups]


def _clip_cell(shape, halfspaces, rows, clip_fn):
    """Cut `shape` by the halfspaces that change it, in neighbour order.

    halfspaces: neighbour -> Halfspace in ascending neighbour order;
    rows: the same halfspaces as a float matrix [normal | offset].
    A candidate is dropped for good once its float value is finite and
    below -CLIP_SKIP_TOL * (max|vertex coordinate| * |normal|_1 + |offset|)
    at every vertex of the shape: the exact clip would keep every vertex.
    """
    tags = list(halfspaces)
    normals, offsets = rows[:, :-1], rows[:, -1]
    live = np.arange(len(tags))
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(normals).sum(axis=1)
    while len(live) and not shape.empty:
        X = np.array(shape.vertices, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            worst = (normals[live] @ X.T + offsets[live, None]).max(axis=1)
            slack = CLIP_SKIP_TOL * (np.abs(X).max() * size[live] + np.abs(offsets[live]))
            live = live[~(np.isfinite(worst) & (worst < -slack))]
        if len(live):
            j = tags[live[0]]
            shape = clip_fn(shape, halfspaces[j].normal, halfspaces[j].offset, j)
            live = live[1:]
    return shape


def _polygon_facets(poly, tol, exact):
    """Radical edges of positive length (exactly so on rational input)."""
    for tag, v0, v1 in poly.edges():
        if tag is BOX_TAG:
            continue
        length_sq = norm_sq(vsub(v1, v0))
        if (length_sq > 0) if exact else (math.sqrt(float(length_sq)) > tol):
            yield tag, (v0, v1)


def _polyhedron_facets(polyh, tol, exact):
    """Radical faces of float area above tol^2, on either route."""
    for face in polyh.faces:
        if face.tag is not BOX_TAG:
            points = polyh.points(face)
            if clipping.face_area(points) > tol * tol:
                yield face.tag, tuple(points)


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


def _polygon_boundary_sq(poly, c):
    """Least squared distance from c to the edges (exact on rational input)."""
    return min(clipping.segment_min_norm_sq(vsub(a, c), vsub(b, c)) for _, a, b in poly.edges())


def _polyhedron_boundary_sq(polyh, c):
    """Least squared distance from c to the faces (float)."""
    shifted = [vsub(v, c) for v in polyh.vertices]
    return min(clipping.face_min_norm_sq([shifted[k] for k in f.ring]) for f in polyh.faces)


def build_complex(sites, clip: Ball | None = None) -> PowerComplex:
    """Construct the power diagram of the given sites.

    Each cell is cut from a bounding window by its n-1 radical
    hyperplanes; `clip` (the model ball for hyperbolic pipelines) is kept
    as a separate constraint, not polygonized.  Explicit vertex/facet
    geometry is built for d in {2, 3}; other dimensions keep the implicit
    halfspace representation (cells retain all n-1 halfspaces).
    """
    sites = list(sites)
    d = _check_sites(sites)
    n = len(sites)
    if clip is not None and len(clip.center) != d:
        raise ArityMismatch("clip ball dimension does not match sites")
    pairs = {
        (i, j): radical_hyperplane(sites[i], sites[j])
        for i in range(n)
        for j in range(i + 1, n)
    }
    if d not in (2, 3):
        cells = [ConvexCell(i, _cell_halfspaces(pairs, i, n), clip) for i in range(n)]
        return PowerComplex(d, sites, pairs, cells, set(), [], {}, clip, False)

    try:  # the one place where pair coefficients become floats
        matrix = np.array(
            [hs.normal + (hs.offset,) for hs in pairs.values()], dtype=float
        ).reshape(-1, d + 1)
    except OverflowError as e:
        raise DomainViolation(f"radical hyperplane coefficient out of float range: {e}") from e
    halfwidth = _box_halfwidth(sites, pairs, matrix, clip, d)
    exact = all(all_exact(s.center + (s.weight,)) for s in sites)
    hw = Fraction(halfwidth) if exact else halfwidth
    facet_tol = FACET_MEASURE_TOL * halfwidth
    merge_tol = VERTEX_MERGE_TOL * halfwidth
    r2 = clip.radius * clip.radius if clip is not None else None
    holders = locate(clip.center, sites)[1] if clip is not None else ()  # cells holding the centre
    # screen rows: rows[i, j] is i's side of the (i, j) hyperplane
    upper = np.triu_indices(n, 1)
    rows = np.zeros((n, n, d + 1))
    rows[upper] = matrix
    rows[upper[::-1]] = -matrix

    # per dimension: the window, its clipper, the ConvexCell field,
    # positive-measure facets, vertex site sets, boundary distance from a centre
    box, clip_fn, field, cell_facets, cell_vertices, boundary_sq = {
        2: (clipping.box_polygon, clipping.clip_polygon, "polygon",
            _polygon_facets, _polygon_vertices, _polygon_boundary_sq),
        3: (clipping.box_polyhedron, clipping.clip_polyhedron, "polyhedron",
            _polyhedron_facets, _polyhedron_vertices, _polyhedron_boundary_sq),
    }[d]
    cells = []
    adjacency = set()
    facets = {}
    vertex_candidates = []
    for i in range(n):
        own = _cell_halfspaces(pairs, i, n)
        shape = _clip_cell(box(hw), own, np.delete(rows[i], i, axis=0), clip_fn)
        surviving = {}
        for j, facet in cell_facets(shape, facet_tol, exact):
            surviving[j] = own[j]
            key = (i, j) if i < j else (j, i)
            adjacency.add(key)
            if key not in facets or i < j:
                facets[key] = facet
        empty = shape.empty or (
            clip is not None and i not in holders and not boundary_sq(shape, clip.center) < r2
        )
        vertex_candidates.extend(cell_vertices(shape, i))
        cells.append(ConvexCell(i, surviving, clip, empty=empty, **{field: shape}))

    power_vertices = [
        v
        for v in _merge_vertex_candidates(vertex_candidates, merge_tol)
        if len(v.sites) >= d + 1
    ]
    return PowerComplex(
        d, sites, pairs, cells, adjacency, power_vertices, facets, clip, True, halfwidth
    )
