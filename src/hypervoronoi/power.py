"""Power (Laguerre) diagram engine: weighted sites, radical hyperplanes,
cells restricted to the open unit ball, and point location.

The hyperbolic pipelines reduce to this module: Klein points map to
weighted sites through `klein_site_map` (algebraic: one square root per
site), hemisphere points through `hemisphere_site_map` (rational).  The
two maps agree under the vertical lift.  Site k's cell is `cells[k]`.

A build has one arithmetic: exact sites (every centre coordinate and
weight an int or a Fraction) are built exactly, any other site set as
its sites' float64 images.  Every float row is a column of
`cutting.pair_rows`, made in numpy from the site arrays; every exact row
is the primitive integer row made from two sites' `WeightedSite.integer_row`s.

For d in {2, 3}, `build_complex` runs in three stages.
1. Cut and read (`cutting.cut_cells`): every cell is cut from the window
   [-1, 1]^d around the unit ball and read as soon as it is cut: its
   emptiness, its vertex candidates, and the facets that meet the open
   ball.  The facets' keys are the adjacency.  The cut owns its window,
   its clippers and its tolerance; it asks this module only for the
   exact rows of the cuts that run.
2. Halfspaces: `_halfspaces` gives each facet's lower cell its row and
   the higher cell the negation; a float row is its cut's `pair_rows`
   column, bit for bit.  A cell that misses the origin (the `locate` tie
   set there, read from the site arrays or the exact sites' integer
   rows) is empty without a facet, since the window lies outside the
   open ball.
3. Merge: vertices of neighbouring cells merge into power vertices
   within a tolerance, in one array pass (`clipping.merge_near`).
Other dimensions keep every cell's n-1 halfspaces, from `_halfspaces`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import clipping, cutting
from .errors import (
    ArityMismatch,
    CoincidentSites,
    DomainViolation,
    DuplicateSites,
    EmptySites,
)
from .scalars import all_exact, dot, norm_sq, sqrt_scalar, vsub

# Klein-mapped sites switch from imaginary to real ball radius exactly at
# |p|^2 = 4 (sqrt(5) - 2); kept as a named constant for tests.
KLEIN_WEIGHT_SIGN_THRESHOLD = 4.0 * (math.sqrt(5.0) - 2.0)

TIE_TOL = 1e-12
VERTEX_MERGE_TOL = 1e-12


@dataclass(frozen=True)
class WeightedSite:
    """Euclidean center with a real weight (squared radius, may be < 0)."""

    center: tuple
    weight: object

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


def klein_site_map(p) -> WeightedSite:
    """Map a unit-Klein point to its power-diagram site.

    center = p / (2 sqrt(1 - |p|^2)),
    weight = |p|^2 / (4 (1 - |p|^2)) - 1 / sqrt(1 - |p|^2).
    The radical hyperplane of two mapped sites is the Klein bisector.
    Requires a square root: rational input raises unless 1 - |p|^2 is a
    perfect square (use the hemisphere map for rational pipelines).
    """
    s = klein_lift(p)[0]
    n2 = norm_sq(p)
    center = tuple(x / (2 * s) for x in p)
    weight = n2 / (4 * (1 - n2)) - 1 / s
    return WeightedSite(center, weight)


def klein_lift(p) -> tuple:
    """(sqrt(1 - |p|^2), p): the hemisphere lift of a unit-Klein point, its
    square root as `klein_site_map` takes it.  A point on or past the
    boundary is a domain error; an exact one needs 1 - |p|^2 a square."""
    n2 = norm_sq(p)
    if not float(1 - n2) > 0:
        raise DomainViolation(
            f"Klein point has squared norm {float(n2)} >= 1",
            constraint="sum x_i^2 < 1",
        )
    return (sqrt_scalar(1 - n2),) + tuple(p)


def hemisphere_site_map(p) -> WeightedSite:
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
    return WeightedSite(center, weight)


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
    """The cell of the site at its own index in `PowerComplex.sites`."""

    halfspaces: dict  # neighbor index -> Halfspace (this cell's side <= 0)
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

    @property
    def adjacency(self) -> set:
        """{(i, j), i < j} whose shared facet meets the open unit ball: the
        keys of `facets`."""
        return set(self.facets)

    @property
    def explicit(self) -> bool:
        """Whether the complex has facets and power vertices (d = 2 or 3)."""
        return self.dimension in (2, 3)


def _check_sites(sites, exact) -> int:
    """The sites' dimension; exact sites are keyed by integer row, so no `Fraction` is hashed."""
    if not sites:
        raise EmptySites("build_complex needs at least one site")
    d = len(sites[0].center)
    seen = {}
    for k, s in enumerate(sites):
        if len(s.center) != d:
            raise ArityMismatch("sites have inconsistent dimensions")
        key = s.integer_row if exact else (s.center, s.weight)
        if key in seen:
            raise DuplicateSites(f"sites {seen[key]} and {k} coincide")
        seen[key] = k
    return d


def _centre_ties(sites, arrays, exact):
    """`locate`'s tie set at the origin, where site k's power is
    |c_k|^2 - w_k: on exact sites the least B_k / D_k of their integer
    rows, on others N - W of the site arrays, `locate`'s IEEE operations."""
    if not exact:
        powers = arrays[1] - arrays[2]
        return set(np.flatnonzero(powers - powers.min() <= TIE_TOL).tolist())
    powers = [(b, den) for _, b, den in (s.integer_row for s in sites)]
    least, over = min(powers, key=functools.cmp_to_key(lambda u, v: u[0] * v[1] - v[0] * u[1]))
    return {k for k, (p, q) in enumerate(powers) if p * over == least * q}


def _halfspaces(pairs, n, arrays, side=None):
    """Every cell's halfspaces, {neighbour: Halfspace} in ascending
    neighbour order, for the sorted pairs (i, j), i < j: on exact sites
    cell i gets the exact row side(i, j) and cell j side(j, i); on others
    cell i gets the pair's `cutting.pair_rows` column, made
    `cutting.BLOCK_PAIRS` pairs at a time, and cell j its negation."""
    d = arrays[0].shape[1]
    own = [{} for _ in range(n)]
    step = cutting.BLOCK_PAIRS
    for start in range(0, len(pairs), step):
        part = pairs[start:start + step]
        if side is None:
            home, tags = np.array(part, dtype=np.intp).T
            rows = cutting.pair_rows(arrays, home, tags, True)[:d + 1].T.tolist()
            made = [(hs, -hs) for hs in (Halfspace(r[:d], r[d]) for r in rows)]
        else:
            made = [(side(i, j), side(j, i)) for i, j in part]
        for (i, j), (hs, other) in zip(part, made):
            own[i][j], own[j][i] = hs, other
    return own


def build_complex(sites) -> PowerComplex:
    """Construct the power diagram of the given sites, restricted to the
    open unit ball (the unit-Klein model ball).

    Sites that are not all exact are built as their float64 images: the
    result equals, but for `sites`, the build on those images.  For d in
    {2, 3} it runs in three stages: cut every cell and read its facets and
    vertex candidates (`cutting.cut_cells`), make the facets' halfspaces,
    merge the vertices.  Other dimensions make every pair's halfspaces."""
    sites = list(sites)
    exact = all(all_exact(s.center + (s.weight,)) for s in sites)
    d = _check_sites(sites, exact)
    n = len(sites)
    arrays = cutting.site_arrays(sites, d)
    made = {}  # (i, j) -> exact cell i's side of the (i, j) radical hyperplane, both ways

    def side(i, j):
        if (i, j) not in made:  # raises nothing: the sites are distinct, their rows nonzero
            lo, hi = min(i, j), max(i, j)
            made[lo, hi] = radical_hyperplane(sites[lo], sites[hi])
            made[hi, lo] = -made[lo, hi]
        return made[i, j]

    exact_side = side if exact else None
    if d not in (2, 3):
        own = _halfspaces([(i, j) for i in range(n) for j in range(i + 1, n)], n, arrays, exact_side)
        return PowerComplex(d, sites, [ConvexCell(h, False) for h in own], [], {})

    # 1. cut every cell, a block of cells at a time, nearest centre first,
    # and read each block's facets (the lower cell's, if it has one) and
    # vertex candidates
    empty, facets, vertex_candidates = cutting.cut_cells(arrays, exact_side)

    # 2. the facets' halfspaces; a cell that misses the origin (the `locate`
    # tie set) is empty without one, since the window lies outside the open ball
    own = _halfspaces(sorted(facets), n, arrays, exact_side)
    holders = _centre_ties(sites, arrays, exact)
    cells = [ConvexCell(own[i], e or (i not in holders and not own[i])) for i, e in enumerate(empty)]

    # 3. merge the vertices of neighbouring cells into power vertices
    merged = clipping.merge_near(vertex_candidates, VERTEX_MERGE_TOL)
    power_vertices = [PowerVertex(point, frozenset(sites)) for point, sites in merged if len(sites) >= d + 1]
    return PowerComplex(d, sites, cells, power_vertices, facets)
