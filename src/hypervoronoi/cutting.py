"""The cut of `power.build_complex`: cut every cell from its window by
the candidates that change it, and read each cell where it is cut.

`cut_cells`, the cut's one entry point, takes the site arrays and the
exact rows, and makes its own window, block and clipper.  A cell is cut
from the window (the unit ball's bounding cube [-1, 1]^d), nearest site
centre first, as Voro++ does (Rycroft, Chaos 19, 041111, 2009), one
block of cells at a time.  A cell is first fed its k nearest other
centres (NEAREST_FEED; a block holds at most BLOCK_PAIRS such pairs, or
one cell).  The cells of a block advance in lockstep.  Each step, one
float screen evaluates every remaining pair's row at its cell's vertices
and drops those whose candidate provably contains the cell: such a cut
would be a no-op now and at its turn, so the cells equal those of every
cut, vertex for vertex.  Then each cell cuts by its nearest remaining
candidate.  Once the first candidates are spent, one query on a kd-tree
that bounds the sites' powers |c_j - v|^2 - w_j, their lifted planes
(Aurenhammer, SIAM J. Comput. 16, 1987), at the cell's vertices v
feeds each cell, nearest first, every other site the screen would keep
(`_LiftedTree`), and the lockstep runs again.

On float sites the screen's row is the cut, and a block's cells are cut
in numpy with the IEEE operations of the Python clippers: polygons as
rings (`_Rings`, `clipping.clip_polygon`), polyhedra as vertex tables and
face rings (`_Polyhedra`, `clipping.clip_polyhedron`).  On exact sites a
radical hyperplane is made only for a cut that runs, each cell is cut on
integer homogeneous vertices by the Python clippers (see `clipping`), and
the screen reads them as X / Z, each made once per vertex of a
polyhedron (`_Cells`).

Each block is read as soon as its cuts end, its rings started at their
least vertex (no output depends on the cut order): `_Rings` and
`_Polyhedra` read their arrays in numpy, by the one segment test
(`_foot_inside`) and the one face test (`_face_facets`).  `_Cells` reads
each exact cell on its integer vertices (least-first order, a polygon's
in-ball tests, site sets), but for a polyhedron's faces, which
`_face_facets` reads on the float images X / Z its cut made, bit for bit
`float(Fraction(X, Z))`; it makes a `Fraction` only for a point it
returns.  No other module reads a block.

Every float row of the package is a column of `pair_rows`, made in numpy
from the site arrays of `site_arrays`.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain

import numpy as np

from . import clipping
from .clipping import BOX_TAG, Face, Polygon, Polyhedron, to_affine
from .errors import CoincidentSites, DomainViolation
from .scalars import as_floats

# Relative margin of the float screen in `_lockstep`.  It only decides
# which provable no-op cuts are skipped, never the geometry: a hyperplane
# within the margin of the cell is cut with exactly, as before.
CLIP_SKIP_TOL = 1e-9
# Most (cell, candidate) pairs one block of cells screens in lockstep, so
# the screen's temporaries stay this size whatever the number of sites.
BLOCK_PAIRS = 1 << 13
# Per dimension, how many nearest other centres a cell is fed before its
# lifted query (see `_Feed`): enough that the query rarely keeps any.
NEAREST_FEED = {2: 32, 3: 64}
# Why two distinct float sites have no radical hyperplane: its normal's
# squares underflow and its offset is 0.
ROUNDS_TO_ZERO = "radical hyperplane rounds to zero in float64"
# A facet's least measure in the unit ball (see `cut_cells`).
FACET_MEASURE_TOL = 1e-10


def _dot(X, R):
    """<x, r> along the first axis of X (R may be longer), in `dot`'s
    operation order: summed from 0.0, as Python's `sum` starts from 0."""
    vals = X[0] * R[0]
    vals += 0.0
    for k in range(1, len(X)):
        vals += X[k] * R[k]
    return vals


def side_values(X, R):
    """<normal, x> + offset of each column of R at the points X, whose
    first axis is the coordinate (`_dot`, then the offset R[d]).  The
    package's one float side value: the screen's, a float cut's and the
    labeller's."""
    vals = _dot(X, R)
    vals += R[len(X)]
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
        val = side_values(np.repeat(V[:, s:s + step], counts, axis=2), R).max(axis=0)
        worst = val if worst is None else np.maximum(worst, val)
    return worst


def site_arrays(sites, d):
    """The sites' float64 images as arrays for `pair_rows`: centres C,
    |c|^2 (summed as `dot` sums), weights W, and per site |c|_1 and
    |c|^2 + |w|, which bound a row and its rounding.  A site beyond the
    float range (its image overflows, or is inf or nan) is a domain error."""
    try:
        S = np.array([as_floats(s.center + (s.weight,)) for s in sites]).reshape(len(sites), d + 1)
    except OverflowError as e:
        raise DomainViolation(f"site out of float range: {e}") from e
    bad = np.flatnonzero(~np.isfinite(S).all(axis=1))
    if len(bad):
        raise DomainViolation(f"site {bad[0]} is out of float range")
    C, W = S[:, :d], S[:, d]
    with np.errstate(over="ignore", invalid="ignore"):
        N = sum(C[:, k] * C[:, k] for k in range(d))
        return C, N, W, np.abs(C).sum(axis=1), N + np.abs(W)


def pair_rows(arrays, home, tags, strict):
    """The float rows of the pairs (home[p], tags[p]), one column each:
    [normal | offset] on home's side, then (s1, s0), which bound |normal|_1
    and |offset| and the rounding of each, all over the row's scale.

    A row is (lo, hi)'s 2 (c_hi - c_lo), |c_lo|^2 - |c_hi|^2 + w_hi - w_lo,
    divided by its normal's norm (its squares summed from 0.0, as Python's
    `sum` starts from 0), or by |offset| when that is 0, and negated when
    home is the higher index.  It is every non-exact row of the package:
    `power.radical_hyperplane`'s on float sites, the cuts and halfspaces of a
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


def _sq_dist(A, B):
    """|b - a|^2 along the last axis, its squares summed from the first
    coordinate: the order of the nearest-first feed."""
    D = B - A
    out = D[..., 0] * D[..., 0]
    for k in range(1, D.shape[-1]):
        out = out + D[..., k] * D[..., k]
    return out


def _nearest_first(q, j, dist, n):
    """The pairs (q, j) and their distances, sorted by cell q, distance,
    index j < n: one sort on a unique integer key, or, where that key would
    not fit in int64, `np.lexsort` (several times slower on a block's
    pairs)."""
    rank = np.unique(dist, return_inverse=True)[1].reshape(-1)
    span = int(rank.max(initial=0)) + 1
    if (int(q.max(initial=0)) + 1) * span * n < 1 << 62:
        order = np.argsort((q * span + rank) * n + j)
    else:
        order = np.lexsort((j, rank, q))
    return q[order], j[order], dist[order]


class _LiftedTree:
    """A kd-tree over the sites, for queries on their lifted planes: at a
    point v, the plane of site j lies |c_j - v|^2 - w_j, its power, above
    the paraboloid (Aurenhammer, SIAM J. Comput. 16, 1987).

    Each level halves every node at its middle along the node's widest
    centre axis, down to at most LEAF sites per node; node u's children
    are nodes 2u and 2u + 1 of the next level.  A level holds its nodes'
    ranges in `perm`, their centres' boxes, and their largest weight,
    |c|_1 and |c|^2 + |w|.  A query walks the levels for many cells at
    once in numpy, and returns the sites of the leaves it did not prune.
    """

    LEAF = 8

    def __init__(self, arrays):
        C, _, W, L1, P = self.arrays = arrays
        n = len(C)
        perm = np.arange(n)
        starts, stops = np.array([0]), np.array([n])
        self.levels = []
        while True:
            box = [f.reduceat(a[perm], starts) for f, a in (
                (np.minimum, C), (np.maximum, C), (np.maximum, W), (np.maximum, L1), (np.maximum, P))]
            self.levels.append((starts, stops, *box))
            if (stops - starts).max() <= self.LEAF:
                break
            seg = np.repeat(np.arange(len(starts)), stops - starts)
            with np.errstate(over="ignore", invalid="ignore"):
                axis = (box[1] - box[0]).argmax(axis=1)
            perm = perm[np.lexsort((C[perm, axis[seg]], seg))]
            mids = starts + (stops - starts) // 2
            starts, stops = np.column_stack((starts, mids)).ravel(), np.column_stack((mids, stops)).ravel()
        self.perm = perm
        self.pos = np.empty(n, dtype=np.intp)
        self.pos[perm] = np.arange(n)

    def _search(self, count, pruned, kept):
        """(q, j) for queries 0..count-1: the sites j of every leaf that
        pruned(q, level, node) spares, with all its ancestors, that
        kept(q, j) keeps (it returns their indices).  The walk goes down a
        level at a time, depth first over chunks of at most BLOCK_PAIRS
        (q, node) pairs, and takes a chunk's leaves BLOCK_PAIRS sites at a
        time, so that no temporary holds much more than BLOCK_PAIRS pairs."""
        starts, stops = self.levels[-1][:2]
        leaves = max(1, BLOCK_PAIRS // self.LEAF)
        found = [(np.empty(0, dtype=np.intp),) * 2]
        chunks = [(0, np.arange(count), np.zeros(count, dtype=np.intp))]
        while chunks:
            t, q, node = chunks.pop()
            if len(q) > BLOCK_PAIRS:
                chunks += [(t, q[BLOCK_PAIRS:], node[BLOCK_PAIRS:]), (t, q[:BLOCK_PAIRS], node[:BLOCK_PAIRS])]
                continue
            spared = np.flatnonzero(~pruned(q, t, node))
            q, node = q[spared], node[spared]
            if t + 1 < len(self.levels):
                chunks.append((t + 1, np.repeat(q, 2), (2 * node[:, None] + np.array([0, 1])).ravel()))
                continue
            for s in range(0, len(q), leaves):
                qs, ns = q[s:s + leaves], node[s:s + leaves]
                sizes = stops[ns] - starts[ns]
                first = np.repeat(starts[ns] - np.cumsum(sizes) + sizes, sizes)
                qs, js = np.repeat(qs, sizes), self.perm[first + np.arange(sizes.sum())]
                keep = kept(qs, js)
                found.append((qs[keep], js[keep]))
        return tuple(map(np.concatenate, zip(*found)))

    def near(self, home, k):
        """Per cell q (site home[q]), (q, j) for the other sites j no farther
        than its k-th nearest: the k-th nearest of the 2k others around it
        in `perm` bounds that distance.  A box is pruned when its nearest
        point is farther; its distance rounds no higher than any of its
        sites', so none of those is lost."""
        C = self.arrays[0]
        width = min(len(C), 2 * k + 1)
        J = self.perm[np.clip(self.pos[home] - k, 0, len(C) - width)[:, None] + np.arange(width)]
        with np.errstate(over="ignore", invalid="ignore"):
            D = _sq_dist(C[home][:, None, :], C[J])
        D[J == home[:, None]] = np.inf
        reach = np.partition(D, k - 1, axis=1)[:, k - 1]

        def pruned(q, t, node):
            c = C[home[q]]
            with np.errstate(over="ignore", invalid="ignore"):
                return _sq_dist(c, np.clip(c, self.levels[t][2][node], self.levels[t][3][node])) > reach[q]

        def kept(q, j):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.flatnonzero((j != home[q]) & (_sq_dist(C[home[q]], C[j]) <= reach[q]))

        return self._search(len(home), pruned, kept)

    def cutters(self, home, V, done):
        """Per cell q (site home[q], vertices V[:, :, q] padded as the
        screen reads them), (q, j) for every site j not yet fed that the
        screen would keep now, and perhaps a few more.  done: q * n + the
        tree position of each site fed to cell q, and of home[q], sorted.
        Site j can cut cell i only if its power |c_j - v|^2 - w_j is below
        that of i at some vertex v: in the lifting, the plane of j lies
        below that of i there.  A box is pruned when it holds only sites in
        done; a box, and then a site, when its least power (its distance
        from v, less its largest weight) exceeds that of i at every vertex
        by twice the screen's slack, taken with the largest |c|_1 and
        |c|^2 + |w| in it, plus the rounding of |v|^2: every site it holds
        is one the screen drops."""
        C, _, W, L1, P = self.arrays
        n = len(C)
        X = V.transpose(1, 2, 0)  # slot, cell, coordinate
        with np.errstate(over="ignore", invalid="ignore"):
            own = _sq_dist(X, C[home]) - W[home]
            reach = np.abs(V).max(axis=(0, 1))
        step = max(1, BLOCK_PAIRS // V.shape[1])

        def pruned(q, lo, hi, w, l1, p):
            out = np.empty(len(q), dtype=bool)
            for s in range(0, len(q), step):
                qs, part = q[s:s + step], slice(s, s + step)
                v = X[:, qs]
                with np.errstate(over="ignore", invalid="ignore"):
                    least = (_sq_dist(v, np.clip(v, lo[part], hi[part])) - w[part] - own[:, qs]).min(axis=0)
                    r = reach[qs]
                    margin = 2 * CLIP_SKIP_TOL * (r * 2 * (L1[home[qs]] + l1[part]) + P[home[qs]] + p[part] + r * r)
                    out[part] = np.isfinite(least) & (least > margin)
            return out

        def spent_or_pruned(q, t, node):
            starts, stops, *box = (a[node] for a in self.levels[t])
            spent = np.searchsorted(done, q * n + stops) - np.searchsorted(done, q * n + starts) == stops - starts
            out = spent.copy()
            out[~spent] = pruned(q[~spent], *(a[~spent] for a in box))
            return out

        def kept(q, j):
            key = q * n + self.pos[j]
            fresh = np.flatnonzero(done[np.minimum(np.searchsorted(done, key), len(done) - 1)] != key)
            q, j = q[fresh], j[fresh]
            return fresh[~pruned(q, C[j], C[j], W[j], L1[j], P[j])]

        return self._search(len(home), spent_or_pruned, kept)


class _Feed:
    """Every cell's candidates, nearest centre first, ties by index.

    A cell is first fed its k nearest other centres (and every further one
    at distance 0, so that any row that rounds to zero is made), then, once
    those are cut or screened away, the others its lifted query keeps.  The
    query keeps every candidate the screen would keep, and the cuts of a
    cell run nearest first, so the cuts that run are those of feeding every
    candidate at once, in the same order.  Below 2k + 2 sites the query
    would cost more than it saves: each cell is fed every other site, and
    `tree` is None."""

    def __init__(self, arrays, k, strict):
        self.arrays, self.strict = arrays, strict
        n = len(arrays[0])
        self.k = k if 2 * k < n - 1 else n - 1
        self.tree = _LiftedTree(arrays) if self.k < n - 1 else None

    def rows(self, home, tags):
        return pair_rows(self.arrays, home, tags, self.strict)

    def nearest(self, home):
        """(q, j): the first candidates j of each cell q, site home[q]."""
        C = self.arrays[0]
        m, n, k = len(home), len(C), self.k
        if self.tree is None:  # every other site
            with np.errstate(over="ignore", invalid="ignore"):
                order = np.argsort(_sq_dist(C[home][:, None, :], C), axis=1, kind="stable")
            return np.repeat(np.arange(m), n - 1), order[order != home[:, None]]
        q, j = self.tree.near(home, k)
        with np.errstate(over="ignore", invalid="ignore"):
            q, j, dist = _nearest_first(q, j, _sq_dist(C[home[q]], C[j]), n)
        # the k nearest, and every further one at distance 0
        first = np.searchsorted(q, np.arange(m))
        count = np.maximum(k, np.bincount(q[dist == 0], minlength=m))
        fed = np.flatnonzero(np.arange(len(q)) - first[q] < count[q])
        return q[fed], j[fed]

    def beyond(self, home, V, fed):
        """(q, j): the candidates after the pairs fed (q, j) of each cell q,
        that its lifted query at its vertices V keeps, nearest first."""
        n, pos = len(self.arrays[0]), self.tree.pos
        done = np.sort(np.r_[fed[0], np.arange(len(home))] * n + pos[np.r_[fed[1], home]])
        q, j = self.tree.cutters(home, V, done)
        with np.errstate(over="ignore", invalid="ignore"):
            dist = _sq_dist(self.arrays[0][home[q]], self.arrays[0][j])
        return _nearest_first(q, j, dist, n)[:2]


class _Rings:
    """A block's float polygons as padded arrays, cut in numpy.

    V[coordinate, slot, cell]: each ring, padded with its first vertex, as
    the screen reads it; T[slot, cell]: its edge tags (-1 for the
    window's); L[cell]: its length, 0 once empty.  A cut makes the IEEE
    operations of `clipping.clip_polygon` in the same order, so each ring
    is the clipper's polygon."""

    def __init__(self, window, m):
        self.V = np.repeat(np.array(window.vertices, dtype=float).T[:, :, None], m, axis=2)
        self.T = np.repeat(np.array([[-1 if t is BOX_TAG else t] for t in window.tags]), m, axis=1)
        self.L = np.full(m, len(window.vertices))

    @property
    def live(self):
        return self.L > 0

    def cut(self, cs, R, tags):
        """Cut ring cs[p] to the side <= 0 of column R[:, p]; its new edges
        get tags[p]."""
        P, T, L = self.V[:, :, cs], self.T[:, cs], self.L[cs]
        d, S, m = P.shape
        col = np.arange(m)
        slot = np.arange(S)[:, None]
        valid = slot < L
        nxt = np.where(slot + 1 < L, slot + 1, 0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            f0 = side_values(P, R)
            f1 = f0[nxt, col]
            t = f0 / (f0 - f1)
            X = P + t * (P[:, nxt, col] - P)
        inside = f0 <= 0
        # slot 2k: vertex k, kept inside; slot 2k + 1: edge k's crossing
        emit = np.stack((valid & inside, valid & np.where(inside, f1 > 0, f1 <= 0)), axis=1)
        P, T, L = _compress(
            np.stack((P, X), axis=2).reshape(d, 2 * S, m),
            np.stack((T, np.where(inside, tags, T)), axis=1).reshape(2 * S, m),
            emit.reshape(2 * S, m),
        )
        slot = np.arange(P.shape[1])[:, None]
        nxt = np.where(slot + 1 < L, slot + 1, 0)
        long = (slot < L) & ~(P == P[:, nxt, col]).all(axis=0)  # drop zero-length edges
        P, T, L = _compress(P, T, long)
        L[L < 3] = 0
        grow = P.shape[1] - self.V.shape[1]
        if grow > 0:
            self.V = np.concatenate((self.V, np.repeat(self.V[:, :1], grow, axis=1)), axis=1)
            self.T = np.concatenate((self.T, np.repeat(self.T[:1], grow, axis=0)), axis=0)
        W = P.shape[1]
        self.V[:, :W, cs], self.V[:, W:, cs] = P, P[:, :1]
        self.T[:W, cs] = T
        self.L[cs] = L
        width = max(1, self.L.max())
        self.V, self.T = self.V[:, :width], self.T[:width]

    def least_first(self):
        """Start each ring at its least vertex as tuples compare, the first
        of them (on a ring with a nan coordinate, by `ring.index(min(ring))`
        itself)."""
        P, L = self.V, self.L
        col = np.arange(P.shape[2])
        slot = np.arange(P.shape[1])[:, None]
        valid = slot < L
        x = np.where(valid, P[0], np.inf).min(axis=0)
        at = valid & (P[0] == x)
        y = np.where(at, P[1], np.inf).min(axis=0)
        k = (at & (P[1] == y)).argmax(axis=0)
        for c in np.flatnonzero((np.isnan(P) & valid).any(axis=(0, 1))).tolist():
            ring = list(map(tuple, P[:, :L[c], c].T.tolist()))
            k[c] = ring.index(min(ring))
        turn = np.where(valid, (k + slot) % np.maximum(L, 1), k)
        self.V, self.T = P[:, turn, col], self.T[turn, col]

    def read(self, first):
        """`cut_cells`' reading of cells first, first + 1, ..., in numpy.  A
        facet (v0, v1) is a radical edge longer than FACET_MEASURE_TOL that
        meets the open unit ball: an end strictly inside, or `_foot_inside`.
        A vertex candidate is a corner where two radical edges of different
        tags meet, with cell i and those tags."""
        self.least_first()
        P, T, L = self.V, self.T, self.L
        col = np.arange(P.shape[2])
        slot = np.arange(P.shape[1])[:, None]
        nxt = np.where(slot + 1 < L, slot + 1, 0)
        radical = (slot < L) & (T >= 0)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            D = P[:, nxt, col] - P
            long = np.sqrt(_dot(D, D)) > FACET_MEASURE_TOL
            inside = _dot(P, P) < 1.0
            facet = radical & long & (inside | inside[nxt, col] | _foot_inside(P, D))
        prev = T[np.where(slot > 0, slot - 1, L - 1), col]
        corner = radical & (prev >= 0) & (prev != T)
        vertex = _points(P, slot.T < L[:, None]).__getitem__  # cell by cell
        base = np.cumsum(L) - L
        c, k = np.nonzero(facet.T)
        once, pairs = _first_pairs(first + c, T[k, c])
        c, k = c[once], k[once]
        ends = (base[c] + k).tolist(), (base[c] + nxt[k, c]).tolist()
        found = list(zip(pairs, zip(*(map(vertex, e) for e in ends))))
        c, k = np.nonzero(corner.T)
        sites = zip((first + c).tolist(), prev[k, c].tolist(), T[k, c].tolist())
        candidates = list(zip(map(vertex, (base[c] + k).tolist()), map(frozenset, sites)))
        return (~self.live).tolist(), found, candidates


def _points(V, live):
    """The vertices V[:, slot, cell] where live[cell, slot], as tuples of
    floats, cell by cell."""
    return list(zip(*(x.T[live].tolist() for x in V)))


def _first_pairs(i, j):
    """Where each pair {i[p], j[p]} first occurs, in order, and the pairs
    there as (lo, hi)."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    once = np.sort(np.unique(lo * (int(hi.max(initial=0)) + 1) + hi, return_index=True)[1])
    return once, list(zip(lo[once].tolist(), hi[once].tolist()))


def _compress(P, T, keep):
    """The kept slots of each ring first, in order, padded with its first;
    and the counts."""
    L = keep.sum(axis=0)
    order = np.argsort(~keep, axis=0, kind="stable")[:max(1, L.max())]
    col = np.arange(P.shape[2])
    P, T = P[:, order, col], T[order, col]
    return np.where(np.arange(len(order))[:, None] < L, P, P[:, :1]), T, L


class _Polyhedra:
    """A block's float polyhedra as padded arrays, cut in numpy.

    V[coordinate, slot, cell]: each vertex table, compacted (see
    `Polyhedron.compact`) and padded with its first vertex, as the screen
    reads it; N[cell]: its length, 0 once empty.  F[cell, face, position]:
    each face's ring of slots, padded with 0; FL[cell, face]: its length, 0
    past the cell's faces; FT[cell, face]: its tag (-1 for the window's).
    A step cuts every cell it is given at once, with the IEEE operations of
    `clipping.clip_polyhedron` in the same order, to its compacted table,
    faces and rings: the crossings are appended in the order its face walk
    first meets them, and the cut face's ring starts where its chain does.
    A cut that would not leave one cut face and every vertex on three faces
    (a thin edge's cleanup), or that meets a nan side value, is made by
    `clipping.clip_polyhedron` on that cell alone, the one place a float
    cell becomes a `Polyhedron`."""

    def __init__(self, window, m):
        self.V = np.repeat(np.array(window.vertices, dtype=float).T[:, :, None], m, axis=2)
        self.N = np.full(m, len(window.vertices))
        self.F, self.FL, self.FT = np.zeros((m, 0, 0), dtype=np.intp), *np.zeros((2, m, 0), dtype=np.intp)
        self._write(np.arange(m), window)

    @property
    def live(self):
        return self.N > 0

    def cut(self, cs, R, tags):
        """Cut cell cs[p] to the side <= 0 of column R[:, p]; its cut face
        gets tags[p]."""
        V = self.V[:, :, cs]
        with np.errstate(over="ignore", invalid="ignore"):
            f = side_values(V, R)
        valid = np.arange(V.shape[1])[:, None] < self.N[cs]
        kept = valid & (f <= 0)
        cut = (valid & (f > 0)).any(axis=0)
        odd = cut & (valid & np.isnan(f)).any(axis=0)
        gone = cut & ~odd & ~kept.any(axis=0)
        if gone.any():
            self._clear(cs[gone])
        step = np.flatnonzero(cut & ~odd & ~gone)
        if len(step):
            odd[step[~self._step(cs[step], V[:, :, step], f[:, step], kept[:, step], tags[step])]] = True
        for p in np.flatnonzero(odd).tolist():
            c, row = int(cs[p]), R[:4, p].tolist()
            self._write([c], clipping.clip_polyhedron(self.shape(c), row[:3], row[3], int(tags[p])).compact())
        self.V = self.V[:, :max(1, self.N.max())]

    def _step(self, cells, V, f, kept, tags):
        """Cut cells by the side values f of their vertices V (kept: f <= 0;
        each cell has an outside vertex, a kept one, and no nan); write
        those whose cut closes one face with every vertex on three, and
        return which they are."""
        F, FL, FT = self.F[cells], self.FL[cells], self.FT[cells]
        m, G, K = F.shape
        S = V.shape[1]
        col = np.arange(m)
        at = F * m + col[:, None, None]  # flat (slot, cell) of each ring entry
        ring = np.arange(K) < FL[:, :, None]
        renumber = np.cumsum(kept, axis=0) - 1
        # the faces with an outside vertex, one row each, in cell and face order
        hit = np.flatnonzero((ring & ~kept.take(at)).any(axis=2))
        c = hit // G
        Fh, Lh = F.reshape(-1, K)[hit], FL.ravel()[hit]
        B = np.where(np.arange(K) + 1 == Lh[:, None], Fh[:, :1], np.concatenate((Fh[:, 1:], Fh[:, :1]), axis=1))
        at_a, at_b = Fh * m + c[:, None], B * m + c[:, None]
        fa, ra, fb, rb = f.take(at_a), renumber.take(at_a), f.take(at_b), renumber.take(at_b)
        live = np.arange(K) < Lh[:, None]
        ka = live & (fa <= 0)
        exits, entries = ka & (fb > 0), live & (fa > 0) & (fb <= 0)
        made = (exits & (fa != 0)) | (entries & (fb != 0))  # the edge's crossing joins the ring
        # one crossing per (kept, outside) edge, from its kept end, numbered
        # after the kept vertices in the order the face walk first meets it
        lin = np.flatnonzero(made)
        cm = c[lin // K]
        a, b, ex = Fh.ravel()[lin], B.ravel()[lin], exits.ravel()[lin]
        near, far = np.where(ex, a, b), np.where(ex, b, a)
        key = (cm * S + near) * S + far
        order = np.argsort(key, kind="stable")
        new = np.ones(len(key), dtype=bool)
        new[1:] = key[order[1:]] != key[order[:-1]]
        first, inv = order[new], np.empty_like(order)
        inv[order] = np.cumsum(new) - 1
        owner = cm[first]
        count = np.bincount(owner, minlength=m)
        kept_count = kept.sum(axis=0)
        size = kept_count + count
        by_made = np.argsort(first)
        slot = np.empty_like(first)
        slot[by_made] = (kept_count - np.cumsum(count) + count)[owner[by_made]] + np.arange(len(first))
        crossing = np.zeros(Fh.shape, dtype=np.intp)
        crossing.ravel()[lin] = slot[inv]
        # each face's kept part: its kept vertices, each followed by its edge's crossing
        emitted = ka.astype(np.intp) + made
        end = np.cumsum(emitted, axis=1)
        L = end[:, -1]
        width = max(1, int(L.max(initial=0)))
        E = np.zeros((len(hit), width + 1), dtype=np.intp)  # the last column takes what is not emitted
        row = np.arange(len(hit))[:, None] * (width + 1)
        E.ravel()[np.where(ka, row + end - emitted, row + width)] = ra
        E.ravel()[(row + end - 1).ravel()[lin]] = slot[inv]
        # the cut face: each clipped face's entry -> exit, chained from the first face's entry
        exit_count = exits.sum(axis=1)
        pair = np.flatnonzero((exit_count == 1) & (L >= 3))
        exit_at = (exits * np.where(fa != 0, crossing, ra)).sum(axis=1)[pair]
        entry_at = (entries * np.where(fb != 0, crossing, rb)).sum(axis=1)[pair]
        cp = c[pair]
        P = np.bincount(cp, minlength=m)
        start = np.append(entry_at, -1)[np.searchsorted(cp, col)]  # each cell's first face's
        span = int(size.max()) + 1
        succ = np.full((m, span), -1)  # the last column: -1 stays -1
        succ[cp, entry_at] = exit_at
        succ = succ.ravel()
        top = int(P.max())
        walk = np.empty((top + 1, m), dtype=np.intp)
        walk[0] = start
        for t in range(top):
            walk[t + 1] = succ.take(col * span + walk[t])
        steps = np.arange(top + 1)[:, None]
        early = (steps > 0) & (steps < P) & ((walk == start) | (walk < 0))
        bad = np.zeros(m, dtype=bool)
        bad[c[(exit_count > 1) | ((L > 0) & (L < 3))]] = True
        bad[owner[np.bincount(inv, minlength=len(first)) < 2]] = True  # a crossing on fewer than three faces
        ok = (walk[np.minimum(P, top), col] == start) & ~early.any(axis=0) & (P >= 3) & ~bad
        # faces in order, the cut face last
        FL = FL.copy()
        FL.ravel()[hit] = L
        keep = FL >= 3
        nf = keep.sum(axis=1)
        self._fit(int(size.max()), int(nf.max()) + 1, max(K, width, top))
        _, G2, K2 = self.F.shape
        rings = np.zeros((m * G, K2), dtype=np.intp)
        rings[:, :K] = np.where(ring, renumber.take(at), 0).reshape(-1, K)
        rings[hit] = 0
        rings[hit, :width] = E[:, :width]
        rings = rings.reshape(m, G, K2)
        F2 = np.zeros((m, G2, K2), dtype=np.intp)
        L2, T2 = np.zeros((2, m, G2), dtype=np.intp)
        kc = np.nonzero(keep)[0]
        to = np.cumsum(keep, axis=1)[keep] - 1
        F2[kc, to] = rings[keep]
        L2[kc, to] = FL[keep]
        T2[kc, to] = FT[keep]
        F2[col, nf, :top] = np.where(steps[:top] < P, walk[:top], 0).T
        L2[col, nf], T2[col, nf] = P, tags
        # the kept vertices, then the crossings
        V2 = np.empty((3, self.V.shape[1], m))
        V2[...] = V[:, kept.argmax(axis=0), col][:, None]  # the padding: the first kept vertex
        ks, kc = np.nonzero(kept)
        V2.reshape(3, -1)[:, renumber[ks, kc] * m + kc] = V.reshape(3, -1)[:, ks * m + kc]
        a, b = near[first], far[first]
        f0, f1 = f[a, owner], f[b, owner]
        v0 = V[:, a, owner]
        with np.errstate(over="ignore", invalid="ignore"):
            t = f0 / (f0 - f1)
            V2.reshape(3, -1)[:, slot * m + owner] = v0 + t * (V[:, b, owner] - v0)
        # a cell written keeps its P >= 3 clipped faces and the cut face: none is empty
        if not ok.all():
            cells, V2, size, F2, L2, T2 = cells[ok], V2[:, :, ok], size[ok], F2[ok], L2[ok], T2[ok]
        self.V[:, :, cells], self.N[cells], self.F[cells], self.FL[cells], self.FT[cells] = V2, size, F2, L2, T2
        return ok

    def _fit(self, S, G, K):
        """Widen the block's tables to at least S slots, G faces and K ring
        positions."""
        grow = S - self.V.shape[1]
        if grow > 0:
            self.V = np.concatenate((self.V, np.repeat(self.V[:, :1], grow, axis=1)), axis=1)
        m, G0, K0 = self.F.shape
        if G > G0 or K > K0:
            F = np.zeros((m, max(G, G0), max(K, K0)), dtype=np.intp)
            F[:, :G0, :K0] = self.F
            FL, FT = np.zeros((2, m, F.shape[1]), dtype=np.intp)
            FL[:, :G0], FT[:, :G0] = self.FL, self.FT
            self.F, self.FL, self.FT = F, FL, FT

    def _clear(self, cells):
        self.N[cells] = 0
        self.F[cells] = 0
        self.FL[cells] = 0

    def _write(self, cells, poly):
        """Write cells' tables from one compacted `Polyhedron`."""
        self._clear(cells)
        if poly.empty:
            return
        S, G = len(poly.vertices), len(poly.faces)
        self._fit(S, G, max(len(face.ring) for face in poly.faces))
        self.V[:, :S, cells] = np.array(poly.vertices, dtype=float).T[:, :, None]
        self.V[:, S:, cells] = self.V[:, :1, cells]
        self.N[cells] = S
        for g, face in enumerate(poly.faces):
            self.F[cells, g, :len(face.ring)] = face.ring
            self.FL[cells, g] = len(face.ring)
            self.FT[cells, g] = -1 if face.tag is BOX_TAG else face.tag

    def shape(self, c):
        """Cell c as a `Polyhedron`."""
        faces = [Face(BOX_TAG if t < 0 else t, ring[:n])
                 for ring, n, t in zip(self.F[c].tolist(), self.FL[c].tolist(), self.FT[c].tolist()) if n]
        return Polyhedron(list(map(tuple, self.V[:, :self.N[c], c].T.tolist())), faces)

    def least_first(self):
        """Start each ring at its least vertex as tuples compare, the first
        of them (on tables with no nan)."""
        F, FL = self.F, self.FL
        pos = np.arange(F.shape[2])
        ring = at = pos < FL[:, :, None]
        for x in self.V:
            x = x.take(F * len(F) + np.arange(len(F))[:, None, None])
            at = at & (x == np.where(at, x, np.inf).min(axis=2, keepdims=True))
        turn = np.where(ring, (at.argmax(axis=2)[:, :, None] + pos) % np.maximum(FL, 1)[:, :, None], 0)
        self.F = np.take_along_axis(F, turn, axis=2)

    def read(self, first):
        """`cut_cells`' reading of cells first, first + 1, ..., in numpy.  A
        facet is a radical face that `_face_facets` keeps.  A vertex
        candidate is a vertex on three radical faces or more, with cell i
        and their tags."""
        self.least_first()
        V, F, FL, FT = self.V, self.F, self.FL, self.FT
        m, S, K = len(F), V.shape[1], F.shape[2]
        c, g = np.nonzero((FL > 0) & (FT >= 0))  # the radical faces, one row each
        rows, L, tags = F[c, g], FL[c, g], FT[c, g]
        facet = _face_facets(np.stack([x.take(rows * m + c[:, None]) for x in V]), L)
        vertex = _points(V, np.arange(S) < self.N[:, None]).__getitem__  # cell by cell
        base = np.cumsum(self.N) - self.N
        once, pairs = _first_pairs(first + c[facet], tags[facet])
        once = np.flatnonzero(facet)[once]
        found = [
            (pair, tuple(map(vertex, at[:k])))
            for pair, at, k in zip(pairs, (rows[once] + base[c[once], None]).tolist(), L[once].tolist())
        ]
        # each vertex's radical tags, vertices in table order, tags in face
        # order: each set is made as `_polyhedron_vertices` makes it
        f, k = np.nonzero(np.arange(K) < L[:, None])
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
                candidates.append((vertex(int(base[v // S]) + v % S), frozenset(site_tags | {first + v // S})))
        return ((FL > 0).sum(axis=1) < 4).tolist(), found, candidates


class _Cells:
    """A block's exact cells, on integer homogeneous vertices, cut one at a
    time by the Python clipper of the window's kind, and the float images
    of their vertices in one padded table V[coordinate, slot, cell], as the
    screen reads it: slot k of a cell is its vertex k, and a dead vertex's
    slot and the padding repeat its first live vertex.  A cut by
    halfspace(c, j) rewrites the column of each cell it changed.  Vertices
    are imaged as X / Z, correctly rounded: a polygon's at each cut that
    changes it, a polyhedron's once per vertex (a cut keeps its survivors'
    images).  A polyhedron's table is compacted once its dead vertices
    outnumber its live ones, and when its cuts end."""

    def __init__(self, window, m, halfspace):
        self.clip_fn = clipping.clip_polygon if isinstance(window, Polygon) else clipping.clip_polyhedron
        self.halfspace = halfspace
        self.cells = [window] * m
        self.images = [self._images(window, [])] * m
        self.table = np.repeat(np.array(self.images[0], dtype=float).T[:, :, None], m, axis=2)
        self.count = np.full(m, len(window.vertices))  # table lengths, 0 once empty

    @property
    def V(self):
        return self.table[:, :self.count.max()]

    @property
    def live(self):
        return self.count > 0

    def _images(self, shape, old):
        """The float images of shape's vertices, X / Z correctly rounded;
        old: those of the cell it was cut from.  A polyhedron's table keeps
        the old vertices in place (dead ones None) and appends the
        crossings."""
        if isinstance(shape, Polyhedron):
            made = [(x / w, y / w, z / w) for x, y, z, w in shape.vertices[len(old):]]
            return [None if v is None else u for v, u in zip(shape.vertices, old + made)]
        return [(x / z, y / z) for x, y, z in shape.vertices]

    def cut(self, cs, R, tags):
        d = len(R) - 3
        cs, tags = cs.tolist(), tags.tolist()
        cuts = [(hs.normal, hs.offset, j) for hs, j in zip(map(self.halfspace, cs, tags), tags)]
        rewrite = []  # (cell, every slot's image)
        for c, cut in zip(cs, cuts):
            before = self.cells[c]
            cell = self.cells[c] = self.clip_fn(before, *cut)
            if cell is before:
                continue
            if cell.empty:
                self.count[c] = 0
                continue
            images = self._images(cell, self.images[c])
            if isinstance(cell, Polyhedron) and 2 * images.count(None) > len(images):
                self.cells[c] = cell.compact()
                images = [v for v in images if v is not None]
            self.images[c], self.count[c] = images, len(images)
            rewrite.append((c, images))
        grow = self.count.max() - self.table.shape[1]
        if grow > 0:  # slot 0 holds a live vertex's image
            self.table = np.concatenate((self.table, np.repeat(self.table[:, :1], grow, axis=1)), axis=1)
        if rewrite:
            width = self.table.shape[1]
            cols = []
            for _, images in rewrite:
                first = next(filter(None, images))
                cols += [first if v is None else v for v in images] + [first] * (width - len(images))
            flat = np.fromiter(chain.from_iterable(cols), float, len(cols) * d)
            self.table[:, :, [c for c, _ in rewrite]] = flat.reshape(-1, width, d).T

    def read(self, first):
        """`cut_cells`' reading of cells first, first + 1, ..., on their
        integer vertices, rings least first, but for a polyhedron's faces,
        which `_face_facets` reads on the float images its cut made, in
        that ring order.  A `Fraction` point is made once per vertex the
        block returns."""
        affine = {}

        def point(v):
            return affine.get(v) or affine.setdefault(v, to_affine(v))

        cells = list(enumerate(map(_least_first, self.cells), first))
        if isinstance(self.cells[0], Polyhedron):
            faces = [(i, cell, f) for i, cell in cells for f in cell.faces if f.tag is not BOX_TAG]
            images = [[v for v in images if v is not None] for images in self.images]
            rings = [[images[i - first][k] for k in f.ring] for i, _, f in faces]
            K = max(map(len, rings), default=1)
            U = np.array([r + r[:1] * (K - len(r)) for r in rings], dtype=float).reshape(-1, K, 3).transpose(2, 0, 1)
            is_facet = _face_facets(U, np.array(list(map(len, rings)), dtype=np.intp)).tolist()
            facets = [(i, f.tag, cell.points(f)) for (i, cell, f), yes in zip(faces, is_facet) if yes]
            vertices = [v for i, cell in cells for v in _polyhedron_vertices(cell, i)]
        else:
            facets = [(i, j, facet) for i, cell in cells for j, facet in _polygon_facets(cell)]
            vertices = [v for i, cell in cells for v in _polygon_vertices(cell, i)]
        found = [((i, j) if i < j else (j, i), tuple(map(point, facet))) for i, j, facet in facets]
        return [cell.empty for _, cell in cells], found, [(point(v), sites) for v, sites in vertices]


def _least_first(cell):
    """An exact cell compacted, each ring started at its least vertex."""
    cell = cell.compact()
    if isinstance(cell, Polyhedron):
        rings = ((f, _least(cell.vertices, f.ring)) for f in cell.faces)
        return Polyhedron(cell.vertices, [Face(f.tag, f.ring[k:] + f.ring[:k]) for f, k in rings])
    k = _least(cell.vertices, range(len(cell.vertices)))
    return Polygon(cell.vertices[k:] + cell.vertices[:k], cell.tags[k:] + cell.tags[:k])


def _least(vertices, ring):
    """Where in ring its least vertex is, the first of equals: the points
    X / Z compared as tuples compare, on the integers."""
    k = 0
    for p in range(1, len(ring)):
        u, v = vertices[ring[p]], vertices[ring[k]]
        for x, y in zip(u, v):  # x / u[-1] against y / v[-1]
            if x * v[-1] != y * u[-1]:
                if x * v[-1] < y * u[-1]:
                    k = p
                break
    return k


def _polygon_facets(poly):
    """Radical edges of a polygon on integer homogeneous vertices that
    have positive length and meet the open unit ball, exactly
    (`clipping.integer_ball_test`); an edge with an end strictly inside
    the ball does at once."""
    inside, meets = clipping.integer_ball_test(poly.vertices)
    for k, (tag, v0, v1) in enumerate(poly.edges()):
        if tag is BOX_TAG or v0 == v1:
            continue
        j = (k + 1) % len(poly.vertices)
        if inside[k] or inside[j] or meets(k, j):
            yield tag, (v0, v1)


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


def _foot_inside(U, D):
    """Whether the origin's foot on each segment U -> U + D (coordinate
    first) lies strictly between its ends and strictly inside the unit
    ball: the package's one segment test."""
    dd = _dot(D, D)
    t = -_dot(U, D) / dd
    X = U + t * D
    return (dd != 0) & (t > 0) & (t < 1) & (_dot(X, X) < 1.0)


def _face_facets(U, L):
    """Which faces, float rings U[coordinate, face, position] L long
    (padded with anything), are facets: of area above FACET_MEASURE_TOL^2
    by Newell's formula (its terms summed in ring order from 0.0), and
    meeting the open unit ball at a vertex strictly inside, at an edge
    (`_foot_inside`), or at the origin's foot on the face's plane, strictly
    inside, where no two edges see it on opposite sides.  The package's
    one face test: on float cells and on the images X / Z of exact ones."""
    pos = np.arange(U.shape[2])
    ring = pos < L[:, None]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        W = np.where(pos + 1 == L[:, None], U[..., :1], np.concatenate((U[..., 1:], U[..., :1]), axis=2))
        terms = np.stack((
            (U[1] - W[1]) * (U[2] + W[2]), (U[2] - W[2]) * (U[0] + W[0]), (U[0] - W[0]) * (U[1] + W[1]),
        ))
        n = np.cumsum(np.concatenate((np.zeros_like(terms[..., :1]), terms), axis=2), axis=2)[:, np.arange(len(L)), L]
        nn = _dot(n, n)
        big = 0.5 * np.sqrt(nn) > FACET_MEASURE_TOL * FACET_MEASURE_TOL
        facet = big & (ring & (_dot(U, U) < 1.0)).any(axis=1)
        rest = np.flatnonzero(big & ~facet)  # no vertex inside
        U, W, n, nn, ring = U[:, rest], W[:, rest], n[:, rest], nn[rest], ring[rest]
        D = W - U
        foot = _dot(U[..., 0], n) / nn * n
        R = foot[..., None] - U
        side = (
            0.0 + (D[1] * R[2] - D[2] * R[1]) * n[0, :, None] + (D[2] * R[0] - D[0] * R[2]) * n[1, :, None]
            + (D[0] * R[1] - D[1] * R[0]) * n[2, :, None]
        )
        interior = (nn != 0) & (((side >= 0) | ~ring).all(axis=1) | ((side <= 0) | ~ring).all(axis=1))
        interior &= _dot(foot, foot) < 1.0
        facet[rest] = (ring & _foot_inside(U, D)).any(axis=1) | interior
    return facet


def _lockstep(cells, cell, tags, R):
    """Cut a block's cells in lockstep, each by the candidates that change it.

    Pair p is candidate tags[p] of cell cell[p] of `cells` (`_Rings`,
    `_Polyhedra` or `_Cells`); each cell's pairs are contiguous and in cut order.  R: one
    column per pair, as `pair_rows` makes it.  Each step screens every
    live pair against its cell's current vertices, then every cell with a
    live pair cuts by its first.  A pair is dropped for good once its float
    value is finite and below -CLIP_SKIP_TOL * (max|vertex coordinate| *
    s1 + s0) at every vertex of its cell: the exact clip would keep every
    vertex.
    """
    d = len(R) - 3
    ids = np.array((cell, tags), dtype=np.intp).reshape(2, -1)
    while ids.shape[1]:
        cell = ids[0]
        starts = np.flatnonzero(np.r_[True, cell[1:] != cell[:-1]])
        counts = np.diff(np.r_[starts, len(cell)])
        V = cells.V[:, :, cell[starts]]
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
        cells.cut(cell[first], R[:, first], ids[1, first])
        keep[first] = False
        keep &= cells.live[cell]
        kept = np.flatnonzero(keep)
        R, ids = R.take(kept, axis=1), ids.take(kept, axis=1)


def _cut_block(window, home, feed, side):
    """The cells of the sites `home`, each cut from the window by the
    candidates that change it, nearest first: in lockstep by the feed's
    first candidates, then by those their lifted queries keep.  Float cells
    are cut in numpy (`_Rings`, `_Polyhedra`), exact ones by the Python
    clippers (`_Cells`); side(i, j) is exact site i's side of its radical
    hyperplane with j, asked for when j's cut of cell i runs.  Returns the
    block."""
    if not feed.strict:
        cells = _Cells(window, len(home), lambda c, j: side(int(home[c]), j))
    elif isinstance(window, Polygon):
        cells = _Rings(window, len(home))
    else:
        cells = _Polyhedra(window, len(home))
    q, tags = feed.nearest(home)
    _lockstep(cells, q, tags, feed.rows(home[q], tags))
    if feed.tree is not None:
        alive = np.flatnonzero(cells.live)
        local = np.cumsum(cells.live) - 1
        ok = cells.live[q]
        q, tags = feed.beyond(home[alive], cells.V[:, :, alive], (local[q[ok]], tags[ok]))
        q = alive[q]
        _lockstep(cells, q, tags, feed.rows(home[q], tags))
    return cells


def _blocks(n, k):
    """Cells 0..n-1 in blocks of at most BLOCK_PAIRS first candidates (k
    per cell), or one cell."""
    per_block = max(1, BLOCK_PAIRS // max(1, k))
    return (np.arange(start, min(n, start + per_block)) for start in range(0, n, per_block))


def _window(d, exact):
    """The cube [-1, 1]^d, whose walls lie outside the open unit ball:
    float vertices, or integer homogeneous ones (+-1, ..., +-1, 1) on
    exact sites."""
    window = (clipping.box_polygon if d == 2 else clipping.box_polyhedron)(1 if exact else 1.0)
    return replace(window, vertices=[v + (1,) for v in window.vertices]) if exact else window


def cut_cells(arrays, side):
    """Every cell of the sites' arrays (d = 2 or 3) cut from the window, a
    block of cells at a time, each block read (its `read`) as soon as it
    is cut, its rings started at their least vertex: whether each cell is
    empty, the facets {(i, j): points}, i < j, of measure above
    FACET_MEASURE_TOL (a length, or an area's square root) that meet the
    open unit ball, as the first cell to have one reads it, and the vertex
    candidates (point, site set), in cell order.  side(i, j): exact site
    i's side of its radical hyperplane with j, or None on float sites."""
    d, exact = arrays[0].shape[1], side is not None
    window = _window(d, exact)
    feed = _Feed(arrays, NEAREST_FEED[d], not exact)
    empty, facets, candidates = [], {}, []
    for home in _blocks(len(arrays[0]), feed.k):
        block_empty, found, block_candidates = _cut_block(window, home, feed, side).read(len(empty))
        empty += block_empty
        candidates += block_candidates
        for key, facet in found:
            facets.setdefault(key, facet)
    return empty, facets, candidates
