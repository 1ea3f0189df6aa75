"""Density-based clustering used to clean up segmented object point clouds.

Points are 3-D, an (n, 3) array.  Semantics are pinned so that results
are a pure function of the point multiset (order-independent):

  * a point's eps-neighborhood includes the point itself, radius inclusive;
    q is within eps of p when, in float64,
    ``max(|p|^2 + |q|^2 - 2 p.q, 0) <= eps * eps``, so a pair at exactly
    eps is decided by that rounding (at eps = 0.5 sqrt(3), ``eps * eps``
    is 0.7499999999999999, so two points at squared distance 0.75 are
    not neighbors);
  * core points are those with at least ``min_pts`` neighbors;
  * clusters are connected components of core points under eps-adjacency;
  * a border point joins the cluster of its nearest core neighbor (distance
    ties broken by the core point's lexicographically smallest coordinates);
  * everything else is noise.

The implementation bins points into grid cells of side eps/sqrt(3), so
every pair inside one cell is within eps, and every pair within eps lies
in two cells whose offset is one of a fixed set, visited nearest offset
first.  Cells are kept CSR-style (points sorted by cell, keys computed
one coordinate column at a time), and one dense index over the keys of
the whole grid, of at most ``MAX_CELLS`` cells, gives the neighbor of a
cell at an offset: the pipeline's grids hold at most 26^3 (``_CellGrid``
says why).  Each pass below handles all cells at once in numpy,
looking neighbors up in tiles of at most ``_BATCH_PAIRS`` keys and
expanding the (point, member of the neighbor cell) pairs in batches of
at most ``_BATCH_PAIRS``, so memory stays flat however dense or noisy
the cloud is:

  1. cores: each cell is split into 2^3 half-cells.  A point is a
     core with no distance test when the half-cells wholly within eps of
     its own (every point of one within eps of every point of the other)
     hold at least ``min_pts`` points: the 3^3 block around it and the 6
     half-cells two halves away along one axis.  The counts come from
     per-cell half-cell counts and one 0/1 matrix per unit offset.
     Every other point counts its own cell in full, then visits further
     offsets only while it is still below ``min_pts``: in steps of 1,
     2, 4, ... offsets, fewer where (points left) x (offsets taken)
     would exceed ``_BATCH_PAIRS``, and once (points left) x (offsets
     left) is at most ``_BATCH_PAIRS``, all remaining offsets in one
     sweep;
  2. connectivity: over the offsets d > 0, the core cell pairs (c, c + d)
     not yet in one component are tested for a core pair within eps
     (first cores, then all), and those that pass are merged by
     hook-and-compress on a parent array over cells.  The unit offsets
     go in a first round and the farther ones in a second, by when most
     of their pairs are already in one component and need no test;
  3. numbering: clusters are numbered in the order of their
     lexicographically smallest core point, looked for only among the
     cores at the smallest x of their component;
  4. borders: over all offsets at once, each non-core point keeps a
     running best core neighbor, ordered by (squared distance,
     coordinates), into which each batch of pairs is folded.

Every deciding distance is the squared one above; cells and half-cells
are shrunk so that the pairs they decide without a test are well inside
it.  Tests verify the labels against an O(n^2) brute-force reference.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .geometry import EmptyObjectError

NOISE = -1

_BATCH_PAIRS = 1 << 15  # pairs or lookups at once; bounds peak memory

MAX_CELLS = 1 << 21  # the grid's key index holds an int32 per cell: 8 MiB


# The cell offsets that can link two points within eps, nearest first:
# [-2, 2]^3 ordered by the squared gap between the nearest corners of the
# two cells, in cell sides (at most 3, one cell diagonal squared, so none
# is dropped), then by squared length; the 27 unit offsets lead.
_OFFSETS = np.indices((5, 5, 5)).reshape(3, -1).T - 2
_OFFSETS = _OFFSETS[np.lexsort(((_OFFSETS ** 2).sum(axis=1),
                                (np.maximum(np.abs(_OFFSETS) - 1, 0) ** 2)
                                .sum(axis=1)))]

# The half-cell matrix of each unit offset u: a 1 at (h, h') when every
# point of half-cell h' of cell c + u is within eps of every point of
# half-cell h of cell c.  Half-cells lie on a grid of half sides; on each
# axis half h' of the cell u over is |2u + h' - h| halves from half h, and
# the farthest points of the two are that plus one half apart.  A half
# side squared is eps^2 / 12 shrunk, so 12 half sides squared certify:
# 33 half-cells per half, the 3^3 block and 6 two halves away on one axis.
# Row h of _BITS is the place of half h in its cell, as _CellGrid numbers it.
_BITS = np.indices((2, 2, 2)).reshape(3, -1).T
_HALVES = [(((np.abs(2 * u + _BITS - _BITS[:, None]) + 1) ** 2)
            .sum(axis=2) <= 12).astype(float) for u in _OFFSETS[:27]]


class _CellGrid:
    """Points bucketed into cubic cells whose diagonal is at most eps.

    ``order`` sorts the points by cell; in that sorted order the members
    of cell c are the positions ``start[c]:start[c + 1]`` and ``half``
    numbers each point's half-cell within its cell.  Cells are numbered
    by packed key: ``keys[c]`` is the key of cell c, and ``index`` maps
    every key of the margin-padded grid to its cell, or to -1 where the
    cell is empty, so the neighbor of cell c at offset k, nearest offset
    first, is ``index[keys[c] + deltas[k]]``.  ``axes`` holds the
    coordinates in that order, one contiguous array per axis.

    The index spans the whole padded grid, so more than ``MAX_CELLS``
    cells raise ValueError.  At ``default_eps`` an axis of extent e
    under a bounding diagonal d spans at most floor(20 sqrt(3) e / d) + 1
    cells plus 2 on each side of margin, and the product is largest at
    equal extents: 26^3 = 17,576 cells.
    """

    def __init__(self, pts: np.ndarray, eps: float):
        # Cells are shrunk by a relative 1e-9.  Two points of one cell, or
        # of two half-cells whose farthest corners are at most 12 half
        # sides squared apart (one cell diagonal, squared, as for the 3^3
        # block), are then less than eps (1 - 1e-9) apart: their squared
        # distance is at least ~2e-9 eps^2 below eps^2, ~1e-11 m^2 at the
        # pipeline's eps^2 ~ 6e-3 m^2.  The |p|^2 + |q|^2 - 2 p.q test errs
        # by a few ulps of |p|^2, ~1e-14 m^2 at |p|^2 ~ 20 m^2, so it would
        # accept every such pair, and none of them needs testing.
        cell = eps / math.sqrt(3) * (1.0 - 1e-9)
        # one contiguous column per axis: every step below runs on
        # unit-stride arrays
        cols = np.ascontiguousarray(pts.T)
        scaled = [x / cell for x in cols]
        floors = [np.floor(x) for x in scaled]
        low = [f.min() for f in floors]
        # mixed-radix keys with a margin of 2 cells, the largest offset,
        # on every axis, so that key + offset never carries into another
        widths = [float(f.max() - lo) + 5 for f, lo in zip(floors, low)]
        n_cells = math.prod(widths)  # inf or nan where x / cell overflows
        if not n_cells <= MAX_CELLS:
            raise ValueError("point spread too large for the cell grid")
        strides = (int(widths[1]) * int(widths[2]), int(widths[2]), 1)
        packed = np.zeros(len(pts), dtype=np.int64)
        half = np.zeros(len(pts), dtype=np.int64)
        for axis in range(3):
            packed += (floors[axis] - low[axis] + 2).astype(np.int64) \
                * strides[axis]
            # x / (cell / 2) is exactly 2 (x / cell) in binary floating
            # point, so this is floor(x / (cell / 2)) - 2 floor(x / cell),
            # in {0, 1}
            half_index = np.floor(2.0 * scaled[axis]) - 2.0 * floors[axis]
            half += half_index.astype(np.int64) << (2 - axis)
        self.order = np.argsort(packed, kind="stable")
        packed = packed[self.order]
        first = np.concatenate(([True], packed[1:] != packed[:-1]))
        self.keys = packed[first]
        self.start = np.append(np.flatnonzero(first), len(packed))
        self.counts = np.diff(self.start)
        self.cell_of = np.cumsum(first) - 1
        self.half = half[self.order]
        self.axes = [x[self.order] for x in cols]
        self.deltas = _OFFSETS @ strides
        self.index = np.full(int(n_cells), -1, dtype=np.int32)
        self.index[self.keys] = np.arange(len(self.keys), dtype=np.int32)


def _certified(grid: _CellGrid, min_pts: int) -> np.ndarray:
    """Points, in cell order, whose half-cells wholly within eps hold at
    least ``min_pts`` points; each of those points is within eps of
    every point of the half-cell, so its points are cores.
    """
    # one trailing row of zeros, which the -1 entries of the index pick
    inside = np.bincount(grid.cell_of * 8 + grid.half,
                         minlength=(len(grid.counts) + 1) * 8)
    inside = inside.reshape(-1, 8).astype(float)
    near = np.zeros_like(inside[:-1])
    for delta, matrix in zip(grid.deltas, _HALVES):
        near += inside[grid.index[grid.keys + delta]] @ matrix.T
    return near[grid.cell_of, grid.half] >= min_pts


def _batches(starts: np.ndarray, lengths: np.ndarray):
    """Yield ``(i, at)`` index arrays covering every position ``at`` in
    ``starts[i]:starts[i] + lengths[i]``, in batches of at most
    ``_BATCH_PAIRS`` pairs."""
    ends = np.cumsum(lengths)
    shift = starts - ends + lengths  # at = running pair number + shift[i]
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _BATCH_PAIRS):
        hi = min(lo + _BATCH_PAIRS, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        i = np.arange(first, last + 1)
        i = np.repeat(i, np.minimum(ends[i], hi)
                      - np.maximum(ends[i] - lengths[i], lo))
        at = np.arange(lo, hi)
        at += shift[i]
        yield i, at


def _gather(grid: _CellGrid, offsets: np.ndarray, cells: np.ndarray):
    """Yield ``(k, nb)`` for every occupied neighbor ``nb`` of cell
    ``cells[k]`` at the offsets numbered ``offsets``, looked up in tiles
    of at most ``_BATCH_PAIRS`` keys."""
    height = max(1, min(len(offsets), _BATCH_PAIRS))
    width = max(1, _BATCH_PAIRS // height)
    keys = grid.keys[cells]
    for top in range(0, len(offsets), height):
        deltas = grid.deltas[offsets[top:top + height], None]
        for lo in range(0, len(cells), width):
            nb = grid.index[keys[lo:lo + width] + deltas]
            k = np.flatnonzero(nb >= 0)
            nb = nb.ravel()[k]
            k %= min(width, len(cells) - lo)  # the tile's width
            k += lo
            yield k, nb


def _merge(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the components of cells ``a[k]`` and ``b[k]``, in place.

    ``parent`` maps every cell to its component's smallest cell on entry
    and on return.
    """
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent[:] = up


def _cores(grid: _CellGrid, min_pts: int, dist2, eps2: float) -> np.ndarray:
    """Pass 1: the core points, in cell order.

    A cell is an eps-clique, so every point starts from its own cell's
    count; certified points need no more.  The others visit further
    offsets, nearest first, and stop once they reach ``min_pts``.  Most
    stop within the nearest offsets, so steps start at one offset and
    double, as far as the short points fit into one tile; the few still
    short once the whole remaining tail fits into one tile take it in
    one sweep instead of one numpy round per offset.
    """
    certified = _certified(grid, min_pts)
    counts = grid.counts[grid.cell_of]
    short = np.nonzero((counts < min_pts) & ~certified)[0]
    n_offsets = len(grid.deltas)
    r = 1  # offset 0 is the zero offset: each point's own cell
    while len(short) and r < n_offsets:
        step = n_offsets - r
        if len(short) * step > _BATCH_PAIRS:
            step = min(r, max(1, _BATCH_PAIRS // len(short)))
        for k, cells in _gather(grid, np.arange(r, r + step),
                                grid.cell_of[short]):
            for i, at in _batches(grid.start[cells], grid.counts[cells]):
                hit = dist2(short[k[i]], at) <= eps2
                counts[short] += np.bincount(k[i[hit]],
                                             minlength=len(short))
        short = short[counts[short] < min_pts]
        r += step
    return certified | (counts >= min_pts)


def dbscan_labels(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster labels of (n, 3) ``points``; -1 marks noise.

    Label numbering follows each cluster's lexicographically smallest
    core point so the labeling itself is order-independent.  An eps that
    is not positive or whose square, which decides every distance, is not
    a normal float raises ValueError before the grid divides by it.
    """
    if not (eps > 0 and eps * eps >= np.finfo(float).smallest_normal):
        raise ValueError("eps must be positive with a normal float square, "
                         f"got {eps!r}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("points must be a 2-D array of shape (n, 3), "
                         f"got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite, got a NaN or infinite "
                         "coordinate")
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)

    grid = _CellGrid(pts, eps)
    # from here on points are numbered in cell order
    cell_of = grid.cell_of
    eps2 = eps * eps
    axes = grid.axes
    x, y, z = axes
    sq_norm = x * x + y * y + z * z

    def dist2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        dot = axes[0][p] * axes[0][q]
        for x in axes[1:]:
            dot += x[p] * x[q]
        d2 = sq_norm[p] + sq_norm[q] - 2.0 * dot
        return np.maximum(d2, 0.0, out=d2)

    core = _cores(grid, min_pts, dist2, eps2)

    # the cores of cell c are core_pos[core_start[c]:core_start[c + 1]]
    core_pos = np.nonzero(core)[0]
    core_counts = np.bincount(cell_of[core], minlength=len(grid.counts))
    core_start = np.concatenate(([0], np.cumsum(core_counts)))

    # pass 2: connectivity over cells; the forward offsets link the core
    # cell pairs (a, a + delta) that hold a core pair within eps.  The unit
    # offsets go first: once they have merged most cells, nearly every
    # pair of the farther offsets is already in one component and skipped
    parent = np.arange(len(grid.counts))
    core_cells = np.nonzero(core_counts)[0]
    forward = np.nonzero(grid.deltas > 0)[0]
    unit = forward < len(_HALVES)
    for k, b in itertools.chain(_gather(grid, forward[unit], core_cells),
                                _gather(grid, forward[~unit], core_cells)):
        a = core_cells[k]
        keep = (core_counts[b] > 0) & (parent[a] != parent[b])
        a, b = a[keep], b[keep]
        # most cell pairs are linked by their first cores already
        near = dist2(core_pos[core_start[a]], core_pos[core_start[b]]) <= eps2
        _merge(parent, a[near], b[near])
        apart = parent[a] != parent[b]
        a, b = a[apart], b[apart]
        linked = np.zeros(len(a), dtype=bool)
        for pair, at_a in _batches(core_start[a], core_counts[a]):
            p = core_pos[at_a]
            for i, at_b in _batches(core_start[b[pair]],
                                    core_counts[b[pair]]):
                q = core_pos[at_b]
                linked[pair[i[dist2(p[i], q) <= eps2]]] = True
        _merge(parent, a[linked], b[linked])

    # numbering by each component's lexicographically smallest core
    # point, which is among its cores of smallest x
    component = parent[cell_of[core_pos]]
    core_x = axes[0][core_pos]
    low_x = np.full(len(grid.counts), np.inf)
    np.minimum.at(low_x, component, core_x)
    low = np.nonzero(core_x == low_x[component])[0]
    lex = low[np.lexsort([x[core_pos[low]] for x in axes[::-1]])]
    roots, first = np.unique(component[lex], return_index=True)
    cluster = np.empty(len(grid.counts), dtype=int)
    cluster[roots[np.argsort(first)]] = np.arange(len(roots))
    labels = np.full(n, NOISE, dtype=int)
    labels[core_pos] = cluster[component]

    # pass 3: border points join their nearest core neighbor, ordered by
    # (squared distance, coordinates); here points outside the cores are
    # named by their index in `outside`.  Each batch folds its cores
    # within eps, with the best core each of its points holds, into `best`
    outside = np.nonzero(~core)[0]
    best = np.full(len(outside), -1)
    best_d2 = np.full(len(outside), np.inf)
    for k, cells in _gather(grid, np.arange(len(grid.deltas)),
                            cell_of[outside]):
        has = core_counts[cells] > 0
        k, cells = k[has], cells[has]
        for i, at in _batches(core_start[cells], core_counts[cells]):
            q = core_pos[at]
            d2 = dist2(outside[k[i]], q)
            near = np.flatnonzero(d2 <= eps2)
            if not len(near):
                continue
            # the batch's own points, each named by its place in `own`
            own, p = np.unique(k[i[near]], return_inverse=True)
            p = np.concatenate([p, np.arange(len(own))])
            q = np.concatenate([q[near], best[own]])
            d2 = np.concatenate([d2[near], best_d2[own]])
            low = np.full(len(own), np.inf)
            np.minimum.at(low, p, d2)
            # the smallest coordinates among each point's rows at its
            # minimum: one row per point, in the order of `own`
            tied = np.flatnonzero(d2 == low[p])
            rank = tied[np.lexsort([*(x[q[tied]] for x in axes[::-1]),
                                    p[tied]])]
            first = rank[np.diff(p[rank], prepend=-1) != 0]
            best[own] = q[first]
            best_d2[own] = d2[first]
    border = best >= 0
    labels[outside[border]] = labels[best[border]]
    out = np.empty(n, dtype=int)
    out[grid.order] = labels
    return out


def dbscan_largest_cluster(points: np.ndarray, eps: float,
                           min_pts: int) -> np.ndarray:
    """The (k, 3) points of the largest cluster of (n, 3) ``points``;
    noise never survives.

    Size ties go to the cluster with the lexicographically smallest core
    point so the selection is independent of point order.
    """
    labels = dbscan_labels(points, eps, min_pts)
    valid = labels >= 0
    if not valid.any():
        raise EmptyObjectError(
            f"all {len(points)} points classified noise")
    counts = np.bincount(labels[valid])
    best = int(np.argmax(counts))  # argmax takes the lowest id on ties,
    # and ids are ordered by smallest core point
    return points[labels == best]


# The pipeline's DBSCAN scale: eps as a fraction of the cloud's bounding
# diagonal, min_pts as a fraction of its point count, capped.
EPS_FRACTION = 0.05
MIN_PTS_FRACTION = 0.005
MIN_PTS_CAP = 40


def default_eps(points: np.ndarray) -> float:
    """Scale-free default: ``EPS_FRACTION`` of the bounding diagonal."""
    # per axis on a contiguous copy: unit-stride reductions
    cols = np.ascontiguousarray(np.asarray(points, dtype=float).T)
    diag = float(np.linalg.norm([x.max() - x.min() for x in cols]))
    return max(EPS_FRACTION * diag, 1e-6)


def default_min_pts(n_points: int) -> int:
    """max(5, 0.5% of points), capped at ``MIN_PTS_CAP``.

    The cap matters for dense clouds: the count-proportional term would
    otherwise outgrow the eps-ball occupancy of obliquely viewed surfaces
    and misclassify whole faces as noise.
    """
    return max(5, min(MIN_PTS_CAP, int(round(MIN_PTS_FRACTION * n_points))))
