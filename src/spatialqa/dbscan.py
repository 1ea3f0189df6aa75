"""Density-based clustering used to clean up segmented object point clouds.

Semantics are pinned so that results are a pure function of the point
multiset (order-independent):

  * a point's eps-neighborhood includes the point itself, radius inclusive;
  * core points are those with at least ``min_pts`` neighbors;
  * clusters are connected components of core points under eps-adjacency;
  * a border point joins the cluster of its nearest core neighbor (distance
    ties broken by the core point's lexicographically smallest coordinates);
  * everything else is noise.

The implementation bins points into grid cells of side eps/sqrt(dim), so
every pair inside one cell is within eps, and every pair within eps lies
in two cells whose offset is one of a fixed set.  Cells are kept
CSR-style (points sorted by cell), and each pass below is a loop over
the offsets, nearest first, that handles all cells at once in numpy.
The (point, member of the offset cell) pairs of an offset are expanded
in batches of at most ``_BATCH_PAIRS``, so memory stays flat however
dense the cloud is:

  1. cores: a point counts its own cell in full, then visits further
     offsets only while it is still below ``min_pts``;
  2. connectivity: for each offset d > 0, the core cell pairs (c, c + d)
     not yet in one component are tested for a core pair within eps, and
     those that pass are merged by hook-and-compress on a parent array
     over cells;
  3. numbering: clusters are numbered in the order of their
     lexicographically smallest core point;
  4. borders: each non-core point keeps a running best core neighbor,
     ordered by (squared distance, coordinates).

Every deciding distance is |p|^2 + |q|^2 - 2 p.q, clamped at 0 and
compared with eps^2.  Tests verify the labels against an O(n^2)
brute-force reference.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import EmptyObjectError, ObjectPointCloud

NOISE = -1

_BATCH_PAIRS = 1 << 16  # point pairs expanded at once; bounds peak memory


class _CellGrid:
    """Points bucketed into cubic cells whose diagonal is at most eps.

    ``order`` sorts the points by cell; in that sorted order the members
    of cell c are the positions ``start[c]:start[c + 1]``.  Cells are
    numbered by packed key.
    """

    def __init__(self, pts: np.ndarray, eps: float):
        dim = pts.shape[1]
        # cells fully inside the radius: shrink to avoid diagonal overflow
        cell = eps / math.sqrt(dim) * (1.0 - 1e-12)
        reach = math.ceil(eps / cell)
        index = np.floor(pts / cell)
        low = index.min(axis=0)
        # mixed-radix keys with a margin of `reach` cells on every axis, so
        # that key + offset never carries into another axis
        widths = index.max(axis=0) - low + 2 * reach + 1
        if not np.isfinite(widths).all() \
                or math.prod(int(w) for w in widths) >= 1 << 62:
            raise ValueError("point spread too large for the cell grid")
        strides = np.ones(dim, dtype=np.int64)
        for axis in range(dim - 2, -1, -1):
            strides[axis] = strides[axis + 1] * int(widths[axis + 1])
        packed = (index - low + reach).astype(np.int64) @ strides
        cell_keys, inverse = np.unique(packed, return_inverse=True)
        self.order = np.argsort(inverse, kind="stable")
        self.counts = np.bincount(inverse)
        self.start = np.concatenate(([0], np.cumsum(self.counts)))
        self.cell_of = inverse[self.order]

        axes = [np.arange(-reach, reach + 1)] * dim
        offsets = np.stack(np.meshgrid(*axes, indexing="ij"),
                           axis=-1).reshape(-1, dim)
        # drop offsets whose nearest corner already exceeds eps
        gap2 = ((np.maximum(np.abs(offsets) - 1, 0) * cell) ** 2).sum(axis=1)
        keep = gap2 <= eps * eps
        offsets, gap2 = offsets[keep], gap2[keep]
        nearest_first = np.lexsort(((offsets ** 2).sum(axis=1), gap2))
        # (delta, cell at c + delta or -1 for every cell c), nearest offset
        # first, so the zero offset leads; offsets that link no two
        # occupied cells are left out
        self.neighbors = []
        last = len(cell_keys) - 1
        for delta in (offsets[nearest_first] @ strides).tolist():
            target = cell_keys + delta
            pos = np.minimum(np.searchsorted(cell_keys, target), last)
            found = cell_keys[pos] == target
            if found.any():  # int32 halves the table
                self.neighbors.append(
                    (delta, np.where(found, pos, -1).astype(np.int32)))


def _batches(lengths: np.ndarray):
    """Yield ``(i, j)`` index arrays covering every ``j < lengths[i]``, in
    batches of at most ``_BATCH_PAIRS`` pairs."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _BATCH_PAIRS):
        hi = min(lo + _BATCH_PAIRS, total)
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        i = np.arange(first, last + 1)
        i = np.repeat(i, np.minimum(ends[i], hi)
                      - np.maximum(ends[i] - lengths[i], lo))
        yield i, np.arange(lo, hi) - (ends[i] - lengths[i])


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


def _keep_best(best: np.ndarray, best_d2: np.ndarray, tie: np.ndarray,
               found: list) -> None:
    """Fold ``(point, core, d2)`` candidates into each point's best core.

    Cores are ordered by (d2, tie); ``found`` is emptied.
    """
    p, q, d2 = (np.concatenate(x) for x in zip(*found))
    found.clear()
    held = np.unique(p)
    held = held[best[held] >= 0]
    p = np.concatenate([p, held])
    q = np.concatenate([q, best[held]])
    d2 = np.concatenate([d2, best_d2[held]])
    rank = np.lexsort((tie[q], d2, p))
    first = rank[np.diff(p[rank], prepend=-1) != 0]
    best[p[first]] = q[first]
    best_d2[p[first]] = d2[first]


def dbscan_labels(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """Cluster labels per point; -1 marks noise.

    Label numbering follows each cluster's lexicographically smallest
    core point so the labeling itself is order-independent.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if min_pts < 1:
        raise ValueError(f"min_pts must be >= 1, got {min_pts}")
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    if n == 0:
        return np.empty(0, dtype=int)

    grid = _CellGrid(pts, eps)
    # from here on points are numbered in cell order
    pts = pts[grid.order]
    cell_of, start = grid.cell_of, grid.start
    eps2 = eps * eps
    sq_norm = (pts ** 2).sum(axis=1)
    axes = [np.ascontiguousarray(x) for x in pts.T]

    def dist2(p: np.ndarray, q: np.ndarray) -> np.ndarray:
        dot = axes[0][p] * axes[0][q]
        for x in axes[1:]:
            dot += x[p] * x[q]
        d2 = sq_norm[p] + sq_norm[q] - 2.0 * dot
        return np.maximum(d2, 0.0, out=d2)

    # pass 1: neighbor counts -> core points; a cell is an eps-clique, and
    # a point stops counting once it reaches min_pts
    counts = grid.counts[cell_of]
    short = np.nonzero(counts < min_pts)[0]
    for _, shifted in grid.neighbors[1:]:
        if not len(short):
            break
        cells = shifted[cell_of[short]]
        p, cells = short[cells >= 0], cells[cells >= 0]
        for i, j in _batches(grid.counts[cells]):
            hit = dist2(p[i], start[cells[i]] + j) <= eps2
            counts[p] += np.bincount(i[hit], minlength=len(p))
        short = short[counts[short] < min_pts]
    core = counts >= min_pts

    # the cores of cell c are core_pos[core_start[c]:core_start[c + 1]]
    core_pos = np.nonzero(core)[0]
    core_counts = np.bincount(cell_of[core], minlength=len(grid.counts))
    core_start = np.concatenate(([0], np.cumsum(core_counts)))

    def with_cores(cells: np.ndarray, shifted: np.ndarray):
        """``(k, shifted[cells[k]])`` where that cell holds cores."""
        nb = shifted[cells]
        k = np.nonzero(nb >= 0)[0]
        k = k[core_counts[nb[k]] > 0]
        return k, nb[k]

    # pass 2: connectivity over cells; each positive offset links the core
    # cell pairs (a, a + delta) that hold a core pair within eps
    parent = np.arange(len(grid.counts))
    core_cells = np.nonzero(core_counts)[0]
    for delta, shifted in grid.neighbors:
        if delta <= 0:
            continue
        k, b = with_cores(core_cells, shifted)
        a = core_cells[k]
        apart = parent[a] != parent[b]
        a, b = a[apart], b[apart]
        # most cell pairs are linked by their first cores already
        near = dist2(core_pos[core_start[a]], core_pos[core_start[b]]) <= eps2
        _merge(parent, a[near], b[near])
        apart = parent[a] != parent[b]
        a, b = a[apart], b[apart]
        linked = np.zeros(len(a), dtype=bool)
        for pair, ja in _batches(core_counts[a]):
            p = core_pos[core_start[a[pair]] + ja]
            for i, j in _batches(core_counts[b[pair]]):
                q = core_pos[core_start[b[pair[i]]] + j]
                linked[pair[i[dist2(p[i], q) <= eps2]]] = True
        _merge(parent, a[linked], b[linked])

    # numbering by each component's lexicographically smallest core point
    lex = np.lexsort(pts[core_pos].T[::-1])
    component = parent[cell_of[core_pos]]
    roots, first = np.unique(component[lex], return_index=True)
    cluster = np.empty(len(grid.counts), dtype=int)
    cluster[roots[np.argsort(first)]] = np.arange(len(roots))
    labels = np.full(n, NOISE, dtype=int)
    labels[core_pos] = cluster[component]

    # pass 3: border points join their nearest core neighbor, ordered by
    # (squared distance, coordinates); `tie` ranks cores by coordinates
    tie = np.empty(n, dtype=int)
    tie[core_pos[lex]] = np.arange(len(lex))
    outside = np.nonzero(~core)[0]
    best = np.full(n, -1)
    best_d2 = np.full(n, np.inf)
    found, n_found = [], 0
    for _, shifted in grid.neighbors:
        k, cells = with_cores(cell_of[outside], shifted)
        p = outside[k]
        for i, j in _batches(core_counts[cells]):
            q = core_pos[core_start[cells[i]] + j]
            d2 = dist2(p[i], q)
            near = d2 <= eps2
            found.append((p[i][near], q[near], d2[near]))
            n_found += int(near.sum())
            if n_found >= _BATCH_PAIRS:
                _keep_best(best, best_d2, tie, found)
                n_found = 0
    if found:
        _keep_best(best, best_d2, tie, found)
    border = outside[best[outside] >= 0]
    labels[border] = labels[best[border]]
    out = np.empty(n, dtype=int)
    out[grid.order] = labels
    return out


def dbscan_largest_cluster(pc: ObjectPointCloud, eps: float,
                           min_pts: int) -> ObjectPointCloud:
    """Return the cluster with the most points; noise never survives.

    Size ties go to the cluster with the lexicographically smallest core
    point so the selection is independent of point order.
    """
    labels = dbscan_labels(pc.points, eps, min_pts)
    valid = labels >= 0
    if not valid.any():
        raise EmptyObjectError(
            f"object {pc.object_id!r}: all {len(pc)} points classified noise"
        )
    counts = np.bincount(labels[valid])
    best = int(np.argmax(counts))  # argmax takes the lowest id on ties,
    # and ids are ordered by smallest core point
    keep = labels == best
    return ObjectPointCloud(object_id=pc.object_id, points=pc.points[keep],
                            source_pixels=pc.source_pixels)


def default_eps(points: np.ndarray, fraction: float = 0.05) -> float:
    """Scale-free default: a fraction of the cloud's bounding diagonal."""
    pts = np.asarray(points, dtype=float)
    diag = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return max(fraction * diag, 1e-6)


def default_min_pts(n_points: int, fraction: float = 0.005,
                    cap: int = 40) -> int:
    """max(5, 0.5% of points), capped.

    The cap matters for dense clouds: the count-proportional term would
    otherwise outgrow the eps-ball occupancy of obliquely viewed surfaces
    and misclassify whole faces as noise.
    """
    return max(5, min(cap, int(round(fraction * n_points))))
