"""Density clustering against an independent brute-force reference."""

import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import spatialqa.dbscan
from spatialqa.dbscan import (
    dbscan_labels,
    dbscan_largest_cluster,
    default_eps,
    default_min_pts,
)
from spatialqa.geometry import EmptyObjectError, extract_object_points
from spatialqa.oracle.render import render_scene
from spatialqa.oracle.scene import ESTIMATION_SAMPLER, sample_scene


def brute_force_dbscan(points: np.ndarray, eps: float, min_pts: int) -> np.ndarray:
    """O(n^2) reference: full distance matrix region queries + BFS.

    Pinned semantics match the implementation contract: neighborhoods are
    radius-inclusive and include the point itself; border points join the
    cluster of their nearest core neighbor.
    """
    n = len(points)
    d = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    neighbors = d <= eps
    core = neighbors.sum(axis=1) >= min_pts

    labels = np.full(n, -1, dtype=int)
    cluster_members = []
    seen = np.zeros(n, dtype=bool)
    for start in range(n):
        if not core[start] or seen[start]:
            continue
        queue = [start]
        seen[start] = True
        members = []
        while queue:
            i = queue.pop()
            members.append(i)
            for j in np.nonzero(neighbors[i] & core)[0]:
                if not seen[j]:
                    seen[j] = True
                    queue.append(int(j))
        cluster_members.append(members)

    def smallest_point(members):
        mp = points[members]
        order = np.lexsort(mp.T[::-1])
        return tuple(mp[order[0]])

    cluster_members.sort(key=smallest_point)
    for cid, members in enumerate(cluster_members):
        for i in members:
            labels[i] = cid

    for i in range(n):
        if core[i] or labels[i] >= 0:
            continue
        cands = [j for j in np.nonzero(neighbors[i])[0] if core[j]]
        if not cands:
            continue
        best = min(cands, key=lambda j: (d[i, j], tuple(points[j])))
        labels[i] = labels[best]
    return labels


def same_clustering(a: np.ndarray, b: np.ndarray) -> bool:
    """Equality up to relabeling: identical partitions and noise sets."""
    if len(a) != len(b):
        return False
    if not np.array_equal(a == -1, b == -1):
        return False
    parts_a = {tuple(np.nonzero(a == c)[0]) for c in set(a[a >= 0])}
    parts_b = {tuple(np.nonzero(b == c)[0]) for c in set(b[b >= 0])}
    return parts_a == parts_b


class TestAgainstBruteForce:
    def test_100_random_point_sets(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(5, 501))
            mode = trial % 3
            if mode == 0:
                pts = rng.uniform(0, 4, size=(n, 3))
            elif mode == 1:  # blobs
                k = int(rng.integers(2, 5))
                centers = rng.uniform(0, 10, size=(k, 3))
                pts = centers[rng.integers(0, k, size=n)] + rng.normal(
                    0, 0.3, size=(n, 3))
            else:  # blobs plus scattered noise
                centers = rng.uniform(0, 8, size=(2, 3))
                pts = np.vstack([
                    centers[rng.integers(0, 2, size=max(n - 10, 1))]
                    + rng.normal(0, 0.2, size=(max(n - 10, 1), 3)),
                    rng.uniform(0, 8, size=(min(10, n - 1) + 1, 3)),
                ])[:n]
            eps = float(rng.uniform(0.2, 1.0))
            min_pts = int(rng.integers(2, 8))
            ours = dbscan_labels(pts, eps, min_pts)
            ref = brute_force_dbscan(pts, eps, min_pts)
            assert same_clustering(ours, ref), f"trial {trial} diverged"


class TestLargestCluster:
    def test_two_blobs_selects_bigger(self):
        rng = np.random.default_rng(0)
        eps = 0.3
        big = rng.normal(0, 0.05, size=(100, 3))
        small = rng.normal(0, 0.05, size=(40, 3)) + 10 * eps
        out = dbscan_largest_cluster(np.vstack([big, small]), eps=eps,
                                     min_pts=3)
        assert out.shape == (100, 3)
        assert np.abs(out).max() < 1.0

    def test_single_blob_survives_whole(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(0, 0.05, size=(80, 3))
        out = dbscan_largest_cluster(pts, eps=0.5, min_pts=3)
        assert out.shape == (80, 3)

    def test_all_noise_raises(self):
        # ten points ~5.2 apart on a line: none has a neighbour at eps 1
        pts = np.arange(30, dtype=float).reshape(10, 3)
        with pytest.raises(EmptyObjectError):
            dbscan_largest_cluster(pts, eps=1.0, min_pts=3)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        a = rng.normal(0, 0.1, size=(60, 3))
        b = rng.normal(0, 0.1, size=(50, 3)) + 4.0
        pts = np.vstack([a, b])
        ref = dbscan_largest_cluster(pts, eps=0.5, min_pts=3)
        ref_sorted = np.array(sorted(map(tuple, ref)))
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(len(pts))
            out = dbscan_largest_cluster(pts[perm], eps=0.5, min_pts=3)
            out_sorted = np.array(sorted(map(tuple, out)))
            np.testing.assert_array_equal(out_sorted, ref_sorted)


class TestDefaults:
    def test_default_eps_scales_with_diagonal(self):
        pts = np.array([[0.0, 0, 0], [3.0, 4.0, 0]])
        assert default_eps(pts) == pytest.approx(0.25)
        assert default_eps(pts * 2) == pytest.approx(0.5)

    def test_default_min_pts(self):
        assert default_min_pts(100) == 5
        assert default_min_pts(4000) == 20
        # capped so dense clouds keep oblique faces as core points
        assert default_min_pts(100000) == 40

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            dbscan_labels(np.zeros((3, 3)), eps=0.0, min_pts=1)
        with pytest.raises(ValueError):
            dbscan_labels(np.zeros((3, 3)), eps=1.0, min_pts=0)

    def test_points_that_are_not_a_2d_array_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            dbscan_labels(np.zeros(5), eps=1.0, min_pts=1)
        with pytest.raises(ValueError, match="2-D"):
            dbscan_labels(np.zeros((2, 2, 3)), eps=1.0, min_pts=1)

    def test_points_that_are_not_3d_rejected(self):
        for n in (0, 10):
            for dim in (0, 1, 2, 4, 8):
                with pytest.raises(ValueError, match=r"\(n, 3\)"):
                    dbscan_labels(np.zeros((n, dim)), eps=1.0, min_pts=3)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [1e-320, 5e-324])
    def test_eps_with_a_subnormal_square_rejected(self, eps):
        # rejected before the grid divides by a cell that small, which
        # would overflow and blame the point spread
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ValueError, match="eps must be .* normal float"):
            dbscan_labels(pts, eps=eps, min_pts=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = np.zeros((4, 3))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            dbscan_labels(pts, eps=1.0, min_pts=1)


class TestExactLabels:
    """Label for label equal to the reference, cluster numbering included."""

    @staticmethod
    def assert_exact(pts, eps, min_pts):
        ours = dbscan_labels(pts, eps, min_pts)
        ref = brute_force_dbscan(pts, eps, min_pts)
        np.testing.assert_array_equal(ours, ref)

    def test_lattice_points_with_exact_ties_and_duplicates(self):
        # multiples of 0.25: every distance is exact, many pairs sit at
        # exactly eps and many points coincide
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(5, 300))
            side = int(rng.integers(3, 12))
            pts = rng.integers(0, side, size=(n, 3)) * 0.25
            eps = float(rng.choice([0.25, 0.5, 0.75]))
            self.assert_exact(pts, eps, int(rng.integers(2, 9)))

    def test_min_pts_one_makes_every_point_core(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(5, 300))
            pts = rng.uniform(0, 4, size=(n, 3))
            self.assert_exact(pts, float(rng.uniform(0.2, 1.0)), 1)

    def test_flat_cloud(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(5, 400))
            pts = np.column_stack([rng.uniform(0, 3, size=(n, 2)),
                                   np.full(n, 1.5)])
            self.assert_exact(pts, float(rng.uniform(0.1, 0.6)),
                              int(rng.integers(2, 10)))

    @pytest.mark.parametrize("batch", [1, 7, None])
    def test_border_point_equidistant_to_two_clusters(self, monkeypatch,
                                                      batch):
        # at 1 and 7 pairs the two equidistant cores reach the border
        # point in different batches, and the best core held from an
        # earlier batch decides the tie; None keeps the default batch
        if batch is not None:
            monkeypatch.setattr(spatialqa.dbscan, "_BATCH_PAIRS", batch)
        eps, min_pts = 1.0, 4
        square = np.array([[0, 0, 0], [0.25, 0, 0], [0, 0.25, 0],
                           [0.25, 0.25, 0]])
        left = square * [-1, 1, 1]              # core (0,0,0) is nearest
        right = square + [2.0, 0, 0]            # core (2,0,0) is nearest
        border = np.array([[1.0, 0, 0]])        # exactly eps from both
        pts = np.vstack([right, border, left])
        labels = dbscan_labels(pts, eps, min_pts)
        np.testing.assert_array_equal(labels, [1, 1, 1, 1, 0, 0, 0, 0, 0])
        self.assert_exact(pts, eps, min_pts)
        # the distance tie goes to the core with the smaller coordinates,
        # (0,1,0) over (1,0,0), although its cluster is numbered second:
        # the other cluster reaches (0,-1.5,0) through a doubled path
        low = square * [1, -1, 1] + [1.0, 0, 0]
        path = np.repeat([[1.25, -0.5, 0], [1.5, -1.0, 0], [1.0, -1.25, 0],
                          [0.5, -1.5, 0], [0.0, -1.5, 0]], 2, axis=0)
        high = square + [0, 1.0, 0]
        pts = np.vstack([low, path, high, [[0.0, 0, 0]]])
        labels = dbscan_labels(pts, eps, min_pts)
        assert labels[0] == 0 and labels[len(low) + len(path)] == 1
        assert labels[-1] == 1
        self.assert_exact(pts, eps, min_pts)

    def test_clusters_sharing_their_smallest_x_numbered_by_y_then_z(self):
        # every cluster but the first has its smallest x at 0, so the
        # numbering falls to y, then z; each cluster doubles the core at
        # its smallest corner, and the (0, 3, 2.5) cluster reaches down to
        # y = -1 at x = 0.25, cores that must not decide its number
        eps, min_pts = 0.6, 4
        block = np.stack(np.meshgrid(*[[0.0, 0.25]] * 3, indexing="ij"),
                         axis=-1).reshape(-1, 3)
        corners = [[-3.0, 9, 9], [0, 0, 0], [0, 0, 5], [0, 3, 2.5],
                   [0, 5, 0], [0, 5, 2.5]]
        clusters = [np.vstack([block + c, [c]]) for c in corners]
        reach = np.stack(np.meshgrid([0.25, 0.5], np.arange(-1, 3, 0.25),
                                     [2.5, 2.75], indexing="ij"),
                         axis=-1).reshape(-1, 3)
        clusters[3] = np.vstack([clusters[3], reach])
        pts = np.vstack(clusters[::-1])
        first = np.cumsum([0] + [len(c) for c in clusters[::-1]])[:-1]
        rng = np.random.default_rng(13)
        for _ in range(5):
            shuffle = rng.permutation(len(pts))
            labels = dbscan_labels(pts[shuffle], eps, min_pts)
            back = np.empty_like(labels)
            back[shuffle] = labels
            np.testing.assert_array_equal(back[first], [5, 4, 3, 2, 1, 0])
            assert (back >= 0).all()
            self.assert_exact(pts[shuffle], eps, min_pts)

    def test_pair_at_exactly_eps_decided_by_rounded_eps_squared(self):
        # 0.75 is exactly the squared distance, but eps * eps rounds to
        # 0.7499999999999999: by the pinned float64 rule the pair is apart
        eps = 0.5 * math.sqrt(3)
        assert eps * eps < 0.75
        for base in (0.0, 1.0):
            pts = np.array([[base] * 3, [base + 0.5] * 3])
            np.testing.assert_array_equal(dbscan_labels(pts, eps, 2),
                                          [-1, -1])
            np.testing.assert_array_equal(
                dbscan_labels(pts, math.nextafter(eps, 1.0), 2), [0, 0])

    @pytest.mark.parametrize("batch", [7, 2 ** 40])
    def test_tiny_batches_give_the_same_labels(self, monkeypatch, batch):
        # 7 splits every gathered table and pair expansion; 2 ** 40 makes
        # every pass sweep all of its offsets in one batch from the start
        rng = np.random.default_rng(9)
        sets = []
        for _ in range(20):
            n = int(rng.integers(50, 400))
            centers = rng.uniform(0, 3, size=(3, 3))
            blobs = centers[rng.integers(0, 3, size=n)] + rng.normal(
                0, 0.3, size=(n, 3))
            lattice = rng.integers(0, 8, size=(n // 2, 3)) * 0.25
            for pts in (blobs, lattice):
                sets.append((pts, float(rng.choice([0.25, 0.5])),
                             int(rng.integers(1, 12))))
        expected = [dbscan_labels(*args) for args in sets]
        monkeypatch.setattr(spatialqa.dbscan, "_BATCH_PAIRS", batch)
        for args, labels in zip(sets, expected):
            np.testing.assert_array_equal(dbscan_labels(*args), labels)


def _blobs_with_a_far_outlier(rng, eps):
    """Three blobs of a few hundred points and one point 10^6 eps away."""
    n = int(rng.integers(50, 400))
    centers = rng.uniform(0, 2, size=(3, 3))
    pts = centers[rng.integers(0, 3, size=n)] + rng.normal(
        0, 0.2, size=(n, 3))
    return np.vstack([pts, [[2 + 1e6 * eps, 1.0, 1.0]]])


def _pipeline_clouds():
    """Clouds of every shape the pipeline can be handed: blobs, cubes,
    far outliers, lines, flat sheets, points that coincide."""
    rng = np.random.default_rng(15)
    for _ in range(40):
        n = int(rng.integers(20, 400))
        yield rng.normal(0, 1, size=(n, 3)) * rng.uniform(1e-7, 10, size=3)
        yield rng.uniform(-1, 1, size=(n, 3)) * rng.uniform(1e-3, 10)
        far = rng.normal(0, 0.1, size=(n, 3))
        far[0] = rng.normal(0, 1, size=3) * 10.0 ** rng.uniform(0, 12)
        yield far
        line = np.outer(rng.uniform(0, 5, size=n), rng.normal(size=3))
        yield line + rng.normal(0, 1e-6, size=(n, 3))
        sheet = rng.uniform(0, 3, size=(n, 3))
        sheet[:, rng.integers(0, 3)] = 1.5
        yield sheet
    yield np.zeros((5, 3))
    yield np.full((3, 3), 1e9)


class TestGridPaths:
    """Neighbour cells come from one dense key index over the
    margin-padded grid, whose cell count is bounded; pass 2 links the
    unit offsets first, then the farther ones."""

    def test_far_outlier_at_small_eps_raises(self):
        # one point 10^6 eps away spreads the grid over ~10^9 cells
        rng = np.random.default_rng(14)
        for trial in range(10):
            eps = float(rng.uniform(0.1, 0.4))
            far = _blobs_with_a_far_outlier(rng, eps)
            with pytest.raises(ValueError, match="too large"):
                dbscan_labels(far, eps, int(rng.integers(2, 12)))

    def test_far_outlier_at_default_eps_is_noise(self):
        rng = np.random.default_rng(14)
        for trial in range(10):
            far = _blobs_with_a_far_outlier(rng, float(rng.uniform(0.1, 0.4)))
            eps, min_pts = default_eps(far), int(rng.integers(2, 12))
            labels = dbscan_labels(far, eps, min_pts)
            assert labels[-1] == -1
            np.testing.assert_array_equal(labels[:-1], 0)
            TestExactLabels.assert_exact(far, eps, min_pts)

    def test_default_eps_keeps_the_grid_within_26_cubed_cells(self):
        # eps is 5 % of the bounding diagonal, so an axis spans at most
        # 20 sqrt(3) of its share of the diagonal in cells; with 2 cells
        # of margin a side, equal extents give the most: 26^3
        largest = 0
        for pts in _pipeline_clouds():
            grid = spatialqa.dbscan._CellGrid(pts, default_eps(pts))
            largest = max(largest, len(grid.index))
        assert largest <= 26 ** 3 <= spatialqa.dbscan.MAX_CELLS
        assert largest >= 25 ** 3  # the cubes come near the bound

    @pytest.mark.parametrize("min_pts", [2, 3])
    def test_chain_linked_across_two_cells(self, min_pts):
        # cells are eps / sqrt(3) wide, so points 0.9 eps apart on a line
        # sit ~1.56 cells apart: many consecutive cores are two cells
        # apart, a pair only pass 2's second round of offsets links
        eps = 0.3
        x = 0.05 + 0.9 * eps * np.arange(40)
        cells = np.floor(x / (eps / math.sqrt(3)))
        assert (np.diff(cells) == 2).sum() > 10
        for axis in range(3):
            pts = np.zeros((len(x), 3))
            pts[:, axis] = x
            labels = dbscan_labels(pts, eps, min_pts)
            np.testing.assert_array_equal(labels, 0)
            TestExactLabels.assert_exact(pts, eps, min_pts)


def _face_lattices():
    """Lattice sets of multiples of 0.25 whose cell and half-cell faces
    fall on lattice points: eps is the diagonal of a 0.5-wide cell after
    the grid's relative shrink, nudged by a few ulps either way so that
    some of the divisions by the cell land exactly on a face.  No pair
    sits at exactly eps (squared distances are multiples of 1/16)."""
    rng = np.random.default_rng(10)
    face_eps = 0.5 * math.sqrt(3) / (1.0 - 1e-9)
    for ulps in range(-3, 4):
        eps = face_eps * (1.0 + ulps * 2.0 ** -52)
        for _ in range(8):
            n = int(rng.integers(20, 300))
            side = int(rng.integers(3, 9))
            pts = rng.integers(-side, side, size=(n, 3)) * 0.25
            yield pts, eps, int(rng.integers(2, 14))


def _pairs_at_eps():
    """Blobs plus partners at eps * (1 +- 1e-12) from blob points, along
    the axes and the diagonal, so the pairs straddle cell and half-cell
    faces on every axis."""
    rng = np.random.default_rng(11)
    directions = np.vstack([np.eye(3), np.ones((1, 3)) / math.sqrt(3)])
    for _ in range(40):
        eps = float(rng.uniform(0.2, 0.6))
        n = int(rng.integers(20, 150))
        base = rng.normal(0, eps, size=(n, 3))
        step = directions[rng.integers(0, 4, size=n)] * eps \
            * (1.0 + rng.choice([-1e-12, 1e-12], size=(n, 1)))
        yield np.vstack([base, base + step]), eps, int(rng.integers(2, 12))


class TestHalfCellCertificate:
    """Cores decided from half-cell block counts, with no distance test."""

    def test_face_lattices_exact(self):
        for args in _face_lattices():
            TestExactLabels.assert_exact(*args)

    def test_pairs_at_eps_across_half_cells_exact(self):
        for args in _pairs_at_eps():
            TestExactLabels.assert_exact(*args)

    def test_half_cell_two_halves_over_along_x_certifies(self):
        # cell side ~0.577 at eps 1, halves ~0.289: the point at x = 0.1
        # is alone in its half-cell and its whole cell, and its partners
        # sit in the half-cell two halves over along x, wholly within eps
        eps, min_pts = 1.0, 5
        partners = np.column_stack([[0.6, 0.65, 0.7, 0.75],
                                    [0.05, 0.15, 0.2, 0.25],
                                    [0.25, 0.2, 0.05, 0.1]])
        pts = np.vstack([[0.1, 0.1, 0.1], partners])
        grid = spatialqa.dbscan._CellGrid(pts, eps)
        at = int(np.nonzero(grid.order == 0)[0][0])
        assert grid.counts[grid.cell_of[at]] == 1
        assert spatialqa.dbscan._certified(grid, min_pts)[at]
        TestExactLabels.assert_exact(pts, eps, min_pts)
        np.testing.assert_array_equal(dbscan_labels(pts, eps, min_pts),
                                      [0] * 5)

    def test_certified_points_are_cores(self):
        rng = np.random.default_rng(12)
        blobs = []
        for _ in range(50):
            n = int(rng.integers(50, 400))
            centers = rng.uniform(0, 2, size=(3, 3))
            pts = centers[rng.integers(0, 3, size=n)] + rng.normal(
                0, 0.2, size=(n, 3))
            blobs.append((pts, float(rng.uniform(0.1, 0.5)),
                          int(rng.integers(2, 30))))
        certified_total = 0
        for pts, eps, min_pts in [*_face_lattices(), *_pairs_at_eps(),
                                  *blobs]:
            grid = spatialqa.dbscan._CellGrid(pts, eps)
            certified = spatialqa.dbscan._certified(grid, min_pts)
            sorted_pts = pts[grid.order]
            d = np.linalg.norm(sorted_pts[certified][:, None, :]
                               - sorted_pts[None, :, :], axis=2)
            assert ((d <= eps).sum(axis=1) >= min_pts).all()
            certified_total += int(certified.sum())
        assert certified_total > 10_000  # the certificate is exercised


class TestGridConstants:
    """What the offset table and the half-cell matrices must hold.  The
    labels would come out right in any visiting order, and a certificate
    that missed half-cells would only cost time, so the label tests
    cannot see either go wrong."""

    @staticmethod
    def _gap(offset) -> int:
        return sum(max(abs(o) - 1, 0) ** 2 for o in offset)

    def test_offsets_are_the_5_cubed_block_nearest_first(self):
        offsets = [tuple(int(o) for o in row)
                   for row in spatialqa.dbscan._OFFSETS]
        assert sorted(offsets) == list(itertools.product(range(-2, 3),
                                                         repeat=3))
        keys = [(self._gap(o), sum(x * x for x in o)) for o in offsets]
        assert keys == sorted(keys)
        assert offsets[0] == (0, 0, 0)  # pass 1 counts it in full first
        assert {max(map(abs, o)) for o in offsets[:27]} <= {0, 1}

    def test_each_half_cell_certifies_33(self):
        halves = spatialqa.dbscan._HALVES
        assert len(halves) == 27
        np.testing.assert_array_equal(sum(halves).sum(axis=1), [33] * 8)

    def test_certified_half_cells_are_exactly_those_wholly_within_eps(self):
        # by brute force over the corners of two half-cells, at the
        # grid's shrunk cell side: half h of cell 0 spans [b, b + 1] half
        # sides on each axis, where b is the axis's bit of h (axis 0 the
        # highest), and half h' of cell u spans [2u + b', 2u + b' + 1]
        eps = 1.0
        half = eps / math.sqrt(3) * (1.0 - 1e-9) / 2
        corners = np.array(list(itertools.product((0, 1), repeat=3)))
        bits = corners  # row h holds the bits of half h
        for u, matrix in zip(spatialqa.dbscan._OFFSETS,
                             spatialqa.dbscan._HALVES):
            for h, h2 in itertools.product(range(8), repeat=2):
                a = (bits[h] + corners) * half
                b = (2 * u + bits[h2] + corners) * half
                farthest = ((a[:, None] - b[None]) ** 2).sum(axis=2).max()
                assert matrix[h, h2] == (farthest <= eps * eps), (u, h, h2)


def _estimation_object_cloud() -> np.ndarray:
    """The largest object cloud of the first scenes of the estimation
    preset at sigma 0.01: 20,001 points (scene 5, obj-1)."""
    seed = 5
    scene = sample_scene(seed, config=ESTIMATION_SAMPLER, noise_sigma=0.01)
    pm, masks, _ = render_scene(scene,
                                rng=np.random.default_rng(seed + 1_000_003),
                                min_visible_fraction=0.85)
    return extract_object_points(pm, masks["obj-1"])


class TestPinnedLabels:
    def test_estimation_scenes_labels_unchanged(self):
        # every object cloud of estimation-preset scenes 0, 1 and 2 at
        # sigma 0.01 (7 clouds, 59,864 points), clustered with the
        # pipeline's defaults; the corpus prints boxes at a resolution
        # that can hide a label change, this hash cannot
        digest = hashlib.sha256()
        for seed in range(3):
            scene = sample_scene(seed, config=ESTIMATION_SAMPLER,
                                 noise_sigma=0.01)
            pm, masks, _ = render_scene(
                scene, rng=np.random.default_rng(seed + 1_000_003),
                min_visible_fraction=0.85)
            for object_id in sorted(masks):
                pts = extract_object_points(pm, masks[object_id])
                labels = dbscan_labels(pts, default_eps(pts),
                                       default_min_pts(len(pts)))
                digest.update(labels.astype("<i8").tobytes())
        assert digest.hexdigest() == ("6c1dbe415dbc0754e4ff9524b1247539"
                                      "9ac65291a129e061d62bfa20bb2f6581")


class TestMemory:
    def test_peak_traced_memory_on_an_estimation_cloud(self):
        pts = _estimation_object_cloud()
        assert len(pts) == 20001
        eps, min_pts = default_eps(pts), default_min_pts(len(pts))
        tracemalloc.start()
        try:
            labels = dbscan_labels(pts, eps, min_pts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (labels >= 0).mean() > 0.9
        # pair expansion is batched: the peak stays a few MiB instead of
        # growing with the ~230 eps-neighbours of each point
        assert peak < 8 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"

    def test_peak_traced_memory_on_a_noise_heavy_cloud(self):
        # half of the points are noise: the passes that gather many
        # offsets of few points at once must still stay bounded
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal(0, 0.05, size=(10_000, 3)),
                         rng.uniform(-1, 1, size=(10_001, 3))])
        eps = default_eps(pts)
        tracemalloc.start()
        try:
            dbscan_labels(pts, eps, 40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
