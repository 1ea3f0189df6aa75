"""Backprojection, gravity frames and gravity-aligned box fitting."""

import hashlib
import math

import numpy as np
import pytest

from spatialqa.dbscan import (dbscan_largest_cluster, default_eps,
                              default_min_pts)

from spatialqa.geometry import (
    CameraIntrinsics,
    EmptyObjectError,
    GeometryError,
    GravityFrame,
    IDENTITY_GRAVITY,
    backproject,
    box_local_axes,
    extract_object_points,
    facing_vector,
    fit_box3d,
    gravity_frame,
    min_area_rect,
    project,
)
from spatialqa.manifest import read_manifest, resolve_path
from spatialqa.pmap import make_pointmap, read_pointmap

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=32.0)


def _cube_points(rng, n=2000, center=(0.0, 0.0, 3.0), size=1.0):
    pts = rng.uniform(-0.5, 0.5, size=(n, 3)) * size
    return pts + np.asarray(center)


class TestBackproject:
    def test_principal_point(self):
        depth = np.full((64, 64), 2.0)
        pm = backproject(depth, K)
        np.testing.assert_allclose(pm.point_at(32, 32), [0.0, 0.0, 2.0], atol=1e-7)

    def test_unit_focal_offset(self):
        # u = cx + fx, z = 1  =>  x = 1
        k = CameraIntrinsics(fx=10.0, fy=10.0, cx=5.0, cy=5.0)
        depth = np.ones((20, 20))
        pm = backproject(depth, k)
        np.testing.assert_allclose(pm.point_at(15, 5), [1.0, 0.0, 1.0], atol=1e-7)

    def test_reprojection_round_trip(self):
        rng = np.random.default_rng(0)
        depth = rng.uniform(0.5, 10.0, size=(48, 48))
        pm = backproject(depth, K)
        pts = pm.points.reshape(-1, 3)
        uv = project(pts, K)
        uu, vv = np.meshgrid(np.arange(48.0), np.arange(48.0))
        expected = np.stack([uu.ravel(), vv.ravel()], axis=1)
        np.testing.assert_allclose(uv, expected, atol=1e-5)

    def test_nonpositive_depth_invalid(self):
        depth = np.array([[1.0, 0.0], [-2.0, np.nan]])
        pm = backproject(depth, K)
        assert pm.valid_count == 1

    def test_bad_focal_rejected(self):
        with pytest.raises(GeometryError):
            CameraIntrinsics(fx=0.0, fy=1.0, cx=0, cy=0)


class TestExtractObjectPoints:
    def test_counts_masked_valid_pixels(self):
        pts = np.zeros((4, 4, 3), dtype=np.float32)
        pts[:, :, 2] = 1.0
        pm = make_pointmap(pts, np.ones((4, 4), dtype=bool))
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, :2] = True
        mask[1, :] = True  # 6 pixels total, but say 10 across two rows
        mask[2, :] = True
        assert extract_object_points(pm, mask).shape == (10, 3)

    def test_only_invalid_pixels_raises(self):
        pts = np.zeros((2, 2, 3), dtype=np.float32)
        pts[:, :, 2] = 1.0
        valid = np.array([[True, False], [True, False]])
        pm = make_pointmap(pts, valid)
        mask = np.array([[False, True], [False, True]])
        with pytest.raises(EmptyObjectError):
            extract_object_points(pm, mask)

    def test_mask_shape_checked(self):
        pts = np.zeros((2, 2, 3), dtype=np.float32)
        pm = make_pointmap(pts, np.ones((2, 2), dtype=bool))
        with pytest.raises(GeometryError):
            extract_object_points(pm, np.ones((3, 3), dtype=bool))


class TestGravityFrame:
    def test_canonical_gravity_gives_identity(self):
        gf = gravity_frame(IDENTITY_GRAVITY)
        np.testing.assert_allclose(gf.rotation, np.eye(3), atol=1e-12)

    def test_tilted_gravity(self):
        a = math.radians(10.0)
        g = np.array([0.0, math.cos(a), math.sin(a)])
        gf = gravity_frame(g)
        R = gf.rotation
        # orthonormal, right-handed
        np.testing.assert_allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)
        # gravity maps to world down
        np.testing.assert_allclose(gf.to_world(g), [0.0, 1.0, 0.0], atol=1e-12)
        # forward tilts by 10 degrees: world z in camera coords
        np.testing.assert_allclose(R[2], [0.0, -math.sin(a), math.cos(a)], atol=1e-12)

    def test_gravity_maps_exactly_to_world_y(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g = rng.normal(size=3)
            g[2] = abs(g[2]) * 0.3  # keep away from forward
            g[1] = abs(g[1]) + 0.5
            g = g / np.linalg.norm(g)
            gf = gravity_frame(g)
            np.testing.assert_allclose(gf.to_world(g), [0, 1, 0], atol=1e-10)

    def test_parallel_to_forward_degenerate(self):
        with pytest.raises(GeometryError, match="parallel to camera forward"):
            gravity_frame(np.array([0.0, 0.0, 1.0]))

    def test_non_unit_rejected(self):
        with pytest.raises(GeometryError):
            gravity_frame(np.array([0.0, 2.0, 0.0]))


class TestMinAreaRect:
    def test_axis_aligned_square(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, size=(500, 2))
        pts = np.vstack([pts, [[0, 0], [1, 0], [0, 1], [1, 1]]])
        ang, eu, ev, center = min_area_rect(pts)
        assert min(ang, 90 - ang) < 1e-6
        assert sorted([eu, ev]) == pytest.approx([1.0, 1.0])
        np.testing.assert_allclose(center, [0.5, 0.5], atol=1e-9)

    def test_rotated_rectangle_recovers_angle(self):
        rng = np.random.default_rng(2)
        base = rng.uniform(-0.5, 0.5, size=(800, 2)) * np.array([2.0, 1.0])
        base = np.vstack([base, [[-1, -0.5], [1, -0.5], [-1, 0.5], [1, 0.5]]])
        theta = math.radians(30.0)
        R = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]])
        pts = base @ R.T
        ang, eu, ev, _ = min_area_rect(pts)
        assert ang == pytest.approx(30.0, abs=0.5)
        assert sorted([eu, ev]) == pytest.approx([1.0, 2.0], abs=1e-6)

    def test_pinned_on_estimation_clouds(self, reference):
        """Bit for bit, the rectangles of the horizontal projections of
        the cleaned object clouds of estimation scenes 0-2 (sigma 0.01)."""
        manifest = reference.estimation_manifest
        rects = []
        for entry in read_manifest(manifest):
            pm = read_pointmap(resolve_path(manifest, entry.pointmap))
            for ann in entry.objects:
                mask = np.load(resolve_path(manifest, ann["mask"]))
                cloud = extract_object_points(pm, mask)
                cloud = dbscan_largest_cluster(
                    cloud, eps=default_eps(cloud),
                    min_pts=default_min_pts(len(cloud)))
                horiz = entry.frame.to_world(cloud)[:, [0, 2]]
                ang, eu, ev, center = min_area_rect(horiz)
                rects.append((float(ang), eu, ev, *center.tolist()))
        assert len(rects) == 7
        assert hashlib.sha256(repr(rects).encode()).hexdigest() == \
            "25f0706d2afc0f650886fac21e83611da51dcc685167d9d0d2cb995292c937fe"


class TestFitBox3D:
    GF = gravity_frame(IDENTITY_GRAVITY)

    def test_axis_aligned_unit_cube(self):
        rng = np.random.default_rng(4)
        pts = _cube_points(rng)
        # pin the corners so exact extents are 1
        corners = np.array(
            [[sx, sy, sz] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)
             for sz in (-0.5, 0.5)]
        ) + [0, 0, 3.0]
        center, size = fit_box3d(np.vstack([pts, corners]), self.GF)
        np.testing.assert_allclose(size, [1.0, 1.0, 1.0], atol=1e-9)
        np.testing.assert_allclose(center, [0, 0, 3.0], atol=1e-9)

    def test_rotated_cube_recovers_yaw(self):
        # fitted along the rotated sides: an axis-aligned box of the same
        # cube would be cos 30 + sin 30 ~ 1.37 wide and deep
        rng = np.random.default_rng(5)
        base = _cube_points(rng, center=(0, 0, 0))
        R = box_local_axes(30.0).T
        pts = base @ R.T + [0, 0, 3.0]
        _, size = fit_box3d(pts, self.GF)
        np.testing.assert_allclose(size, [1.0, 1.0, 1.0], atol=0.02)

    def test_outliers_rejected_within_2pct(self):
        rng = np.random.default_rng(6)
        clean = _cube_points(rng, n=2000)
        _, size_clean = fit_box3d(clean, self.GF)
        n_out = 20  # 1 percent
        outliers = rng.uniform(8, 12, size=(n_out, 3))
        _, size_dirty = fit_box3d(np.vstack([clean, outliers]), self.GF)
        np.testing.assert_allclose(size_dirty, size_clean, rtol=0.02)

    def test_yaw_hint_overrides_fit(self):
        # the axis-aligned unit cube measured along axes 45 degrees off
        # its sides is sqrt(2) wide and deep; with no hint it measures 1
        rng = np.random.default_rng(7)
        corners = np.array(
            [[sx, sy, sz] for sx in (-0.5, 0.5) for sy in (-0.5, 0.5)
             for sz in (-0.5, 0.5)]
        ) + [0, 0, 3.0]
        pts = np.vstack([_cube_points(rng), corners])
        _, hinted = fit_box3d(pts, self.GF, yaw_hint_deg=45.0)
        np.testing.assert_allclose(hinted, [math.sqrt(2), 1.0, math.sqrt(2)],
                                   atol=1e-9)
        _, fitted = fit_box3d(pts, self.GF)
        np.testing.assert_allclose(fitted, [1.0, 1.0, 1.0], atol=1e-9)

    def test_under_three_points_aabb_fallback(self):
        pts = np.array([[0.0, 0.0, 2.0], [0.2, 0.1, 2.5], [0.1, 0.1, 2.1]])
        center, size = fit_box3d(pts[:2], self.GF)
        assert size.tolist() == [0.2, 0.1, 0.5]
        np.testing.assert_allclose(center, [0.1, 0.05, 2.25])
        # a single point has no extent: each clamps to the 0.2 mm floor
        _, size = fit_box3d(pts[:1], self.GF)
        assert size.tolist() == [2e-4, 2e-4, 2e-4]

    def test_empty_cloud_raises(self):
        with pytest.raises(EmptyObjectError):
            fit_box3d(np.empty((0, 3)), self.GF)

    def test_equivariance_under_gravity_rotation(self):
        rng = np.random.default_rng(8)
        base = _cube_points(rng, center=(0, 0, 0)) * np.array([2.0, 1.0, 1.0])
        base = base + [0.3, 0.2, 4.0]
        center0, size0 = fit_box3d(base, self.GF, yaw_hint_deg=20.0)
        phi = 25.0
        R = box_local_axes(phi).T
        rotated = base @ R.T
        center1, size1 = fit_box3d(rotated, self.GF, yaw_hint_deg=20.0 + phi)
        np.testing.assert_allclose(size1, size0, atol=1e-9)
        np.testing.assert_allclose(center1, R @ center0, atol=1e-9)

    def test_volume_monotone_on_exact_path(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-1, 1, size=(200, 3)) + [0, 0, 4.0]
        volume = np.prod(fit_box3d(pts, self.GF, yaw_hint_deg=0.0)[1])
        for _ in range(20):
            extra = rng.uniform(-2, 2, size=(rng.integers(1, 30), 3)) + [0, 0, 4.0]
            pts = np.vstack([pts, extra])
            grown = np.prod(fit_box3d(pts, self.GF, yaw_hint_deg=0.0)[1])
            assert grown >= volume - 1e-12
            volume = grown


class TestConventions:
    def test_facing_vector_cardinals(self):
        np.testing.assert_allclose(facing_vector(0), [0, 0, -1], atol=1e-12)
        np.testing.assert_allclose(facing_vector(90), [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(facing_vector(180), [0, 0, 1], atol=1e-12)
        np.testing.assert_allclose(facing_vector(270), [-1, 0, 0], atol=1e-12)

    def test_box_axes_orthonormal_right_handed(self):
        A = box_local_axes(37.0)
        np.testing.assert_allclose(A @ A.T, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.cross(A[0], A[1]), A[2], atol=1e-12)
