"""Relation operations: labels, guards, distances, perspective frames."""

import math

import numpy as np
import pytest

from spatialqa.geometry import IDENTITY_GRAVITY, box_local_axes, gravity_frame
from spatialqa.pmap import make_pointmap
from spatialqa.relations import (
    DIRECTION_COMPONENT,
    NoGeometryError,
    RelationError,
    SceneObject,
    depth_order,
    orientation_consistency,
    orientation_label,
    perspective_transform,
    query_point,
    relational_comparison,
    relative_position,
    spatial_count,
)

GF = gravity_frame(IDENTITY_GRAVITY)


def _obj(oid, center, size=(1.0, 1.0, 1.0), yaw=None, category="chair"):
    return SceneObject(object_id=oid, category=category,
                       center=np.asarray(center, dtype=float),
                       size=np.asarray(size, dtype=float), yaw_deg=yaw)


def _pm_plane(depth=3.0, size=16):
    pts = np.zeros((size, size, 3), dtype=np.float32)
    pts[:, :, 2] = depth
    # make x/y vary so points are distinct
    pts[:, :, 0] = np.linspace(-1, 1, size)[None, :]
    pts[:, :, 1] = np.linspace(-1, 1, size)[:, None]
    return make_pointmap(pts, np.ones((size, size), dtype=bool))


class TestLevel0:
    def test_query_point_returns_stored(self):
        pm = _pm_plane()
        p = query_point(pm, 8, 8)
        assert p[2] == pytest.approx(3.0)

    def test_query_invalid_pixel_raises(self):
        pts = np.zeros((2, 2, 3), dtype=np.float32)
        pm = make_pointmap(pts, np.array([[True, False], [True, True]]))
        with pytest.raises(NoGeometryError):
            query_point(pm, 1, 0)
        with pytest.raises(NoGeometryError):
            query_point(pm, 5, 0)

    def test_depth_order_strict(self):
        pts = np.zeros((1, 2, 3), dtype=np.float32)
        pts[0, 0, 2] = 2.0
        pts[0, 1, 2] = 3.0
        pm = make_pointmap(pts, np.ones((1, 2), dtype=bool))
        assert depth_order(pm, (0, 0), (1, 0)) == "first"
        assert depth_order(pm, (1, 0), (0, 0)) == "second"

    def test_depth_order_tie_within_margin(self):
        pts = np.zeros((1, 2, 3), dtype=np.float32)
        pts[0, 0, 2] = 2.00
        pts[0, 1, 2] = 2.05
        pm = make_pointmap(pts, np.ones((1, 2), dtype=bool))
        assert depth_order(pm, (0, 0), (1, 0)) == "tie"


class TestLevel1:
    def test_position_pythagoras(self):
        assert _obj("a", (0, 0, 4)).camera_distance == pytest.approx(4.0)
        assert _obj("a", (3, 0, 4)).camera_distance == pytest.approx(5.0)

    def test_orientation_canonical_front(self):
        assert orientation_label(_obj("a", (0, 0, 2), yaw=0.0)) == "front"
        assert orientation_label(_obj("a", (0, 0, 2), yaw=90.0)) == "right"
        assert orientation_label(_obj("a", (0, 0, 2), yaw=-90.0)) == "left"
        assert orientation_label(_obj("a", (0, 0, 2), yaw=185.0)) == "back"

    def test_orientation_guard_suppresses_45deg(self):
        assert orientation_label(_obj("a", (0, 0, 2), yaw=45.0)) is None

    def test_orientation_no_yaw_raises(self):
        with pytest.raises(RelationError):
            orientation_label(_obj("a", (0, 0, 2)))


class TestRelativeDirection:
    def test_directly_right(self):
        a, b = _obj("a", (0, 0, 3)), _obj("b", (1, 0, 3))
        vector, labels, _ = relative_position(a, b, GF)
        np.testing.assert_allclose(vector, [1, 0, 0], atol=1e-12)
        assert labels == {"x": "right"}

    def test_guard_band_suppresses_tiny_component(self):
        a, b = _obj("a", (0, 0, 3)), _obj("b", (0.01, 0, 4))
        _, labels, _ = relative_position(a, b, GF)
        assert labels == {"z": "front"}

    def test_antisymmetry_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = _obj("a", rng.uniform(-2, 2, 3) + [0, 0, 5])
            b = _obj("b", rng.uniform(-2, 2, 3) + [0, 0, 5])
            if np.allclose(a.center, b.center):
                continue
            ab_vector, ab_labels, _ = relative_position(a, b, GF)
            ba_vector, ba_labels, _ = relative_position(b, a, GF)
            np.testing.assert_array_equal(ab_vector, -ba_vector)
            for axis, lab in ab_labels.items():
                from spatialqa.relations import OPPOSITE_LABEL
                assert ba_labels.get(axis) == OPPOSITE_LABEL[lab]

    def test_above_below_with_y_down(self):
        low = _obj("low", (0, 1.0, 3))    # +y is down
        high = _obj("high", (0, -1.0, 3))
        _, labels, _ = relative_position(low, high, GF)
        assert labels == {"y": "above"}

    def test_coincident_centers_raise(self):
        with pytest.raises(RelationError):
            relative_position(_obj("a", (0, 0, 3)), _obj("b", (0, 0, 3)), GF)


def _distances(a, b, gf=GF):
    return relative_position(a, b, gf)[2]


class TestRelativeDistance:
    def test_pure_vertical(self):
        d = _distances(_obj("a", (0, 0, 3)), _obj("b", (0, 2, 3)))
        assert d["vertical"] == pytest.approx(2.0)
        assert d["horizontal"] == 0.0 and d["depthwise"] == 0.0
        assert d["euclidean"] == pytest.approx(2.0)

    def test_1_2_2_triple(self):
        d = _distances(_obj("a", (0, 0, 3)), _obj("b", (1, 2, 5)))
        assert d["euclidean"] == pytest.approx(3.0)
        assert d["horizontal"] == pytest.approx(1.0)
        assert d["vertical"] == pytest.approx(2.0)
        assert d["depthwise"] == pytest.approx(2.0)

    def test_pythagorean_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            a = _obj("a", rng.uniform(-3, 3, 3))
            b = _obj("b", rng.uniform(-3, 3, 3))
            tilt = rng.uniform(-0.3, 0.3)
            g = np.array([math.sin(tilt), math.cos(tilt), 0.0])
            gf = gravity_frame(g)
            d = _distances(a, b, gf)
            assert d["euclidean"]**2 == pytest.approx(
                d["vertical"]**2 + d["horizontal"]**2 + d["depthwise"]**2,
                abs=1e-9)


class TestRelationalComparison:
    def test_extreme_min_camera_distance(self):
        objs = [_obj("a", (0, 0, 2)), _obj("b", (0, 0, 3)), _obj("c", (0, 0, 5))]
        ids = relational_comparison(objs, "camera-distance", "extreme-min")
        assert ids == ["a", "b", "c"]  # the selected minimum comes first

    def test_guard_suppresses_close_heights(self):
        objs = [_obj("a", (0, 0, 2), size=(1, 1.0, 1)),
                _obj("b", (2, 0, 2), size=(1, 1.05, 1))]
        assert relational_comparison(objs, "height", "extreme-max") is None

    def test_full_order_needs_all_gaps(self):
        objs = [_obj("a", (0, 0, 2)), _obj("b", (0, 0, 2.15)), _obj("c", (0, 0, 5))]
        # a-b gap is only 7.5%
        assert relational_comparison(objs, "camera-distance", "full-order") is None
        ids = relational_comparison(objs, "camera-distance", "extreme-max")
        assert ids is not None and ids[-1] == "c"

    def test_needs_two_objects(self):
        with pytest.raises(RelationError):
            relational_comparison([_obj("a", (0, 0, 2))], "width", "full-order")


class TestOrientationConsistency:
    def test_bins(self):
        a = _obj("a", (0, 0, 2), yaw=10.0)
        assert orientation_consistency(a, _obj("b", (1, 0, 2), yaw=10.0)) == "similar"
        assert orientation_consistency(a, _obj("b", (1, 0, 2), yaw=100.0)) == "orthogonal"
        assert orientation_consistency(a, _obj("b", (1, 0, 2), yaw=190.0)) == "opposite"
        assert orientation_consistency(a, _obj("b", (1, 0, 2), yaw=55.0)) is None

    def test_wraparound(self):
        a = _obj("a", (0, 0, 2), yaw=355.0)
        b = _obj("b", (1, 0, 2), yaw=5.0)
        assert orientation_consistency(a, b) == "similar"


class TestPerspective:
    def test_target_along_facing_is_front(self):
        anchor = _obj("a", (0, 0, 3), yaw=90.0)  # facing world +x
        target = _obj("t", (2, 0, 3))
        labels, distances = perspective_transform(anchor, target, GF)
        assert labels == {"z": "front"}
        assert distances["euclidean"] == pytest.approx(2.0)

    def test_180_rotation_flips_left_right(self):
        target = _obj("t", (1, 0, 5))
        a0 = _obj("a", (0, 0, 5), yaw=0.0)
        a180 = _obj("a", (0, 0, 5), yaw=180.0)
        labels0, _ = perspective_transform(a0, target, GF)
        labels180, _ = perspective_transform(a180, target, GF)
        assert labels0 == {"x": "left"}
        assert labels180 == {"x": "right"}

    def test_camera_pose_reproduces_relative_ops(self):
        rng = np.random.default_rng(2)
        origin = _obj("cam", (0, 0, 0.0))
        # the camera as observer: at the origin, facing its forward axis
        camera = _obj("cam", (0, 0, 0.0), yaw=180.0)
        for _ in range(30):
            t = _obj("t", rng.uniform(-2, 2, 3) + [0, 0, 5])
            tilt = rng.uniform(-0.2, 0.2)
            gf = gravity_frame(np.array([0.0, math.cos(tilt), math.sin(tilt)]))
            _, labels, dist = relative_position(origin, t, gf)
            plabels, pdist = perspective_transform(camera, t, gf)
            assert plabels == labels
            for name in ("euclidean", "vertical", "horizontal", "depthwise"):
                assert pdist[name] == pytest.approx(dist[name], abs=1e-12)

    def test_observer_pose(self):
        pose = _obj("observer", (0, 0, 5.0), yaw=0.0)
        target = _obj("t", (0, 0, 3.0))  # between camera and observer
        labels, distances = perspective_transform(pose, target, GF)
        assert labels == {"z": "front"}  # observer faces the camera
        assert distances["euclidean"] == pytest.approx(2.0)

    def test_anchor_without_yaw_raises(self):
        with pytest.raises(RelationError):
            perspective_transform(_obj("a", (0, 0, 3)), _obj("t", (1, 0, 3)), GF)


class TestSpatialCount:
    def test_counts_clear_relations(self):
        table = _obj("table", (0, 0, 3), category="table")
        chairs = [
            _obj("c1", (-2, 0, 3)), _obj("c2", (-1.5, 0, 3.2)),
            _obj("c3", (-2.5, 0, 2.8)), _obj("c4", (2, 0, 3)),
        ]
        n = spatial_count(chairs + [table], "chair", table, "left", GF)
        assert n == 3
        n = spatial_count(chairs + [table], "chair", table, "right", GF)
        assert n == 1

    def test_no_qualifying_object_counts_zero(self):
        table = _obj("table", (0, 0, 3), category="table")
        chairs = [_obj("c1", (2, 0, 3))]
        assert spatial_count(chairs + [table], "chair", table, "left", GF) == 0

    def test_ambiguous_member_suppresses_question(self):
        table = _obj("table", (0, 0, 3), category="table")
        chairs = [_obj("c1", (-2, 0, 3)), _obj("c2", (0.1, 0, 4.0))]
        # c2 is nearly straight ahead: x component under the guard
        assert spatial_count(chairs + [table], "chair", table, "left", GF) is None

    def test_unknown_label_rejected(self):
        table = _obj("t", (0, 0, 3), category="table")
        with pytest.raises(RelationError):
            spatial_count([table], "chair", table, "sideways", GF)


class TestGuardConfig:
    def test_direction_component_matches_sin(self):
        assert DIRECTION_COMPONENT == pytest.approx(0.5)

    def test_rigid_rotation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = _obj("a", rng.uniform(-2, 2, 3) + [0, 0, 5], yaw=40.0)
            b = _obj("b", rng.uniform(-2, 2, 3) + [0, 0, 5], yaw=160.0)
            d0 = _distances(a, b)
            pd0, pdist0 = perspective_transform(a, b, GF)
            phi = float(rng.uniform(0, 360))
            R = box_local_axes(phi).T
            a2 = _obj("a", R @ a.center, yaw=a.yaw_deg + phi)
            b2 = _obj("b", R @ b.center, yaw=b.yaw_deg + phi)
            d1 = _distances(a2, b2)
            pd1, pdist1 = perspective_transform(a2, b2, GF)
            assert d1["euclidean"] == pytest.approx(d0["euclidean"], abs=1e-9)
            assert d1["vertical"] == pytest.approx(d0["vertical"], abs=1e-9)
            assert pd1 == pd0
            assert pdist1["euclidean"] == pytest.approx(pdist0["euclidean"],
                                                        abs=1e-9)
            assert pdist1["horizontal"] == pytest.approx(
                pdist0["horizontal"], abs=1e-9)
