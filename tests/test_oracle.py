"""Oracle scenes: sampling, rendering, pruning, independent answers."""

import dataclasses
import hashlib
import itertools
import json

import numpy as np
import pytest

from spatialqa.geometry import box_local_axes, gravity_frame
from spatialqa.oracle.answers import answers_match, oracle_answer
from spatialqa.oracle.fixtures import problem_fixture_response
from spatialqa.oracle.gen import generate_dataset
from spatialqa.oracle.render import (
    Z_NEAR,
    _box_hit_depths,
    _ray_grid,
    analytic_point,
    render_scene,
)
from spatialqa.oracle.scene import (
    ESTIMATION_SAMPLER,
    OracleObject,
    OracleScene,
    _placement,
    _placements_disjoint,
    _uniform,
    box_corners_camera,
    read_scenes,
    sample_scene,
    write_scenes,
)
from spatialqa.geometry import CameraIntrinsics


def _manual_scene(objects, res=64, sigma=0.0):
    return OracleScene(
        scene_id="manual", width=res, height=res,
        intrinsics=CameraIntrinsics(fx=float(res), fy=float(res),
                                    cx=res / 2.0, cy=res / 2.0),
        gravity=np.array([0.0, 1.0, 0.0]), objects=objects,
        noise_sigma=sigma,
    )


def _box(oid, center, size=(0.8, 0.8, 0.8), yaw=0.0, category="chair"):
    return OracleObject(object_id=oid, category=category,
                        center=np.asarray(center, dtype=float),
                        size=np.asarray(size, dtype=float), yaw_deg=yaw)


class TestSampling:
    def test_deterministic_per_seed(self):
        a = sample_scene(42)
        b = sample_scene(42)
        assert a.to_dict() == b.to_dict()

    def test_distinct_across_seeds(self):
        assert sample_scene(1).to_dict() != sample_scene(2).to_dict()

    def test_no_overlaps_across_10k_scenes(self):
        checked = 0
        for seed in range(10_000):
            scene = sample_scene(seed)
            gf = gravity_frame(scene.gravity)
            for i, a in enumerate(scene.objects):
                for b in scene.objects[i + 1:]:
                    checked += 1
                    assert _separated(a, b, gf), \
                        f"seed {seed}: {a.object_id} overlaps {b.object_id}"
        assert checked > 10_000

    def test_boxes_inside_frustum(self):
        for seed in range(50):
            scene = sample_scene(seed)
            gf = gravity_frame(scene.gravity)
            k = scene.intrinsics
            for obj in scene.objects:
                corners = box_corners_camera(obj, gf)
                assert (corners[:, 2] > 0).all()
                u = k.fx * corners[:, 0] / corners[:, 2] + k.cx
                v = k.fy * corners[:, 1] / corners[:, 2] + k.cy
                assert (u >= 0).all() and (u <= scene.width - 1).all()
                assert (v >= 0).all() and (v <= scene.height - 1).all()

    def test_roundtrip_file(self, tmp_path):
        scenes = [sample_scene(s) for s in range(3)]
        path = tmp_path / "scenes.jsonl"
        write_scenes(scenes, path)
        back = read_scenes(path)
        assert [s.to_dict() for s in back] == [s.to_dict() for s in scenes]

    @staticmethod
    def _scenes_digest(seeds, config=None) -> str:
        digest = hashlib.sha256()
        for seed in seeds:
            scene = sample_scene(seed, config=config)
            digest.update(json.dumps(scene.to_dict(), sort_keys=True)
                          .encode() + b"\n")
        return digest.hexdigest()

    def test_scene_bytes_default_seeds(self):
        # every candidate's accept/reject decision shows in these bytes
        assert self._scenes_digest(range(3000)) == (
            "7c8d412db4e7ee9f034b54612c95cb3d242b1ea4eb7fc24aab8cb0f379463699")

    def test_scene_bytes_estimation_seeds(self):
        assert self._scenes_digest(range(300), ESTIMATION_SAMPLER) == (
            "474f28b2986496955c672c60d407d559a2f9b5bfa4bca4a22c3b7f291e740a2b")


class TestDrawIdentity:
    """``sample_scene`` draws ``rng.uniform(lo, hi)`` as ``_uniform(lo, hi,
    rng.random())`` and runs of consecutive draws as one ``rng.random(n)``.
    Both must give numpy's own values and leave the stream where numpy's
    calls leave it, with ``integers`` calls in between as the sampler
    makes them; the scene digests rest on this."""

    BOUNDS = [(0.4, 1.4), (-10, 10), (0, 360), (2.5, 6.5), (0.55, 1.3),
              (-1.0371, 1.0371), (0.7, 1.55), (-8.0, 8.0), (1e-3, 1e3)]

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_uniform_from_random(self, seed):
        numpy_rng = np.random.default_rng(seed)
        ours = np.random.default_rng(seed)
        for step in range(3000):
            n = 1 + step % 20
            assert numpy_rng.integers(0, n) == ours.integers(0, n)
            lo, hi = self.BOUNDS[step % len(self.BOUNDS)]
            assert numpy_rng.uniform(lo, hi) == _uniform(lo, hi, ours.random())
        assert numpy_rng.random() == ours.random()

    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_random_batch_is_consecutive_draws(self, seed):
        one_by_one = np.random.default_rng(seed)
        batched = np.random.default_rng(seed)
        for step in range(2000):
            # a candidate's draws: category coin and index, sizes and yaw
            # coin, canonical-yaw index, then yaw, z, x and y
            assert one_by_one.random() == batched.random()
            n = 1 + step % 20
            assert one_by_one.integers(0, n) == batched.integers(0, n)
            singles = [one_by_one.random() for _ in range(4)]
            assert batched.random(4).tolist() == singles
            if step % 3:
                assert one_by_one.integers(0, 4) == batched.integers(0, 4)
            singles = [one_by_one.random() for _ in range(4)]
            assert batched.random(4).tolist() == singles
        assert one_by_one.random() == batched.random()

    def test_uniform_array_from_random_batch(self):
        numpy_rng = np.random.default_rng(5)
        ours = np.random.default_rng(5)
        for lo, hi in self.BOUNDS:
            expected = numpy_rng.uniform(lo, hi, size=3).tolist()
            assert expected == [_uniform(lo, hi, r)
                                for r in ours.random(3).tolist()]


def _separated(a, b, gf, gap=1e-9):
    """True when two objects keep ``gap`` apart: the sampler's own
    height-interval and footprint SAT test, on the stored objects."""
    def placed(o):
        return _placement(gf.to_world(o.center).tolist(), o.size.tolist(),
                          o.yaw_deg)
    return _placements_disjoint(placed(a), placed(b), gap)


class TestRender:
    def test_single_box_mask_is_rectangle(self):
        scene = _manual_scene([_box("o", (0.0, 0.0, 3.0))])
        pm, masks, depth = render_scene(scene)
        mask = masks["o"]
        rows, cols = np.nonzero(mask)
        # axis-aligned box facing the camera: mask is a filled rectangle
        assert mask[rows.min():rows.max() + 1,
                    cols.min():cols.max() + 1].all()

    def test_center_pixel_hits_front_face(self):
        scene = _manual_scene([_box("o", (0.0, 0.0, 3.0))])
        pm, masks, depth = render_scene(scene)
        assert depth[32, 32] == pytest.approx(3.0 - 0.4, abs=1e-9)
        np.testing.assert_allclose(pm.point_at(32, 32), [0, 0, 2.6],
                                   atol=1e-6)

    def test_noiseless_points_on_box_surface(self):
        scene = _manual_scene([_box("o", (0.2, 0.1, 2.5), yaw=30.0)])
        pm, masks, _ = render_scene(scene)
        gf = gravity_frame(scene.gravity)
        from spatialqa.geometry import box_local_axes
        axes_cam = box_local_axes(30.0) @ gf.rotation
        pts = pm.points[masks["o"]].astype(float)
        local = (pts - scene.objects[0].center) @ axes_cam.T
        half = scene.objects[0].size / 2.0
        inside = np.abs(local) <= half[None, :] + 1e-4
        assert inside.all()
        on_surface = np.isclose(np.abs(local), half[None, :],
                                atol=1e-4).any(axis=1)
        assert on_surface.all()

    def test_occlusion_nearest_hit_owns_pixels(self):
        near = _box("near", (0.0, 0.0, 2.0), size=(0.6, 0.6, 0.6))
        far = _box("far", (0.0, 0.0, 4.0), size=(1.2, 1.2, 0.6))
        scene = _manual_scene([near, far])
        _, masks, depth = render_scene(scene)
        assert not (masks["near"] & masks["far"]).any()
        assert depth[32, 32] == pytest.approx(2.0 - 0.3)

    def test_gaussian_noise_statistics(self):
        scene = _manual_scene([_box("o", (0.0, 0.0, 3.0))], sigma=0.02)
        rng = np.random.default_rng(0)
        pm, masks, clean = render_scene(scene, rng=rng)
        noise = pm.points[masks["o"], 2] - clean[masks["o"]]
        assert abs(noise.mean()) < 0.01
        assert noise.std() == pytest.approx(0.02, rel=0.3)

    def test_background_plane(self):
        scene = _manual_scene([])
        pm, masks, depth = render_scene(scene)
        assert (depth == scene.background_depth).all()
        assert pm.valid_count == 64 * 64


def _full_frame_render(scene):
    """Depth and masks from every box slab-tested on every pixel ray."""
    gf = gravity_frame(scene.gravity)
    rays = _ray_grid(scene)
    depths = np.stack([_box_hit_depths(scene, gf, obj, rays)
                       for obj in scene.objects])
    background = scene.background_depth
    best = depths.min(axis=0)
    owner = depths.argmin(axis=0)
    depth = np.where(best < background, best, background)
    masks = {obj.object_id: (owner == k) & (depths[k] < background)
             for k, obj in enumerate(scene.objects)}
    return depth, masks


class TestRenderWindow:
    """``render_scene`` slab-tests each box only near its projection; the
    result must equal the full-frame ray cast bit for bit."""

    TILTED = np.array([0.05, 1.0, 0.08]) / np.linalg.norm([0.05, 1.0, 0.08])

    @staticmethod
    def _border_scene(gravity):
        objects = [
            _box("left", (-1.5, 0.0, 3.0), yaw=20.0),
            _box("right", (1.5, 0.1, 3.2), yaw=-35.0),
            _box("top", (0.2, -1.5, 3.0), size=(0.9, 0.6, 0.7)),
            _box("bottom", (-0.6, 1.4, 3.4), yaw=50.0),
            # reaches behind the camera, where projected corners flip
            # sides: only the full frame holds all its hits
            _box("near", (0.5, 0.4, 0.5), size=(0.6, 0.2, 3.0)),
        ]
        return dataclasses.replace(_manual_scene(objects), gravity=gravity)

    @pytest.mark.parametrize("tilted", [False, True])
    def test_border_boxes_match_full_frame(self, tilted):
        scene = self._border_scene(self.TILTED if tilted
                                   else np.array([0.0, 1.0, 0.0]))
        gf = gravity_frame(scene.gravity)
        near = box_corners_camera(scene.objects[-1], gf)
        assert (near[:, 2] <= Z_NEAR).any() and (near[:, 2] > Z_NEAR).any()
        _, masks, depth = render_scene(scene)
        ref_depth, ref_masks = _full_frame_render(scene)
        assert np.array_equal(depth, ref_depth)
        assert list(masks) == list(ref_masks)
        for object_id, mask in masks.items():
            assert mask.any(), object_id
            assert np.array_equal(mask, ref_masks[object_id]), object_id
        # each border box is cut by its own image edge
        assert masks["left"][:, 0].any() and masks["right"][:, -1].any()
        assert masks["top"][0].any() and masks["bottom"][-1].any()

    @pytest.mark.parametrize("tilted", [False, True])
    def test_pruning_beside_full_frame_window(self, tilted):
        # "near" has the whole image as its window; "hidden" sits behind
        # it and the 0.85 prune drops it
        scene = self._border_scene(self.TILTED if tilted
                                   else np.array([0.0, 1.0, 0.0]))
        scene = dataclasses.replace(scene, objects=scene.objects + [
            _box("hidden", (0.5, 0.4, 3.0), size=(0.5, 0.3, 0.4))])
        assert render_scene(scene)[1]["hidden"].any()
        pm, masks, depth = render_scene(scene, min_visible_fraction=0.85)
        assert "near" in masks and "hidden" not in masks
        kept = dataclasses.replace(
            scene, objects=[o for o in scene.objects if o.object_id in masks])
        kept_pm, kept_masks, kept_depth = render_scene(kept)
        ref_depth, ref_masks = _full_frame_render(kept)
        assert np.array_equal(pm.points, kept_pm.points)
        assert np.array_equal(depth, kept_depth)
        assert np.array_equal(depth, ref_depth)
        assert list(masks) == list(kept_masks) == list(ref_masks)
        for object_id, mask in masks.items():
            assert np.array_equal(mask, kept_masks[object_id]), object_id
            assert np.array_equal(mask, ref_masks[object_id]), object_id

    def test_ray_grid_shared_and_read_only(self):
        rays = _ray_grid(_manual_scene([]))
        assert _ray_grid(self._border_scene(self.TILTED)) is rays
        with pytest.raises(ValueError):
            rays[0, 0, 0] = 0.0

    @pytest.mark.parametrize("seed, sampler", [
        (0, None), (3, None), (2, ESTIMATION_SAMPLER),
    ])
    def test_sampled_scenes_match_full_frame(self, seed, sampler):
        scene = sample_scene(seed, config=sampler)
        _, masks, depth = render_scene(scene)
        ref_depth, ref_masks = _full_frame_render(scene)
        assert np.array_equal(depth, ref_depth)
        for object_id, mask in masks.items():
            assert np.array_equal(mask, ref_masks[object_id]), object_id


def _branching_box_hit_depths(scene, gf, obj, rays, parallel_below=1e-12):
    """The slab test with an explicit branch for rays parallel to a slab
    (a component below ``parallel_below`` in size), as the renderer
    computed it, at 1e-12, before it relied on IEEE infinities."""
    axes_world = box_local_axes(obj.yaw_deg)
    axes_cam = axes_world @ gf.rotation
    origin_local = -(axes_cam @ obj.center)
    d_local = rays @ axes_cam.T
    half = obj.size / 2.0

    tmin = np.full(rays.shape[:2], -np.inf)
    tmax = np.full(rays.shape[:2], np.inf)
    miss = np.zeros(rays.shape[:2], dtype=bool)
    for i in range(3):
        di = d_local[:, :, i]
        oi = origin_local[i]
        parallel = np.abs(di) < parallel_below
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = (-half[i] - oi) / di
            t2 = (half[i] - oi) / di
        lo = np.minimum(t1, t2)
        hi = np.maximum(t1, t2)
        tmin = np.where(parallel, tmin, np.maximum(tmin, lo))
        tmax = np.where(parallel, tmax, np.minimum(tmax, hi))
        miss |= parallel & (np.abs(oi) > half[i])

    hit = (~miss) & (tmax >= tmin) & (tmax > Z_NEAR)
    t = np.where(tmin > Z_NEAR, tmin, tmax)
    return np.where(hit, t, np.inf)


class TestParallelAndGrazingRays:
    """The IEEE slab test against the branching reference, on a lattice of
    rays whose components are 0, -0, +-1e-13, +-0.5 and +-1 (one of them
    at least 0.5 in size, as for every pixel ray), and boxes whose faces
    lie on the camera's planes, cut by them or clear of them."""

    COMPONENTS = (-1.0, -0.5, -1e-13, -0.0, 0.0, 1e-13, 0.5, 1.0)
    SIZE = np.array([1.0, 0.5, 2.0])
    ORIENTATIONS = [(0.0, False), (0.0, True), (30.0, False), (-120.0, True)]

    @classmethod
    def _cases(cls, yaw, tilted):
        """(scene, frame, rays, boxes); per axis the camera plane is a face
        (center +-half), cuts the box (center 0) or misses it (+-3 half),
        before the yaw turns the box about gravity."""
        scene = _manual_scene([])
        if tilted:
            scene = dataclasses.replace(scene,
                                        gravity=TestRenderWindow.TILTED)
        rays = np.array(list(itertools.product(cls.COMPONENTS, repeat=3)))
        rays = rays[np.abs(rays).max(axis=1) >= 0.5][:, None, :]
        boxes = [_box("o", c, size=cls.SIZE, yaw=yaw)
                 for c in itertools.product(*[(-3 * h, -h, 0.0, h, 3 * h)
                                              for h in cls.SIZE / 2.0])]
        return scene, gravity_frame(scene.gravity), rays, boxes

    @pytest.mark.parametrize("yaw, tilted", ORIENTATIONS)
    def test_equal_where_only_zero_components_branch(self, yaw, tilted):
        # a zero component gives +-inf, and 0/0 = NaN in a face plane,
        # which fmax and fmin ignore: the branch for exact zeros, bit for bit
        scene, gf, rays, boxes = self._cases(yaw, tilted)
        in_face_plane = 0
        for obj in boxes:
            ours = _box_hit_depths(scene, gf, obj, rays)
            ref = _branching_box_hit_depths(scene, gf, obj, rays,
                                            parallel_below=5e-324)
            assert np.array_equal(ours, ref)
            axes_cam = box_local_axes(yaw) @ gf.rotation
            on_face = np.abs(axes_cam @ obj.center) == obj.size / 2.0
            in_face_plane += np.count_nonzero(
                (rays @ axes_cam.T)[:, 0][:, on_face] == 0)
        # the camera lies on face planes, and rays in them, without tilt
        assert (in_face_plane > 0) == (not tilted)

    @pytest.mark.parametrize("yaw, tilted", ORIENTATIONS)
    def test_equal_to_the_1e_12_branch_off_face_planes(self, yaw, tilted):
        # below 1e-12 the branch took a ray as parallel; the slab test
        # differs from it only where such a ray grazes a face plane within
        # 1e-9 of the camera, and there it follows the ray exactly
        scene, gf, rays, boxes = self._cases(yaw, tilted)
        differ = 0
        for obj in boxes:
            ours = _box_hit_depths(scene, gf, obj, rays)
            ref = _branching_box_hit_depths(scene, gf, obj, rays)
            axes_cam = box_local_axes(yaw) @ gf.rotation
            gap = np.abs(np.abs(axes_cam @ obj.center) - obj.size / 2.0)
            d = (rays @ axes_cam.T)[:, 0]
            grazing = ((d != 0) & (np.abs(d) < 1e-12)
                       & (gap < 1e-9)).any(axis=1)
            assert np.array_equal(ours[~grazing], ref[~grazing])
            differ += np.count_nonzero(ours != ref)
        assert (differ > 0) == (not tilted)


class TestAnalyticPoint:
    def test_matches_rendered_grid_noiseless(self):
        scene = _manual_scene([_box("o", (0.3, -0.2, 3.0), yaw=40.0)])
        pm, masks, _ = render_scene(scene)
        rng = np.random.default_rng(1)
        rows, cols = np.nonzero(pm.valid)
        for k in rng.choice(len(rows), size=40, replace=False):
            u, v = int(cols[k]), int(rows[k])
            p = analytic_point(scene, u, v)
            np.testing.assert_allclose(p, pm.point_at(u, v), atol=1e-5)


class TestPruning:
    def test_hidden_object_dropped(self):
        blocker = _box("front", (0.0, 0.0, 2.0), size=(1.4, 1.4, 0.4))
        hidden = _box("back", (0.0, 0.0, 3.2), size=(0.6, 0.6, 0.4))
        scene = _manual_scene([blocker, hidden])
        _, masks, _ = render_scene(scene, min_visible_fraction=0.85)
        assert list(masks) == ["front"]

    def test_disjoint_objects_kept(self):
        a = _box("a", (-0.8, 0.0, 3.0), size=(0.6, 0.6, 0.6))
        b = _box("b", (0.8, 0.0, 3.0), size=(0.6, 0.6, 0.6))
        scene = _manual_scene([a, b])
        _, masks, _ = render_scene(scene, min_visible_fraction=0.85)
        assert list(masks) == ["a", "b"]

    def test_hidden_object_kept_without_threshold(self):
        blocker = _box("front", (0.0, 0.0, 2.0), size=(1.4, 1.4, 0.4))
        hidden = _box("back", (0.0, 0.0, 3.2), size=(0.6, 0.6, 0.4))
        _, masks, _ = render_scene(_manual_scene([blocker, hidden]))
        assert list(masks) == ["front", "back"]
        assert not masks["back"].any()

    @pytest.mark.parametrize("seed, sampler", [
        (1, None), (4, None), (5, ESTIMATION_SAMPLER), (9, ESTIMATION_SAMPLER),
    ])
    def test_pruned_render_equals_render_of_kept_objects(self, seed, sampler):
        # dropped boxes occlude nothing: the pruned render is bit for bit
        # the render of a scene holding only the kept objects
        scene = sample_scene(seed, config=sampler, noise_sigma=0.01)
        pm, masks, depth = render_scene(
            scene, rng=np.random.default_rng(seed), min_visible_fraction=0.85)
        kept = dataclasses.replace(
            scene, objects=[o for o in scene.objects if o.object_id in masks])
        assert 0 < len(kept.objects) < len(scene.objects)
        pm2, masks2, depth2 = render_scene(kept,
                                           rng=np.random.default_rng(seed))
        assert np.array_equal(pm.points, pm2.points)
        assert np.array_equal(pm.valid, pm2.valid)
        assert np.array_equal(depth, depth2)
        assert list(masks) == list(masks2)
        for object_id in masks:
            assert np.array_equal(masks[object_id], masks2[object_id])


class TestGenOutputBytes:
    """Every file ``oracle gen`` writes, pinned by one digest per seed set
    over the sorted (relative path, file sha256) pairs (``tree_digest``)."""

    def test_gt_scenes_with_fixtures(self, tmp_path, tree_digest):
        generate_dataset(range(0, 20), tmp_path, problem_fixtures=True)
        assert tree_digest(tmp_path) == (
            "cd43b69edccf37cbb2d3a9d657bea03343dbe0eb363ff5ed284c0c3feda7d165",
            84)

    def test_estimation_scenes(self, tmp_path, tree_digest):
        generate_dataset(range(0, 3), tmp_path, sigma=0.01, gt_boxes=False,
                         sampler=ESTIMATION_SAMPLER)
        assert tree_digest(tmp_path) == (
            "4343807d566a5c112d606965418b266439cd73d001f6b71a653d3bbc46f3f0f7",
            12)

    def test_gt_scenes_0_200_with_fixtures(self, tmp_path, tree_digest):
        generate_dataset(range(0, 200), tmp_path, problem_fixtures=True)
        assert tree_digest(tmp_path) == (
            "bfb00ea556b7017aeaaa081cb76271987bbe595051041eff27d0d4bb6bcc6de0",
            829)

    def test_estimation_scenes_0_30(self, tmp_path, tree_digest):
        generate_dataset(range(0, 30), tmp_path, sigma=0.01, gt_boxes=False,
                         sampler=ESTIMATION_SAMPLER)
        assert tree_digest(tmp_path) == (
            "b58f5bc53647cdc2a2c299047eb1362c405f4497ca28646404542d07c2b52ce3",
            94)


class TestOracleAnswers:
    def test_depth_order_from_gt(self):
        a = _box("a", (0.5, 0.0, 2.0))
        b = _box("b", (-0.5, 0.0, 4.0))
        scene = _manual_scene([a, b])
        item = {"family": "depth_ordering",
                "provenance": {"p1": [48, 32], "p2": [24, 32]},
                "payload": {}, "format": None}
        out = oracle_answer(scene, item)
        assert out == {"kind": "label", "value": "first"}

    def test_stacked_boxes_above(self):
        low = _box("low", (0.0, 0.5, 3.0), size=(0.8, 0.8, 0.8))
        high = _box("high", (0.0, -0.7, 3.0), size=(0.8, 0.8, 0.8))
        scene = _manual_scene([low, high])
        item = {"family": "relative_direction",
                "provenance": {"a": "low", "b": "high", "axis": "y"},
                "payload": {}, "format": None}
        assert oracle_answer(scene, item)["value"] == "above"

    def test_answers_match_formats(self):
        a = _box("a", (0.0, 0.0, 2.0))
        scene = _manual_scene([a])
        base = {
            "family": "object_localization", "format": "free-form",
            "provenance": {"object": "a", "aspect": "camera-distance"},
            "payload": {"kind": "quantity", "value": 2.0},
            "answer": "2.00 meters", "item_id": "i",
        }
        ok, _ = answers_match(scene, base)
        assert ok
        wrong = dict(base, payload={"kind": "quantity", "value": 2.5})
        ok, why = answers_match(scene, wrong)
        assert not ok and "oracle" in why
        # the payload agrees, but the text a model reads does not
        for answer in ("2.50 meters", "194 centimeters", "two meters"):
            ok, why = answers_match(scene, dict(base, answer=answer))
            assert not ok and "does not state" in why
        ok, _ = answers_match(scene, dict(base, answer="200 centimeters"))
        assert ok

    def test_mcq_letter_check(self):
        a = _box("a", (0.0, 0.0, 2.0), yaw=180.0)
        scene = _manual_scene([a])
        item = {
            "family": "object_orientation", "format": "mcq",
            "provenance": {"object": "a"},
            "payload": {"kind": "label", "value": "back"},
            "options": ["front", "left", "back", "right"],
            "answer": "C", "item_id": "i",
        }
        ok, _ = answers_match(scene, item)
        assert ok
        ok, why = answers_match(scene, dict(item, answer="A"))
        assert not ok

    def test_tf_stated_check(self):
        a = _box("a", (0.0, 0.0, 2.0))
        scene = _manual_scene([a])
        item = {
            "family": "object_localization", "format": "true-false",
            "provenance": {"object": "a", "aspect": "camera-distance",
                           "stated": 3.0},
            "payload": {"kind": "quantity", "value": 2.0},
            "prompt": "The chair is 3.00 meters away from the camera. "
                      "True or False?",
            "answer": "False", "item_id": "i",
        }
        ok, _ = answers_match(scene, item)
        assert ok
        ok, _ = answers_match(scene, dict(item, answer="True"))
        assert not ok
        # the prompt must state the stated value, before the question
        for prompt in ("The chair is 2.70 meters away from the camera. "
                       "True or False?",
                       "The chair is 3.00 meters away from the camera.",
                       "True or False? The chair is 3.00 meters away."):
            ok, why = answers_match(scene, dict(item, prompt=prompt))
            assert not ok and "does not state" in why


class TestProblemFixtures:
    def test_fixture_candidates_validate(self):
        from spatialqa.qa.problem import validate_candidates
        digest = {
            "version": 1, "task": "spatial-problem-generation",
            "image_id": "img", "objects": [
                {"id": "a", "reference": "the chair", "category": "chair",
                 "center_m": [0.0, 0.5, 3.0], "size_m": [0.8, 0.9, 0.7],
                 "camera_distance_m": 3.04},
                {"id": "b", "reference": "the table", "category": "table",
                 "center_m": [1.5, 0.4, 3.5], "size_m": [1.5, 0.8, 0.9],
                 "camera_distance_m": 3.83},
            ],
        }
        response = problem_fixture_response(digest)
        assert response["candidates"]
        accepted, rejected = validate_candidates(digest,
                                                 response["candidates"])
        assert not rejected
        assert any(p.kind == "numeric" for p in accepted)
        assert any(p.kind == "judgement" for p in accepted)

    def test_fixture_deterministic(self):
        digest = {
            "version": 1, "task": "spatial-problem-generation",
            "image_id": "img", "objects": [
                {"id": "a", "reference": "the chair", "category": "chair",
                 "center_m": [0.0, 0.5, 3.0], "size_m": [0.8, 0.9, 0.7],
                 "camera_distance_m": 3.04},
            ],
        }
        assert problem_fixture_response(digest) == \
            problem_fixture_response(digest)
