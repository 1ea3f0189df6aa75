"""Random ground-truth scenes: the independent reference for end-to-end tests.

A scene is a set of non-overlapping gravity-aligned boxes inside the
camera frustum, each with category, exact center/size/yaw.  Sampling is
rejection-based and deterministic per seed.  Box tops stay below the
camera so the renderer sees the top face, which is what makes footprint
extents recoverable from a single view.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ..geometry import CameraIntrinsics, box_local_axes, gravity_frame, project
from ..manifest import read_jsonl

CATEGORY_POOL = (
    "chair", "table", "sofa", "lamp", "bed", "desk", "shelf", "cabinet",
    "television", "plant", "pillow", "rug", "mirror", "stool", "bench",
    "dresser", "ottoman", "bookcase", "nightstand", "armchair",
)


@dataclass
class OracleObject:
    object_id: str
    category: str
    center: np.ndarray   # camera frame, meters
    size: np.ndarray     # (width, height, depth), meters
    yaw_deg: float

    def to_dict(self) -> dict:
        return {
            "object_id": self.object_id, "category": self.category,
            "center": [float(c) for c in self.center],
            "size": [float(s) for s in self.size],
            "yaw_deg": float(self.yaw_deg),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OracleObject":
        return cls(object_id=d["object_id"], category=d["category"],
                   center=np.asarray(d["center"], dtype=float),
                   size=np.asarray(d["size"], dtype=float),
                   yaw_deg=float(d["yaw_deg"]))


@dataclass
class OracleScene:
    scene_id: str
    width: int
    height: int
    intrinsics: CameraIntrinsics
    gravity: np.ndarray
    objects: list[OracleObject] = field(default_factory=list)
    noise_sigma: float = 0.0
    background_depth: float = 12.0

    def to_dict(self) -> dict:
        return {
            "scene_id": self.scene_id, "width": self.width,
            "height": self.height, "intrinsics": self.intrinsics.to_dict(),
            "gravity": [float(g) for g in self.gravity],
            "noise_sigma": self.noise_sigma,
            "background_depth": self.background_depth,
            "objects": [o.to_dict() for o in self.objects],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "OracleScene":
        return cls(
            scene_id=d["scene_id"], width=int(d["width"]),
            height=int(d["height"]),
            intrinsics=CameraIntrinsics.from_dict(d["intrinsics"]),
            gravity=np.asarray(d["gravity"], dtype=float),
            objects=[OracleObject.from_dict(o) for o in d["objects"]],
            noise_sigma=float(d.get("noise_sigma", 0.0)),
            background_depth=float(d.get("background_depth", 12.0)),
        )


@dataclass
class SceneSamplerConfig:
    resolution: int = 96
    focal_factor: float = 1.0       # fx = focal_factor * resolution
    cy_factor: float = 0.5          # principal point row / resolution
    min_objects: int = 2
    max_objects: int = 5
    size_range: tuple[float, float] = (0.4, 1.4)
    depth_range: tuple[float, float] = (2.5, 6.5)
    min_gap: float = 0.12
    max_tilt_deg: float = 8.0
    top_clearance: float = 0.15     # camera must stay above box tops
    top_clearance_fraction: float = 0.0  # additionally >= fraction * depth
    frustum_margin_px: float = 2.0
    canonical_yaw_fraction: float = 0.7
    categories: tuple[str, ...] = CATEGORY_POOL
    duplicate_category_bias: float = 0.5  # chance to reuse a present category


# Geometry under which single-view box estimation is well-posed: high
# resolution so grazing top faces stay connected at the default DBSCAN
# scale, the camera well above box tops, and moderate depths.
ESTIMATION_SAMPLER = SceneSamplerConfig(
    resolution=320,
    focal_factor=0.875,
    cy_factor=0.25,        # camera pitched to see the floor region
    size_range=(0.55, 1.3),
    depth_range=(2.4, 3.6),
    top_clearance=0.5,
    top_clearance_fraction=0.3,
    min_gap=0.2,
)


def box_corners_world(obj: OracleObject, gf) -> np.ndarray:
    """(8, 3) corners in the gravity-aligned world frame."""
    center_w = gf.to_world(obj.center)
    axes = box_local_axes(obj.yaw_deg)
    half = obj.size / 2.0
    signs = np.array([[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1)
                      for sz in (-1, 1)], dtype=float)
    return center_w + (signs * half) @ axes


def box_corners_camera(obj: OracleObject, gf) -> np.ndarray:
    return gf.to_camera(box_corners_world(obj, gf))


def _footprint_axes(yaw_deg: float) -> np.ndarray:
    r = math.radians(yaw_deg)
    c, s = math.cos(r), math.sin(r)
    return np.array([[c, s], [-s, c]])  # rows: local x and z in (x, z) plane


def _footprints_separated(a: OracleObject, b: OracleObject, gf,
                          gap: float) -> bool:
    """2D separating-axis test on the horizontal footprints with a gap."""
    ca = gf.to_world(a.center)
    cb = gf.to_world(b.center)
    fa = ca[[0, 2]]
    fb = cb[[0, 2]]

    def corners(c2, yaw, size):
        axes = _footprint_axes(yaw)
        half = np.array([size[0] / 2.0, size[2] / 2.0])
        signs = np.array([[sx, sz] for sx in (-1, 1) for sz in (-1, 1)],
                         dtype=float)
        return c2 + (signs * half) @ axes

    pa = corners(fa, a.yaw_deg, a.size)
    pb = corners(fb, b.yaw_deg, b.size)
    for axes in (_footprint_axes(a.yaw_deg), _footprint_axes(b.yaw_deg)):
        for axis in axes:
            proj_a = pa @ axis
            proj_b = pb @ axis
            if proj_a.max() + gap <= proj_b.min() or \
               proj_b.max() + gap <= proj_a.min():
                return True
    return False


def _boxes_disjoint(a: OracleObject, b: OracleObject, gf, gap: float) -> bool:
    ya = gf.to_world(a.center)[1]
    yb = gf.to_world(b.center)[1]
    a_lo, a_hi = ya - a.size[1] / 2, ya + a.size[1] / 2
    b_lo, b_hi = yb - b.size[1] / 2, yb + b.size[1] / 2
    if a_hi + gap <= b_lo or b_hi + gap <= a_lo:
        return True
    return _footprints_separated(a, b, gf, gap)


def _in_frustum(obj: OracleObject, scene: OracleScene, gf,
                margin_px: float) -> bool:
    corners = box_corners_camera(obj, gf)
    if (corners[:, 2] <= 0.3).any():
        return False
    u, v = project(corners, scene.intrinsics).T
    return bool((u >= margin_px).all() and (u <= scene.width - 1 - margin_px).all()
                and (v >= margin_px).all()
                and (v <= scene.height - 1 - margin_px).all())


def sample_scene(seed: int, config: SceneSamplerConfig | None = None,
                 noise_sigma: float = 0.0) -> OracleScene:
    """Rejection-sample a non-overlapping scene; deterministic per seed."""
    config = config or SceneSamplerConfig()
    rng = np.random.default_rng(seed)
    res = config.resolution
    focal = config.focal_factor * res
    intrinsics = CameraIntrinsics(fx=focal, fy=focal,
                                  cx=res / 2.0, cy=config.cy_factor * res)

    if rng.random() < 0.5:
        gravity = np.array([0.0, 1.0, 0.0])
    else:
        tilt = math.radians(float(rng.uniform(-config.max_tilt_deg,
                                              config.max_tilt_deg)))
        roll = math.radians(float(rng.uniform(-config.max_tilt_deg,
                                              config.max_tilt_deg)))
        gravity = np.array([math.sin(roll),
                            math.cos(roll) * math.cos(tilt),
                            math.cos(roll) * math.sin(tilt)])
        gravity = gravity / np.linalg.norm(gravity)

    scene = OracleScene(
        scene_id=f"scene-{seed:06d}", width=res, height=res,
        intrinsics=intrinsics, gravity=gravity, noise_sigma=noise_sigma,
    )
    gf = gravity_frame(gravity)

    n_target = int(rng.integers(config.min_objects, config.max_objects + 1))
    attempts = 0
    while len(scene.objects) < n_target and attempts < 400:
        attempts += 1
        present = [o.category for o in scene.objects]
        if present and rng.random() < config.duplicate_category_bias:
            category = present[int(rng.integers(0, len(present)))]
        else:
            category = config.categories[
                int(rng.integers(0, len(config.categories)))]
        size = rng.uniform(*config.size_range, size=3)
        if rng.random() < config.canonical_yaw_fraction:
            yaw = float(rng.choice([0.0, 90.0, 180.0, 270.0])
                        + rng.uniform(-10, 10))
        else:
            yaw = float(rng.uniform(0, 360))

        # world-frame sampling: tilt is small, so world z tracks camera depth
        z_w = float(rng.uniform(*config.depth_range))
        lateral = 0.6 * z_w * (res / 2.0) / intrinsics.fx
        x_w = float(rng.uniform(-lateral, lateral))
        # camera (world y = 0) stays above the box top by the clearance
        clearance = max(config.top_clearance,
                        config.top_clearance_fraction * z_w)
        y_low = clearance + size[1] / 2.0
        y_high = y_low + 0.25 * z_w
        y_w = float(rng.uniform(y_low, y_high))
        center = gf.to_camera(np.array([x_w, y_w, z_w]))

        obj = OracleObject(
            object_id=f"obj-{len(scene.objects)}", category=category,
            center=center, size=np.asarray(size, dtype=float), yaw_deg=yaw,
        )
        if not _in_frustum(obj, scene, gf, config.frustum_margin_px):
            continue
        if all(_boxes_disjoint(obj, other, gf, config.min_gap)
               for other in scene.objects):
            scene.objects.append(obj)
    return scene


def write_scenes(scenes: list[OracleScene], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for scene in scenes:
            f.write(json.dumps(scene.to_dict(), sort_keys=True) + "\n")


def read_scenes(path: str | Path) -> list[OracleScene]:
    return read_jsonl(path, OracleScene.from_dict)
