"""Random ground-truth scenes: the independent reference for end-to-end tests.

A scene is a set of non-overlapping gravity-aligned boxes inside the
camera frustum, each with category, exact center/size/yaw.  Sampling is
rejection-based and deterministic per seed.  Box tops stay below the
camera so the renderer sees the top face, which is what makes footprint
extents recoverable from a single view.

Each candidate is tested on plain floats, as a ``_Placement`` in the
gravity-aligned world frame, against the frustum and the boxes already
placed; only an accepted one becomes an ``OracleObject``.  Every
candidate takes the same rng draws whatever the outcome, so a seed's
scene depends only on the accept/reject decisions, which tests pin by
digest.  Uniforms are drawn as ``lo + (hi - lo) * random()``, numpy's
own ``uniform`` formula, with consecutive draws batched as ``random(n)``:
the same stream and the same values at a third of the call cost
(tests/test_oracle.py::TestDrawIdentity).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ..geometry import CameraIntrinsics, box_local_axes, gravity_frame
from ..schema import numbers, read_jsonl, unique

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


# Sampler values every preset shares.
MIN_OBJECTS = 2
MAX_OBJECTS = 5
MAX_TILT_DEG = 8.0
FRUSTUM_MARGIN_PX = 2.0
CANONICAL_YAW_FRACTION = 0.7
DUPLICATE_CATEGORY_BIAS = 0.5   # chance to reuse a present category


@dataclass
class SceneSamplerConfig:
    resolution: int = 96
    focal_factor: float = 1.0       # fx = focal_factor * resolution
    cy_factor: float = 0.5          # principal point row / resolution
    size_range: tuple[float, float] = (0.4, 1.4)
    depth_range: tuple[float, float] = (2.5, 6.5)
    min_gap: float = 0.12
    top_clearance: float = 0.15     # camera must stay above box tops
    top_clearance_fraction: float = 0.0  # additionally >= fraction * depth


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


class _Placement(NamedTuple):
    """A box in the gravity-aligned world frame, as plain floats: its
    height interval, its footprint axes (local x and z in the (x, z)
    plane) and its four footprint corners."""
    y_lo: float
    y_hi: float
    axes: tuple[tuple[float, float], tuple[float, float]]
    corners: tuple[tuple[float, float], ...]


def _placement(center_w, size, yaw_deg: float) -> _Placement:
    x, y, z = center_w
    hx, hy, hz = size[0] / 2.0, size[1] / 2.0, size[2] / 2.0
    r = math.radians(yaw_deg)
    c, s = math.cos(r), math.sin(r)
    corners = tuple((x + sx * hx * c - sz * hz * s,
                     z + sx * hx * s + sz * hz * c)
                    for sx in (-1.0, 1.0) for sz in (-1.0, 1.0))
    return _Placement(y - hy, y + hy, ((c, s), (-s, c)), corners)


def _placements_disjoint(a: _Placement, b: _Placement, gap: float) -> bool:
    """Height intervals apart, or a separating axis between the
    footprints (2D SAT), each by at least ``gap``."""
    if a.y_hi + gap <= b.y_lo or b.y_hi + gap <= a.y_lo:
        return True
    for ux, uz in a.axes + b.axes:
        proj_a = [x * ux + z * uz for x, z in a.corners]
        proj_b = [x * ux + z * uz for x, z in b.corners]
        if max(proj_a) + gap <= min(proj_b) or \
           max(proj_b) + gap <= min(proj_a):
            return True
    return False


def _in_frustum(box: _Placement, rotation: list[list[float]],
                intrinsics: CameraIntrinsics, width: int, height: int) -> bool:
    """All eight corners in front of z = 0.3 and projected at least
    ``FRUSTUM_MARGIN_PX`` inside the image; ``rotation`` is the gravity
    frame's, as nested lists."""
    margin_px = FRUSTUM_MARGIN_PX
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rotation
    fx, fy, cx, cy = intrinsics.fx, intrinsics.fy, intrinsics.cx, intrinsics.cy
    u_hi, v_hi = width - 1 - margin_px, height - 1 - margin_px
    for x, z in box.corners:
        for y in (box.y_lo, box.y_hi):
            depth = x * r02 + y * r12 + z * r22
            if depth <= 0.3:
                return False
            u = fx * (x * r00 + y * r10 + z * r20) / depth + cx
            v = fy * (x * r01 + y * r11 + z * r21) / depth + cy
            if not (margin_px <= u <= u_hi and margin_px <= v <= v_hi):
                return False
    return True


_CANONICAL_YAWS = (0.0, 90.0, 180.0, 270.0)


def _uniform(lo: float, hi: float, r: float) -> float:
    """``rng.uniform(lo, hi)`` from the ``rng.random()`` it would draw."""
    return lo + (hi - lo) * r


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
        tilt, roll = (math.radians(_uniform(-MAX_TILT_DEG, MAX_TILT_DEG, r))
                      for r in rng.random(2).tolist())
        gravity = np.array([math.sin(roll),
                            math.cos(roll) * math.cos(tilt),
                            math.cos(roll) * math.sin(tilt)])
        gravity = gravity / np.linalg.norm(gravity)

    scene = OracleScene(
        scene_id=f"scene-{seed:06d}", width=res, height=res,
        intrinsics=intrinsics, gravity=gravity, noise_sigma=noise_sigma,
    )
    gf = gravity_frame(gravity)
    rotation = gf.rotation.tolist()

    n_target = int(rng.integers(MIN_OBJECTS, MAX_OBJECTS + 1))
    placed: list[_Placement] = []
    attempts = 0
    while len(scene.objects) < n_target and attempts < 400:
        attempts += 1
        present = [o.category for o in scene.objects]
        if present and rng.random() < DUPLICATE_CATEGORY_BIAS:
            category = present[int(rng.integers(0, len(present)))]
        else:
            category = CATEGORY_POOL[int(rng.integers(0, len(CATEGORY_POOL)))]
        # three size draws, then the canonical-yaw coin
        *r_size, r_coin = rng.random(4).tolist()
        size = [_uniform(*config.size_range, r) for r in r_size]
        canonical = r_coin < CANONICAL_YAW_FRACTION
        if canonical:
            # the draw of rng.choice over four values, without its overhead
            base = _CANONICAL_YAWS[int(rng.integers(0, 4))]
        r_yaw, r_z, r_x, r_y = rng.random(4).tolist()
        yaw = (base + _uniform(-10, 10, r_yaw) if canonical
               else _uniform(0, 360, r_yaw))

        # world-frame sampling: tilt is small, so world z tracks camera depth
        z_w = _uniform(*config.depth_range, r_z)
        lateral = 0.6 * z_w * (res / 2.0) / intrinsics.fx
        x_w = _uniform(-lateral, lateral, r_x)
        # camera (world y = 0) stays above the box top by the clearance
        clearance = max(config.top_clearance,
                        config.top_clearance_fraction * z_w)
        y_low = clearance + size[1] / 2.0
        y_high = y_low + 0.25 * z_w
        y_w = _uniform(y_low, y_high, r_y)

        box = _placement((x_w, y_w, z_w), size, yaw)
        if not _in_frustum(box, rotation, intrinsics, res, res):
            continue
        if all(_placements_disjoint(box, other, config.min_gap)
               for other in placed):
            placed.append(box)
            scene.objects.append(OracleObject(
                object_id=f"obj-{len(scene.objects)}", category=category,
                center=gf.to_camera(np.array([x_w, y_w, z_w])),
                size=np.array(size),
                yaw_deg=yaw,
            ))
    return scene


def scene_json(scene: OracleScene) -> str:
    """The ``scenes.jsonl`` line of a scene: its fields, keys sorted."""
    return json.dumps(asdict(scene), sort_keys=True,
                      default=np.ndarray.tolist)


def write_scenes(scenes: list[OracleScene], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for scene in scenes:
            f.write(scene_json(scene) + "\n")


def _parse_scene(record: dict) -> OracleScene:
    """A ``scenes.jsonl`` record as its scene, values as written; a
    missing or unknown key raises TypeError, a vector that is not 3
    finite numbers or a camera the geometry rejects ValueError (a bad
    record)."""
    def vector(v):
        if not numbers(3)(v):
            raise ValueError(f"{v!r} is not 3 finite numbers")
        return np.asarray(v, dtype=np.float64)

    objects = [OracleObject(**{**o, "center": vector(o["center"]),
                               "size": vector(o["size"])})
               for o in record["objects"]]
    intrinsics = CameraIntrinsics(**record["intrinsics"])
    gravity = vector(record["gravity"])
    gravity_frame(gravity)   # rejects a gravity no frame is built on
    return OracleScene(**{**record, "intrinsics": intrinsics,
                          "gravity": gravity, "objects": objects})


def read_scenes(path: str | Path) -> list[OracleScene]:
    """The scenes of a ``scenes.jsonl`` file; a repeated ``scene_id`` is
    a bad line."""
    return read_jsonl(path, unique("scene_id", _parse_scene))
