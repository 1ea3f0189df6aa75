"""Ray-cast rendering of oracle scenes into point maps and masks.

Each pixel ray is intersected with every box (slab test in the box local
frame) once per scene; the nearest hit owns the pixel.  Too-occluded
boxes are pruned from those same hit depths before the depth grid and
masks are built.  The depth grid, optionally perturbed by Gaussian
noise, is backprojected through the scene intrinsics, which mirrors how
an upstream geometry estimator would deliver a point map.
"""

from __future__ import annotations

import numpy as np

from ..geometry import backproject, box_local_axes, gravity_frame
from ..pmap import PointMap
from .scene import OracleScene

Z_NEAR = 0.2


def _ray_grid(scene: OracleScene) -> np.ndarray:
    k = scene.intrinsics
    us = np.arange(scene.width, dtype=np.float64)
    vs = np.arange(scene.height, dtype=np.float64)
    uu, vv = np.meshgrid(us, vs)
    d = np.stack([(uu - k.cx) / k.fx, (vv - k.cy) / k.fy,
                  np.ones_like(uu)], axis=2)
    return d  # (H, W, 3), z component 1 so the ray parameter equals depth


def _box_hit_depths(scene: OracleScene, gf, obj, rays: np.ndarray) -> np.ndarray:
    """Per-pixel hit depth for one box; +inf where the ray misses."""
    axes_world = box_local_axes(obj.yaw_deg)
    axes_cam = axes_world @ gf.rotation            # rows: box axes in camera frame
    origin_local = -(axes_cam @ obj.center)        # camera origin in box frame
    d_local = rays @ axes_cam.T                    # (H, W, 3)
    half = obj.size / 2.0

    tmin = np.full(rays.shape[:2], -np.inf)
    tmax = np.full(rays.shape[:2], np.inf)
    miss = np.zeros(rays.shape[:2], dtype=bool)
    for i in range(3):
        di = d_local[:, :, i]
        oi = origin_local[i]
        parallel = np.abs(di) < 1e-12
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


def render_scene(scene: OracleScene, rng: np.random.Generator | None = None,
                 min_visible_fraction: float = 0.0
                 ) -> tuple[PointMap, dict[str, np.ndarray], np.ndarray]:
    """Render to (point map, per-object masks, clean depth grid).

    Objects whose visible pixel share (of the pixels they cover when
    rendered alone) falls below ``min_visible_fraction`` are dropped one
    at a time, worst first, since removing one frees pixels for the
    rest.  Mostly hidden boxes make single-view extents unrecoverable,
    and real annotation pipelines skip them too.  Dropped boxes occlude
    nothing, and the masks name exactly the kept objects.

    Depth noise of scene.noise_sigma meters is applied before
    backprojection when sigma > 0 (from ``rng``, or a generator seeded
    with 0 when none is given).
    """
    gf = gravity_frame(scene.gravity)
    rays = _ray_grid(scene)
    h, w = scene.height, scene.width
    background = scene.background_depth

    depths = np.empty((len(scene.objects), h, w))
    for i, obj in enumerate(scene.objects):
        depths[i] = _box_hit_depths(scene, gf, obj, rays)
    alone = (depths < background).sum(axis=(1, 2))

    # depths[k] is the hit depth of object kept[k]
    kept = list(range(len(scene.objects)))
    while kept:
        owner = depths.argmin(axis=0)
        fractions = [
            ((owner == k) & (depths[k] < background)).sum() / alone[i]
            if alone[i] else 0.0
            for k, i in enumerate(kept)
        ]
        worst = int(np.argmin(fractions))
        if fractions[worst] >= min_visible_fraction:
            break
        del kept[worst]
        depths = np.delete(depths, worst, axis=0)

    best = depths.min(axis=0) if kept else np.full((h, w), np.inf)
    depth = np.where(best < background, best, background)
    masks = {
        scene.objects[i].object_id: (owner == k) & (depths[k] < background)
        for k, i in enumerate(kept)
    }

    noisy = depth.copy()
    if scene.noise_sigma > 0:
        if rng is None:
            rng = np.random.default_rng(0)
        noisy = depth + rng.normal(0.0, scene.noise_sigma, size=depth.shape)
        noisy = np.maximum(noisy, 0.05)
    pm = backproject(noisy, scene.intrinsics)
    return pm, masks, depth


def analytic_point(scene: OracleScene, u: int, v: int) -> np.ndarray | None:
    """Exact camera-frame point seen at a pixel, straight from geometry.

    Independent of the rendered grid: re-intersects the single pixel ray
    with every box and the background plane.
    """
    gf = gravity_frame(scene.gravity)
    k = scene.intrinsics
    ray = np.array([[[(u - k.cx) / k.fx, (v - k.cy) / k.fy, 1.0]]])
    best = scene.background_depth
    for obj in scene.objects:
        t = float(_box_hit_depths(scene, gf, obj, ray)[0, 0])
        if t < best:
            best = t
    if not np.isfinite(best):
        return None
    return ray[0, 0] * best
