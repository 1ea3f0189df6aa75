"""Ray-cast rendering of oracle scenes into point maps and masks.

Each box is intersected once per scene (slab test in the box local
frame) with the pixel rays of its window: the rectangle its projected
corners cover, padded by one pixel, or the whole image when the box
reaches behind the near plane.  Rays outside the window miss the box,
so their depth is +inf, as the slab test would give.  The nearest hit
owns the pixel.  Too-occluded boxes are pruned from those same hit
depths before the depth grid and masks are built; the owner, the prune
and the masks look at each box's window alone, since its depth is +inf
everywhere else.  The depth grid, optionally perturbed by Gaussian
noise, is backprojected through the scene intrinsics, which mirrors how
an upstream geometry estimator would deliver a point map.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..geometry import (CameraIntrinsics, backproject, box_local_axes,
                        gravity_frame, project)
from ..pmap import PointMap
from .scene import OracleScene, box_corners_camera

Z_NEAR = 0.2


def _ray_grid(scene: OracleScene) -> np.ndarray:
    """(H, W, 3) pixel ray directions; z is 1, so the ray parameter
    equals depth.  Read-only: scenes with the same camera share it."""
    return _camera_rays(scene.height, scene.width, scene.intrinsics)


@functools.lru_cache(maxsize=4)   # a run renders one or two cameras
def _camera_rays(height: int, width: int,
                 k: CameraIntrinsics) -> np.ndarray:
    d = np.empty((height, width, 3))
    d[:, :, 0] = (np.arange(width, dtype=np.float64) - k.cx) / k.fx
    d[:, :, 1] = ((np.arange(height, dtype=np.float64) - k.cy)
                  / k.fy)[:, None]
    d[:, :, 2] = 1.0
    d.flags.writeable = False
    return d


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


def _window(scene: OracleScene, gf, obj) -> tuple[slice, slice]:
    """Rows and columns of the pixels whose rays can hit a box.

    With every corner in front of Z_NEAR the box projects inside the
    convex hull of its projected corners, so the window is their bounding
    rectangle, padded by one pixel against rounding and clipped to the
    image.  Otherwise it is the whole image.
    """
    corners = box_corners_camera(obj, gf)
    if (corners[:, 2] <= Z_NEAR).any():
        return slice(0, scene.height), slice(0, scene.width)
    u, v = project(corners, scene.intrinsics).T
    return (slice(max(math.floor(v.min()) - 1, 0),
                  max(math.ceil(v.max()) + 2, 0)),
            slice(max(math.floor(u.min()) - 1, 0),
                  max(math.ceil(u.max()) + 2, 0)))


def _nearest(kept: list[int], windows: list, hits: list[np.ndarray],
             shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Per pixel, the index of the kept box with the nearest hit (the
    first of equal ones, as ``argmin`` would pick) and its depth; -1 and
    +inf where no kept box is hit.  Each box is compared on its window
    only, since its hits are +inf outside it."""
    owner = np.full(shape, -1, dtype=np.intp)
    best = np.full(shape, np.inf)
    for i in kept:
        near = best[windows[i]]
        owner[windows[i]][hits[i] < near] = i
        np.minimum(near, hits[i], out=near)
    return owner, best


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

    # a window's depths equal the full frame's bit for bit
    # (tests/test_oracle.py::TestRenderWindow)
    windows = [_window(scene, gf, obj) for obj in scene.objects]
    hits = [_box_hit_depths(scene, gf, obj, rays[win])
            for obj, win in zip(scene.objects, windows)]
    covers = [d < background for d in hits]
    alone = [np.count_nonzero(c) for c in covers]

    kept = list(range(len(scene.objects)))
    while True:
        owner, best = _nearest(kept, windows, hits, (h, w))
        visible = [(owner[windows[i]] == i) & covers[i] for i in kept]
        fractions = [np.count_nonzero(v) / alone[i] if alone[i] else 0.0
                     for i, v in zip(kept, visible)]
        if not kept or min(fractions) >= min_visible_fraction:
            break
        del kept[int(np.argmin(fractions))]

    depth = np.where(best < background, best, background)
    masks = {}
    for i, v in zip(kept, visible):
        mask = np.zeros((h, w), dtype=bool)
        mask[windows[i]] = v
        masks[scene.objects[i].object_id] = mask

    noisy = depth
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
