"""Camera geometry, gravity-aligned frames and 3D box fitting.

Conventions (used package-wide):
  camera frame   +x right, +y down, +z forward (standard pinhole).
  gravity        a unit vector in the camera frame pointing along
                 gravitational acceleration, i.e. (0, 1, 0) for a level
                 camera.
  world frame    y-axis parallel to gravity, z-axis the camera forward
                 direction projected onto the horizontal plane, x-axis
                 completing a right-handed frame.
  yaw            degrees about the gravity axis.  An object with yaw 0
                 faces the camera; its horizontal facing vector in world
                 coordinates is (sin yaw, 0, -cos yaw).
  angles         degrees everywhere in public APIs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pmap import PointMap, make_pointmap


class GeometryError(Exception):
    pass


class EmptyObjectError(GeometryError):
    """Raised when an object has no usable 3D points."""


@dataclass(frozen=True)
class CameraIntrinsics:
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError(f"focal lengths must be positive: {self.fx}, {self.fy}")

    def to_dict(self) -> dict:
        return {"fx": self.fx, "fy": self.fy, "cx": self.cx, "cy": self.cy}

    @classmethod
    def from_dict(cls, d: dict) -> "CameraIntrinsics":
        return cls(fx=d["fx"], fy=d["fy"], cx=d["cx"], cy=d["cy"])


@dataclass(frozen=True)
class GravityFrame:
    """Rotation between the camera frame and the gravity-aligned world frame.

    ``rotation`` rows are the world axes expressed in camera coordinates,
    so world vectors are ``rotation @ v_cam``.
    """

    rotation: np.ndarray  # (3, 3)

    def to_world(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float) @ self.rotation.T

    def to_camera(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=float) @ self.rotation


# Index of each named dimension in an object's (width, height, depth) size.
DIM_INDEX = {"width": 0, "height": 1, "depth": 2}


def facing_vector(yaw_deg: float) -> np.ndarray:
    """Horizontal facing direction in world coordinates for a yaw angle."""
    r = math.radians(yaw_deg)
    return np.array([math.sin(r), 0.0, -math.cos(r)])


def box_local_axes(yaw_deg: float) -> np.ndarray:
    """Rows are the box local x/y/z axes in world coordinates."""
    r = math.radians(yaw_deg)
    c, s = math.cos(r), math.sin(r)
    return np.array([
        [c, 0.0, s],      # local x (width axis)
        [0.0, 1.0, 0.0],  # local y (height axis, gravity)
        [-s, 0.0, c],     # local z (depth axis)
    ])


# ---------------------------------------------------------------------------
# Backprojection
# ---------------------------------------------------------------------------

def backproject(depth: np.ndarray, intrinsics: CameraIntrinsics) -> PointMap:
    """Pinhole backprojection of a metric depth grid to a point map.

    For pixel (u, v) with depth z:  x = (u - cx) * z / fx,
    y = (v - cy) * z / fy.  Pixels with nonpositive or nonfinite depth are
    marked invalid.
    """
    z = np.asarray(depth, dtype=np.float64)
    h, w = z.shape
    us = np.arange(w, dtype=np.float64) - intrinsics.cx
    vs = np.arange(h, dtype=np.float64)[:, None] - intrinsics.cy
    # computed in float64, rounded once on assignment into float32
    points = np.empty((h, w, 3), dtype=np.float32)
    points[:, :, 0] = us * z / intrinsics.fx
    points[:, :, 1] = vs * z / intrinsics.fy
    points[:, :, 2] = z
    return make_pointmap(points, np.isfinite(z) & (z > 0))


def project(points: np.ndarray, intrinsics: CameraIntrinsics) -> np.ndarray:
    """Project camera-frame points to pixel coordinates (u, v)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    u = intrinsics.fx * pts[:, 0] / pts[:, 2] + intrinsics.cx
    v = intrinsics.fy * pts[:, 1] / pts[:, 2] + intrinsics.cy
    return np.stack([u, v], axis=1)


# ---------------------------------------------------------------------------
# Object point extraction
# ---------------------------------------------------------------------------

def extract_object_points(pm: PointMap, mask: np.ndarray) -> np.ndarray:
    """The (n, 3) camera-frame points of the masked, valid pixels."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (pm.height, pm.width):
        raise GeometryError(
            f"mask shape {mask.shape} != point map {(pm.height, pm.width)}"
        )
    take = mask & pm.valid
    if not take.any():
        raise EmptyObjectError(
            f"no valid pixels under mask ({int(mask.sum())} masked)")
    return pm.points[take].astype(np.float64)


# ---------------------------------------------------------------------------
# Gravity frame
# ---------------------------------------------------------------------------

_FORWARD = np.array([0.0, 0.0, 1.0])


def gravity_frame(gravity_dir: np.ndarray) -> GravityFrame:
    """Build the gravity-aligned world frame from a camera-frame gravity unit vector.

    world-y = gravity; world-z = camera forward projected orthogonal to
    gravity; world-x completes the right-handed frame.  Raises
    GeometryError when gravity is not a unit vector or is (anti)parallel
    to camera forward.
    """
    g = np.asarray(gravity_dir, dtype=float)
    norm = np.linalg.norm(g)
    if abs(norm - 1.0) > 1e-6:
        raise GeometryError(f"gravity norm |g| = {norm:.8f}, not 1")
    g = g / norm
    fwd = _FORWARD - np.dot(_FORWARD, g) * g
    fwd_norm = np.linalg.norm(fwd)
    if fwd_norm < 1e-6:
        raise GeometryError("gravity parallel to camera forward; "
                            "horizontal frame undefined")
    z_axis = fwd / fwd_norm
    y_axis = g
    x_axis = np.cross(y_axis, z_axis)
    return GravityFrame(rotation=np.stack([x_axis, y_axis, z_axis]))


IDENTITY_GRAVITY = np.array([0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# Minimum-area bounding rectangle (rotating calipers)
# ---------------------------------------------------------------------------

def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Andrew's monotone chain; returns hull vertices in CCW order."""
    pts = np.unique(points, axis=0)
    if len(pts) <= 2:
        return pts
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    # the chain runs on Python floats: the same doubles as numpy rows,
    # without a numpy call per scalar
    pts = pts[order].tolist()

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[list[float]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[list[float]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.array(lower[:-1] + upper[:-1])


def min_area_rect(points_2d: np.ndarray) -> tuple[float, float, float, np.ndarray]:
    """Minimum-area enclosing rectangle of a 2D point set.

    Returns (angle_deg in [0, 90), extent_u, extent_v, center) where
    extent_u spans the direction (cos a, sin a) and extent_v its normal.
    The optimal rectangle has a side collinear with a convex hull edge.
    """
    pts = np.asarray(points_2d, dtype=float)
    hull = _convex_hull(pts)
    if len(hull) == 1:
        return 0.0, 0.0, 0.0, hull[0].copy()
    if len(hull) == 2:
        d = hull[1] - hull[0]
        ang = math.degrees(math.atan2(d[1], d[0])) % 90.0
        return _rect_at_angle(pts, ang)

    best = None
    edges = np.diff(np.vstack([hull, hull[:1]]), axis=0)
    for e in edges:
        ang = math.degrees(math.atan2(e[1], e[0])) % 90.0
        cand = _rect_at_angle(hull, ang)
        area = cand[1] * cand[2]
        if best is None or area < best[0] - 1e-12:
            best = (area, cand)
    return best[1]


def _rect_at_angle(pts: np.ndarray, angle_deg: float):
    r = math.radians(angle_deg)
    c, s = math.cos(r), math.sin(r)
    u = pts[:, 0] * c + pts[:, 1] * s
    v = -pts[:, 0] * s + pts[:, 1] * c
    umin, umax = u.min(), u.max()
    vmin, vmax = v.min(), v.max()
    cu, cv = (umin + umax) / 2.0, (vmin + vmax) / 2.0
    center = np.array([cu * c - cv * s, cu * s + cv * c])
    return angle_deg, float(umax - umin), float(vmax - vmin), center


# ---------------------------------------------------------------------------
# Box fitting
# ---------------------------------------------------------------------------

_MIN_HALF_EXTENT = 1e-4  # meters; keeps degenerate boxes representable
_GATE_MADS = 3.0


def _robust_inliers(world_pts: np.ndarray) -> np.ndarray:
    """Per-axis percentile gate; points outside on any axis are outliers.

    The gate expands the 1st-99th percentile interval by the larger of
    _GATE_MADS * MAD and 30% of the interval itself.  The MAD term rejects
    far segmentation bleed; the spread term keeps thin single-face strips
    (where the mass concentrates at one end and MAD collapses) intact.
    """
    keep = np.ones(len(world_pts), dtype=bool)
    for axis in range(3):
        v = world_pts[:, axis]
        p1, p99 = np.percentile(v, [1.0, 99.0])
        mad = np.median(np.abs(v - np.median(v)))
        margin = max(_GATE_MADS * mad, 0.3 * (p99 - p1))
        keep &= (v >= p1 - margin) & (v <= p99 + margin)
    return keep


def fit_box3d(points: np.ndarray, gf: GravityFrame,
              yaw_hint_deg: float | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Fit a gravity-aligned 3D box to (n, 3) camera-frame points.

    Returns ``(center, size)``: the camera-frame center and the full
    (width, height, depth) extents in meters, each at least
    ``2 * _MIN_HALF_EXTENT``.  Height is the world-y span; width and
    depth are measured along the axes of ``yaw_hint_deg`` when given,
    otherwise along the sides of the minimum-area rectangle of the
    horizontal projection.  Fewer than 3 points give the axis-aligned
    extents.  From 20 points on, a percentile+MAD gate drops far
    outliers (segmentation bleed that survives clustering) before taking
    exact extents over the survivors.
    """
    if len(points) == 0:
        raise EmptyObjectError("empty point cloud")
    world = gf.to_world(points)
    if len(world) >= 20:
        keep = _robust_inliers(world)
        if keep.any():
            world = world[keep]

    if len(world) < 3:
        lo = world.min(axis=0)
        hi = world.max(axis=0)
        return (gf.to_camera((lo + hi) / 2.0),
                np.maximum(hi - lo, 2 * _MIN_HALF_EXTENT))

    ymin, ymax = world[:, 1].min(), world[:, 1].max()
    horiz = world[:, [0, 2]]  # world (x, z)

    if yaw_hint_deg is not None:
        # footprint measured along the hinted box axes (local x, local z)
        _, width, depth, (cx, cz) = _rect_at_angle(horiz, float(yaw_hint_deg))
    else:
        _, width, depth, (cx, cz) = min_area_rect(horiz)

    center_w = np.array([cx, (ymin + ymax) / 2.0, cz])
    half = np.maximum(
        np.array([width, ymax - ymin, depth]) / 2.0, _MIN_HALF_EXTENT
    )
    return gf.to_camera(center_w), 2.0 * half
