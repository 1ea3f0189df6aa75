"""Geometric relations behind the hierarchical QA tasks.

Level 0 operates on point-map pixels, level 1 on single objects, level 2
on object pairs and groups, level 3 adds anchor-centric viewpoints and
constrained counting.

Qualitative outputs are guard-banded: a label is only produced when the
underlying quantity clears a fixed margin (the module constants below)
from the bin boundary, so every emitted answer is unambiguous.  Functions
return None where a guard suppresses the output; precondition violations
raise.

Direction labels are observer-centric: "front" is along the observer's
facing direction (the camera's forward axis for camera-frame questions),
"right" is the observer's right, "below" is along gravity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GravityFrame, facing_vector
from .pmap import PointMap


class RelationError(Exception):
    pass


# Margins a qualitative answer must clear before a QA item is emitted.
ORIENTATION_GUARD_DEG = 30.0     # yaw distance to a canonical facing
DIRECTION_GUARD_DEG = 30.0       # min angle from axis plane boundary
COMPARISON_RATIO = 0.10          # min gap between compared values
CONSISTENCY_DEG = 15.0           # similar/orthogonal/opposite bins
DEPTH_TIE_MARGIN_M = 0.15        # depth-order tie window
COORDINATE_GAP_FLOOR_M = 0.05    # absolute floor for coordinate ranks
DISTANCE_FLOOR_M = 0.20          # min component distance for QA emission
# minimum |unit-vector component| for an axis label
DIRECTION_COMPONENT = math.sin(math.radians(DIRECTION_GUARD_DEG))

AXIS_LABELS = {
    "x": ("left", "right"),    # negative, positive world/anchor x
    "y": ("above", "below"),   # y points along gravity (down)
    "z": ("behind", "front"),  # z points along the observer's facing
}
AXIS_OF_LABEL = {lab: ax for ax, (neg, pos) in AXIS_LABELS.items()
                 for lab in (neg, pos)}
OPPOSITE_LABEL = {neg: pos for neg, pos in AXIS_LABELS.values()}
OPPOSITE_LABEL.update({pos: neg for neg, pos in AXIS_LABELS.values()})

ORIENTATION_LABELS = ("front", "right", "back", "left")  # yaw 0/90/180/270


@dataclass
class SceneObject:
    """One object: the camera-frame ``center`` and the full (width,
    height, depth) ``size`` in meters of its gravity-aligned box, and the
    semantic facing ``yaw_deg`` (mod 360) that an annotation or an
    orientation estimator supplies, else None; no box fit stands in for it.
    """

    object_id: str
    category: str
    center: np.ndarray
    size: np.ndarray
    yaw_deg: float | None = None

    @property
    def camera_distance(self) -> float:
        return float(np.linalg.norm(self.center))


# ---------------------------------------------------------------------------
# Level 0
# ---------------------------------------------------------------------------

def query_point(pm: PointMap, u: int, v: int) -> np.ndarray:
    """Stored camera-frame point at pixel (u, v); RelationError on an
    invalid or out-of-bounds pixel."""
    if not (0 <= u < pm.width and 0 <= v < pm.height):
        raise RelationError(f"pixel ({u},{v}) outside {pm.width}x{pm.height}")
    if not pm.is_valid(u, v):
        raise RelationError(f"pixel ({u},{v}) has no valid geometry")
    return pm.point_at(u, v).astype(float)


def depth_order(pm: PointMap, p1: tuple[int, int],
                p2: tuple[int, int]) -> str:
    """Which pixel is closer in depth: "first", "second" or "tie"."""
    z1 = query_point(pm, *p1)[2]
    z2 = query_point(pm, *p2)[2]
    if abs(z1 - z2) <= DEPTH_TIE_MARGIN_M:
        return "tie"
    return "first" if z1 < z2 else "second"


# ---------------------------------------------------------------------------
# Level 1
# ---------------------------------------------------------------------------

def orientation_label(obj: SceneObject) -> str | None:
    """Canonical facing label from yaw, guard-banded.

    Returns None when the facing is not within the guard band of any
    canonical direction.  Raises when the object has no yaw.
    """
    if obj.yaw_deg is None:
        raise RelationError(f"object {obj.object_id!r} has no yaw")
    yaw = obj.yaw_deg % 360.0
    best_i, best_d = None, 360.0
    for i, canonical in enumerate((0.0, 90.0, 180.0, 270.0)):
        d = abs((yaw - canonical + 180.0) % 360.0 - 180.0)
        if d < best_d:
            best_i, best_d = i, d
    if best_d > ORIENTATION_GUARD_DEG:
        return None
    return ORIENTATION_LABELS[best_i]


# ---------------------------------------------------------------------------
# Level 2
# ---------------------------------------------------------------------------

def _label_components(unit: np.ndarray) -> dict[str, str]:
    labels: dict[str, str] = {}
    for i, axis in enumerate(("x", "y", "z")):
        comp = float(unit[i])
        if abs(comp) >= DIRECTION_COMPONENT:
            neg, pos = AXIS_LABELS[axis]
            labels[axis] = pos if comp > 0 else neg
    return labels


def relative_position(a: SceneObject, b: SceneObject, gf: GravityFrame
                      ) -> tuple[np.ndarray, dict[str, str], dict[str, float]]:
    """Where b is from a: the camera-frame unit vector, the per-axis labels
    and the distances (see ``_distances``).

    Labels are evaluated on the gravity-aligned world components and only
    emitted for axes where the component clears the guard band; the
    distances decompose b - a in the same world frame.
    """
    delta = b.center.astype(float) - a.center.astype(float)
    norm = float(np.linalg.norm(delta))
    if norm < 1e-9:
        raise RelationError(
            f"objects {a.object_id!r} and {b.object_id!r} have coincident centers"
        )
    world = gf.to_world(delta)
    return delta / norm, _label_components(world / norm), _distances(world)


def _distances(delta: np.ndarray) -> dict[str, float]:
    """Euclidean, vertical, horizontal (left-right) and depth-wise
    distances of a (right, down, forward) frame delta vector."""
    return {
        "euclidean": float(np.linalg.norm(delta)),
        "vertical": abs(float(delta[1])),
        "horizontal": abs(float(delta[0])),
        "depthwise": abs(float(delta[2])),
    }


ATTRIBUTE_GETTERS = {
    "camera-distance": lambda o: o.camera_distance,
    "width": lambda o: float(o.size[0]),
    "height": lambda o: float(o.size[1]),
    "volume": lambda o: float(np.prod(o.size)),
}


def ratio_gaps_ok(values: list[float]) -> bool:
    """The 10% rule: each of the ascending ``values`` exceeds the one
    before it by at least ``COMPARISON_RATIO`` of it."""
    return all(hi >= lo * (1.0 + COMPARISON_RATIO)
               for lo, hi in zip(values, values[1:]))


def relational_comparison(objs: list[SceneObject], attribute: str,
                          mode: str) -> list[str] | None:
    """Object ids in ascending order of an attribute; None when the guard
    fails.  The selected object of "extreme-min" is the first id, that of
    "extreme-max" the last.

    Extreme modes require the 10% gap only next to the selected extreme;
    a full order requires every consecutive gap, making the emitted order
    strict.
    """
    if attribute not in ATTRIBUTE_GETTERS:
        raise RelationError(f"unknown attribute {attribute!r}")
    if mode not in ("extreme-min", "extreme-max", "full-order"):
        raise RelationError(f"unknown mode {mode!r}")
    if len(objs) < 2:
        raise RelationError("comparison needs at least two objects")
    getter = ATTRIBUTE_GETTERS[attribute]
    pairs = sorted(((getter(o), o.object_id) for o in objs))
    values = [p[0] for p in pairs]
    guarded = {"full-order": values, "extreme-min": values[:2],
               "extreme-max": values[-2:]}[mode]
    if not ratio_gaps_ok(guarded):
        return None
    return [p[1] for p in pairs]


def orientation_consistency(a: SceneObject, b: SceneObject) -> str | None:
    """similar / orthogonal / opposite yaw relation, or None in the gaps."""
    if a.yaw_deg is None or b.yaw_deg is None:
        raise RelationError("both objects need a yaw for consistency")
    delta = abs((a.yaw_deg - b.yaw_deg + 180.0) % 360.0 - 180.0)
    if delta <= CONSISTENCY_DEG:
        return "similar"
    if abs(delta - 90.0) <= CONSISTENCY_DEG:
        return "orthogonal"
    if delta >= 180.0 - CONSISTENCY_DEG:
        return "opposite"
    return None


# ---------------------------------------------------------------------------
# Level 3
# ---------------------------------------------------------------------------

def _anchor_frame(anchor: SceneObject, gf: GravityFrame
                  ) -> tuple[np.ndarray, np.ndarray]:
    """(rotation rows right/down/forward in world coords, position world)
    of an anchor facing along its yaw."""
    if anchor.yaw_deg is None:
        raise RelationError(
            f"anchor {anchor.object_id!r} has no yaw for perspective taking"
        )
    forward = facing_vector(anchor.yaw_deg)
    down = np.array([0.0, 1.0, 0.0])
    right = np.cross(down, forward)
    rot = np.stack([right, down, forward])
    return rot, gf.to_world(anchor.center.astype(float))


def perspective_transform(anchor: SceneObject, target: SceneObject,
                          gf: GravityFrame
                          ) -> tuple[dict[str, str], dict[str, float]]:
    """Direction labels and distances of target in the anchor-centric frame.

    The anchor frame has forward along the anchor facing (projected
    horizontal), down along gravity, right completing the frame, so the
    axis labels read as the anchor's left/right/front/behind.  The anchor
    is a scene object with a yaw; the camera as observer is the object at
    the origin with yaw 180.  An anchor without a yaw raises
    ``RelationError``.
    """
    rot, anchor_pos_w = _anchor_frame(anchor, gf)
    target_w = gf.to_world(target.center.astype(float))
    delta = rot @ (target_w - anchor_pos_w)
    norm = float(np.linalg.norm(delta))
    if norm < 1e-9:
        raise RelationError("target coincides with the anchor")
    return _label_components(delta / norm), _distances(delta)


def spatial_count(objs: list[SceneObject], category: str,
                  anchor: SceneObject, label: str,
                  gf: GravityFrame) -> int | None:
    """Count category members with the given directional relation to anchor.

    Returns None when any member's relation along the queried axis is
    guard-suppressed: a human reader could not count such a scene
    unambiguously, so the question itself is withheld.
    """
    if label not in AXIS_OF_LABEL:
        raise RelationError(f"unknown direction label {label!r}")
    axis = AXIS_OF_LABEL[label]
    members = [o for o in objs
               if o.category == category and o.object_id != anchor.object_id]
    count = 0
    for member in members:
        _, labels, _ = relative_position(anchor, member, gf)
        if axis not in labels:
            return None
        if labels[axis] == label:
            count += 1
    return count
