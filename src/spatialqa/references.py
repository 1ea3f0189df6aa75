"""Unique natural-language references for scene objects.

Reference kinds, in selection priority order:

  textual          externally generated caption that passed grounding
                   verification (exactly one grounder box, IoU > 0.7)
  category         "the sofa" - sole instance of its category
  linear-order     "the second chair from the left" - same-category centers
                   in a near-linear arrangement (PCA ratio test)
  positional       "the leftmost bowl", "the second closest table to the
                   camera" - rank along a world axis or camera distance
  size-comparison  "the widest sofa", "the tallest door"
  box-fallback     "the chair (highlighted by red box)" plus a pixel box

Every emitted reference resolves back to exactly one object under
``resolve_reference``; rank-based references are only produced when
adjacent ranked values clear a 10% guard.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import GravityFrame
from .relations import (
    ATTRIBUTE_GETTERS,
    COMPARISON_RATIO,
    COORDINATE_GAP_FLOOR_M,
    SceneObject,
    ratio_gaps_ok,
)

FALLBACK_PALETTE = ("red", "green", "blue", "yellow",
                    "magenta", "cyan", "orange", "purple")
PCA_LINEAR_RATIO = 0.15
AXIS_AMBIGUITY_DEG = 10.0
TEXTUAL_IOU_THRESHOLD = 0.7

_ORDINALS = ("first", "second", "third", "fourth", "fifth", "sixth",
             "seventh", "eighth", "ninth", "tenth")


def ordinal_word(n: int) -> str:
    """1 -> "first", 2 -> "second", ...; falls back to "11th" style."""
    if 1 <= n <= len(_ORDINALS):
        return _ORDINALS[n - 1]
    return f"{n}th"


@dataclass
class ObjectReference:
    object_id: str
    kind: str       # textual | category | linear-order | positional |
    #                 size-comparison | box-fallback
    text: str
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Textual verification and fallback
# ---------------------------------------------------------------------------

def verify_textual_reference(grounded_boxes: list, gt_iou: float) -> bool:
    """A caption is valid iff the grounder returned exactly one box with
    IoU strictly above the threshold."""
    if len(grounded_boxes) != 1:
        return False
    return gt_iou > TEXTUAL_IOU_THRESHOLD


def fallback_color(palette_index: int) -> str:
    """Deterministic color name; cycles add a disambiguating ordinal."""
    color = FALLBACK_PALETTE[palette_index % len(FALLBACK_PALETTE)]
    cycle = palette_index // len(FALLBACK_PALETTE)
    if cycle == 0:
        return color
    return f"{ordinal_word(cycle + 1)} {color}"


def fallback_reference(object_id: str, category: str,
                       palette_index: int) -> ObjectReference:
    color = fallback_color(palette_index)
    return ObjectReference(
        object_id=object_id, kind="box-fallback",
        text=f"the {category} (highlighted by {color} box)",
        params={"palette_index": palette_index},
    )


# ---------------------------------------------------------------------------
# Linear ordering (PCA)
# ---------------------------------------------------------------------------

_AXIS_SIDE = {0: ("left", "left-right"), 1: ("top", "top-bottom"),
              2: ("front", "front-back")}


def linear_order_reference(objs: list[SceneObject], gf: GravityFrame
                           ) -> list[ObjectReference] | None:
    """Ordinal references along the dominant axis of a near-linear group.

    Principal components come from the SVD of the centered world-frame
    centers; the group is linear when the second singular value is below
    ``PCA_LINEAR_RATIO`` of the first.  Returns None when the group is not
    linear or the dominant direction is ambiguous between two world axes.
    """
    if len(objs) < 3:
        return None
    centers = np.stack([gf.to_world(o.center.astype(float)) for o in objs])
    centered = centers - centers.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    s0, s1 = float(svals[0]), float(svals[1])
    if s0 <= 0:
        return None
    if s1 / s0 >= PCA_LINEAR_RATIO:
        return None

    pc1 = vt[0]
    cosines = np.abs(pc1)
    angles = np.degrees(np.arccos(np.clip(cosines, 0.0, 1.0)))
    order = np.argsort(angles)
    if angles[order[1]] - angles[order[0]] < AXIS_AMBIGUITY_DEG:
        return None
    axis = int(order[0])
    if pc1[axis] < 0:
        pc1 = -pc1
    side, axis_name = _AXIS_SIDE[axis]

    proj = centered @ pc1
    ranking = np.argsort(proj, kind="stable")
    category = objs[0].category
    refs = []
    for rank, idx in enumerate(ranking):
        obj = objs[int(idx)]
        refs.append(ObjectReference(
            object_id=obj.object_id, kind="linear-order",
            text=f"the {ordinal_word(rank + 1)} {category} from the {side}",
            params={"axis": axis_name, "rank": rank, "side": side},
        ))
    return refs


# ---------------------------------------------------------------------------
# Positional and size ranks
# ---------------------------------------------------------------------------

# metric -> (lowest text, highest text, middle pattern), ranked by
# ascending value; size ranks count middle ranks from the top ("the second
# widest"), the others from the bottom
_RANK_SURFACE = {
    "x": ("the leftmost {cat}", "the rightmost {cat}",
          "the {ord} {cat} from the left"),
    "y": ("the highest {cat}", "the lowest {cat}", "the {ord} highest {cat}"),
    "z": ("the frontmost {cat}", "the rearmost {cat}",
          "the {ord} {cat} from the front"),
    "camera-distance": ("the closest {cat} to the camera",
                        "the farthest {cat} from the camera",
                        "the {ord} closest {cat} to the camera"),
    "width": ("the narrowest {cat}", "the widest {cat}",
              "the {ord} widest {cat}"),
    "height": ("the shortest {cat}", "the tallest {cat}",
               "the {ord} tallest {cat}"),
    "volume": ("the smallest {cat}", "the largest {cat}",
               "the {ord} largest {cat}"),
}
# (lowest, highest) texts of a two-object group, where they differ
_PAIR_SURFACE = {"camera-distance": ("the closer {cat}", "the farther {cat}")}
_SIZE_DIMENSIONS = ("width", "height", "volume")


def _coordinate_gaps_ok(values: list[float]) -> bool:
    for lo, hi in zip(values, values[1:]):
        gap = hi - lo
        if gap < max(COMPARISON_RATIO * max(abs(lo), abs(hi)),
                     COORDINATE_GAP_FLOOR_M):
            return False
    return True


def _rank_references(objs: list[SceneObject], metric: str, value, gaps_ok,
                     out: dict[str, list[ObjectReference]]) -> None:
    """Append a rank reference per object along ``metric`` to ``out``,
    unless some pair of adjacent ranked values fails ``gaps_ok``."""
    ranked = sorted(objs, key=value)
    if not gaps_ok([value(o) for o in ranked]):
        return
    n = len(ranked)
    low, high, mid = _RANK_SURFACE[metric]
    if n == 2:
        low, high = _PAIR_SURFACE.get(metric, (low, high))
    size = metric in _SIZE_DIMENSIONS
    for rank, obj in enumerate(ranked):
        pattern = low if rank == 0 else high if rank == n - 1 else mid
        text = pattern.format(cat=objs[0].category,
                              ord=ordinal_word(n - rank if size else rank + 1))
        out[obj.object_id].append(ObjectReference(
            object_id=obj.object_id,
            kind="size-comparison" if size else "positional", text=text,
            params={"dimension" if size else "metric": metric, "rank": rank},
        ))


def positional_reference(objs: list[SceneObject], gf: GravityFrame
                         ) -> dict[str, list[ObjectReference]]:
    """Rank-based positional references for a same-category group.

    Returns candidates per object id; empty lists where no metric clears
    its guard.  Camera distance uses the 10% ratio guard; signed world
    coordinates additionally require an absolute gap floor.
    """
    out: dict[str, list[ObjectReference]] = {o.object_id: [] for o in objs}
    if len(objs) < 2:
        return out
    centers = {o.object_id: gf.to_world(o.center.astype(float)) for o in objs}
    for axis_i, axis in enumerate(("x", "y", "z")):
        _rank_references(
            objs, axis, lambda o: float(centers[o.object_id][axis_i]),
            _coordinate_gaps_ok, out)
    _rank_references(objs, "camera-distance",
                     ATTRIBUTE_GETTERS["camera-distance"], ratio_gaps_ok, out)
    return out


def size_reference(objs: list[SceneObject], dimension: str
                   ) -> dict[str, list[ObjectReference]]:
    """Size-rank references ("the widest sofa") for a same-category group."""
    if dimension not in _SIZE_DIMENSIONS:
        raise ValueError(f"unknown size dimension {dimension!r}")
    out: dict[str, list[ObjectReference]] = {o.object_id: [] for o in objs}
    if len(objs) >= 2:
        _rank_references(objs, dimension, ATTRIBUTE_GETTERS[dimension],
                         ratio_gaps_ok, out)
    return out


# ---------------------------------------------------------------------------
# Selection and resolution
# ---------------------------------------------------------------------------

_KIND_PRIORITY = {"textual": 0, "category": 1, "linear-order": 2,
                  "positional": 3, "size-comparison": 4, "box-fallback": 5}


def select_reference(candidates: list[ObjectReference]) -> ObjectReference:
    """First candidate of the simplest kind that was produced."""
    if not candidates:
        raise ValueError("no reference candidates to select from")
    return min(enumerate(candidates),
               key=lambda t: (_KIND_PRIORITY[t[1].kind], t[0]))[1]


def assign_references(objs: list[SceneObject], gf: GravityFrame,
                      verified_captions: dict[str, str] | None = None
                      ) -> dict[str, ObjectReference]:
    """One unique reference per object, picking the simplest passing kind."""
    verified_captions = verified_captions or {}
    by_category: dict[str, list[SceneObject]] = {}
    for o in objs:
        by_category.setdefault(o.category, []).append(o)

    candidates: dict[str, list[ObjectReference]] = {o.object_id: [] for o in objs}
    for oid, caption in verified_captions.items():
        if oid in candidates:
            candidates[oid].append(ObjectReference(
                object_id=oid, kind="textual", text=caption))

    for category, group in by_category.items():
        if len(group) == 1:
            obj = group[0]
            candidates[obj.object_id].append(ObjectReference(
                object_id=obj.object_id, kind="category",
                text=f"the {category}"))
            continue
        linear = linear_order_reference(group, gf)
        if linear:
            for ref in linear:
                candidates[ref.object_id].append(ref)
        for oid, refs in positional_reference(group, gf).items():
            candidates[oid].extend(refs)
        for dimension in _SIZE_DIMENSIONS:
            for oid, refs in size_reference(group, dimension).items():
                candidates[oid].extend(refs)

    result: dict[str, ObjectReference] = {}
    fallback_index = 0
    for o in objs:
        cands = candidates[o.object_id]
        if cands:
            result[o.object_id] = select_reference(cands)
        else:
            result[o.object_id] = fallback_reference(
                o.object_id, o.category, fallback_index)
            fallback_index += 1
    return result


def resolve_reference(ref: ObjectReference, objs: list[SceneObject],
                      gf: GravityFrame) -> SceneObject | None:
    """Re-resolve a non-textual reference against the scene.

    Returns the unique matching object, or None when the reference no
    longer resolves (used by tests to prove uniqueness).
    """
    if ref.kind == "textual":
        return None  # resolution lives in the external grounder
    if ref.kind == "box-fallback":
        matches = [o for o in objs if o.object_id == ref.object_id]
        return matches[0] if len(matches) == 1 else None

    category = _category_of(ref, objs)
    group = [o for o in objs if o.category == category]
    if ref.kind == "category":
        return group[0] if len(group) == 1 else None
    if ref.kind == "linear-order":
        refs = linear_order_reference(group, gf)
        if not refs:
            return None
        for r in refs:
            if r.params["rank"] == ref.params["rank"] and r.text == ref.text:
                return _by_id(r.object_id, objs)
        return None
    if ref.kind == "positional":
        table = positional_reference(group, gf)
    elif ref.kind == "size-comparison":
        table = size_reference(group, ref.params["dimension"])
    else:
        raise ValueError(f"unknown reference kind {ref.kind!r}")
    for oid, refs in table.items():
        for r in refs:
            if r.params == ref.params and r.text == ref.text:
                return _by_id(oid, objs)
    return None


def _category_of(ref: ObjectReference, objs: list[SceneObject]) -> str:
    for o in objs:
        if o.object_id == ref.object_id:
            return o.category
    raise ValueError(f"reference object {ref.object_id!r} not in scene")


def _by_id(oid: str, objs: list[SceneObject]) -> SceneObject | None:
    for o in objs:
        if o.object_id == oid:
            return o
    return None
