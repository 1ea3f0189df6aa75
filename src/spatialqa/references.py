"""Unique natural-language references for scene objects.

``assign_references`` gives each object one text.  A caption that passed
grounding verification (exactly one grounder box, IoU > 0.7) is the
object's text, unless it is blank or also another object's text.
Otherwise its same-category group takes the first rule that names every
member apart:

  "the sofa"                        sole instance of its category
  "the second chair from the left"  linear order: centers in a near-linear
                                    arrangement (PCA ratio test)
  "the leftmost bowl", "the second  the first ranking of ``RANKINGS``
  closest table to the camera",     whose adjacent ranked values all clear
  "the widest sofa"                 the 10% guard

Objects that no rule names get "the chair (highlighted by red box)", the
palette counted over the scene's objects in order.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .assignment import box_iou
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
    """1 -> "first", ..., 10 -> "tenth"; then "11th", "21st", "22nd"."""
    if 1 <= n <= len(_ORDINALS):
        return _ORDINALS[n - 1]
    if n % 100 in (11, 12, 13) or n % 10 not in (1, 2, 3):
        return f"{n}th"
    return f"{n}{('st', 'nd', 'rd')[n % 10 - 1]}"


# ---------------------------------------------------------------------------
# Textual verification and fallback
# ---------------------------------------------------------------------------

def verify_textual_reference(grounded_boxes: list, box2d) -> bool:
    """A caption is valid iff the grounder returned exactly one box whose
    IoU with the annotation box ``box2d`` is strictly above the threshold."""
    return (len(grounded_boxes) == 1
            and box_iou(grounded_boxes[0], box2d) > TEXTUAL_IOU_THRESHOLD)


def fallback_color(palette_index: int) -> str:
    """Deterministic color name; cycles add a disambiguating ordinal."""
    color = FALLBACK_PALETTE[palette_index % len(FALLBACK_PALETTE)]
    cycle = palette_index // len(FALLBACK_PALETTE)
    if cycle == 0:
        return color
    return f"{ordinal_word(cycle + 1)} {color}"


def fallback_reference(category: str, palette_index: int) -> str:
    color = fallback_color(palette_index)
    return f"the {category} (highlighted by {color} box)"


# ---------------------------------------------------------------------------
# Linear ordering (PCA)
# ---------------------------------------------------------------------------

_AXIS_SIDE = ("left", "top", "front")


def linear_order_reference(objs: list[SceneObject], gf: GravityFrame
                           ) -> dict[str, str] | None:
    """Ordinal texts along the dominant axis of a near-linear group.

    Principal components come from the SVD of the centered world-frame
    centers; the group is linear when the second singular value is below
    ``PCA_LINEAR_RATIO`` of the first.  Returns None when the group is not
    linear or the dominant direction is ambiguous between two world axes.
    """
    if len(objs) < 3:
        return None
    centers = np.stack([gf.to_world(o.center) for o in objs])
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
    side = _AXIS_SIDE[axis]

    ranking = np.argsort(centered @ pc1, kind="stable")
    category = objs[0].category
    return {objs[int(i)].object_id:
            f"the {ordinal_word(rank + 1)} {category} from the {side}"
            for rank, i in enumerate(ranking)}


# ---------------------------------------------------------------------------
# Positional and size ranks
# ---------------------------------------------------------------------------

# The rankings a group tries after linear order, in order: world x, y and
# z, camera distance, then size.
RANKINGS = ("x", "y", "z", "camera-distance", "width", "height", "volume")

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


def _coordinate_gaps_ok(values: list[float]) -> bool:
    for lo, hi in zip(values, values[1:]):
        gap = hi - lo
        if gap < max(COMPARISON_RATIO * max(abs(lo), abs(hi)),
                     COORDINATE_GAP_FLOOR_M):
            return False
    return True


def rank_reference(objs: list[SceneObject], metric: str, gf: GravityFrame
                   ) -> dict[str, str] | None:
    """Rank texts of a same-category group of two or more along ``metric``.

    Returns None unless every pair of adjacent ranked values clears its
    guard: camera distance and sizes use the 10% ratio guard; signed world
    coordinates additionally require an absolute gap floor.
    """
    if metric in ("x", "y", "z"):
        axis = "xyz".index(metric)
        values = [float(gf.to_world(o.center)[axis]) for o in objs]
        gaps_ok = _coordinate_gaps_ok
    else:
        values = [ATTRIBUTE_GETTERS[metric](o) for o in objs]
        gaps_ok = ratio_gaps_ok
    order = sorted(range(len(objs)), key=values.__getitem__)
    if not gaps_ok([values[i] for i in order]):
        return None
    n = len(objs)
    low, high, mid = _RANK_SURFACE[metric]
    if n == 2:
        low, high = _PAIR_SURFACE.get(metric, (low, high))
    from_top = metric in ("width", "height", "volume")
    texts = {}
    for rank, i in enumerate(order):
        pattern = low if rank == 0 else high if rank == n - 1 else mid
        texts[objs[i].object_id] = pattern.format(
            cat=objs[0].category,
            ord=ordinal_word(n - rank if from_top else rank + 1))
    return texts


# ---------------------------------------------------------------------------
# Assignment
# ---------------------------------------------------------------------------

def _group_texts(group: list[SceneObject], gf: GravityFrame
                 ) -> dict[str, str]:
    """The texts of the first rule that names every member of a
    same-category group apart; empty when none does."""
    if len(group) == 1:
        return {group[0].object_id: f"the {group[0].category}"}
    linear = linear_order_reference(group, gf)
    if linear:
        return linear
    for metric in RANKINGS:
        ranked = rank_reference(group, metric, gf)
        if ranked:
            return ranked
    return {}


def assign_references(objs: list[SceneObject], gf: GravityFrame,
                      verified_captions: dict[str, str] | None = None
                      ) -> dict[str, str]:
    """One unique text per object id, in the order of ``objs``.

    A verified caption that is blank, or that is also another object's
    text, is not used: its object takes the text it would get without one.
    """
    groups: dict[str, list[SceneObject]] = {}
    for o in objs:
        groups.setdefault(o.category, []).append(o)
    named: dict[str, str] = {}
    for group in groups.values():
        named.update(_group_texts(group, gf))
    verified_captions = verified_captions or {}
    captions = {o.object_id: verified_captions[o.object_id] for o in objs
                if verified_captions.get(o.object_id, "").strip()}
    while True:
        texts: dict[str, str] = {}
        fallback_index = 0
        for o in objs:
            oid = o.object_id
            if oid in captions:
                texts[oid] = captions[oid]
            elif oid in named:
                texts[oid] = named[oid]
            else:
                texts[oid] = fallback_reference(o.category, fallback_index)
                fallback_index += 1
        shared = Counter(texts.values())
        clashing = [oid for oid in captions if shared[texts[oid]] > 1]
        if not clashing:
            return texts
        for oid in clashing:
            del captions[oid]
