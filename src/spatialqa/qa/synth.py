"""Scene-level QA synthesis across the four task levels.

Given a scene (objects with references, gravity frame, point map), the
synthesizer enumerates guard-passing question candidates per family,
picks formats and paraphrases with a seeded generator, and emits items
whose provenance is rich enough for an independent oracle to recompute
every answer.  Output is deterministic for a fixed (seed, scene).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import DIM_INDEX, GravityFrame
from ..pmap import PointMap
from ..quantity import format_point, format_quantity, format_unit_vector
from ..relations import (
    DEPTH_TIE_MARGIN_M,
    DISTANCE_FLOOR_M,
    OPPOSITE_LABEL,
    ORIENTATION_LABELS,
    RelationError,
    SceneObject,
    depth_order,
    orientation_consistency,
    orientation_label,
    perspective_transform,
    relational_comparison,
    relative_position,
    spatial_count,
)
from .items import QAItem
from .mcq import make_mcq, render_options
from .problem import ValidatedProblem
from .templates import (
    MCQ_INSTRUCTION,
    TEMPLATES,
    TF_SUFFIX,
    pick_template,
    plural,
)


@dataclass
class Scene:
    """Everything the synthesizer needs for one image."""

    image_id: str
    objects: list[SceneObject]
    refs: dict[str, str]          # object id -> reference text
    gf: GravityFrame
    pm: PointMap | None = None


# Candidate caps per scene.
N_POINT_QUERIES = 3
N_DEPTH_PAIRS = 2
MAX_PAIRS = 6
MAX_COMPARISONS = 4
MAX_CONSISTENCY = 2
MAX_PERSPECTIVE = 4
MAX_COUNTING = 3

# A False numeric statement states the truth times one of these, one below
# and one above it.  Both lie outside [0.6, 1.67] (0.75/1.25, 1.25/0.75), so
# scaling an estimate in the tight band never states a value in the band.
NUMERIC_MULTIPLIERS = (0.55, 1.8)


_AXIS_CHOICE_CAMERA = {
    "x": "to the left or to the right",
    "y": "above or below",
    "z": "in front (farther along the viewing direction) or behind",
}
_AXIS_CHOICE_ANCHOR = {
    "x": "to your left or to your right",
    "y": "above you or below you",
    "z": "in front of you or behind you",
}
_RELATION_PHRASE = {
    "left": "to the left of", "right": "to the right of",
    "above": "above", "below": "below",
    "front": "in front of (farther than)", "behind": "behind (nearer than)",
}
_ANCHOR_PHRASE = {
    "left": "to its left", "right": "to its right",
    "above": "above it", "below": "below it",
    "front": "in front of it", "behind": "behind it",
}
_COMPONENT_PHRASE = {
    "euclidean": "straight-line distance",
    "vertical": "vertical distance",
    "horizontal": "horizontal (left-right) distance",
    "depthwise": "depth-wise distance",
}
# (two listed objects, three or more): "taller" / "the tallest"
_SUPERLATIVE = {
    ("camera-distance", "extreme-min"): ("closer to the camera",
                                         "closest to the camera"),
    ("camera-distance", "extreme-max"): ("farther from the camera",
                                         "farthest from the camera"),
    ("width", "extreme-min"): ("narrower", "the narrowest"),
    ("width", "extreme-max"): ("wider", "the widest"),
    ("height", "extreme-min"): ("shorter", "the shortest"),
    ("height", "extreme-max"): ("taller", "the tallest"),
    ("volume", "extreme-min"): ("smaller", "the smallest"),
    ("volume", "extreme-max"): ("larger", "the largest"),
}
_ORDER_WORDS = {
    "camera-distance": ("nearest", "farthest"),
    "width": ("narrowest", "widest"),
    "height": ("shortest", "tallest"),
    "volume": ("smallest", "largest"),
}


def _text(kind: str, value) -> str:
    """Answer or stated text of a payload value of the given kind."""
    if kind == "quantity":
        return format_quantity(float(value))
    if kind == "vector3":
        return format_point(value)
    if kind == "unit-vector":
        return format_unit_vector(value)
    if kind == "count":
        return str(int(value))
    return str(value)


def _listing(texts: list[str]) -> str:
    if len(texts) == 2:
        return f"{texts[0]} and {texts[1]}"
    return ", ".join(texts[:-1]) + f", and {texts[-1]}"


class _SceneSynthesizer:
    def __init__(self, scene: Scene, seed: int):
        self.scene = scene
        self.rng = np.random.default_rng(seed)
        self.items: list[QAItem] = []
        self._seq = 0
        self.objects = sorted(scene.objects, key=lambda o: o.object_id)

    # -- emission machinery -------------------------------------------------

    def _corrupt(self, payload: dict, label_pool: list[str] | None):
        """A clearly-false stated value for a negative True/False item."""
        rng = self.rng
        kind, value = payload["kind"], payload["value"]
        if kind in ("quantity", "vector3"):
            k = int(rng.integers(0, len(NUMERIC_MULTIPLIERS)))
            if kind == "quantity":
                return float(value) * NUMERIC_MULTIPLIERS[k]
            return [float(v) * NUMERIC_MULTIPLIERS[k] for v in value]
        if kind == "count":
            truth = int(value)
            delta = int(rng.integers(1, 3))
            return truth + delta if truth == 0 or rng.random() < 0.5 \
                else max(0, truth - delta)
        if kind == "label":
            pool = [p for p in (label_pool or []) if p != value]
            if not pool:
                return None
            return pool[int(rng.integers(0, len(pool)))]
        return None

    def _emit(self, family: str, template_key: str, fmt_args: dict,
              payload: dict, params: dict,
              label_pool: list[str] | None = None,
              tf_pool: list[str] | None = None,
              stated_phrase=None) -> None:
        """Emit one item, choosing the format and paraphrase by seeded rng.

        ``label_pool`` holds every label that the question admits as an
        answer; it gives the options of an MCQ and, unless ``tf_pool`` is
        given, the stated labels of False statements.  ``tf_pool`` holds
        stated labels that are unambiguously wrong, for a question that
        takes no MCQ.  ``stated_phrase`` maps a stated label to its
        in-sentence phrasing.
        """
        kind, value = payload["kind"], payload["value"]
        available = ["free-form"]
        if "true-false" in TEMPLATES[template_key] and kind != "unit-vector":
            available.append("true-false")
        mcq = None
        if label_pool is not None:
            mcq = make_mcq(str(value), label_pool, self.rng)
            if mcq is not None:
                available.append("mcq")
        fmt = available[int(self.rng.integers(0, len(available)))]

        options = None
        provenance = dict(params)
        if fmt == "true-false":
            truth = self.rng.random() < 0.5
            stated = None if truth else self._corrupt(
                payload, tf_pool if tf_pool is not None else label_pool)
            if stated is None:
                truth, stated = True, value
            if kind == "label" and stated_phrase is not None:
                stated_text = stated_phrase(str(stated))
            else:
                stated_text = _text(kind, stated)
            prompt = pick_template(self.rng, template_key, "true-false")
            prompt = prompt.format(stated=stated_text, **fmt_args)
            prompt += TF_SUFFIX
            answer = "True" if truth else "False"
            provenance["stated"] = stated
        else:
            prompt = pick_template(self.rng, template_key, "free-form")
            prompt = prompt.format(**fmt_args)
            if fmt == "mcq":
                options, answer = mcq
                prompt += f"\n{render_options(options)}\n{MCQ_INSTRUCTION}"
            else:
                answer = _text(kind, value)
        self._add(family, fmt, prompt[0].upper() + prompt[1:], answer,
                  payload, provenance, options)

    def _add(self, family: str, fmt: str, prompt: str, answer: str,
             payload: dict, provenance: dict,
             options: list[str] | None = None) -> None:
        """Append the scene's next item, numbered in emission order."""
        self._seq += 1
        self.items.append(QAItem(
            item_id=f"{self.scene.image_id}:{family}:{self._seq:04d}",
            image_id=self.scene.image_id, family=family, format=fmt,
            prompt=prompt, answer=answer, payload=payload,
            options=options, provenance=provenance))

    def _emit_direction(self, family: str, labels: dict[str, str],
                        choices: dict, phrases: dict, fmt_args: dict,
                        params: dict) -> None:
        """One single-axis direction label, on an axis drawn from those that
        cleared the guard.  The question admits two labels, so it takes no
        MCQ; False statements state only the opposites of cleared labels,
        which are unambiguously wrong."""
        axes = sorted(labels)
        if not axes:
            return
        axis = axes[int(self.rng.integers(0, len(axes)))]
        self._emit(
            family, family, {**fmt_args, "choice": choices[axis]},
            {"kind": "label", "value": labels[axis]},
            {**params, "axis": axis},
            tf_pool=[OPPOSITE_LABEL[labels[a]] for a in axes],
            stated_phrase=phrases.get,
        )

    def _sample(self, pool: list, cap: int) -> list:
        if len(pool) <= cap:
            return pool
        idx = self.rng.choice(len(pool), size=cap, replace=False)
        return [pool[i] for i in sorted(idx)]

    # -- level 0 -------------------------------------------------------------

    def level0(self) -> None:
        pm = self.scene.pm
        if pm is None or pm.valid_count == 0:
            return
        rows, cols = np.nonzero(pm.valid)
        n_pix = len(rows)

        for _ in range(N_POINT_QUERIES):
            k = int(self.rng.integers(0, n_pix))
            u, v = int(cols[k]), int(rows[k])
            point = [float(c) for c in pm.point_at(u, v)]
            self._emit(
                "point_querying", "point_querying", {"u": u, "v": v},
                {"kind": "vector3", "value": point, "unit": "m"},
                {"u": u, "v": v},
            )

        emitted = 0
        for _ in range(N_DEPTH_PAIRS * 8):
            if emitted >= N_DEPTH_PAIRS:
                break
            k1 = int(self.rng.integers(0, n_pix))
            k2 = int(self.rng.integers(0, n_pix))
            p1 = (int(cols[k1]), int(rows[k1]))
            p2 = (int(cols[k2]), int(rows[k2]))
            if p1 == p2:
                continue
            order = depth_order(pm, p1, p2)
            if order == "tie":
                continue
            emitted += 1
            self._emit(
                "depth_ordering", "depth_ordering",
                {"u1": p1[0], "v1": p1[1], "u2": p2[0], "v2": p2[1]},
                {"kind": "label", "value": order},
                {"p1": list(p1), "p2": list(p2),
                 "margin_m": DEPTH_TIE_MARGIN_M},
                label_pool=["first", "second"],
            )

    # -- level 1 -------------------------------------------------------------

    def level1(self) -> None:
        for obj in self.objects:
            ref = self.scene.refs[obj.object_id]
            self._emit(
                "object_localization", "object_localization", {"ref": ref},
                {"kind": "vector3", "value": [float(c) for c in obj.center],
                 "unit": "m"},
                {"object": obj.object_id, "aspect": "center"},
            )
            self._emit(
                "object_localization", "object_camera_distance", {"ref": ref},
                {"kind": "quantity", "value": obj.camera_distance, "unit": "m"},
                {"object": obj.object_id, "aspect": "camera-distance"},
            )
            for dim in DIM_INDEX:
                self._emit(
                    "object_size", "object_size", {"ref": ref, "dimension": dim},
                    {"kind": "quantity",
                     "value": float(obj.size[DIM_INDEX[dim]]), "unit": "m"},
                    {"object": obj.object_id, "dimension": dim},
                )
            if obj.yaw_deg is not None:
                label = orientation_label(obj)
                if label is not None:
                    self._emit(
                        "object_orientation", "object_orientation", {"ref": ref},
                        {"kind": "label", "value": label},
                        {"object": obj.object_id},
                        label_pool=list(ORIENTATION_LABELS),
                    )

    # -- level 2 -------------------------------------------------------------

    def level2(self) -> None:
        gf = self.scene.gf
        n = len(self.objects)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        for i, j in self._sample(pairs, MAX_PAIRS):
            a, b = self.objects[i], self.objects[j]
            ta, tb = self.scene.refs[a.object_id], self.scene.refs[b.object_id]
            try:
                vector, labels, distances = relative_position(a, b, gf)
            except RelationError:  # coincident centers: no direction
                continue
            self._emit_direction(
                "relative_direction", labels, _AXIS_CHOICE_CAMERA,
                _RELATION_PHRASE, {"a": ta, "b": tb},
                {"a": a.object_id, "b": b.object_id})
            self._emit(
                "relative_direction", "relative_direction_precise",
                {"a": ta, "b": tb},
                {"kind": "unit-vector", "value": [float(v) for v in vector]},
                {"a": a.object_id, "b": b.object_id, "precise": True},
            )
            components = [c for c, d in distances.items()
                          if d >= DISTANCE_FLOOR_M]
            if components:
                comp = components[int(self.rng.integers(0, len(components)))]
                self._emit(
                    "relative_distance", "relative_distance",
                    {"a": ta, "b": tb,
                     "component_phrase": _COMPONENT_PHRASE[comp]},
                    {"kind": "quantity", "value": distances[comp], "unit": "m"},
                    {"a": a.object_id, "b": b.object_id, "component": comp},
                )

        if n >= 2:
            self._comparisons()
            self._consistency()

    def _comparisons(self) -> None:
        candidates = []
        for attribute in ("camera-distance", "width", "height", "volume"):
            for mode in ("extreme-min", "extreme-max", "full-order"):
                ids = relational_comparison(self.objects, attribute, mode)
                if ids is not None:
                    candidates.append((attribute, mode, ids))
        for attribute, mode, ids in self._sample(candidates, MAX_COMPARISONS):
            ordered_texts = [self.scene.refs[oid] for oid in ids]
            listing_order = self.rng.permutation(len(ordered_texts))
            listing = _listing([ordered_texts[k] for k in listing_order])
            params = {"objects": ids, "attribute": attribute, "mode": mode,
                      "texts": dict(zip(ids, ordered_texts))}
            if mode == "full-order":
                low, high = _ORDER_WORDS[attribute]
                self._emit(
                    "relational_comparison", "relational_order",
                    {"listing": listing, "low": low, "high": high},
                    {"kind": "label", "value": ", ".join(ordered_texts)},
                    params, tf_pool=self._order_pool(ordered_texts),
                )
            else:
                selected = ids[0] if mode == "extreme-min" else ids[-1]
                self._emit(
                    "relational_comparison", "relational_comparison",
                    {"listing": listing,
                     "superlative":
                         _SUPERLATIVE[(attribute, mode)][len(ids) > 2]},
                    {"kind": "label", "value": self.scene.refs[selected]},
                    params, label_pool=ordered_texts,
                )

    def _order_pool(self, ordered_texts: list[str]) -> list[str]:
        """Wrong orderings for TF statements: adjacent swaps of the truth."""
        pool = []
        for k in range(len(ordered_texts) - 1):
            swapped = list(ordered_texts)
            swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
            pool.append(", ".join(swapped))
        return pool

    def _consistency(self) -> None:
        yawed = [o for o in self.objects if o.yaw_deg is not None]
        candidates = []
        for i in range(len(yawed)):
            for j in range(i + 1, len(yawed)):
                rel = orientation_consistency(yawed[i], yawed[j])
                if rel is not None:
                    candidates.append((yawed[i], yawed[j], rel))
        for a, b, rel in self._sample(candidates, MAX_CONSISTENCY):
            self._emit(
                "relational_comparison", "orientation_consistency",
                {"a": self.scene.refs[a.object_id],
                 "b": self.scene.refs[b.object_id]},
                {"kind": "label", "value": rel},
                {"a": a.object_id, "b": b.object_id,
                 "attribute": "orientation"},
                label_pool=["similar", "orthogonal", "opposite"],
            )

    # -- level 3 -------------------------------------------------------------

    def level3(self, problems: list[ValidatedProblem]) -> None:
        self._perspective()
        self._counting()
        for problem in problems:
            if problem.kind == "numeric":
                payload = {"kind": "quantity",
                           "value": float(problem.answer_value), "unit": "m"}
            else:
                payload = {"kind": "label",
                           "value": str(problem.answer_value)}
            self._add("problem_solving", "free-form", problem.question,
                      _text(payload["kind"], payload["value"]), payload,
                      {"check": problem.check, "kind": problem.kind})

    def _perspective(self) -> None:
        anchors = [o for o in self.objects if o.yaw_deg is not None]
        combos = [(a, t) for a in anchors for t in self.objects
                  if t.object_id != a.object_id]
        for anchor, target in self._sample(combos, MAX_PERSPECTIVE):
            try:
                labels, distances = perspective_transform(
                    anchor, target, self.scene.gf)
            except RelationError:  # target at the anchor: no direction
                continue
            ta = self.scene.refs[anchor.object_id]
            tt = self.scene.refs[target.object_id]
            self._emit_direction(
                "perspective_taking", labels, _AXIS_CHOICE_ANCHOR,
                _ANCHOR_PHRASE, {"anchor": ta, "target": tt},
                {"anchor": anchor.object_id, "target": target.object_id})
            if distances["euclidean"] >= DISTANCE_FLOOR_M:
                self._emit(
                    "perspective_taking", "perspective_distance",
                    {"anchor": ta, "target": tt},
                    {"kind": "quantity", "value": distances["euclidean"],
                     "unit": "m"},
                    {"anchor": anchor.object_id,
                     "target": target.object_id, "aspect": "distance"},
                )

    def _counting(self) -> None:
        categories = sorted({o.category for o in self.objects})
        candidates = []
        for category in categories:
            anchors = [o for o in self.objects if o.category != category]
            members = [o for o in self.objects if o.category == category]
            if not members:
                continue
            for anchor in anchors:
                for label in ("left", "right", "front", "behind",
                              "above", "below"):
                    try:
                        count = spatial_count(self.objects, category, anchor,
                                              label, self.scene.gf)
                    except RelationError:  # a member at the anchor
                        continue
                    if count is not None:
                        candidates.append((category, anchor, label, count))
        for category, anchor, label, count in self._sample(
                candidates, MAX_COUNTING):
            self._emit(
                "spatial_counting", "spatial_counting",
                {"categories": plural(category),
                 "relation_phrase": _RELATION_PHRASE[label],
                 "anchor": self.scene.refs[anchor.object_id]},
                {"kind": "count", "value": count},
                {"category": category, "anchor": anchor.object_id,
                 "label": label},
            )


def synthesize_scene_qa(scene: Scene, seed: int,
                        problems: list[ValidatedProblem] | None = None
                        ) -> list[QAItem]:
    """All QA items for one scene; deterministic for fixed seed and scene.

    A scene without a single valid object yields an empty stream (not an
    error): images where detection produced nothing carry no supervision.
    """
    if not scene.objects:
        return []
    synth = _SceneSynthesizer(scene, seed)
    synth.level0()
    synth.level1()
    synth.level2()
    synth.level3(problems or [])
    return synth.items
