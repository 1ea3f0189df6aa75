"""Independent recomputation of QA answers from exact scene geometry.

Every answer is derived directly from the ground-truth box layout with
local arithmetic (sorts, dot products, cross products), deliberately not
through the relation operators under test.  Pixel-level answers come
from analytic ray casts, never from the rendered point map.
"""

from __future__ import annotations

import math

import numpy as np

from ..quantity import PRINT_RESOLUTION_M, parse_quantity, parse_triple
from .render import analytic_point
from .scene import OracleScene

QUANTITY_TOL = 0.01      # one printed ulp (centimeter resolution)
VECTOR_TOL = 0.01        # per component, meters
ANGLE_TOL_DEG = 0.5
# printed text states a value to half the print resolution, per component
# (the 1e-9 m absorbs the float error of the printed decimal)
TEXT_TOL = PRINT_RESOLUTION_M / 2 + 1e-9


class OracleMismatch(Exception):
    pass


def _world_rows(gravity: np.ndarray) -> np.ndarray:
    """World axes in camera coordinates, derived from first principles."""
    g = np.asarray(gravity, dtype=float)
    g = g / np.linalg.norm(g)
    fwd = np.array([0.0, 0.0, 1.0])
    z = fwd - np.dot(fwd, g) * g
    z = z / np.linalg.norm(z)
    x = np.cross(g, z)
    return np.stack([x, g, z])


def _objects_by_id(scene: OracleScene) -> dict:
    return {o.object_id: o for o in scene.objects}


_DIM = {"width": 0, "height": 1, "depth": 2}
_AXIS_INDEX = {"x": 0, "y": 1, "z": 2}
_NEG_POS = {"x": ("left", "right"), "y": ("above", "below"),
            "z": ("behind", "front")}
_ATTR_VALUE = {
    "camera-distance": lambda o: float(np.linalg.norm(o.center)),
    "width": lambda o: float(o.size[0]),
    "height": lambda o: float(o.size[1]),
    "volume": lambda o: float(o.size[0] * o.size[1] * o.size[2]),
}


def oracle_answer(scene: OracleScene, item: dict) -> dict:
    """Ground-truth payload {kind, value} recomputed for a corpus item."""
    family = item["family"]
    prov = item["provenance"]
    rows = _world_rows(scene.gravity)
    objs = _objects_by_id(scene)

    if family == "point_querying":
        point = analytic_point(scene, prov["u"], prov["v"])
        if point is None:
            raise OracleMismatch(f"no analytic surface at pixel "
                                 f"({prov['u']},{prov['v']})")
        return {"kind": "vector3", "value": [float(c) for c in point]}

    if family == "depth_ordering":
        p1 = analytic_point(scene, *prov["p1"])
        p2 = analytic_point(scene, *prov["p2"])
        if p1 is None or p2 is None:
            raise OracleMismatch("depth pair hits empty background")
        return {"kind": "label",
                "value": "first" if p1[2] < p2[2] else "second"}

    if family == "object_localization":
        obj = objs[prov["object"]]
        if prov["aspect"] == "center":
            return {"kind": "vector3", "value": [float(c) for c in obj.center]}
        return {"kind": "quantity",
                "value": float(np.linalg.norm(obj.center))}

    if family == "object_size":
        obj = objs[prov["object"]]
        return {"kind": "quantity",
                "value": float(obj.size[_DIM[prov["dimension"]]])}

    if family == "object_orientation":
        obj = objs[prov["object"]]
        yaw = obj.yaw_deg % 360.0
        names = ("front", "right", "back", "left")
        best = min(range(4), key=lambda i: abs(
            (yaw - 90.0 * i + 180.0) % 360.0 - 180.0))
        return {"kind": "label", "value": names[best]}

    if family == "relative_direction":
        a, b = objs[prov["a"]], objs[prov["b"]]
        delta = b.center - a.center
        if prov.get("precise"):
            unit = delta / np.linalg.norm(delta)
            return {"kind": "unit-vector", "value": [float(c) for c in unit]}
        axis = prov["axis"]
        comp = float(rows[_AXIS_INDEX[axis]] @ delta)
        neg, pos = _NEG_POS[axis]
        return {"kind": "label", "value": pos if comp > 0 else neg}

    if family == "relative_distance":
        a, b = objs[prov["a"]], objs[prov["b"]]
        delta_w = rows @ (b.center - a.center)
        comp = prov["component"]
        if comp == "euclidean":
            value = math.sqrt(float(delta_w @ delta_w))
        else:
            value = abs(float(delta_w[{"horizontal": 0, "vertical": 1,
                                       "depthwise": 2}[comp]]))
        return {"kind": "quantity", "value": value}

    if family == "relational_comparison":
        return _comparison_answer(prov, objs)

    if family == "perspective_taking":
        anchor, target = objs[prov["anchor"]], objs[prov["target"]]
        r = math.radians(anchor.yaw_deg)
        forward = np.array([math.sin(r), 0.0, -math.cos(r)])
        down = np.array([0.0, 1.0, 0.0])
        right = np.cross(down, forward)
        delta_w = rows @ (target.center - anchor.center)
        local = np.array([right @ delta_w, down @ delta_w, forward @ delta_w])
        if prov.get("aspect") == "distance":
            return {"kind": "quantity",
                    "value": math.sqrt(float(local @ local))}
        axis = prov["axis"]
        comp = float(local[_AXIS_INDEX[axis]])
        neg, pos = _NEG_POS[axis]
        return {"kind": "label", "value": pos if comp > 0 else neg}

    if family == "spatial_counting":
        anchor = objs[prov["anchor"]]
        label = prov["label"]
        axis_i = _AXIS_INDEX[{"left": "x", "right": "x", "above": "y",
                              "below": "y", "front": "z", "behind": "z"}[label]]
        positive = label in ("right", "below", "front")
        count = 0
        for obj in scene.objects:
            if obj.category != prov["category"] or \
               obj.object_id == anchor.object_id:
                continue
            comp = float(rows[axis_i] @ (obj.center - anchor.center))
            if (comp > 0) == positive:
                count += 1
        return {"kind": "count", "value": count}

    # problem_solving
    value = _evaluate_check(prov["check"], objs)
    if isinstance(value, str):
        return {"kind": "label", "value": value}
    return {"kind": "quantity", "value": value}


def _comparison_answer(prov: dict, objs: dict) -> dict:
    if prov.get("attribute") == "orientation":
        a, b = objs[prov["a"]], objs[prov["b"]]
        delta = abs((a.yaw_deg - b.yaw_deg + 180.0) % 360.0 - 180.0)
        if delta <= 45.0:
            value = "similar"
        elif delta < 135.0:
            value = "orthogonal"
        else:
            value = "opposite"
        return {"kind": "label", "value": value}

    texts = prov["texts"]
    getter = _ATTR_VALUE[prov["attribute"]]
    ranked = sorted(prov["objects"], key=lambda oid: getter(objs[oid]))
    if prov["mode"] == "full-order":
        return {"kind": "label",
                "value": ", ".join(texts[oid] for oid in ranked)}
    selected = ranked[0] if prov["mode"] == "extreme-min" else ranked[-1]
    return {"kind": "label", "value": texts[selected]}


def _evaluate_check(check, objs):
    """Check-expression evaluator over exact ground-truth boxes."""
    if isinstance(check, (int, float)):
        return float(check)
    op = check["op"]
    if op == "distance":
        a, b = objs[check["a"]], objs[check["b"]]
        d = b.center - a.center
        return math.sqrt(float(d @ d))
    if op == "camera_distance":
        o = objs[check["object"]]
        return math.sqrt(float(o.center @ o.center))
    if op == "size":
        return float(objs[check["object"]].size[_DIM[check["dimension"]]])
    if op == "volume":
        s = objs[check["object"]].size
        return float(s[0] * s[1] * s[2])
    args = [_evaluate_check(a, objs) for a in check.get("args", [])]
    if op == "gt":
        return "yes" if args[0] > args[1] else "no"
    if op == "lt":
        return "yes" if args[0] < args[1] else "no"
    if op == "add":
        return float(sum(args))
    if op == "sub":
        return abs(args[0] - args[1])
    if op == "mul":
        out = 1.0
        for a in args:
            out *= a
        return out
    if op == "min":
        return min(args)
    if op == "max":
        return max(args)
    raise OracleMismatch(f"unknown check op {op!r}")


# ---------------------------------------------------------------------------
# Item-level agreement
# ---------------------------------------------------------------------------

def _payloads_agree(kind: str, stored, oracle) -> bool:
    if kind == "quantity":
        return abs(float(stored) - float(oracle)) <= QUANTITY_TOL
    if kind == "count":
        return int(stored) == int(oracle)
    if kind == "label":
        return str(stored) == str(oracle)
    if kind == "vector3":
        s = np.asarray(stored, dtype=float)
        o = np.asarray(oracle, dtype=float)
        return bool(np.max(np.abs(s - o)) <= VECTOR_TOL)
    # unit-vector
    s = np.asarray(stored, dtype=float)
    o = np.asarray(oracle, dtype=float)
    cos = float(np.clip(np.dot(s, o) /
                        (np.linalg.norm(s) * np.linalg.norm(o)), -1, 1))
    return math.degrees(math.acos(cos)) <= ANGLE_TOL_DEG


def _text_states(kind: str, text: str, value) -> bool:
    """Does ``text`` state the payload ``value`` of its kind?"""
    if kind == "quantity":
        parsed = parse_quantity(text)
        return parsed is not None and abs(parsed - float(value)) <= TEXT_TOL
    if kind in ("vector3", "unit-vector"):
        parsed = parse_triple(text)
        return parsed is not None and all(
            abs(p - float(v)) <= TEXT_TOL for p, v in zip(parsed, value))
    if kind == "count":
        try:
            return int(text) == int(value)
        except ValueError:
            return False
    return text == str(value)


def answers_match(scene: OracleScene, item: dict) -> tuple[bool, str]:
    """Does the stored answer of a corpus line (see ``check_item``) agree
    with the independent oracle?

    Free-form items compare payloads directly, and the answer text must
    state the payload; MCQ items must store the letter of the option
    that equals the oracle label; True/False items must assert True
    exactly when the stated value matches the oracle, and a stated
    quantity or vector3 must be the one the prompt prints before
    " True or False?".
    """
    oracle = oracle_answer(scene, item)
    payload = item["payload"]
    if oracle["kind"] != payload["kind"]:
        return False, f"payload kind {payload['kind']} != oracle {oracle['kind']}"

    fmt = item["format"]
    if fmt == "free-form":
        if not _payloads_agree(payload["kind"], payload["value"],
                               oracle["value"]):
            return False, (f"stored {payload['value']!r} != oracle "
                           f"{oracle['value']!r}")
        ok = _text_states(payload["kind"], item["answer"], payload["value"])
        return ok, "" if ok else (
            f"answer {item['answer']!r} does not state {payload['value']!r}")

    if fmt == "mcq":
        letters = [letter for letter, option in zip("ABCD", item["options"])
                   if option == str(oracle["value"])]
        if not letters:
            return False, "no option matches the oracle value"
        ok = letters[0] == item["answer"]
        return ok, "" if ok else (
            f"stored letter {item['answer']} but oracle picks {letters[0]}")

    # true-false
    stated = item["provenance"].get("stated")
    if stated is None:
        return False, "true-false item without stated value"
    if payload["kind"] in ("quantity", "vector3"):
        claim, asks, _ = item["prompt"].partition(" True or False?")
        if not (asks and _text_states(payload["kind"], claim, stated)):
            return False, f"prompt does not state {stated!r}"
    agrees = _payloads_agree(payload["kind"], stated, oracle["value"])
    expected = "True" if agrees else "False"
    ok = expected == item["answer"]
    return ok, "" if ok else (
        f"stated {stated!r} vs oracle {oracle['value']!r} implies "
        f"{expected}, stored {item['answer']}")
