"""Prompt assembly and answer validation for generated reasoning problems.

The multi-step problem generator is an external language model reached
through the pipeline's client layer.  This module owns both ends of the
wire: the scene digest sent out, and the validation of returned
candidates.  A candidate must carry a machine-checkable ``check``
expression over the digest; numeric answers are accepted when they land
within 25% of the recomputed value and are then canonicalized to the
recomputed value, judgement answers must match the recomputed comparison
exactly.  The client checks that a reply's ``candidates`` is a list;
each candidate is checked here and costs only itself: one that breaks a
rule, is not an object or holds a field of the wrong type is rejected
with its reason, and the others still count.

Check expression grammar (JSON):

  {"op": "distance", "a": <id>, "b": <id>}            center-to-center, m
  {"op": "camera_distance", "object": <id>}
  {"op": "size", "object": <id>, "dimension": "width"|"height"|"depth"}
  {"op": "volume", "object": <id>}                    cubic meters
  {"op": "add"|"sub"|"mul"|"min"|"max", "args": [<expr-or-number>, ...]}
  {"op": "gt"|"lt", "args": [<expr-or-number>, <expr-or-number>]}  -> yes/no
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..geometry import DIM_INDEX
from ..schema import finite

PROBLEM_SCHEMA_VERSION = 1
NUMERIC_TOLERANCE = 0.25


class ProblemValidationError(Exception):
    pass


def scene_digest(scene) -> dict:
    """Serializable object table handed to the problem generator."""
    objects = []
    for obj in sorted(scene.objects, key=lambda o: o.object_id):
        entry = {
            "id": obj.object_id,
            "reference": scene.refs[obj.object_id],
            "category": obj.category,
            "center_m": [round(float(c), 4) for c in obj.center],
            "size_m": [round(float(s), 4) for s in obj.size],
            "camera_distance_m": round(obj.camera_distance, 4),
        }
        if obj.yaw_deg is not None:
            entry["yaw_deg"] = round(float(obj.yaw_deg), 2)
        objects.append(entry)
    return {
        "version": PROBLEM_SCHEMA_VERSION,
        "task": "spatial-problem-generation",
        "image_id": scene.image_id,
        "objects": objects,
    }


def evaluate_check(check, digest: dict):
    """Recompute a check expression; floats for numeric ops, "yes"/"no"
    for comparisons."""
    if finite(check):
        return float(check)
    if not isinstance(check, dict) or "op" not in check:
        raise ProblemValidationError(f"malformed check {check!r}")
    objects = {o["id"]: o for o in digest["objects"]}
    op = check["op"]

    def obj(key):
        oid = check.get(key)
        if oid not in objects:
            raise ProblemValidationError(f"check references unknown object {oid!r}")
        return objects[oid]

    if op == "distance":
        a = np.asarray(obj("a")["center_m"], dtype=float)
        b = np.asarray(obj("b")["center_m"], dtype=float)
        return float(np.linalg.norm(a - b))
    if op == "camera_distance":
        return float(obj("object")["camera_distance_m"])
    if op == "size":
        dim = check.get("dimension")
        if dim not in DIM_INDEX:
            raise ProblemValidationError(f"bad size dimension {dim!r}")
        return float(obj("object")["size_m"][DIM_INDEX[dim]])
    if op == "volume":
        w, h, d = obj("object")["size_m"]
        return float(w) * float(h) * float(d)
    if op in ("add", "sub", "mul", "min", "max", "gt", "lt"):
        args = [evaluate_check(a, digest) for a in check.get("args", [])]
        if any(isinstance(a, str) for a in args):
            raise ProblemValidationError("nested comparison in arithmetic")
        if op in ("gt", "lt"):
            if len(args) != 2:
                raise ProblemValidationError(f"{op} takes 2 args")
            result = args[0] > args[1] if op == "gt" else args[0] < args[1]
            return "yes" if result else "no"
        if op == "sub":
            if len(args) != 2:
                raise ProblemValidationError("sub takes 2 args")
            return abs(args[0] - args[1])
        if not args:
            raise ProblemValidationError(f"{op} needs arguments")
        if op == "add":
            return float(sum(args))
        if op == "mul":
            return float(np.prod(args))
        if op == "min":
            return float(min(args))
        return float(max(args))
    raise ProblemValidationError(f"unknown check op {op!r}")


@dataclass
class ValidatedProblem:
    question: str
    kind: str            # "numeric" | "judgement"
    answer_value: float | str
    check: dict


def _validate(cand: dict, digest: dict) -> ValidatedProblem:
    """The problem ``cand`` states; ProblemValidationError says why not."""
    question = cand.get("question", "").strip()
    kind = cand.get("kind")
    check = cand.get("check")
    if not question:
        raise ProblemValidationError("empty question")
    if kind not in ("numeric", "judgement"):
        raise ProblemValidationError(f"unknown kind {kind!r}")
    if check is None:
        raise ProblemValidationError("missing machine-checkable derivation")
    try:
        recomputed = evaluate_check(check, digest)
    except ProblemValidationError as e:
        raise ProblemValidationError(f"bad check: {e}") from None

    if kind == "numeric":
        if not isinstance(recomputed, float):
            raise ProblemValidationError(
                "check yields a judgement, kind says numeric")
        stated = cand.get("value")
        if not finite(stated):
            raise ProblemValidationError(
                f"numeric value {stated!r} is not a finite number")
        if not 0 < recomputed < math.inf:
            raise ProblemValidationError(
                "recomputed value not a positive finite number")
        if abs(float(stated) - recomputed) / recomputed > NUMERIC_TOLERANCE:
            raise ProblemValidationError(
                f"stated {stated} deviates more than "
                f"{NUMERIC_TOLERANCE:.0%} from recomputed {recomputed:.4f}")
    else:
        if not isinstance(recomputed, str):
            raise ProblemValidationError(
                "check yields a number, kind says judgement")
        stated = str(cand.get("answer", "")).strip().lower()
        if stated != recomputed:
            raise ProblemValidationError(
                f"stated {stated!r} contradicts recomputed {recomputed!r}")
    return ValidatedProblem(question=question, kind=kind,
                            answer_value=recomputed, check=check)


def validate_candidates(digest: dict, candidates: list
                        ) -> tuple[list[ValidatedProblem], list[tuple]]:
    """Split generator candidates into accepted problems and
    ``(candidate, reason)`` rejections.  A candidate of any shape costs
    only itself: one that is not an object, or whose fields have the
    wrong type, is rejected as a bad candidate."""
    accepted: list[ValidatedProblem] = []
    rejected: list[tuple] = []
    for cand in candidates:
        try:
            accepted.append(_validate(cand, digest))
        except ProblemValidationError as e:
            rejected.append((cand, str(e)))
        except (AttributeError, KeyError, OverflowError, TypeError,
                ValueError) as e:
            rejected.append((cand, f"bad candidate: {e!r}"))
    return accepted, rejected
