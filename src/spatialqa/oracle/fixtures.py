"""Deterministic problem-generator responses for hermetic pipeline runs.

Stands in for the external reasoning model: given a scene digest it
fabricates multi-step question candidates whose checks the pipeline can
validate, with stated values jittered inside the acceptance tolerance.
The fabrication is keyed off the digest content, so recording and replay
agree byte-for-byte.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from ..qa.problem import evaluate_check

MIN_NUMERIC_VALUE = 0.3  # meters; keeps stated-vs-true gaps meaningful


def _digest_rng(digest: dict) -> np.random.Generator:
    blob = digest["image_id"] + ":" + str(len(digest["objects"]))
    seed = int.from_bytes(hashlib.sha256(blob.encode()).digest()[:8], "little")
    return np.random.default_rng(seed)


def _numeric(candidates: list, rng: np.random.Generator, digest: dict,
             check: dict, question: str,
             floor: float = MIN_NUMERIC_VALUE) -> None:
    """Append a numeric candidate stating ``check``'s value jittered by up
    to 15 %, unless the value is below ``floor``; the jitter is drawn
    only for a candidate that is appended."""
    true = evaluate_check(check, digest)
    if true >= floor:
        jitter = float(rng.uniform(-0.15, 0.15))
        candidates.append({"kind": "numeric", "question": question,
                           "value": round(true * (1.0 + jitter), 4),
                           "unit": "m", "check": check})


def problem_fixture_response(digest: dict) -> dict:
    """Candidate list mimicking an external generator's output."""
    objects = digest["objects"]
    rng = _digest_rng(digest)
    candidates = []

    if len(objects) >= 2:
        a, b = objects[0], objects[1]
        _numeric(candidates, rng, digest,
                 {"op": "distance", "a": a["id"], "b": b["id"]},
                 f"Starting at {a['reference']}, how far would you have "
                 f"to travel in a straight line to reach {b['reference']}?")
        stack = {"op": "add", "args": [
            {"op": "size", "object": a["id"], "dimension": "height"},
            {"op": "size", "object": b["id"], "dimension": "height"},
        ]}
        _numeric(candidates, rng, digest, stack,
                 f"If {a['reference']} were stacked on top of "
                 f"{b['reference']}, how tall would the stack be?")
        check = {"op": "gt", "args": [
            {"op": "volume", "object": a["id"]},
            {"op": "volume", "object": b["id"]},
        ]}
        candidates.append({
            "kind": "judgement",
            "question": (
                f"Does {a['reference']} take up more space than "
                f"{b['reference']}? Answer yes or no."
            ),
            "answer": evaluate_check(check, digest),
            "check": check,
        })
    elif len(objects) == 1:
        a = objects[0]
        _numeric(candidates, rng, digest,
                 {"op": "camera_distance", "object": a["id"]},
                 f"A robot drives straight from the camera to "
                 f"{a['reference']}. How far does it travel?",
                 floor=-math.inf)
    return {"candidates": candidates}
