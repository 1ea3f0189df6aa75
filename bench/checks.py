"""Output checks against answers recomputed independently.

``gt-corpus``  exact agreement: ``oracle.answers.answers_match``.
``estimate``   scoring bands, since estimated boxes cannot match to print
               rounding: a quantity or vector3 within ratio [0.75, 1.25]
               of the oracle (vector3 by norm), a unit vector within 30
               degrees, labels and counts equal.
``evaluate``   each scored verdict equals the verdict its response was
               built to get.
"""

from __future__ import annotations

import json
import math

import numpy as np

from spatialqa.evalharness import DIRECTION_LIMIT_DEG, TIGHT_BAND
from spatialqa.oracle.answers import answers_match, oracle_answer
from spatialqa.oracle.scene import read_scenes
from spatialqa.pipeline import read_corpus


def band_match(scene, item: dict) -> tuple[bool, str]:
    oracle = oracle_answer(scene, item)["value"]
    kind, value = item["payload"]["kind"], item["payload"]["value"]
    if kind == "quantity":
        ratio = float(value) / float(oracle)
    elif kind == "vector3":
        ratio = float(np.linalg.norm(value) / np.linalg.norm(oracle))
    elif kind == "unit-vector":
        cos = float(np.clip(np.dot(value, oracle) / (
            np.linalg.norm(value) * np.linalg.norm(oracle)), -1.0, 1.0))
        angle = math.degrees(math.acos(cos))
        return angle <= DIRECTION_LIMIT_DEG, f"angle {angle:.1f} deg"
    elif kind == "count":
        return int(value) == int(oracle), f"{value!r} vs {oracle!r}"
    else:
        return str(value) == str(oracle), f"{value!r} vs {oracle!r}"
    lo, hi = TIGHT_BAND
    return lo <= ratio <= hi, f"ratio {ratio:.3f}"


def corpus_agreement(scenes_path, corpus_path, exact: bool
                     ) -> tuple[int, int, list[str]]:
    """(items agreeing, items checked, first mismatches)."""
    scenes = {s.scene_id: s for s in read_scenes(scenes_path)}
    agree, total, mismatches = 0, 0, []
    for item in read_corpus(corpus_path):
        total += 1
        ok, why = (answers_match if exact else band_match)(
            scenes[item["image_id"]], item)
        agree += ok
        if not ok and len(mismatches) < 10:
            mismatches.append(f"{item['item_id']}: {why}")
    return agree, total, mismatches


def verdict_agreement(records_path, intended: dict[str, bool]
                      ) -> tuple[int, int, list[str]]:
    """(records whose verdict is the intended one, items, mismatches)."""
    agree, seen, mismatches = 0, set(), []
    with open(records_path, encoding="utf-8") as f:
        for line in f:
            record = json.loads(line)
            item_id = record["item_id"]
            seen.add(item_id)
            ok = record["correct"] == intended.get(item_id)
            agree += ok
            if not ok and len(mismatches) < 10:
                mismatches.append(f"{item_id}: scored {record['correct']}")
    missing = len(set(intended) - seen)
    if missing:
        mismatches.append(f"{missing} items have no record")
    return agree, len(intended), mismatches
