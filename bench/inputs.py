"""Benchmark inputs, built from the workload seed.

Workload seed ``s`` selects the oracle scene seeds
``range(s * n, (s + 1) * n)``, where ``n`` is the workload's scene
count, so different seeds give disjoint scenes and seed 0 starts at
scene 0.  The program only ever sees the files written here.

``evaluate`` scores the ``gt-corpus`` corpus of the same seed against
seeded responses: a fixed mix of correct, out-of-band wrong, unparseable
and missing answers.  Each item records the verdict its response was
built to get, and judgement items get a recorded judge verdict, so the
scored verdicts have a checkable target.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spatialqa.clients import record_fixture
from spatialqa.config import config_from_dict
from spatialqa.oracle.gen import generate_dataset
from spatialqa.oracle.scene import ESTIMATION_SAMPLER
from spatialqa.pipeline import read_corpus, run_generate
from spatialqa.quantity import format_point, format_quantity

# Scenes per run.  A gt-corpus image takes ~3 ms, so 200 scenes keep the
# repeated set-up (~3 s each) small next to the measured repetitions; an
# estimate scene takes ~1 s (DBSCAN), and 30 of them keep the seed-to-seed
# spread of wall time near 5 % (per-scene times vary by ~22 %).
SCENES = {"gt-corpus": 200, "estimate": 30, "evaluate": 200}

# Response kinds for evaluate, with their exact shares of the items.
RESPONSE_MIX = (("correct", 0.6), ("wrong", 0.2), ("unparseable", 0.1),
                ("missing", 0.1))
UNPARSEABLE = "I cannot tell from the image."
WRONG_LABEL = "none of them"


@dataclass
class Inputs:
    manifest: Path
    scenes: Path
    config: Path                     # config file handed to the CLI
    corpus: Path | None = None       # evaluate only, from here on
    responses: Path | None = None
    cache_dir: Path | None = None
    intended: dict[str, bool] = field(default_factory=dict)
    judge_calls: int = 0


def scene_seeds(workload: str, seed: int) -> range:
    n = SCENES[workload]
    return range(seed * n, (seed + 1) * n)


def build(workload: str, seed: int, root: Path) -> Inputs:
    """Write the workload's inputs under ``root`` (emptied first)."""
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    seeds = scene_seeds(workload, seed)
    if workload == "estimate":
        data = generate_dataset(seeds, root / "data", sigma=0.01,
                                gt_boxes=False, sampler=ESTIMATION_SAMPLER)
        config = {}
    else:
        data = generate_dataset(seeds, root / "data", problem_fixtures=True)
        config = {"clients": {"problem-generator": {
            "fixture_dir": str(data.fixture_dir)}}}
    inputs = Inputs(manifest=data.manifest_path, scenes=data.scenes_path,
                    config=root / "config.json")
    if workload == "evaluate":
        _build_evaluate(inputs, config, seed, root)
    else:
        inputs.config.write_text(json.dumps(config), encoding="utf-8")
    return inputs


def _build_evaluate(inputs: Inputs, generate_config: dict, seed: int,
                    root: Path) -> None:
    run_generate(inputs.manifest, config_from_dict(generate_config),
                 root / "generated")
    inputs.corpus = root / "generated" / "corpus.jsonl"
    inputs.responses = root / "responses.jsonl"
    inputs.cache_dir = root / "cache"
    fixtures = root / "judge-fixtures"
    inputs.config.write_text(json.dumps({
        "clients": {"judge": {"fixture_dir": str(fixtures)}},
        "cache_dir": str(inputs.cache_dir)}), encoding="utf-8")

    items = read_corpus(inputs.corpus)
    with open(inputs.responses, "w", encoding="utf-8") as f:
        for item, kind in zip(items, _response_kinds(len(items), seed)):
            inputs.intended[item["item_id"]] = kind == "correct"
            if kind == "missing":
                continue
            response = _response(item, kind)
            f.write(json.dumps({"item_id": item["item_id"],
                                "response": response}) + "\n")
            if _judged(item):
                record_fixture(fixtures, "judge", {
                    "item_id": item["item_id"], "question": item["prompt"],
                    "answer": item["answer"], "response": response,
                }, {"verdict": "match" if kind == "correct" else "mismatch"})
                inputs.judge_calls += 1


def _response_kinds(n: int, seed: int) -> list[str]:
    counts = [round(share * n) for _, share in RESPONSE_MIX[:-1]]
    counts.append(n - sum(counts))
    kinds = np.repeat([kind for kind, _ in RESPONSE_MIX], counts)
    return list(np.random.default_rng(seed).permutation(kinds))


def _judged(item: dict) -> bool:
    """Items that ``evaluate`` sends to the judge when answered."""
    return (item["family"] == "problem_solving"
            and item["payload"]["kind"] == "label")


def _response(item: dict, kind: str) -> str:
    if kind == "correct":
        return item["answer"]
    if kind == "unparseable":
        return UNPARSEABLE
    return _wrong(item)


def _wrong(item: dict) -> str:
    """An answer outside every scoring band of the item."""
    fmt, answer = item["format"], item["answer"]
    kind, value = item["payload"]["kind"], item["payload"]["value"]
    if fmt == "mcq":
        return next(letter for letter in "ABCD" if letter != answer)
    if fmt == "true-false":
        return "False" if answer == "True" else "True"
    if kind == "quantity":
        return format_quantity(2.0 * float(value))
    if kind in ("unit-vector", "vector3"):
        return format_point(-np.asarray(value, dtype=float))
    if kind == "count":
        return str(int(value) + 1)
    if _judged(item):
        return "no" if answer == "yes" else "yes"
    return WRONG_LABEL
