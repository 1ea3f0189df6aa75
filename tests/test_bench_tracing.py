"""The benchmark's tracer (bench/tracing.py) still finds what it patches.

The tracer replaces names that ``spatialqa.pipeline`` calls through; a
rename or a bypassed call would otherwise show up only when the
benchmark runs.
"""

import json
from pathlib import Path

import pytest

from spatialqa.config import PipelineConfig
from spatialqa.oracle.gen import generate_dataset
from spatialqa.oracle.scene import ESTIMATION_SAMPLER
from spatialqa.pipeline import read_corpus, run_evaluate, run_generate

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    return tracing


def test_traced_generate_and_evaluate(tracing, tmp_path):
    data = generate_dataset(range(0, 2), tmp_path / "ds",
                            problem_fixtures=True)
    config = PipelineConfig(clients={"problem-generator": {
        "fixture_dir": str(data.fixture_dir)}})
    with tracing.installed(tracing.Tracer(), "generate") as tracer:
        run_generate(data.manifest_path, config, tmp_path / "g")
    assert {"pipeline.process_image", "pmap.read", "references",
            "qa.problem.digest", "qa.problem.validate",
            "clients.problem-generator", "qa.synth",
            "qa.items.encode"} <= {s.name for s in tracer.spans}

    corpus = tmp_path / "g" / "corpus.jsonl"
    responses = tmp_path / "responses.jsonl"
    responses.write_text("".join(
        json.dumps({"item_id": item["item_id"],
                    "response": item["answer"]}) + "\n"
        for item in read_corpus(corpus)))
    with tracing.installed(tracing.Tracer(), "evaluate") as tracer:
        run_evaluate(corpus, responses, PipelineConfig(), tmp_path / "r")
    assert {"pipeline.read_corpus", "evalharness.score",
            "evalharness.report",
            "evalharness.records_encode"} <= {s.name for s in tracer.spans}


def test_traced_estimation(tracing, tmp_path):
    """Boxes estimated from point maps: the extraction, clustering and
    box-fit spans appear, and each clustering keeps some of its points."""
    data = generate_dataset(range(0, 2), tmp_path / "ds", sigma=0.01,
                            gt_boxes=False, sampler=ESTIMATION_SAMPLER)
    with tracing.installed(tracing.Tracer(), "generate") as tracer:
        run_generate(data.manifest_path, PipelineConfig(), tmp_path / "g")
    assert {"dbscan", "geometry.extract", "geometry.box_fit"} <= {
        s.name for s in tracer.spans}
    clusterings = [s.counts for s in tracer.spans if s.name == "dbscan"]
    assert clusterings
    for counts in clusterings:
        assert 0 < counts["kept"] <= counts["points_in"]
