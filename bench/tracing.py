"""In-memory spans around the public calls of each spatialqa layer.

Spans are recorded from the benchmark's side: while a ``Tracer`` is
installed, the names that ``spatialqa.pipeline`` calls through (and the
``Client.call`` / ``QAItem.to_json`` methods) are replaced by wrappers
that open a span, call the original and close the span.  Nothing under
``src/`` changes, and everything is restored when the context exits.

A span is (name, start, end, parent, image id, counters).  Runs are
single-threaded (in-process, workers 1), so spans nest strictly and a
span's self time is its duration minus the durations of its children.
The image id is that of the most recent ``process_image`` call, which
also covers the item encoding done when that image's part is written.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from collections import defaultdict

import numpy as np

from spatialqa import pipeline
from spatialqa.clients import Client
from spatialqa.evalharness import EvalRecord
from spatialqa.qa.items import QAItem

# Percentiles tried for a tail figure, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class Span:
    __slots__ = ("name", "start", "end", "parent", "image_id", "counts",
                 "child_s")

    def __init__(self, name, start, parent, image_id):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.image_id = image_id
        self.counts = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    """Collects spans in memory; written out once, when the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.image_id: str | None = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, self.image_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start

    def wrap(self, name: str, fn, counts=None):
        """``fn`` inside a span; ``counts(args, result)`` adds counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    span.counts = counts(args, result)
                return result
            finally:
                self.close(span)
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent,
                    "image_id": s.image_id, "self_s": s.self_s,
                    "counts": s.counts}) + "\n")


class _NumpyWithTracedLoad:
    """``numpy`` as seen by the pipeline module, with ``load`` traced."""

    def __init__(self, load):
        self.load = load

    def __getattr__(self, name):
        return getattr(np, name)


def _generate_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    w = tracer.wrap
    traced_process_image = w("pipeline.process_image", pipeline.process_image)

    @functools.wraps(pipeline.process_image)
    def process_image(entry, *args, **kwargs):
        tracer.image_id = entry.image_id
        return traced_process_image(entry, *args, **kwargs)

    return [
        (pipeline, "process_image", process_image),
        (pipeline, "read_pointmap", w(
            "pmap.read", pipeline.read_pointmap,
            lambda a, r: {"bytes": os.path.getsize(a[0])})),
        (pipeline, "np", _NumpyWithTracedLoad(
            w("pipeline.mask_load", np.load))),
        (pipeline, "extract_object_points", w(
            "geometry.extract", pipeline.extract_object_points)),
        (pipeline, "dbscan_largest_cluster", w(
            "dbscan", pipeline.dbscan_largest_cluster,
            lambda a, r: {"points_in": len(a[0]), "kept": len(r)})),
        (pipeline, "fit_box3d", w("geometry.box_fit", pipeline.fit_box3d)),
        (pipeline, "assign_references", w(
            "references", pipeline.assign_references)),
        (pipeline, "scene_digest", w(
            "qa.problem.digest", pipeline.scene_digest)),
        (pipeline, "validate_candidates", w(
            "qa.problem.validate", pipeline.validate_candidates,
            lambda a, r: {"offered": len(a[1]), "accepted": len(r[0])})),
        (pipeline, "synthesize_scene_qa", w(
            "qa.synth", pipeline.synthesize_scene_qa,
            lambda a, r: {"items": len(r)})),
        (QAItem, "to_json", w("qa.items.encode", QAItem.to_json)),
    ]


def _evaluate_patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    w = tracer.wrap
    return [
        (pipeline, "read_corpus", w(
            "pipeline.read_corpus", pipeline.read_corpus)),
        (pipeline, "score_item", w("evalharness.score", pipeline.score_item)),
        (pipeline, "report", w("evalharness.report", pipeline.report)),
        (pipeline, "render_report", w(
            "evalharness.report", pipeline.render_report)),
        (EvalRecord, "to_dict", w(
            "evalharness.records_encode", EvalRecord.to_dict)),
        (pipeline, "canonical_json", w(
            "evalharness.records_encode", pipeline.canonical_json)),
    ]


def _client_patch(tracer: Tracer) -> tuple[object, str, object]:
    original = Client.call

    @functools.wraps(original)
    def call(self, request):
        span = tracer.open("clients." + self.config.role)
        try:
            return original(self, request)
        finally:
            tracer.close(span)
    return Client, "call", call


@contextlib.contextmanager
def installed(tracer: Tracer, phase: str):
    """Trace the layers of ``phase`` ("generate" or "evaluate")."""
    patches = _generate_patches(tracer) if phase == "generate" \
        else _evaluate_patches(tracer)
    patches.append(_client_patch(tracer))
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in patches]
    try:
        for owner, name, replacement in patches:
            setattr(owner, name, replacement)
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it, and its name.

    Nearest-rank percentiles; fewer than 20 samples give the maximum.
    """
    if not samples:
        return 0.0, "none"
    ordered = sorted(samples)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10:
            rank = max(1, math.ceil(p / 100.0 * n))
            return ordered[rank - 1], f"p{p:g}"
    return ordered[-1], "max"


def p50(samples: list[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(0.5 * len(ordered))) - 1]


# Per-layer metrics that are a span's self time (s) or call count.
SELF_TIME = {
    "pmap.read_s": "pmap.read",
    "pipeline.mask_load_s": "pipeline.mask_load",
    "geometry.extract_s": "geometry.extract",
    "geometry.box_fit_s": "geometry.box_fit",
    "dbscan.busy_s": "dbscan",
    "references.busy_s": "references",
    "qa.problem.digest_s": "qa.problem.digest",
    "qa.problem.validate_s": "qa.problem.validate",
    "clients.problem-generator.call_s": "clients.problem-generator",
    "clients.judge.call_s": "clients.judge",
    "qa.synth.busy_s": "qa.synth",
    "qa.items.encode_s": "qa.items.encode",
    "pipeline.read_corpus_s": "pipeline.read_corpus",
    "evalharness.score_s": "evalharness.score",
    "evalharness.report_s": "evalharness.report",
    "evalharness.records_encode_s": "evalharness.records_encode",
}
CALLS = {
    "dbscan.calls": "dbscan",
    "clients.problem-generator.calls": "clients.problem-generator",
    "clients.judge.calls": "clients.judge",
}


def layer_self_s(tracer: Tracer) -> float:
    """Summed self time of every span except ``pipeline.process_image``,
    whose self time is the pipeline glue around the layers."""
    return sum(s.self_s for s in tracer.spans
               if s.name != "pipeline.process_image")


def layer_metrics(tracers: list[Tracer]) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}``, per pass, and notes
    naming the tail percentiles."""
    passes = max(1, len(tracers))
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(float)
    durations = defaultdict(list)
    for tracer in tracers:
        for s in tracer.spans:
            self_s[s.name] += s.self_s / passes
            calls[s.name] += 1
            durations[s.name].append(s.duration)
            for key, value in (s.counts or {}).items():
                counts[f"{s.name}.{key}"] += value / passes

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    metrics = {name: (self_s[span], "s") for name, span in SELF_TIME.items()}
    metrics.update({name: (calls[span] / passes, "count")
                    for name, span in CALLS.items()})
    notes = {}
    for name, span, what in (("dbscan.object", "dbscan", "calls"),
                             ("pipeline.process_image",
                              "pipeline.process_image", "images")):
        value, label = tail(durations[span])
        metrics[f"{name}_p50_ms"] = (p50(durations[span]) * 1e3, "ms")
        metrics[f"{name}_tail_ms"] = (value * 1e3, "ms")
        notes[f"{name}_tail_ms"] = f"{label} of {len(durations[span])} {what}"
    metrics.update({
        "pmap.mb_read": (counts["pmap.read.bytes"] / 2**20, "MiB"),
        "dbscan.points_in": (counts["dbscan.points_in"], "count"),
        "dbscan.kept_frac": (ratio("dbscan.kept", "dbscan.points_in"),
                             "fraction"),
        "qa.problem.accepted_frac": (
            ratio("qa.problem.validate.accepted",
                  "qa.problem.validate.offered"), "fraction"),
        "qa.synth.items": (counts["qa.synth.items"], "count"),
    })
    return metrics, notes
