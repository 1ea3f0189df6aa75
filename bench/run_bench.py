"""Benchmark of ``spatialqa generate`` and ``spatialqa evaluate``.

  python3 bench/run_bench.py --workload gt-corpus|estimate|evaluate \
      --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is ``src/spatialqa`` there.
Inputs are oracle scenes built from ``--seed`` (see ``inputs.py``); the
program receives only the generated files.

``--trace 0`` runs the workload's CLI command as a user would, repeatedly
for ``--seconds``, with tracing off, and reports the end-to-end metrics
(medians over the repetitions).  ``--trace 1`` runs the same work in
process at workers 1, alternating untraced and traced passes, and
reports per-layer metrics from the spans of ``tracing.py``.  Both check
the outputs against the oracle and print every metric by name with its
unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Details, spans and
the environment record go to ``.bench_out/``; scratch files go to
``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("gt-corpus", "estimate", "evaluate")
SETUP_REPEATS = 3
CLI_TIMEOUT_S = 150
# gt-corpus runs a 2-worker pool, never more workers than CPUs.
GT_WORKERS = min(2, os.cpu_count() or 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "spatialqa" / "cli.py").is_file():
        print(f"error: no spatialqa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    # Byte-compile the package first, as an installed one is, so that no
    # timed CLI start recompiles it (PYTHONDONTWRITEBYTECODE or not).
    compileall.compile_dir(str(SRC / "spatialqa"), quiet=1)

    work = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    try:
        if args.trace:
            result, detail = run_traced(args, work)
        else:
            result, detail = run_end_to_end(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    detail["environment"] = environment()
    detail["result"] = result
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{name}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True), encoding="utf-8")
    print("environment: " + json.dumps(detail["environment"], sort_keys=True))
    for check, ok in detail["checks"].items():
        print(f"check {check}: {'ok' if ok else 'FAILED'}")
    for why in detail.get("mismatches", []):
        print(f"  mismatch {why}")
    print(f"output sha256 = {detail['sha256']}  items = {detail['items']}")
    print(f"error_frac = {result['failed'] / result['attempted']:.6g} fraction"
          f"  ({result['failed']} of {result['attempted']} operations failed)")
    for metric, entry in result["metrics"].items():
        note = detail.get("notes", {}).get(metric, "")
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}"
              + (f"  ({note})" if note else ""))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# End to end, tracing off
# ---------------------------------------------------------------------------

def run_end_to_end(args, work: Path) -> tuple[dict, dict]:
    from inputs import build

    setup_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = build(args.workload, args.seed, work / "inputs")
        setup_s.append(time.perf_counter() - start)

    out = work / "out"
    if args.workload == "evaluate":
        reps = _measure(args.seconds, _evaluate_command(inputs, out),
                        lambda: _evaluate_outcome(inputs, out),
                        before=lambda: shutil.rmtree(inputs.cache_dir,
                                                     ignore_errors=True),
                        out=out)
    else:
        workers = GT_WORKERS if args.workload == "gt-corpus" else 1
        reps = _measure(args.seconds, _generate_command(inputs, out, workers),
                        lambda: _generate_outcome(out), out=out)
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    last = reps[-1]
    checks = {
        "cli_exit_0": all(r["returncode"] == 0 for r in reps),
        "no_failed_images": all(r["failed"] == 0 for r in reps),
        "same_output_every_repetition":
            len({r["sha256"] for r in reps}) == 1,
    }
    detail = {"workload": args.workload, "seed": args.seed,
              "setup_s": setup_s, "repetitions": reps,
              "sha256": last["sha256"], "items": last["items"]}
    agree, total, mismatches = _agreement(args.workload, inputs, out)
    detail["mismatches"] = mismatches
    if args.workload == "evaluate":
        checks["judge_cache_writes"] = all(
            r["cache_writes"] == inputs.judge_calls for r in reps)
        checks["verdicts_as_built"] = agree == total
    elif args.workload == "gt-corpus":
        checks["answers_match_oracle"] = agree == total
        checks["workers_1_equals_workers_2"] = (
            _generate_sha(inputs, work / "out-w1", 1) == last["sha256"])
    # estimate: label agreement is measured, not gated (estimated boxes
    # can flip a guarded comparison; see oracle_agree_frac).
    correct = all(checks.values()) and total > 0

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps) if correct else attempted
    wall_s = statistics.median(r["wall_s"] for r in reps)
    metrics = {
        "wall_s": (wall_s, "s"),
        "items_per_s": (last["items"] / wall_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "setup_s": (statistics.median(setup_s), "s"),
        "oracle_agree_frac": (agree / total if total else 0.0, "fraction"),
    }
    detail["checks"] = checks
    detail["notes"] = {
        "wall_s": f"median of {len(reps)} repetitions",
        "setup_s": f"median of {SETUP_REPEATS} set-ups",
        "oracle_agree_frac": f"{agree} of {total} items",
    }
    return _result(correct, attempted, failed, metrics), detail


def _measure(seconds: float, command: list[str], outcome, out: Path,
             before=lambda: None) -> list[dict]:
    """Run ``command`` until ``seconds`` have passed (at least once)."""
    reps = []
    deadline = time.perf_counter() + seconds
    while not reps or time.perf_counter() < deadline:
        shutil.rmtree(out, ignore_errors=True)
        before()
        wall_s, returncode = _run_cli(command)
        rep = outcome()
        rep.update(wall_s=wall_s, returncode=returncode)
        reps.append(rep)
    return reps


def _cli_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPATIALQA_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _run_cli(command: list[str]) -> tuple[float, int]:
    """Wall time and exit code of one CLI run, launch to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(command, env=_cli_env(), cwd=ROOT,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return time.perf_counter() - start, -1
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(stderr.decode(errors="replace")[-2000:])
    return wall_s, proc.returncode


def _generate_command(inputs, out: Path, workers: int) -> list[str]:
    return [sys.executable, "-m", "spatialqa.cli", "generate",
            "--manifest", str(inputs.manifest), "--config", str(inputs.config),
            "--out", str(out), "--workers", str(workers)]


def _evaluate_command(inputs, out: Path) -> list[str]:
    return [sys.executable, "-m", "spatialqa.cli", "evaluate",
            "--corpus", str(inputs.corpus), "--responses",
            str(inputs.responses), "--config", str(inputs.config),
            "--out", str(out)]


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() \
        if path.is_file() else None


def _count_lines(path: Path) -> int:
    if not path.is_file():
        return 0
    with open(path, "rb") as f:
        return sum(1 for _ in f)


def _generate_outcome(out: Path) -> dict:
    ledger_path = out / "ledger.json"
    statuses = json.loads(ledger_path.read_text())["statuses"] \
        if ledger_path.is_file() else {}
    failed = sum(1 for s in statuses.values() if s["status"] == "failed")
    return {"attempted": max(1, len(statuses)), "failed": failed,
            "sha256": _sha256(out / "corpus.jsonl"),
            "items": _count_lines(out / "corpus.jsonl")}


def _evaluate_outcome(inputs, out: Path) -> dict:
    items = _count_lines(out / "records.jsonl")
    judge_dir = inputs.cache_dir / "judge"
    return {"attempted": max(1, items), "failed": 0,
            "sha256": _sha256(out / "records.jsonl"), "items": items,
            "cache_writes": len(list(judge_dir.glob("*.json")))
            if judge_dir.is_dir() else 0}


def _generate_sha(inputs, out: Path, workers: int) -> str | None:
    shutil.rmtree(out, ignore_errors=True)
    _run_cli(_generate_command(inputs, out, workers))
    return _sha256(out / "corpus.jsonl")


def _agreement(workload: str, inputs, out: Path) -> tuple[int, int, list]:
    """(outputs agreeing, outputs checked, first mismatches); an output
    the check cannot read counts as a failed check, not a crash."""
    from checks import corpus_agreement, verdict_agreement

    try:
        if workload == "evaluate":
            return verdict_agreement(out / "records.jsonl", inputs.intended)
        return corpus_agreement(inputs.scenes, out / "corpus.jsonl",
                                exact=workload == "gt-corpus")
    except Exception as e:  # noqa: BLE001 - reported as a failed check
        return 0, 0, [f"check could not run: {type(e).__name__}: {e}"]


def _result(correct: bool, attempted: int, failed: int,
            metrics: dict[str, tuple[float, str]]) -> dict:
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": float(value), "unit": unit}
                        for name, (value, unit) in metrics.items()}}


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics
# ---------------------------------------------------------------------------

def run_traced(args, work: Path) -> tuple[dict, dict]:
    from inputs import build
    from spatialqa.config import config_from_dict
    from spatialqa.pipeline import run_evaluate, run_generate
    from tracing import Tracer, installed, layer_metrics, layer_self_s

    inputs = build(args.workload, args.seed, work / "inputs")
    config = config_from_dict(json.loads(inputs.config.read_text()))
    config.workers = 1
    evaluate = args.workload == "evaluate"
    if evaluate:
        phase, product = "evaluate", "records.jsonl"

        def run(out):
            run_evaluate(inputs.corpus, inputs.responses, config, out)
    else:
        phase, product = "generate", "corpus.jsonl"

        def run(out):
            run_generate(inputs.manifest, config, out)

    def one_pass(out: Path, tracer: Tracer | None) -> float:
        shutil.rmtree(out, ignore_errors=True)
        if evaluate:
            shutil.rmtree(inputs.cache_dir, ignore_errors=True)
        start = time.perf_counter()
        with installed(tracer, phase) if tracer else contextlib.nullcontext():
            run(out)
        wall_s = time.perf_counter() - start
        shas.add(_sha256(out / product))
        return wall_s

    untraced_dir, traced_dir = work / "untraced", work / "traced"
    untraced, traced, resume, tracers, shas = [], [], [], [], set()
    cache_writes = []
    deadline = time.perf_counter() + args.seconds
    while not tracers or time.perf_counter() < deadline:
        tracer = Tracer()
        # alternate the order so neither side always runs first
        if len(tracers) % 2:
            traced.append(one_pass(traced_dir, tracer))
            untraced.append(one_pass(untraced_dir, None))
        else:
            untraced.append(one_pass(untraced_dir, None))
            traced.append(one_pass(traced_dir, tracer))
        tracers.append(tracer)
        if evaluate:
            cache_writes.append(_evaluate_outcome(inputs, traced_dir)[
                "cache_writes"])
        else:
            start = time.perf_counter()
            run_generate(inputs.manifest, config, untraced_dir)
            resume.append(time.perf_counter() - start)

    start = time.perf_counter()
    agree, total, mismatches = _agreement(args.workload, inputs,
                                          untraced_dir)
    check_s = time.perf_counter() - start

    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracers[-1].write(spans_path)

    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(traced)
    metrics, notes = layer_metrics(tracers)
    metrics.update({
        "pipeline.resume_s": (statistics.median(resume) if resume else 0.0,
                              "s"),
        "pipeline.overhead_s": (0.0 if evaluate else statistics.median(
            wall_s - layer_self_s(tracer)
            for wall_s, tracer in zip(traced, tracers)), "s"),
        "clients.judge.cache_writes": (
            statistics.median(cache_writes) if cache_writes else 0.0,
            "count"),
        "oracle.check_s": (check_s, "s"),
        "trace.untraced_s": (untraced_s, "s"),
        "trace.traced_s": (traced_s, "s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "fraction"),
    })

    outcome = _evaluate_outcome(inputs, untraced_dir) if evaluate \
        else _generate_outcome(untraced_dir)
    checks = {"traced_output_equals_untraced":
              len(shas) == 1 and None not in shas,
              "no_failed_images": outcome["failed"] == 0}
    if args.workload == "gt-corpus":
        checks["answers_match_oracle"] = agree == total and total > 0
    elif evaluate:
        checks["verdicts_as_built"] = agree == total and total > 0
        checks["judge_cache_writes"] = all(
            n == inputs.judge_calls for n in cache_writes)
    else:
        checks["oracle_recomputed"] = total > 0
    correct = all(checks.values())
    attempted = outcome["attempted"] * len(tracers)
    detail = {"workload": args.workload, "seed": args.seed,
              "passes": len(tracers), "untraced_s": untraced,
              "traced_s": traced, "resume_s": resume, "checks": checks,
              "mismatches": mismatches, "notes": notes,
              "sha256": outcome["sha256"], "items": outcome["items"],
              "spans": str(spans_path.relative_to(ROOT))}
    return _result(correct, attempted, 0 if correct else attempted,
                   metrics), detail


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "gt_corpus_workers": GT_WORKERS,
        "measured": "wall clock (time.perf_counter) and per-process rusage "
                    "only; no system-wide tracing or hardware counters",
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
