"""Command-line interface.

  spatialqa generate    --manifest M --out D [--config C] [--workers N]
                        [--seed S] [--limit K]
  spatialqa evaluate    --corpus Q --responses R --out D [--config C]
  spatialqa oracle gen  --seeds A:B --out D [--sigma S]
                        [--preset default|estimation] [--problem-fixtures]
  spatialqa oracle check --scenes S --corpus Q
  spatialqa validate    --manifest M
  spatialqa encode-dump --pointmap P --out T

All commands exit nonzero on any error; ``validate`` and ``oracle check``
exit nonzero when violations or mismatches are found.  A corpus or
responses line that breaks its schema is an error (see ``read_corpus``);
an item whose provenance the oracle cannot read counts as a mismatch.  A
number outside its flag's range (``--limit`` and the ``oracle gen``
seeds >= 0, ``--workers`` >= 1, ``--sigma`` finite and >= 0) or an empty
seed range is a usage error.

A run is set by its input files, its ``--config`` file (see ``config``)
and these flags; no environment variable changes it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .clients import ClientError
from .config import ConfigError, load_config
from .encoding import sinusoidal_encode
from .manifest import ManifestError, validate_manifest
from .pipeline import read_corpus, run_evaluate, run_generate
from .pmap import PmapError, read_pointmap


def _seed_range(text: str) -> range:
    """Seeds "A:B" or "A..B" (B exclusive, so B > A), or the single seed
    "A"; no seed is negative."""
    lo, sep, hi = text.replace("..", ":").partition(":")
    try:
        seeds = range(int(lo), int(hi) if sep else int(lo) + 1)
    except ValueError:
        seeds = None
    if seeds is None or not 0 <= seeds.start < seeds.stop:
        raise argparse.ArgumentTypeError(
            f"bad seed range {text!r}, expected A:B with 0 <= A < B")
    return seeds


def _at_least(convert, least: int):
    """argparse type: ``convert(text)`` if it is finite and >= ``least``."""
    def parse(text: str):
        value = convert(text)
        if not least <= value < math.inf:
            kind = "an integer" if convert is int else "a finite number"
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {kind} >= {least}")
        return value
    parse.__name__ = convert.__name__  # "invalid int value: 'x'"
    return parse


def cmd_generate(args) -> int:
    config = load_config(args.config)
    if args.workers is not None:
        config.workers = args.workers
    if args.seed is not None:
        config.seed = args.seed
    ledger = run_generate(args.manifest, config, args.out, limit=args.limit)
    summary = ledger["summary"]
    print(f"generate: {json.dumps(summary, sort_keys=True)} "
          f"items={sum(ledger['family_counts'].values())} "
          f"wall={ledger['wall_seconds']:.1f}s")
    return 1 if summary.get("failed") else 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    rep = run_evaluate(args.corpus, args.responses, config, args.out)
    acc = rep["overall"]["accuracy"]
    print(f"evaluate: n={rep['overall']['n']} "
          f"accuracy={'n/a' if acc is None else f'{acc:.4f}'} "
          f"missing={rep['missing']}")
    return 0


def cmd_oracle_gen(args) -> int:
    from .oracle.gen import generate_dataset
    from .oracle.scene import ESTIMATION_SAMPLER, SceneSamplerConfig

    estimation = args.preset == "estimation"
    result = generate_dataset(
        args.seeds, args.out, sigma=args.sigma, gt_boxes=not estimation,
        sampler=ESTIMATION_SAMPLER if estimation else SceneSamplerConfig(),
        problem_fixtures=args.problem_fixtures)
    print(f"oracle gen: {result.n_scenes} scenes, {result.n_objects} objects "
          f"-> {result.manifest_path}")
    return 0


def cmd_oracle_check(args) -> int:
    from .oracle.answers import OracleMismatch, answers_match
    from .oracle.scene import read_scenes

    scenes = {s.scene_id: s for s in read_scenes(args.scenes)}
    items = read_corpus(args.corpus)
    mismatches = 0
    checked = 0
    for item in items:
        scene = scenes.get(item["image_id"])
        if scene is None:
            print(f"oracle check: no scene for {item['item_id']}",
                  file=sys.stderr)
            mismatches += 1
            continue
        try:
            ok, why = answers_match(scene, item)
        except (OracleMismatch, LookupError, TypeError, ValueError) as e:
            ok, why = False, f"oracle cannot read the item: {e!r}"
        checked += 1
        if not ok:
            mismatches += 1
            print(f"MISMATCH {item['item_id']}: {why}", file=sys.stderr)
    print(f"oracle check: {checked} items, {mismatches} mismatches")
    return 1 if mismatches else 0


def cmd_validate(args) -> int:
    problems = validate_manifest(args.manifest)
    for problem in problems:
        print(f"violation: {problem}", file=sys.stderr)
    print(f"validate: {len(problems)} violations")
    return 1 if problems else 0


def cmd_encode_dump(args) -> int:
    out = sinusoidal_encode(read_pointmap(args.pointmap)).astype(np.float32)
    # np.save(path) would append ".npy" to a name without it
    with open(args.out, "wb") as f:
        np.save(f, out)
    print(f"encode-dump: {out.shape} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialqa",
        description="Hierarchical 3D spatial VQA corpus synthesis and "
                    "evaluation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a QA corpus")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--workers", type=_at_least(int, 1), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--limit", type=_at_least(int, 0), default=None,
                   help="process only the first K manifest images")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="score model responses")
    p.add_argument("--corpus", required=True)
    p.add_argument("--responses", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    oracle = sub.add_parser("oracle", help="synthetic oracle scenes")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("gen", help="generate oracle scenes + dataset files")
    p.add_argument("--seeds", required=True, type=_seed_range,
                   help="seed range a:b")
    p.add_argument("--out", required=True)
    p.add_argument("--sigma", type=_at_least(float, 0), default=0.0,
                   help="render depth noise in meters")
    p.add_argument("--preset", choices=("default", "estimation"),
                   default="default",
                   help="estimation: the estimation scene sampler, and no "
                        "ground-truth 3D boxes in the manifest")
    p.add_argument("--problem-fixtures", action="store_true",
                   help="record problem-generator fixtures for the scenes")
    p.set_defaults(func=cmd_oracle_gen)

    p = osub.add_parser("check", help="verify a corpus against scene truth")
    p.add_argument("--scenes", required=True)
    p.add_argument("--corpus", required=True)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("validate", help="validate a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("encode-dump", help="write a point-map encoding .npy")
    p.add_argument("--pointmap", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode_dump)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ClientError, ConfigError, ManifestError, PmapError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
