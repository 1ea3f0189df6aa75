"""Command-line interface.

  spatialqa generate    --manifest M --out D [--config C] [--workers N]
                        [--seed S] [--limit K]
  spatialqa evaluate    --corpus Q --responses R --out D [--config C]
  spatialqa oracle gen  --seeds A:B --out D [--sigma S] [--estimate]
                        [--preset default|estimation] [--problem-fixtures]
  spatialqa oracle check --scenes S --corpus Q [--quantity-tol T]
  spatialqa validate    --manifest M
  spatialqa encode-dump --pointmap P --out T [--channels N] [--seed S]

All commands exit nonzero on any error; ``validate`` and ``oracle check``
exit nonzero when violations or mismatches are found.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .clients import ClientError
from .config import ConfigError, check_workers, load_config
from .encoding import ENCODED_CHANNELS, patchify, sinusoidal_encode, write_tensor
from .manifest import ManifestError, validate_manifest
from .oracle.answers import QUANTITY_TOL, answers_match
from .oracle.gen import generate_dataset
from .oracle.scene import ESTIMATION_SAMPLER, SceneSamplerConfig, read_scenes
from .pipeline import read_corpus, run_evaluate, run_generate
from .pmap import PmapError, read_pointmap


def _seed_range(text: str) -> range:
    """Seeds "A:B" or "A..B" (B exclusive), or the single seed "A"."""
    try:
        for sep in (":", ".."):
            if sep in text:
                lo, hi = text.split(sep, 1)
                return range(int(lo), int(hi))
        start = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad seed range {text!r}, expected A:B") from None
    return range(start, start + 1)


def cmd_generate(args) -> int:
    config = load_config(args.config)
    if args.workers is not None:
        config.workers = check_workers(args.workers, "--workers")
    if args.seed is not None:
        config.seed = args.seed
    ledger = run_generate(args.manifest, config, args.out, limit=args.limit)
    summary = ledger.summary
    print(f"generate: {json.dumps(summary, sort_keys=True)} "
          f"items={sum(ledger.family_counts.values())} "
          f"wall={ledger.wall_seconds:.1f}s")
    return 1 if summary.get("failed") else 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    rep = run_evaluate(args.corpus, args.responses, config, args.out)
    acc = rep.overall.get("accuracy")
    print(f"evaluate: n={rep.overall.get('n', 0)} "
          f"accuracy={'n/a' if acc is None else f'{acc:.4f}'} "
          f"missing={rep.missing}")
    return 0


def cmd_oracle_gen(args) -> int:
    sampler = ESTIMATION_SAMPLER if args.preset == "estimation" \
        else SceneSamplerConfig()
    result = generate_dataset(
        args.seeds, args.out, sigma=args.sigma,
        gt_boxes=not args.estimate, sampler=sampler,
        problem_fixtures=args.problem_fixtures)
    print(f"oracle gen: {result.n_scenes} scenes, {result.n_objects} objects "
          f"-> {result.manifest_path}")
    return 0


def cmd_oracle_check(args) -> int:
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
        ok, why = answers_match(scene, item, quantity_tol=args.quantity_tol)
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
    pm = read_pointmap(args.pointmap)
    encoded = sinusoidal_encode(pm)
    if args.patchify:
        rng = np.random.default_rng(args.seed)
        weights = rng.normal(
            0.0, 0.02, size=(ENCODED_CHANNELS * 14 * 14, args.channels))
        out = patchify(encoded, weights)
    else:
        out = encoded
    write_tensor(out, args.out)
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
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--limit", type=int, default=None,
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
    p.add_argument("--sigma", type=float, default=0.0,
                   help="render depth noise in meters")
    p.add_argument("--estimate", action="store_true",
                   help="omit ground-truth 3D boxes from the manifest")
    p.add_argument("--preset", choices=("default", "estimation"),
                   default="default")
    p.add_argument("--problem-fixtures", action="store_true",
                   help="record problem-generator fixtures for the scenes")
    p.set_defaults(func=cmd_oracle_gen)

    p = osub.add_parser("check", help="verify a corpus against scene truth")
    p.add_argument("--scenes", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--quantity-tol", type=float, default=QUANTITY_TOL)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("validate", help="validate a manifest")
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("encode-dump", help="export point-map encodings")
    p.add_argument("--pointmap", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--patchify", action="store_true")
    p.add_argument("--channels", type=int, default=1152)
    p.add_argument("--seed", type=int, default=0)
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
