"""Oracle dataset writer: scenes to PMAP files, masks and manifests.

Produces exactly the input formats the generation pipeline consumes,
plus a scenes.jsonl with the exact ground-truth layouts for independent
answer checking.  Objects the renderer prunes as too occluded, and kept
objects that render too few pixels, are dropped from both the manifest
and the saved ground truth, keeping the two views of the scene
consistent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..clients import record_fixture
from ..manifest import ImageManifest, write_manifest
from ..pmap import write_pointmap
from .fixtures import problem_fixture_response
from .render import render_scene
from .scene import OracleScene, SceneSamplerConfig, sample_scene, write_scenes

MIN_OBJECT_PIXELS = 30
MIN_VISIBLE_FRACTION = 0.85  # of an object's pixels when rendered alone


def _mask_box(mask: np.ndarray) -> list[float]:
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    return [float(cols[0]), float(rows[0]),
            float(cols[-1] + 1), float(rows[-1] + 1)]


def scene_to_files(scene: OracleScene, root: Path,
                   gt_boxes: bool, rng: np.random.Generator
                   ) -> tuple[dict, OracleScene]:
    """Render one scene and write its pmap + masks; returns the manifest
    record and the visibility-filtered ground truth."""
    pm, masks, _depth = render_scene(scene, rng=rng,
                                     min_visible_fraction=MIN_VISIBLE_FRACTION)
    pmap_rel = f"pmaps/{scene.scene_id}.pmap"
    pmap_path = root / pmap_rel
    pmap_path.parent.mkdir(parents=True, exist_ok=True)
    write_pointmap(pm, pmap_path)

    annotations = []
    visible = []
    for obj in scene.objects:
        mask = masks.get(obj.object_id)
        if mask is None or int(mask.sum()) < MIN_OBJECT_PIXELS:
            continue
        visible.append(obj)
        mask_rel = f"masks/{scene.scene_id}-{obj.object_id}.npy"
        mask_path = root / mask_rel
        mask_path.parent.mkdir(parents=True, exist_ok=True)
        np.save(mask_path, mask, allow_pickle=False)
        ann = {"object_id": obj.object_id, "category": obj.category,
               "box2d": _mask_box(mask), "mask": mask_rel,
               "yaw_deg": float(obj.yaw_deg)}
        if gt_boxes:
            ann["box3d"] = {
                "center": [float(c) for c in obj.center],
                "size": [float(s) for s in obj.size],
                "yaw_deg": float(obj.yaw_deg),
            }
        annotations.append(ann)

    record = {
        "image_id": scene.scene_id, "width": scene.width,
        "height": scene.height, "pointmap": pmap_rel,
        "gravity": [float(g) for g in scene.gravity],
        "intrinsics": asdict(scene.intrinsics),
        "pixel_stats": {"white": 0.0, "black": 0.0, "invalid_depth": 0.0},
        "objects": annotations,
    }
    return record, replace(scene, objects=visible)


@dataclass
class GenerateResult:
    manifest_path: Path
    scenes_path: Path
    fixture_dir: Path | None
    n_scenes: int
    n_objects: int


def generate_dataset(seeds: range, out_dir: str | Path, sigma: float = 0.0,
                     gt_boxes: bool = True,
                     sampler: SceneSamplerConfig | None = None,
                     problem_fixtures: bool = False) -> GenerateResult:
    """Sample, render and persist a batch of oracle scenes."""
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    records = []
    truths = []
    for seed in seeds:
        scene = sample_scene(seed, config=sampler, noise_sigma=sigma)
        render_rng = np.random.default_rng(seed + 1_000_003)
        record, truth = scene_to_files(scene, root, gt_boxes, render_rng)
        records.append(record)
        truths.append(truth)
    result = GenerateResult(
        manifest_path=root / "manifest.jsonl",
        scenes_path=root / "scenes.jsonl",
        fixture_dir=root / "fixtures" if problem_fixtures else None,
        n_scenes=len(records),
        n_objects=sum(len(r["objects"]) for r in records),
    )
    write_manifest(records, result.manifest_path)
    write_scenes(truths, result.scenes_path)
    if problem_fixtures:
        _write_problem_fixtures(result, records)
    return result


def _write_problem_fixtures(result: GenerateResult,
                            records: list[dict]) -> None:
    """Record generator responses for the digests the pipeline will build.

    Parses each record and runs the pipeline's own scene assembly
    (ground-truth boxes mode), as ``generate`` does, so the recorded
    request keys match the later replay exactly.
    """
    from ..config import PipelineConfig
    from ..pipeline import build_scene
    from ..qa.problem import scene_digest

    config = PipelineConfig()
    for record in records:
        scene = build_scene(ImageManifest.from_dict(record),
                            result.manifest_path, config)
        if not scene.objects:
            continue
        digest = scene_digest(scene)
        record_fixture(result.fixture_dir, "problem-generator", digest,
                       problem_fixture_response(digest))
