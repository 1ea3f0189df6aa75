"""Batch orchestration: manifests in, corpus and reports out.

Generation processes images independently (work pool over the manifest),
persists one part file per image via write-then-rename, and assembles
the corpus in manifest order at the end.  Per-image seeds derive from
(corpus seed, image id), so the corpus bytes are independent of worker
count, scheduling, and interruption; a rerun skips images whose part
files already record them as done under its corpus seed.

A part file ``parts/<image_id>.jsonl`` is one header line
``{"families", "image_id", "reason", "seed", "status"}`` followed by the
image's corpus lines, so resume reads only the header and assembly copies
the rest of the file without parsing it.  Any exception other than
``SceneSkipped`` becomes a ``failed`` part carrying ``"<Type>: <message>"``.

``run_generate`` returns the dict it writes to ``ledger.json``: each
image's status (``skipped`` when the resume scan finds it done or beyond
``--limit``, else its part header's, read during assembly), their counts,
the items per family and the wall time.  ``run_evaluate`` likewise
returns the dict it writes to ``report.json``.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from .assignment import box_iou
from .clients import Client, build_clients
from .config import PipelineConfig
from .dbscan import dbscan_largest_cluster, default_eps, default_min_pts
from .evalharness import judged, render_report, report, score_item
from .filters import heuristic_image_filter, tag_vote_filter
from .geometry import EmptyObjectError, extract_object_points, fit_box3d
from .manifest import ImageManifest, read_manifest, resolve_path
from .pmap import read_pointmap
from .qa.items import QAItem, canonical_json, check_item, derive_seed
from .qa.problem import scene_digest, validate_candidates
from .qa.synth import Scene, synthesize_scene_qa
from .references import assign_references, verify_textual_reference
from .relations import SceneObject
from .schema import TEXT, check, or_null, read_jsonl, text, unique


class SceneSkipped(Exception):
    """Image filtered out or not processable; carries the reason."""


# ---------------------------------------------------------------------------
# Scene construction from one manifest entry
# ---------------------------------------------------------------------------

def _apply_filters(entry: ImageManifest, config: PipelineConfig) -> None:
    stats = entry.pixel_stats
    if stats is not None:
        reasons = heuristic_image_filter(
            stats["white"], stats["black"], stats["invalid_depth"])
        if reasons:
            raise SceneSkipped("; ".join(reasons))
    if entry.tags is not None and config.tag_include:
        reason = tag_vote_filter(entry.tags, config.tag_include)
        if reason is not None:
            raise SceneSkipped(reason)


def _estimate_object(entry: ImageManifest, ann: dict, pm,
                     manifest_path) -> SceneObject | None:
    yaw, box3d = ann.get("yaw_deg"), ann.get("box3d")
    if box3d is not None:
        # ground-truth annotation: the estimation pipeline is skipped
        center, size = box3d["center"], box3d["size"]
        if yaw is None:
            yaw = float(box3d["yaw_deg"])
    elif ann.get("mask") is None:
        return None
    else:
        mask = np.load(resolve_path(manifest_path, ann["mask"]),
                       allow_pickle=False)
        try:
            points = extract_object_points(pm, mask)
            points = dbscan_largest_cluster(
                points, eps=default_eps(points),
                min_pts=default_min_pts(len(points)))
            center, size = fit_box3d(points, entry.frame, yaw_hint_deg=yaw)
        except EmptyObjectError:
            return None
    return SceneObject(object_id=ann["object_id"], category=ann["category"],
                       center=np.asarray(center, dtype=float),
                       size=np.asarray(size, dtype=float), yaw_deg=yaw)


def _verified_captions(entry: ImageManifest, objects: list[SceneObject],
                       grounder: Client | None) -> dict[str, str]:
    """Simplest caption per object that survives grounding verification.

    Grounder boxes come from precomputed manifest `grounding` records when
    present, otherwise from the grounder client; objects with neither are
    left for the spatial/fallback reference kinds.
    """
    by_id = {ann["object_id"]: ann for ann in entry.objects}
    verified: dict[str, str] = {}
    for obj in objects:
        ann = by_id[obj.object_id]
        grounding = ann.get("grounding")
        for i, caption in enumerate(ann.get("captions") or []):
            if grounding is not None:
                if i >= len(grounding):
                    break
                boxes = grounding[i]["boxes"]
            elif grounder is not None:
                boxes = grounder.call(
                    {"image_id": entry.image_id, "caption": caption})["boxes"]
            else:
                break
            iou = box_iou(boxes[0], ann["box2d"]) if len(boxes) == 1 else 0.0
            if verify_textual_reference(boxes, iou):
                verified[obj.object_id] = caption
                break
    return verified


def build_scene(entry: ImageManifest, manifest_path: str | Path,
                config: PipelineConfig,
                clients: dict[str, Client] | None = None) -> Scene:
    """Manifest entry -> Scene: filters, geometry, references."""
    clients = clients or {}
    _apply_filters(entry, config)
    pm = read_pointmap(resolve_path(manifest_path, entry.pointmap))

    objects: list[SceneObject] = []
    for ann in entry.objects:
        obj = _estimate_object(entry, ann, pm, manifest_path)
        if obj is not None:
            objects.append(obj)
    captions = _verified_captions(entry, objects, clients.get("grounder"))
    refs = assign_references(objects, entry.frame, verified_captions=captions)
    return Scene(image_id=entry.image_id, objects=objects, refs=refs,
                 gf=entry.frame, pm=pm)


def process_image(entry: ImageManifest, manifest_path: str | Path,
                  config: PipelineConfig,
                  clients: dict[str, Client] | None = None) -> list[QAItem]:
    """Full per-image flow: scene, problems via client, QA synthesis."""
    clients = clients or {}
    scene = build_scene(entry, manifest_path, config, clients)
    problems = []
    generator = clients.get("problem-generator")
    if generator is not None and scene.objects:
        digest = scene_digest(scene)
        problems, _rejected = validate_candidates(
            digest, generator.call(digest)["candidates"])
    seed = derive_seed(config.seed, entry.image_id)
    return synthesize_scene_qa(scene, seed, problems=problems)


# ---------------------------------------------------------------------------
# Parallel, resumable generation
# ---------------------------------------------------------------------------

def _part_path(parts_dir: Path, image_id: str) -> Path:
    return parts_dir / f"{image_id}.jsonl"


def _read_header(path: Path) -> dict:
    with open(path, "rb") as f:
        return json.loads(f.readline())


def _done(header: dict, seed: int) -> bool:
    """Whether a part header records its image as done under ``seed``."""
    return header["status"] == "done" and header.get("seed") == seed


def _write_part(parts_dir: Path, image_id: str, seed: int, status: str,
                reason: str | None, items: list[QAItem]) -> None:
    families: dict[str, int] = {}
    for item in items:
        families[item.family] = families.get(item.family, 0) + 1
    header = {"image_id": image_id, "seed": seed, "status": status,
              "reason": reason, "families": families}
    lines = [canonical_json(header)] + [item.to_json() for item in items]
    path = _part_path(parts_dir, image_id)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    tmp.replace(path)


def _process_entry_to_part(entry: ImageManifest, manifest_path: str,
                           config: PipelineConfig,
                           clients: dict[str, Client],
                           parts_dir: Path) -> None:
    """Worker body: one image to one part file."""
    part = (parts_dir, entry.image_id, config.seed)
    try:
        items = process_image(entry, manifest_path, config, clients)
    except SceneSkipped as e:
        _write_part(*part, "skipped", str(e), [])
    except Exception as e:  # noqa: BLE001 - one bad image never ends a run
        _write_part(*part, "failed", f"{type(e).__name__}: {e}", [])
    else:
        _write_part(*part, "done", None, items)


def run_generate(manifest_path: str | Path, config: PipelineConfig,
                 out_dir: str | Path,
                 limit: int | None = None) -> dict:
    """Generate the corpus for a manifest; resumable and order-stable.

    Writes corpus.jsonl, ledger.json and parts/*.jsonl under out_dir and
    returns the dict ledger.json holds.  A bad manifest record (see
    ``read_manifest``) or client spec raises before anything is written.
    """
    start = time.monotonic()
    manifest_path = str(manifest_path)
    entries = read_manifest(manifest_path)
    clients = build_clients(config.clients, cache_dir=config.cache_dir)

    out = Path(out_dir)
    parts_dir = out / "parts"
    parts_dir.mkdir(parents=True, exist_ok=True)
    # the statuses this run decides; assembly reads the rest off the parts
    statuses: dict[str, dict] = {}
    todo = []
    for i, entry in enumerate(entries):
        part_path = _part_path(parts_dir, entry.image_id)
        if part_path.exists() and _done(_read_header(part_path), config.seed):
            # assembled into the corpus below, within --limit or not
            statuses[entry.image_id] = {"status": "skipped",
                                        "reason": "already done"}
        elif limit is not None and i >= limit:
            statuses[entry.image_id] = {"status": "skipped",
                                        "reason": "beyond --limit"}
        else:
            todo.append(entry)

    if config.workers <= 1 or len(todo) <= 1:
        for e in todo:
            _process_entry_to_part(e, manifest_path, config, clients,
                                   parts_dir)
    else:
        # imported here: multiprocessing costs every other command's start
        from concurrent.futures import ProcessPoolExecutor

        # a fork pool starts all its workers at the first submit, so it
        # gets no more of them than there are images
        with ProcessPoolExecutor(
                max_workers=min(config.workers, len(todo))) as pool:
            futures = [
                pool.submit(_process_entry_to_part, e, manifest_path, config,
                            clients, parts_dir)
                for e in todo
            ]
            for future in futures:
                future.result()  # a broken pool or part write raises here

    family_counts = Counter()
    with open(out / "corpus.jsonl", "wb") as corpus:
        for entry in entries:
            part_path = _part_path(parts_dir, entry.image_id)
            if not part_path.exists():
                continue
            with open(part_path, "rb") as part:
                header = json.loads(part.readline())
                statuses.setdefault(entry.image_id, {
                    k: header[k] for k in ("status", "reason") if header[k]})
                if not _done(header, config.seed):
                    continue
                shutil.copyfileobj(part, corpus)
            family_counts.update(header["families"])

    ledger = {
        "statuses": statuses,
        "summary": dict(Counter(s["status"] for s in statuses.values())),
        "family_counts": dict(family_counts),
        "wall_seconds": round(time.monotonic() - start, 3),
    }
    (out / "ledger.json").write_text(
        json.dumps(ledger, sort_keys=True, indent=1), encoding="utf-8")
    return ledger


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def read_corpus(path: str | Path) -> list[dict]:
    """The lines of a corpus (see ``check_item``), with unique item_ids."""
    return read_jsonl(path, unique("item_id", check_item))


_RESPONSE_RULES = (
    ("item_id", *TEXT),
    ("response", or_null(text), "is neither null nor a string"),
)


def _response(d: dict) -> tuple[str, str | None]:
    check(d, _RESPONSE_RULES)
    return d["item_id"], d["response"]  # a line without "response" is bad


def read_responses(path: str | Path) -> dict[str, str | None]:
    """item_id -> response text; a null response counts as missing, and
    a repeated item_id is a bad line."""
    return dict(read_jsonl(path, unique("item_id", _response)))


def run_evaluate(corpus_path: str | Path, responses_path: str | Path,
                 config: PipelineConfig, out_dir: str | Path) -> dict:
    """Join corpus with responses, score, and write report files; returns
    the dict report.json holds.  The count of responses that name no
    corpus item goes to stderr."""
    items = read_corpus(corpus_path)
    responses = read_responses(responses_path)
    unmatched = len(responses.keys() - {item["item_id"] for item in items})
    if unmatched:
        print(f"evaluate: responses naming no corpus item: {unmatched}",
              file=sys.stderr)
    clients = build_clients(config.clients, cache_dir=config.cache_dir)
    judge = clients.get("judge")
    # before any judge call, so an unusable --out costs none
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    records = []
    for item in items:
        response = responses.get(item["item_id"])
        verdict = None
        if judge is not None and response is not None and judged(item):
            verdict = judge.call({
                "item_id": item["item_id"], "question": item["prompt"],
                "answer": item["answer"], "response": response,
            })["verdict"]
        records.append(score_item(item, response, judge_verdict=verdict,
                                  band=config.band))

    rep = report(records)
    (out / "report.json").write_text(
        json.dumps(rep, sort_keys=True, indent=1), encoding="utf-8")
    (out / "report.txt").write_text(render_report(rep), encoding="utf-8")
    with open(out / "records.jsonl", "w", encoding="utf-8") as f:
        for record in records:
            f.write(canonical_json(record.to_dict()) + "\n")
    return rep
