"""Image manifests: the line-delimited JSON input schema of the pipeline.

One image per line, UTF-8.  Field-by-field schema:

  image_id      str, unique within the manifest
  width, height int, pixels
  pointmap      str, path to a PMAP file (relative paths resolve against
                the manifest's directory)
  gravity       optional [gx, gy, gz] unit vector, camera frame; defaults
                to (0, 1, 0)
  intrinsics    optional {fx, fy, cx, cy}
  pixel_stats   optional {white, black, invalid_depth} fractions in [0,1]
  tags          optional list of 5 retrieved tag strings
  objects       list of annotations:
      object_id   str, unique within the image
      category    str
      box2d       [x0, y0, x1, y1] pixels, x1/y1 exclusive, inside image
      mask        optional path to a .npy boolean array (H, W)
      yaw_deg     optional facing yaw in degrees (orientation estimator
                  output or ground truth)
      pitch_deg   optional facing pitch in degrees
      captions    optional list of caption candidates, simplest first
      grounding   optional list parallel to captions of precomputed
                  grounder outputs, each {"boxes": [[x0,y0,x1,y1], ...]};
                  when present, caption verification never calls the
                  grounder client
      box3d       optional ground-truth 3D box {center, size, yaw_deg};
                  when present the estimation pipeline is skipped for
                  this object
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .geometry import CameraIntrinsics


class ManifestError(Exception):
    """Schema violation in a manifest; message carries line/image context."""


@dataclass
class ObjectAnnotation:
    object_id: str
    category: str
    box2d: list[float]
    mask: str | None = None
    yaw_deg: float | None = None
    pitch_deg: float | None = None
    captions: list[str] = field(default_factory=list)
    grounding: list[dict] | None = None
    box3d: dict | None = None

    def to_dict(self) -> dict:
        d = {"object_id": self.object_id, "category": self.category,
             "box2d": [float(v) for v in self.box2d]}
        if self.mask is not None:
            d["mask"] = self.mask
        if self.yaw_deg is not None:
            d["yaw_deg"] = float(self.yaw_deg)
        if self.pitch_deg is not None:
            d["pitch_deg"] = float(self.pitch_deg)
        if self.captions:
            d["captions"] = list(self.captions)
        if self.grounding is not None:
            d["grounding"] = self.grounding
        if self.box3d is not None:
            d["box3d"] = self.box3d
        return d


@dataclass
class ImageManifest:
    image_id: str
    width: int
    height: int
    pointmap: str
    gravity: list[float] | None = None
    intrinsics: CameraIntrinsics | None = None
    pixel_stats: dict | None = None
    tags: list[str] | None = None
    objects: list[ObjectAnnotation] = field(default_factory=list)

    def to_dict(self) -> dict:
        d = {"image_id": self.image_id, "width": self.width,
             "height": self.height, "pointmap": self.pointmap}
        if self.gravity is not None:
            d["gravity"] = [float(v) for v in self.gravity]
        if self.intrinsics is not None:
            d["intrinsics"] = self.intrinsics.to_dict()
        if self.pixel_stats is not None:
            d["pixel_stats"] = self.pixel_stats
        if self.tags is not None:
            d["tags"] = list(self.tags)
        d["objects"] = [o.to_dict() for o in self.objects]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ImageManifest":
        objects = [
            ObjectAnnotation(
                object_id=o["object_id"], category=o["category"],
                box2d=[float(v) for v in o["box2d"]],
                mask=o.get("mask"),
                yaw_deg=o.get("yaw_deg"), pitch_deg=o.get("pitch_deg"),
                captions=list(o.get("captions", [])),
                grounding=o.get("grounding"),
                box3d=o.get("box3d"),
            )
            for o in d.get("objects", [])
        ]
        intr = d.get("intrinsics")
        return cls(
            image_id=d["image_id"], width=int(d["width"]),
            height=int(d["height"]), pointmap=d["pointmap"],
            gravity=d.get("gravity"),
            intrinsics=CameraIntrinsics.from_dict(intr) if intr else None,
            pixel_stats=d.get("pixel_stats"), tags=d.get("tags"),
            objects=objects,
        )


def read_jsonl(path: str | Path, parse: Callable[[Any], Any]) -> list:
    """``parse`` applied to each record of a JSON-lines file, in order;
    blank lines are ignored.  Invalid JSON, or a record that ``parse``
    rejects with an AttributeError, KeyError, TypeError or ValueError,
    raises ManifestError naming the file and line."""
    records = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(parse(json.loads(line)))
            except json.JSONDecodeError as e:
                raise ManifestError(
                    f"{path} line {lineno}: invalid JSON: {e}") from e
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                raise ManifestError(
                    f"{path} line {lineno}: bad record: {e!r}") from e
    return records


def read_manifest(path: str | Path) -> list[ImageManifest]:
    """Parse a JSON-lines manifest; blank lines are ignored."""
    return read_jsonl(path, ImageManifest.from_dict)


def write_manifest(entries: list[ImageManifest], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for entry in entries:
            f.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")


def resolve_path(manifest_path: str | Path, ref: str) -> Path:
    """Resolve a manifest-relative file reference."""
    p = Path(ref)
    if p.is_absolute():
        return p
    return Path(manifest_path).parent / p


def _resolves(manifest_path: str | Path, ref) -> bool:
    return isinstance(ref, str) and resolve_path(manifest_path, ref).exists()


def _fraction(v) -> bool:
    try:
        return 0.0 <= float(v) <= 1.0
    except (TypeError, ValueError):
        return False


def validate_manifest(path: str | Path) -> list[str]:
    """Full schema validation; returns a list of violation messages."""
    problems: list[str] = []
    try:
        entries = read_manifest(path)
    except ManifestError as e:
        return [str(e)]

    seen_ids = set()
    for entry in entries:
        ctx = f"image {entry.image_id!r}"
        if entry.image_id in seen_ids:
            problems.append(f"{ctx}: duplicate image_id")
        seen_ids.add(entry.image_id)
        if entry.width <= 0 or entry.height <= 0:
            problems.append(f"{ctx}: nonpositive dimensions")
        if not _resolves(path, entry.pointmap):
            problems.append(f"{ctx}: pointmap {entry.pointmap!r} does not resolve")
        if entry.gravity is not None:
            try:
                gravity = np.asarray(entry.gravity, dtype=float)
            except (TypeError, ValueError):
                gravity = None
            if gravity is None or gravity.shape != (3,):
                problems.append(f"{ctx}: gravity {entry.gravity!r} is not "
                                f"[gx, gy, gz]")
            else:
                norm = float(np.linalg.norm(gravity))
                if abs(norm - 1.0) > 1e-6:
                    problems.append(f"{ctx}: gravity norm {norm:.6f} != 1")
        if entry.pixel_stats is not None:
            if not isinstance(entry.pixel_stats, dict):
                problems.append(f"{ctx}: pixel_stats is not an object")
            else:
                for key in ("white", "black", "invalid_depth"):
                    if not _fraction(entry.pixel_stats.get(key)):
                        problems.append(f"{ctx}: pixel_stats.{key} missing "
                                        f"or out of range")
        if entry.tags is not None:
            if not isinstance(entry.tags, list):
                problems.append(f"{ctx}: tags is not a list")
            elif len(entry.tags) != 5:
                problems.append(
                    f"{ctx}: expected 5 tags, got {len(entry.tags)}")

        obj_ids = set()
        for obj in entry.objects:
            octx = f"{ctx}, object {obj.object_id!r}"
            if obj.object_id in obj_ids:
                problems.append(f"{octx}: duplicate object_id")
            obj_ids.add(obj.object_id)
            if len(obj.box2d) != 4:
                problems.append(f"{octx}: box2d {obj.box2d} is not "
                                f"[x0, y0, x1, y1]")
            else:
                x0, y0, x1, y1 = obj.box2d
                if not (0 <= x0 < x1 <= entry.width
                        and 0 <= y0 < y1 <= entry.height):
                    problems.append(
                        f"{octx}: box2d {obj.box2d} outside image bounds")
            if obj.mask is not None and not _resolves(path, obj.mask):
                problems.append(f"{octx}: mask {obj.mask!r} does not resolve")
            if obj.box3d is not None:
                for key in ("center", "size", "yaw_deg"):
                    if key not in obj.box3d:
                        problems.append(f"{octx}: box3d missing {key!r}")
    return problems
