"""Image manifests: the line-delimited JSON input schema of the pipeline.

One image per line, UTF-8.  ``_IMAGE_RULES`` and ``_OBJECT_RULES`` state
the type and range of each field; beyond those:

  image_id   names the image's part file, so it must be non-empty, at
             most 245 bytes in UTF-8 (``ID_BYTES``), hold no '/', '\\' or
             NUL and not be '..'; unique in the manifest
  pointmap   path to a PMAP file and ``mask`` to a .npy boolean array,
             relative to the manifest's directory unless absolute
  gravity    camera-frame unit vector, not parallel to the camera's
             forward axis; defaults to (0, 1, 0)
  objects    object_id is unique within the image; box2d is [x0, y0, x1,
             y1] pixels, x1/y1 exclusive, inside the image; grounding
             (grounder boxes per caption) spares the grounder client;
             box3d (ground truth) skips estimation for the object

Optional fields may be null.  ``ImageManifest.from_dict`` enforces each
rule one record can break, raising ManifestError with the field, its
value and what was wanted.  ``read_manifest`` also rejects a repeated
image_id; ``validate_manifest`` reports every bad line, and paths that
do not resolve, as ``<file> line <n>: ...``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .filters import TAG_COUNT
from .geometry import (IDENTITY_GRAVITY, CameraIntrinsics, GeometryError,
                       GravityFrame, gravity_frame)
from .schema import (FINITE, FRACTION, POSITIVE, SIZE, TEXT, ManifestError,
                     boxes, check, finite, is_object, numbers, or_null,
                     read_jsonl, records, strings, text, unique)


def _grounding(v) -> bool:
    return isinstance(v, list) and all(
        isinstance(g, dict) and "boxes" in g and boxes(g["boxes"])
        for g in v)


# a part file is written as "<image_id>.jsonl.tmp", and a file name holds
# at most 255 bytes
ID_BYTES = 255 - len(".jsonl.tmp")


def _file_name(v) -> bool:
    if not text(v) or v in ("", "..") or any(c in v for c in "/\\\0"):
        return False
    try:
        return len(v.encode()) <= ID_BYTES
    except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
        return False


_DICT = (or_null(is_object), "is not an object")

# (field, test, what a value that fails it is), read by ``schema.check``;
# the image_id first, since a message about any other field names it
_ID_RULES = (
    ("image_id", _file_name,
     f"cannot name a file: it must be a non-empty string of at most "
     f"{ID_BYTES} UTF-8 bytes with no '/', '\\' or NUL, other than '..'"),
)
_IMAGE_RULES = (
    ("width", *SIZE), ("height", *SIZE), ("pointmap", *TEXT),
    ("gravity", or_null(numbers(3)), "is not [gx, gy, gz]"),
    ("intrinsics", *_DICT),
    ("intrinsics.fx", *POSITIVE), ("intrinsics.fy", *POSITIVE),
    ("intrinsics.cx", *FINITE), ("intrinsics.cy", *FINITE),
    ("pixel_stats", *_DICT), ("pixel_stats.white", *FRACTION),
    ("pixel_stats.black", *FRACTION),
    ("pixel_stats.invalid_depth", *FRACTION),
    ("tags", or_null(lambda v: strings(v) and len(v) == TAG_COUNT),
     f"is not a list of {TAG_COUNT} strings"),
    ("objects", or_null(lambda v: isinstance(v, list) and all(
        isinstance(o, dict) for o in v)), "is not a list of objects"),
)
_OBJECT_RULES = (
    ("object_id", *TEXT), ("category", *TEXT),
    ("box2d", numbers(4), "is not [x0, y0, x1, y1]"),
    ("mask", or_null(text), "is not a string"),
    ("yaw_deg", or_null(finite), "is neither null nor a finite number"),
    ("captions", or_null(strings), "is not a list of strings"),
    ("grounding", or_null(_grounding),
     'is not a list of {"boxes": [[x0, y0, x1, y1], ...]}'),
    ("box3d", *_DICT),
    ("box3d.center", numbers(3), "is not 3 finite numbers"),
    ("box3d.size", lambda v: numbers(3)(v) and min(v) > 0,
     "is not 3 finite positive numbers"),
    ("box3d.yaw_deg", *FINITE),
)


@dataclass
class ObjectAnnotation:
    object_id: str
    category: str
    box2d: list[float]
    mask: str | None = None
    yaw_deg: float | None = None
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
        if self.captions:
            d["captions"] = list(self.captions)
        if self.grounding is not None:
            d["grounding"] = self.grounding
        if self.box3d is not None:
            d["box3d"] = self.box3d
        return d

    @classmethod
    def from_dict(cls, o: dict, width: int, height: int) -> "ObjectAnnotation":
        """The annotation ``o`` of a ``width`` x ``height`` image."""
        def error(message: str) -> ManifestError:
            return ManifestError(f"object {o.get('object_id')!r}: {message}")

        x0, y0, x1, y1 = check(o, _OBJECT_RULES, error)["box2d"]
        if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
            raise error(f"box2d {o['box2d']!r} outside image bounds")
        return cls(object_id=o["object_id"], category=o["category"],
                   box2d=[float(v) for v in o["box2d"]], mask=o.get("mask"),
                   yaw_deg=o.get("yaw_deg"), captions=o.get("captions") or [],
                   grounding=o.get("grounding"), box3d=o.get("box3d"))


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
    # derived from gravity, the identity frame when it is null
    frame: GravityFrame = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.frame = gravity_frame(
            IDENTITY_GRAVITY if self.gravity is None else self.gravity)

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
        """The record ``d``."""
        image_id = check(d, _ID_RULES)["image_id"]
        try:
            check(d, _IMAGE_RULES)
            width, height, gravity = d["width"], d["height"], d.get("gravity")
            objects = [ObjectAnnotation.from_dict(o, width, height)
                       for o in d.get("objects") or []]
            ids = [o.object_id for o in objects]
            if len(set(ids)) < len(ids):
                raise ManifestError(f"object_ids {ids!r} are not unique")
        except ManifestError as e:
            raise ManifestError(f"image {image_id!r}: {e}") from None
        intrinsics = (d.get("intrinsics")
                      and CameraIntrinsics.from_dict(d["intrinsics"]))
        try:
            return cls(
                image_id=image_id, width=width, height=height,
                pointmap=d["pointmap"], gravity=gravity, intrinsics=intrinsics,
                pixel_stats=d.get("pixel_stats"), tags=d.get("tags"),
                objects=objects)
        except GeometryError as e:  # from the frame of gravity
            raise ManifestError(
                f"image {image_id!r}: gravity {gravity!r}: {e}") from None


def read_manifest(path: str | Path) -> list[ImageManifest]:
    """Parse a JSON-lines manifest; blank lines are ignored."""
    return read_jsonl(path, unique("image_id", ImageManifest.from_dict))


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


def validate_manifest(path: str | Path) -> list[str]:
    """Every schema violation of a manifest, one message per bad line,
    plus one per pointmap or mask path that does not resolve to a file."""
    problems: list[str] = []
    for lineno, entry in records(
            path, unique("image_id", ImageManifest.from_dict)):
        if isinstance(entry, ManifestError):
            problems.append(str(entry))
            continue
        refs = [("pointmap", entry.pointmap)] + [
            (f"object {o.object_id!r}: mask", o.mask)
            for o in entry.objects if o.mask is not None]
        problems += [
            f"{path} line {lineno}: image {entry.image_id!r}: {what} "
            f"{ref!r} does not resolve"
            # False, unlike Path.is_file's OSError, on a too-long name
            for what, ref in refs
            if not os.path.isfile(resolve_path(path, ref))]
    return problems
