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
value and what was wanted; an object stays the record as written, and no
code reads a key the rules do not name.  ``read_manifest`` also rejects
a repeated image_id; ``validate_manifest`` reports every bad line, and
paths that do not resolve, as ``<file> line <n>: ...``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

from .filters import TAG_COUNT
from .geometry import (IDENTITY_GRAVITY, GeometryError, GravityFrame,
                       gravity_frame)
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


def _object(o: dict, width: int, height: int) -> dict:
    """The object record ``o`` of a ``width`` x ``height`` image, checked."""
    def error(message: str) -> ManifestError:
        return ManifestError(f"object {o.get('object_id')!r}: {message}")

    x0, y0, x1, y1 = check(o, _OBJECT_RULES, error)["box2d"]
    if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
        raise error(f"box2d {o['box2d']!r} outside image bounds")
    return o


@dataclass
class ImageManifest:
    """What the pipeline reads of an image record; ``objects`` are its
    object records as written, and ``frame`` is derived from gravity."""
    image_id: str
    pointmap: str
    frame: GravityFrame
    objects: list[dict]
    pixel_stats: dict | None
    tags: list[str] | None

    @classmethod
    def from_dict(cls, d: dict) -> "ImageManifest":
        """The record ``d``."""
        image_id = check(d, _ID_RULES)["image_id"]
        try:
            check(d, _IMAGE_RULES)
            objects = [_object(o, d["width"], d["height"])
                       for o in d.get("objects") or []]
            ids = [o["object_id"] for o in objects]
            if len(set(ids)) < len(ids):
                raise ManifestError(f"object_ids {ids!r} are not unique")
            gravity = d.get("gravity")
            frame = gravity_frame(
                IDENTITY_GRAVITY if gravity is None else gravity)
        except ManifestError as e:
            raise ManifestError(f"image {image_id!r}: {e}") from None
        except GeometryError as e:  # from the frame of gravity
            raise ManifestError(
                f"image {image_id!r}: gravity {gravity!r}: {e}") from None
        return cls(image_id=image_id, pointmap=d["pointmap"], frame=frame,
                   objects=objects, pixel_stats=d.get("pixel_stats"),
                   tags=d.get("tags"))


def read_manifest(path: str | Path) -> list[ImageManifest]:
    """Parse a JSON-lines manifest; blank lines are ignored."""
    return read_jsonl(path, unique("image_id", ImageManifest.from_dict))


def write_manifest(records: list[dict], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            f.write(json.dumps(record, sort_keys=True) + "\n")


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
            (f"object {o['object_id']!r}: mask", o["mask"])
            for o in entry.objects if o.get("mask") is not None]
        problems += [
            f"{path} line {lineno}: image {entry.image_id!r}: {what} "
            f"{ref!r} does not resolve"
            # False, unlike Path.is_file's OSError, on a too-long name
            for what, ref in refs
            if not os.path.isfile(resolve_path(path, ref))]
    return problems
