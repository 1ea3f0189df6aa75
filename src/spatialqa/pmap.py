"""Metric point maps and their on-disk binary format.

A point map stores, per pixel, metric 3D coordinates (x, y, z) in the
camera frame plus a validity bit.  The camera frame convention used
throughout the package is +x right, +y down, +z forward.

File layout (little-endian, row-major):

    bytes 0..3    magic "PMAP"
    bytes 4..7    u32 width
    bytes 8..11   u32 height
    then width*height records of four f32: x, y, z, valid (0.0 or 1.0)

Coordinates of valid pixels must be finite and lie within
[-COORD_LIMIT, COORD_LIMIT] meters; out-of-range points are demoted to
invalid on load (with a warning record) rather than rejected.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"PMAP"
HEADER_SIZE = 12
RECORD_SIZE = 16  # four f32 per pixel
COORD_LIMIT = 250.0


class PmapError(Exception):
    """A point-map file that cannot be read; carries the offending byte
    offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


@dataclass
class PointMap:
    """Per-pixel metric 3D points in the camera frame plus validity mask."""

    width: int
    height: int
    points: np.ndarray  # (H, W, 3) float32, meters
    valid: np.ndarray   # (H, W) bool
    warnings: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.points.shape != (self.height, self.width, 3):
            raise ValueError(
                f"points shape {self.points.shape} != "
                f"({self.height}, {self.width}, 3)"
            )
        if self.valid.shape != (self.height, self.width):
            raise ValueError(
                f"valid shape {self.valid.shape} != ({self.height}, {self.width})"
            )

    @property
    def valid_count(self) -> int:
        return int(self.valid.sum())

    def point_at(self, u: int, v: int) -> np.ndarray:
        """Camera-frame point at pixel (u=column, v=row)."""
        return self.points[v, u]

    def is_valid(self, u: int, v: int) -> bool:
        return bool(self.valid[v, u])


def _sanitize(points: np.ndarray, valid: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Demote non-finite or out-of-range points to invalid."""
    warnings: list[str] = []
    # NaN and +-inf compare False, so this also demotes non-finite points;
    # anding the three columns beats a reduction over the short last axis
    near = np.abs(points) <= COORD_LIMIT
    in_range = near[..., 0] & near[..., 1] & near[..., 2]
    bad = valid & ~in_range
    if bad.any():
        rows, cols = np.nonzero(bad)
        for v, u in zip(rows[:16], cols[:16]):
            x, y, z = points[v, u]
            warnings.append(
                f"pixel ({u},{v}) coordinates ({x:.6g},{y:.6g},{z:.6g}) outside "
                f"[-{COORD_LIMIT:g},{COORD_LIMIT:g}]; marked invalid"
            )
        extra = int(bad.sum()) - min(int(bad.sum()), 16)
        if extra > 0:
            warnings.append(f"... and {extra} more out-of-range pixels")
        valid = valid & in_range
    return valid, warnings


def make_pointmap(points: np.ndarray, valid: np.ndarray) -> PointMap:
    """Build a validated PointMap from arrays, clamping bad points to invalid."""
    points = np.ascontiguousarray(points, dtype=np.float32)
    valid = np.ascontiguousarray(valid, dtype=bool)
    h, w = valid.shape
    valid, warnings = _sanitize(points, valid)
    return PointMap(width=w, height=h, points=points, valid=valid, warnings=warnings)


def read_pointmap(path: str | Path) -> PointMap:
    """Load a PMAP file, validating header, dimensions and payload length.

    Raises PmapError, with the byte offset of the problem, for a
    malformed header, degenerate dimensions, a truncated payload or
    trailing bytes.
    """
    data = Path(path).read_bytes()
    if len(data) < HEADER_SIZE:
        raise PmapError("file shorter than header", offset=len(data))
    if data[:4] != MAGIC:
        raise PmapError(f"bad magic {data[:4]!r}", offset=0)
    width, height = struct.unpack_from("<II", data, 4)
    if width == 0 or height == 0:
        raise PmapError(f"degenerate dimensions {width}x{height}", offset=4)
    expected = HEADER_SIZE + width * height * RECORD_SIZE
    if len(data) < expected:
        raise PmapError(f"payload ends early, expected {expected} bytes "
                        "total", offset=len(data))
    if len(data) > expected:
        raise PmapError(f"{len(data) - expected} trailing bytes beyond "
                        f"{width}x{height} grid", offset=expected)
    raw = np.frombuffer(data, dtype="<f4", offset=HEADER_SIZE)
    grid = raw.reshape(height, width, 4)
    return make_pointmap(grid[:, :, :3], grid[:, :, 3] != 0.0)


def write_pointmap(pm: PointMap, path: str | Path) -> None:
    """Write a PMAP file; inverse of read_pointmap for valid maps."""
    grid = np.empty((pm.height, pm.width, 4), dtype="<f4")
    grid[:, :, :3] = pm.points
    grid[:, :, 3] = pm.valid
    with open(path, "wb") as f:
        f.write(MAGIC + struct.pack("<II", pm.width, pm.height))
        f.write(grid)   # the array's own buffer, not a bytes copy of it
