"""Auxiliary 3D input branch numerics: encoding, patch aggregation, fusion.

Pure, testable math with no training loop.  A point map's three
coordinate channels each receive a 64-dimensional sinusoidal encoding
(32 sin/cos pairs at geometrically spaced frequencies), the validity
mask is appended as channel 193, 14x14 patches are flattened through a
linear map, and the patch features fuse with RGB features through a
block linear projector whose point-map half can start at zero without
disturbing the RGB path.

Frequency constants: the longest period is 1000 m so the [-250, 250]
working range never wraps; the shortest is about 0.03 m.  The base is a
documented choice, not an externally specified value.
"""

from __future__ import annotations

import numpy as np

from .pmap import PointMap

COORD_CHANNELS = 3
PAIRS_PER_COORD = 32
ENCODING_PER_COORD = 2 * PAIRS_PER_COORD          # 64
ENCODED_CHANNELS = COORD_CHANNELS * ENCODING_PER_COORD + 1  # 193
PATCH = 14

LONGEST_PERIOD_M = 1000.0
SHORTEST_PERIOD_M = 0.03

_FREQS = (2.0 * np.pi / LONGEST_PERIOD_M) * np.power(
    LONGEST_PERIOD_M / SHORTEST_PERIOD_M,
    np.arange(PAIRS_PER_COORD) / (PAIRS_PER_COORD - 1),
)


def frequencies() -> np.ndarray:
    """Angular frequencies (rad/m) of the 32 sin/cos pairs."""
    return _FREQS.copy()


def sinusoidal_encode(pm: PointMap) -> np.ndarray:
    """(H, W, 193) feature grid: per-coordinate sin/cos stacks + validity.

    Channel layout per coordinate c: [sin(w0 c), cos(w0 c), sin(w1 c), ...]
    for the 32 frequencies; coordinates ordered x, y, z; validity last.
    """
    pts = pm.points.astype(np.float64)
    h, w, _ = pts.shape
    out = np.empty((h, w, ENCODED_CHANNELS), dtype=np.float64)
    for c in range(COORD_CHANNELS):
        phase = pts[:, :, c, None] * _FREQS[None, None, :]
        block = out[:, :, c * ENCODING_PER_COORD:(c + 1) * ENCODING_PER_COORD]
        block[:, :, 0::2] = np.sin(phase)
        block[:, :, 1::2] = np.cos(phase)
    out[:, :, -1] = pm.valid.astype(np.float64)
    return out


def pad_to_patch_multiple(grid: np.ndarray) -> np.ndarray:
    """Zero-pad bottom/right to a multiple of the patch size ``PATCH``.

    Padded pixels read as zero coordinates with validity 0 (the last
    channel is already the zero fill).
    """
    h, w, c = grid.shape
    ph = (-h) % PATCH
    pw = (-w) % PATCH
    if ph == 0 and pw == 0:
        return grid
    return np.pad(grid, ((0, ph), (0, pw), (0, 0)))


def patchify(encoded: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Non-overlapping patch flattening followed by a linear map.

    encoded: (H, W, C); weights: (C * PATCH * PATCH, D).  Output
    (H/PATCH, W/PATCH, D), the grid padded up to whole patches first.
    Flattening order is row-major over (patch row, patch column, channel).
    """
    grid = pad_to_patch_multiple(encoded)
    h, w, c = grid.shape
    gh, gw = h // PATCH, w // PATCH
    if weights.shape[0] != c * PATCH * PATCH:
        raise ValueError(
            f"weights expect {weights.shape[0]} inputs, patches have "
            f"{c * PATCH * PATCH}"
        )
    tiles = grid.reshape(gh, PATCH, gw, PATCH, c).transpose(0, 2, 1, 3, 4)
    flat = tiles.reshape(gh, gw, PATCH * PATCH * c)
    return flat @ weights


def fuse(rgb_features: np.ndarray, pm_features: np.ndarray,
         w_rgb: np.ndarray, w_pm: np.ndarray) -> np.ndarray:
    """Block linear projector over concatenated patch features.

    Output per patch is rgb @ w_rgb + pm @ w_pm, identical to
    concatenating the two feature blocks and applying [w_rgb; w_pm].
    With w_pm all zero the output equals the RGB-only path exactly.
    """
    if rgb_features.shape[:2] != pm_features.shape[:2]:
        raise ValueError(
            f"patch grids differ: {rgb_features.shape[:2]} vs "
            f"{pm_features.shape[:2]}"
        )
    return rgb_features @ w_rgb + pm_features @ w_pm

