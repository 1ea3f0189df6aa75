"""Point-map encoding numerics: channels, patches, fusion."""

import numpy as np
import pytest

from spatialqa.encoding import (
    ENCODED_CHANNELS,
    ENCODING_PER_COORD,
    FREQUENCIES,
    PATCH,
    fuse,
    pad_to_patch_multiple,
    patchify,
    sinusoidal_encode,
)
from spatialqa.pmap import make_pointmap


def patchify_reference(encoded: np.ndarray,
                       weights: np.ndarray) -> np.ndarray:
    """Explicit sliding-window patchify: the reference ``patchify`` is
    checked against here and in criterion 8."""
    grid = pad_to_patch_multiple(encoded)
    h, w, c = grid.shape
    gh, gw = h // PATCH, w // PATCH
    out = np.zeros((gh, gw, weights.shape[1]))
    for i in range(gh):
        for j in range(gw):
            tile = grid[i * PATCH:(i + 1) * PATCH, j * PATCH:(j + 1) * PATCH, :]
            out[i, j] = tile.reshape(-1) @ weights
    return out


def _pm(rng, h=28, w=28, scale=20.0):
    points = rng.uniform(-scale, scale, size=(h, w, 3)).astype(np.float32)
    valid = rng.random((h, w)) > 0.2
    return make_pointmap(points, valid)


class TestSinusoidalEncode:
    def test_channel_count_is_193(self):
        rng = np.random.default_rng(0)
        encoded = sinusoidal_encode(_pm(rng))
        assert encoded.shape == (28, 28, ENCODED_CHANNELS)
        assert ENCODED_CHANNELS == 193

    def test_zero_pointmap(self):
        points = np.zeros((4, 4, 3), dtype=np.float32)
        pm = make_pointmap(points, np.ones((4, 4), dtype=bool))
        encoded = sinusoidal_encode(pm)
        sin_channels = encoded[:, :, 0:192:2]
        cos_channels = encoded[:, :, 1:192:2]
        np.testing.assert_array_equal(sin_channels, 0.0)
        np.testing.assert_array_equal(cos_channels, 1.0)
        np.testing.assert_array_equal(encoded[:, :, -1], 1.0)

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(1)
        points = rng.uniform(-250, 250, size=(8, 8, 3)).astype(np.float32)
        pm = make_pointmap(points, np.ones((8, 8), dtype=bool))
        encoded = sinusoidal_encode(pm)
        assert encoded[:, :, :192].min() >= -1.0
        assert encoded[:, :, :192].max() <= 1.0

    def test_validity_channel(self):
        rng = np.random.default_rng(2)
        pm = _pm(rng)
        encoded = sinusoidal_encode(pm)
        np.testing.assert_array_equal(encoded[:, :, -1],
                                      pm.valid.astype(float))

    def test_lowest_frequency_spans_range_without_wrap(self):
        w0 = FREQUENCIES[0]
        # half period covers the full [-250, 250] working range
        assert 2 * np.pi / w0 == pytest.approx(1000.0)

    def test_frequencies_read_only(self):
        with pytest.raises(ValueError):
            FREQUENCIES[0] = 0.0

    def test_injective_on_millimeter_grid(self):
        # phase of the lowest frequency is monotone over the range, so the
        # first sin channel alone separates any two distinct coordinates
        values = np.arange(-250.0, 250.0, 0.001)
        w0 = FREQUENCIES[0]
        phase = values * w0
        # sin is strictly monotone on the closed interval [-pi/2, pi/2]
        assert phase.min() >= -np.pi / 2 - 1e-12
        assert phase.max() <= np.pi / 2 + 1e-12
        # full-grid collision scan on the lowest-frequency sin channel:
        # strictly increasing -> no two grid coordinates share an encoding
        channel0 = np.sin(phase)
        assert np.all(np.diff(channel0) > 0)
        # spot-check full 64-channel uniqueness on a coarser slice, laid
        # out as the x coordinates of a 1xN point map
        coarse = values[::500]
        points = np.zeros((1, len(coarse), 3))
        points[0, :, 0] = coarse
        pm = make_pointmap(points, np.ones((1, len(coarse)), dtype=bool))
        encoded = sinusoidal_encode(pm)[0, :, :ENCODING_PER_COORD]
        assert len(np.unique(encoded, axis=0)) == len(encoded)


class TestPatchify:
    def test_448_gives_32_grid(self):
        rng = np.random.default_rng(3)
        encoded = rng.normal(size=(448, 448, 5))
        weights = rng.normal(size=(5 * PATCH * PATCH, 7))
        out = patchify(encoded, weights)
        assert out.shape == (32, 32, 7)

    def test_matches_naive_reference(self):
        rng = np.random.default_rng(4)
        encoded = rng.normal(size=(42, 28, 6))
        weights = rng.normal(size=(6 * PATCH * PATCH, 9))
        fast = patchify(encoded, weights)
        slow = patchify_reference(encoded, weights)
        np.testing.assert_allclose(fast, slow, atol=1e-6)

    def test_constant_input_constant_output(self):
        rng = np.random.default_rng(5)
        encoded = np.ones((28, 28, 3))
        weights = rng.normal(size=(3 * PATCH * PATCH, 4))
        out = patchify(encoded, weights)
        np.testing.assert_allclose(out[0, 0], out[1, 1], atol=1e-9)

    def test_translation_by_whole_patch_shifts_grid(self):
        rng = np.random.default_rng(6)
        encoded = rng.normal(size=(56, 56, 2))
        weights = rng.normal(size=(2 * PATCH * PATCH, 3))
        shifted = np.roll(encoded, PATCH, axis=0)
        out = patchify(encoded, weights)
        out_shifted = patchify(shifted, weights)
        np.testing.assert_allclose(np.roll(out, 1, axis=0), out_shifted,
                                   atol=1e-9)

    def test_padding_to_multiple(self):
        grid = np.ones((30, 29, 2))
        padded = pad_to_patch_multiple(grid)
        assert padded.shape == (42, 42, 2)
        np.testing.assert_array_equal(padded[30:, :, :], 0.0)

    def test_weight_shape_checked(self):
        with pytest.raises(ValueError):
            patchify(np.ones((28, 28, 3)), np.ones((10, 4)))


class TestFuse:
    def test_zero_init_equivalence(self):
        rng = np.random.default_rng(7)
        rgb = rng.normal(size=(4, 4, 10))
        pm = rng.normal(size=(4, 4, 6))
        w_rgb = rng.normal(size=(10, 8))
        w_pm = np.zeros((6, 8))
        fused = fuse(rgb, pm, w_rgb, w_pm)
        np.testing.assert_allclose(fused, rgb @ w_rgb, atol=1e-6)

    def test_matches_concat_reference(self):
        rng = np.random.default_rng(8)
        rgb = rng.normal(size=(3, 5, 10))
        pm = rng.normal(size=(3, 5, 6))
        w_rgb = rng.normal(size=(10, 8))
        w_pm = rng.normal(size=(6, 8))
        fused = fuse(rgb, pm, w_rgb, w_pm)
        concat = np.concatenate([rgb, pm], axis=2)
        w_full = np.concatenate([w_rgb, w_pm], axis=0)
        np.testing.assert_allclose(fused, concat @ w_full, atol=1e-6)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        rgb1, rgb2 = rng.normal(size=(2, 2, 2, 4))
        pm1, pm2 = rng.normal(size=(2, 2, 2, 3))
        w_rgb = rng.normal(size=(4, 5))
        w_pm = rng.normal(size=(3, 5))
        lhs = fuse(rgb1 + rgb2, pm1 + pm2, w_rgb, w_pm)
        rhs = fuse(rgb1, pm1, w_rgb, w_pm) + fuse(rgb2, pm2, w_rgb, w_pm)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            fuse(np.ones((2, 2, 4)), np.ones((3, 3, 4)),
                 np.ones((4, 2)), np.ones((4, 2)))

