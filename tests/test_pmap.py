"""Binary point-map format: round trips, validation, error offsets."""

import struct

import numpy as np
import pytest

from spatialqa.pmap import (
    COORD_LIMIT,
    HEADER_SIZE,
    MAGIC,
    RECORD_SIZE,
    PmapError,
    make_pointmap,
    read_pointmap,
    write_pointmap,
)


def _random_pm(rng, w, h, invalid_frac=0.1):
    points = rng.uniform(-20, 20, size=(h, w, 3)).astype(np.float32)
    valid = rng.random((h, w)) > invalid_frac
    return make_pointmap(points, valid)


class TestRoundTrip:
    def test_well_formed_2x2_all_valid(self, tmp_path):
        points = np.arange(12, dtype=np.float32).reshape(2, 2, 3) / 10.0
        pm = make_pointmap(points, np.ones((2, 2), dtype=bool))
        path = tmp_path / "a.pmap"
        write_pointmap(pm, path)
        back = read_pointmap(path)
        assert back.width == 2 and back.height == 2
        assert back.valid_count == 4
        np.testing.assert_array_equal(back.points, pm.points)

    def test_bit_exact_round_trip_100_random_maps(self, tmp_path):
        rng = np.random.default_rng(7)
        for k in range(100):
            w = int(rng.integers(1, 12))
            h = int(rng.integers(1, 12))
            pm = _random_pm(rng, w, h)
            path = tmp_path / f"m{k}.pmap"
            write_pointmap(pm, path)
            back = read_pointmap(path)
            assert back.points.tobytes() == pm.points.tobytes()
            assert np.array_equal(back.valid, pm.valid)

    def test_invalid_pixels_preserved(self, tmp_path):
        points = np.zeros((1, 3, 3), dtype=np.float32)
        valid = np.array([[True, False, True]])
        pm = make_pointmap(points, valid)
        path = tmp_path / "v.pmap"
        write_pointmap(pm, path)
        assert np.array_equal(read_pointmap(path).valid, valid)


class TestValidation:
    def test_out_of_range_z_clamped_invalid_with_warning(self, tmp_path):
        points = np.zeros((2, 2, 3), dtype=np.float32)
        points[0, 1, 2] = 300.0  # beyond +/-250 m
        pm = make_pointmap(points, np.ones((2, 2), dtype=bool))
        path = tmp_path / "r.pmap"
        # write the raw record as valid so the reader has to demote it
        grid = np.zeros((2, 2, 4), dtype="<f4")
        grid[:, :, :3] = points
        grid[:, :, 3] = 1.0
        path.write_bytes(MAGIC + struct.pack("<II", 2, 2) + grid.tobytes())
        back = read_pointmap(path)
        assert not back.is_valid(1, 0)
        assert back.valid_count == 3
        assert len(back.warnings) == 1
        assert pm.valid_count == 3  # make_pointmap demotes too

    def test_nan_coordinate_demoted(self):
        points = np.zeros((1, 2, 3), dtype=np.float32)
        points[0, 0, 0] = np.nan
        pm = make_pointmap(points, np.ones((1, 2), dtype=bool))
        assert pm.valid_count == 1

    def test_non_finite_and_out_of_range_on_every_axis(self, tmp_path):
        points = np.zeros((3, 4, 3), dtype=np.float32)
        valid = np.ones((3, 4), dtype=bool)
        for v, axis in enumerate("xyz"):
            for u, value in enumerate((np.inf, -np.inf, np.nan)):
                points[v, u, v] = value
        points[0, 3, 0] = -300.0
        points[2, 3, 1] = np.nan  # already invalid: no warning
        valid[2, 3] = False
        warnings = [
            f"pixel ({u},{v}) coordinates ({c}) outside [-250,250]; "
            "marked invalid"
            for u, v, c in [(0, 0, "inf,0,0"), (1, 0, "-inf,0,0"),
                            (2, 0, "nan,0,0"), (3, 0, "-300,0,0"),
                            (0, 1, "0,inf,0"), (1, 1, "0,-inf,0"),
                            (2, 1, "0,nan,0"), (0, 2, "0,0,inf"),
                            (1, 2, "0,0,-inf"), (2, 2, "0,0,nan")]]
        expected = np.zeros((3, 4), dtype=bool)
        expected[1, 3] = True
        pm = make_pointmap(points, valid)
        np.testing.assert_array_equal(pm.valid, expected)
        assert pm.warnings == warnings
        # the reader demotes the same pixels of a file that marks all valid
        grid = np.ones((3, 4, 4), dtype="<f4")
        grid[:, :, :3] = points
        path = tmp_path / "bad.pmap"
        path.write_bytes(MAGIC + struct.pack("<II", 4, 3) + grid.tobytes())
        back = read_pointmap(path)
        np.testing.assert_array_equal(back.valid, expected)
        assert back.warnings == warnings + [
            "pixel (3,2) coordinates (0,nan,0) outside [-250,250]; "
            "marked invalid"]

    def test_boundary_value_is_valid(self):
        points = np.full((1, 1, 3), COORD_LIMIT, dtype=np.float32)
        pm = make_pointmap(points, np.ones((1, 1), dtype=bool))
        assert pm.valid_count == 1


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.pmap"
        path.write_bytes(b"NOPE" + struct.pack("<II", 1, 1) + b"\x00" * 16)
        with pytest.raises(PmapError, match="bad magic") as e:
            read_pointmap(path)
        assert e.value.offset == 0

    def test_short_header(self, tmp_path):
        path = tmp_path / "x.pmap"
        path.write_bytes(b"PMAP\x01")
        with pytest.raises(PmapError, match="shorter than header") as e:
            read_pointmap(path)
        assert e.value.offset == 5

    def test_truncated_mid_grid_reports_offset(self, tmp_path):
        path = tmp_path / "x.pmap"
        # header claims 2x2 but only 1.5 records follow
        payload = MAGIC + struct.pack("<II", 2, 2) + b"\x00" * 24
        path.write_bytes(payload)
        with pytest.raises(PmapError, match="payload ends early") as e:
            read_pointmap(path)
        assert e.value.offset == len(payload)

    def test_trailing_bytes_dimension_mismatch(self, tmp_path):
        path = tmp_path / "x.pmap"
        good = MAGIC + struct.pack("<II", 1, 1) + b"\x00" * RECORD_SIZE
        path.write_bytes(good + b"junk")
        with pytest.raises(PmapError, match="4 trailing bytes") as e:
            read_pointmap(path)
        assert e.value.offset == HEADER_SIZE + RECORD_SIZE

    def test_zero_dimension(self, tmp_path):
        path = tmp_path / "x.pmap"
        path.write_bytes(MAGIC + struct.pack("<II", 0, 4))
        with pytest.raises(PmapError, match="degenerate dimensions 0x4"):
            read_pointmap(path)
