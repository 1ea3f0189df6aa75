"""Manifest schema reading, writing and validation."""

import json

import numpy as np
import pytest

from spatialqa.cli import main
from spatialqa.geometry import CameraIntrinsics
from spatialqa.manifest import (
    ImageManifest,
    ManifestError,
    ObjectAnnotation,
    read_jsonl,
    read_manifest,
    resolve_path,
    validate_manifest,
    write_manifest,
)
from spatialqa.pmap import make_pointmap, write_pointmap


def _entry(tmp_path, image_id="img-0", with_mask=True):
    pm = make_pointmap(np.ones((4, 4, 3), dtype=np.float32),
                       np.ones((4, 4), dtype=bool))
    write_pointmap(pm, tmp_path / f"{image_id}.pmap")
    mask_name = None
    if with_mask:
        mask = np.zeros((4, 4), dtype=bool)
        mask[1:3, 1:3] = True
        mask_name = f"{image_id}-obj0.npy"
        np.save(tmp_path / mask_name, mask)
    return ImageManifest(
        image_id=image_id, width=4, height=4, pointmap=f"{image_id}.pmap",
        gravity=[0.0, 1.0, 0.0],
        intrinsics=CameraIntrinsics(fx=4.0, fy=4.0, cx=2.0, cy=2.0),
        pixel_stats={"white": 0.0, "black": 0.0, "invalid_depth": 0.0},
        objects=[ObjectAnnotation(object_id="obj0", category="chair",
                                  box2d=[1, 1, 3, 3], mask=mask_name,
                                  yaw_deg=90.0)],
    )


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        entries = [_entry(tmp_path, f"img-{i}") for i in range(3)]
        path = tmp_path / "manifest.jsonl"
        write_manifest(entries, path)
        back = read_manifest(path)
        assert len(back) == 3
        assert back[0].image_id == "img-0"
        assert back[0].objects[0].yaw_deg == 90.0
        assert back[0].intrinsics.fx == 4.0

    def test_blank_lines_ignored(self, tmp_path):
        entries = [_entry(tmp_path)]
        path = tmp_path / "manifest.jsonl"
        write_manifest(entries, path)
        path.write_text(path.read_text() + "\n\n")
        assert len(read_manifest(path)) == 1

    def test_invalid_json_line_reports_lineno(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text('{"image_id": "a", "width": 1}\nnot json\n')
        with pytest.raises(ManifestError, match="line 1"):
            read_manifest(path)

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps({"image_id": "a"}) + "\n")
        with pytest.raises(ManifestError):
            read_manifest(path)


class TestReadJsonl:
    def test_invalid_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"a": 1}\n\n{"a": \n')
        with pytest.raises(ManifestError,
                           match=r"r\.jsonl line 3: invalid JSON"):
            read_jsonl(path, lambda r: r["a"])

    @pytest.mark.parametrize("line", ['{"b": 1}', "[1, 2]", "7", '"text"'])
    def test_rejected_record_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(_entry(tmp_path).to_dict()) + "\n"
                        + line + "\n")
        with pytest.raises(ManifestError,
                           match=r"manifest\.jsonl line 2: bad record"):
            read_manifest(path)


class TestValidation:
    def test_clean_manifest_validates(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        write_manifest([_entry(tmp_path)], path)
        assert validate_manifest(path) == []

    def test_missing_pointmap_flagged(self, tmp_path):
        entry = _entry(tmp_path)
        entry.pointmap = "nope.pmap"
        path = tmp_path / "manifest.jsonl"
        write_manifest([entry], path)
        problems = validate_manifest(path)
        assert any("does not resolve" in p for p in problems)

    def test_box_outside_bounds_flagged(self, tmp_path):
        entry = _entry(tmp_path)
        entry.objects[0].box2d = [0, 0, 10, 10]
        path = tmp_path / "manifest.jsonl"
        write_manifest([entry], path)
        assert any("outside image bounds" in p for p in validate_manifest(path))

    def test_non_unit_gravity_flagged(self, tmp_path):
        entry = _entry(tmp_path)
        entry.gravity = [0.0, 2.0, 0.0]
        path = tmp_path / "manifest.jsonl"
        write_manifest([entry], path)
        assert any("gravity norm" in p for p in validate_manifest(path))

    def test_duplicate_ids_flagged(self, tmp_path):
        e1 = _entry(tmp_path)
        e2 = _entry(tmp_path)
        path = tmp_path / "manifest.jsonl"
        write_manifest([e1, e2], path)
        assert any("duplicate image_id" in p for p in validate_manifest(path))

    def test_bad_pixel_stats_flagged(self, tmp_path):
        entry = _entry(tmp_path)
        entry.pixel_stats = {"white": 1.5, "black": 0.0, "invalid_depth": 0.0}
        path = tmp_path / "manifest.jsonl"
        write_manifest([entry], path)
        assert any("pixel_stats" in p for p in validate_manifest(path))

    @pytest.mark.parametrize("field, value, message", [
        ("box2d", [1, 2, 3], "is not [x0, y0, x1, y1]"),
        ("pixel_stats", "oops", "pixel_stats is not an object"),
        ("pixel_stats", {"white": "x", "black": 0.0, "invalid_depth": 0.0},
         "pixel_stats.white missing or out of range"),
        ("gravity", "oops", "is not [gx, gy, gz]"),
        ("gravity", [0.0, "a", 0.0], "is not [gx, gy, gz]"),
        ("tags", 3, "tags is not a list"),
        ("pointmap", 3, "pointmap 3 does not resolve"),
        ("mask", 3, "mask 3 does not resolve"),
    ])
    def test_hostile_field_is_a_violation(self, tmp_path, capsys, field,
                                          value, message):
        record = _entry(tmp_path).to_dict()
        if field in ("box2d", "mask"):
            record["objects"][0][field] = value
        else:
            record[field] = value
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert any(message in p for p in validate_manifest(path))
        assert main(["validate", "--manifest", str(path)]) == 1
        assert "violation: image 'img-0'" in capsys.readouterr().err


def _run_both(tmp_path, capsys, record):
    """validate, then generate, on a one-record manifest: each exit code
    and stderr, and every file that generate wrote under tmp_path."""
    path = tmp_path / "manifest.jsonl"
    path.write_text(json.dumps(record) + "\n")
    capsys.readouterr()
    validate_rc = main(["validate", "--manifest", str(path)])
    validate_err = capsys.readouterr().err
    before = set(tmp_path.rglob("*"))
    generate_rc = main(["generate", "--manifest", str(path), "--out",
                        str(tmp_path / "run" / "out")])
    written = [p for p in set(tmp_path.rglob("*")) - before if p.is_file()]
    return validate_rc, validate_err, generate_rc, capsys.readouterr().err, \
        written


def _parse(tmp_path, record):
    path = tmp_path / "parse.jsonl"
    path.write_text(json.dumps(record) + "\n")
    return read_manifest(path)


class TestParseTimeSchema:
    """Records ``generate`` cannot run are ManifestErrors at parse time, so
    ``validate`` reports them and ``generate`` exits 2 before any image."""

    @pytest.mark.parametrize("image_id", [
        "../escaped", "../../escaped", "", "a/b", "a\\b", "a\0b", "..",
    ])
    def test_unsafe_image_id_rejected(self, tmp_path, capsys, image_id):
        record = _entry(tmp_path).to_dict()
        record["image_id"] = image_id
        validate_rc, validate_err, generate_rc, generate_err, written = \
            _run_both(tmp_path, capsys, record)
        assert validate_rc == 1
        assert f"image_id {image_id!r}" in validate_err
        assert generate_rc == 2
        assert generate_err.startswith("error: ")
        # nothing at all, so nothing outside --out (tmp_path/run/out)
        assert written == []

    @staticmethod
    def _set(record, field, value):
        if field.startswith("intrinsics."):
            record["intrinsics"][field.split(".")[1]] = value
        elif field.startswith("box3d"):
            obj = record["objects"][0]
            obj["box3d"] = {"center": [0.0, 0.0, 3.0],
                            "size": [1.0, 1.0, 1.0], "yaw_deg": 0.0}
            if field == "box3d":
                obj["box3d"] = value
            else:
                obj["box3d"][field.split(".")[1]] = value
        else:
            record["objects"][0][field] = value

    @pytest.mark.parametrize("field, value, message", [
        ("intrinsics.fx", 0.0, "intrinsics.fx 0.0 is not a positive number"),
        ("intrinsics.fy", -4.0,
         "intrinsics.fy -4.0 is not a positive number"),
        ("box3d.center", "x", "box3d.center 'x' is not 3 finite numbers"),
        ("box3d.center", [0.0, float("nan"), 3.0],
         "box3d.center [0.0, nan, 3.0] is not 3 finite numbers"),
        ("box3d.size", [1.0, 1.0], "box3d.size [1.0, 1.0] is not 3 finite"),
        ("box3d.yaw_deg", "north",
         "box3d.yaw_deg 'north' is not a finite number"),
        ("box3d", [0, 0, 3], "box3d [0, 0, 3] is not an object"),
        ("yaw_deg", "north",
         "yaw_deg 'north' is neither null nor a finite number"),
        ("pitch_deg", float("inf"),
         "pitch_deg inf is neither null nor a finite number"),
        ("yaw_deg", True, "yaw_deg True is neither null nor a finite"),
    ])
    def test_bad_field_rejected(self, tmp_path, capsys, field, value,
                                message):
        record = _entry(tmp_path).to_dict()
        self._set(record, field, value)
        with pytest.raises(ManifestError, match="line 1: image 'img-0'"):
            _parse(tmp_path, record)
        validate_rc, validate_err, generate_rc, generate_err, written = \
            _run_both(tmp_path, capsys, record)
        assert validate_rc == 1
        assert message in validate_err
        assert generate_rc == 2
        assert message in generate_err
        assert written == []

    def test_null_yaw_and_good_box3d_accepted(self, tmp_path):
        record = _entry(tmp_path).to_dict()
        self._set(record, "box3d.yaw_deg", 15)
        record["objects"][0]["yaw_deg"] = None
        record["objects"][0]["pitch_deg"] = -5
        assert _parse(tmp_path, record)[0].objects[0].box3d


class TestResolvePath:
    def test_relative_resolves_against_manifest_dir(self, tmp_path):
        p = resolve_path(tmp_path / "m.jsonl", "sub/file.pmap")
        assert p == tmp_path / "sub" / "file.pmap"

    def test_absolute_passthrough(self, tmp_path):
        p = resolve_path(tmp_path / "m.jsonl", "/abs/file.pmap")
        assert str(p) == "/abs/file.pmap"
