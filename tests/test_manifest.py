"""Manifest schema reading, writing and validation."""

import json
import shutil

import numpy as np
import pytest

from spatialqa.cli import main
from spatialqa.oracle.gen import generate_dataset
from spatialqa.oracle.scene import ESTIMATION_SAMPLER
from spatialqa.manifest import (
    ManifestError,
    read_jsonl,
    read_manifest,
    resolve_path,
    validate_manifest,
    write_manifest,
)
from spatialqa.pmap import make_pointmap, write_pointmap


def _entry(tmp_path, image_id="img-0"):
    """A one-object record, with its point map and mask written."""
    pm = make_pointmap(np.ones((4, 4, 3), dtype=np.float32),
                       np.ones((4, 4), dtype=bool))
    write_pointmap(pm, tmp_path / f"{image_id}.pmap")
    mask = np.zeros((4, 4), dtype=bool)
    mask[1:3, 1:3] = True
    np.save(tmp_path / f"{image_id}-obj0.npy", mask)
    return {"image_id": image_id, "width": 4, "height": 4,
            "pointmap": f"{image_id}.pmap", "gravity": [0.0, 1.0, 0.0],
            "intrinsics": {"fx": 4.0, "fy": 4.0, "cx": 2.0, "cy": 2.0},
            "pixel_stats": {"white": 0.0, "black": 0.0,
                            "invalid_depth": 0.0},
            "objects": [{"object_id": "obj0", "category": "chair",
                         "box2d": [1.0, 1.0, 3.0, 3.0],
                         "mask": f"{image_id}-obj0.npy", "yaw_deg": 90.0}]}


class TestRoundTrip:
    def test_write_read(self, tmp_path):
        entries = [_entry(tmp_path, f"img-{i}") for i in range(3)]
        path = tmp_path / "manifest.jsonl"
        write_manifest(entries, path)
        back = read_manifest(path)
        assert len(back) == 3
        assert back[0].image_id == "img-0"
        assert back[0].objects[0]["yaw_deg"] == 90.0
        assert back[0].objects == entries[0]["objects"]

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

    def test_invalid_utf8_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "manifest.jsonl"
        path.write_bytes(json.dumps(_entry(tmp_path)).encode()
                         + b'\n{"image_id": "caf\xe9"}\n')
        with pytest.raises(ManifestError, match=r"manifest\.jsonl line 2: "
                           r"invalid JSON: 'utf-8' codec can't decode"):
            read_manifest(path)
        assert main(["validate", "--manifest", str(path)]) == 1
        assert main(["generate", "--manifest", str(path),
                     "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ['{"b": 1}', "[1, 2]", "7", '"text"'])
    def test_rejected_record_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(_entry(tmp_path)) + "\n"
                        + line + "\n")
        with pytest.raises(ManifestError, match=r"manifest\.jsonl line 2: "
                           r"(bad record|image_id None cannot name a file)"):
            read_manifest(path)


class TestValidation:
    def test_clean_manifest_validates(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        write_manifest([_entry(tmp_path)], path)
        assert validate_manifest(path) == []

    def test_missing_pointmap_flagged(self, tmp_path):
        entry = _entry(tmp_path)
        entry["pointmap"] = "nope.pmap"
        path = tmp_path / "manifest.jsonl"
        write_manifest([entry], path)
        problems = validate_manifest(path)
        assert any("does not resolve" in p for p in problems)

    def test_box_outside_bounds_flagged(self, tmp_path):
        entry = _entry(tmp_path)
        entry["objects"][0]["box2d"] = [0, 0, 10, 10]
        path = tmp_path / "manifest.jsonl"
        write_manifest([entry], path)
        assert any("outside image bounds" in p for p in validate_manifest(path))

    def test_non_unit_gravity_flagged(self, tmp_path):
        entry = _entry(tmp_path)
        entry["gravity"] = [0.0, 2.0, 0.0]
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
        entry["pixel_stats"] = {"white": 1.5, "black": 0.0,
                                "invalid_depth": 0.0}
        path = tmp_path / "manifest.jsonl"
        write_manifest([entry], path)
        assert any("pixel_stats" in p for p in validate_manifest(path))

    @pytest.mark.parametrize("field", ["pointmap", "mask"])
    def test_over_long_path_does_not_resolve(self, tmp_path, capsys, field):
        """A path longer than the file system allows is reported like any
        other path that names no file, and the lines after it are still
        checked."""
        record = _entry(tmp_path)
        if field == "mask":
            record["objects"][0]["mask"] = "x" * 300
        else:
            record["pointmap"] = "x" * 300
        second = _entry(tmp_path, "img-1")
        second["pointmap"] = "nope.pmap"
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(record) + "\n" + json.dumps(second) + "\n")
        assert main(["validate", "--manifest", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{'x' * 300!r} does not resolve" in err
        assert f"{path} line 2: image 'img-1': pointmap 'nope.pmap' " \
            "does not resolve" in err

    @pytest.mark.parametrize("field, value, message", [
        ("box2d", [1, 2, 3], "is not [x0, y0, x1, y1]"),
        ("pixel_stats", "oops", "pixel_stats 'oops' is not an object"),
        ("pixel_stats", {"white": "x", "black": 0.0, "invalid_depth": 0.0},
         "pixel_stats.white 'x' is not a number in [0, 1]"),
        ("gravity", "oops", "is not [gx, gy, gz]"),
        ("gravity", [0.0, "a", 0.0], "is not [gx, gy, gz]"),
        ("tags", 3, "tags 3 is not a list of 5 strings"),
        ("pointmap", 3, "pointmap 3 is not a string"),
        ("mask", 3, "mask 3 is not a string"),
    ])
    def test_hostile_field_is_a_violation(self, tmp_path, capsys, field,
                                          value, message):
        record = _entry(tmp_path)
        if field in ("box2d", "mask"):
            record["objects"][0][field] = value
        else:
            record[field] = value
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert any(message in p for p in validate_manifest(path))
        assert main(["validate", "--manifest", str(path)]) == 1
        assert f"violation: {path} line 1: image 'img-0': " \
            in capsys.readouterr().err


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
        # the part file "<id>.jsonl.tmp" would pass 255 bytes
        pytest.param("a" * 246, id="246-ascii-bytes"),
        pytest.param("\u00e9" * 123, id="246-utf8-bytes"),
        pytest.param("a\udc80", id="lone-surrogate"),
    ])
    def test_unsafe_image_id_rejected(self, tmp_path, capsys, image_id):
        record = _entry(tmp_path)
        record["image_id"] = image_id
        validate_rc, validate_err, generate_rc, generate_err, written = \
            _run_both(tmp_path, capsys, record)
        assert validate_rc == 1
        assert f"image_id {image_id!r}" in validate_err
        assert generate_rc == 2
        assert generate_err.startswith("error: ")
        # nothing at all, so nothing outside --out (tmp_path/run/out)
        assert written == []

    def test_longest_image_id_generates(self, tmp_path, capsys):
        record = _entry(tmp_path)
        record["image_id"] = "a" * 245
        validate_rc, _, generate_rc, _, written = _run_both(
            tmp_path, capsys, record)
        assert (validate_rc, generate_rc) == (0, 0)
        assert tmp_path / "run" / "out" / "parts" / f"{'a' * 245}.jsonl" \
            in written

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
        ("yaw_deg", float("inf"),
         "yaw_deg inf is neither null nor a finite number"),
        ("yaw_deg", True, "yaw_deg True is neither null nor a finite"),
        ("box3d.size", [0, 1, 1],
         "box3d.size [0, 1, 1] is not 3 finite positive numbers"),
        ("box3d.size", [-0.5, 1, 1],
         "box3d.size [-0.5, 1, 1] is not 3 finite positive numbers"),
    ])
    def test_bad_field_rejected(self, tmp_path, capsys, field, value,
                                message):
        record = _entry(tmp_path)
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
        record = _entry(tmp_path)
        self._set(record, "box3d.yaw_deg", 15)
        record["objects"][0]["yaw_deg"] = None
        record["objects"][0]["pitch_deg"] = -5
        assert _parse(tmp_path, record)[0].objects[0]["box3d"]


class TestResolvePath:
    def test_relative_resolves_against_manifest_dir(self, tmp_path):
        p = resolve_path(tmp_path / "m.jsonl", "sub/file.pmap")
        assert p == tmp_path / "sub" / "file.pmap"

    def test_absolute_passthrough(self, tmp_path):
        p = resolve_path(tmp_path / "m.jsonl", "/abs/file.pmap")
        assert str(p) == "/abs/file.pmap"


# ROADMAP item 4's hostile values, each put in place of one field of
# record 2 of a 3-record oracle manifest
HOSTILE = [None, "x", -1, 0, 1e308, float("nan"), [], {}, [1, 2],
           "../../etc/passwd", True, 10**400, "x" * 300]
IMAGE_FIELDS = [
    "image_id", "width", "height", "pointmap", "gravity", "intrinsics",
    "intrinsics.fx", "intrinsics.fy", "intrinsics.cx", "intrinsics.cy",
    "pixel_stats", "pixel_stats.white", "pixel_stats.black",
    "pixel_stats.invalid_depth", "tags", "objects",
]
OBJECT_FIELDS = ["object_id", "category", "box2d", "mask", "yaw_deg",
                 "pitch_deg", "captions", "grounding", "box3d"]
BOX3D_FIELDS = ["box3d.center", "box3d.size", "box3d.yaw_deg"]


def _mutated(record: dict, field: str, value) -> dict:
    record = json.loads(json.dumps(record))
    if field in OBJECT_FIELDS or field in BOX3D_FIELDS:
        owner = record["objects"][0]
    else:
        owner = record
    *path, key = field.split(".")
    for part in path:
        owner = owner[part]
    owner[key] = value
    return record


class TestHostileRecords:
    """Mutation sweep over oracle seeds 0:3: no exception escapes the CLI,
    a manifest that validates clean generates clean, and generate writes
    nothing outside --out."""

    @pytest.mark.parametrize("estimate", [False, True],
                             ids=["gt-boxes", "estimation"])
    def test_validate_clean_means_generate_clean(self, tmp_path, capsys,
                                                 estimate):
        data = tmp_path / "data"
        if estimate:
            generate_dataset(range(3), data, sigma=0.01, gt_boxes=False,
                             sampler=ESTIMATION_SAMPLER)
        else:
            generate_dataset(range(3), data)
        lines = (data / "manifest.jsonl").read_text().splitlines()
        record = json.loads(lines[1])
        assert record["objects"]
        fields = IMAGE_FIELDS + OBJECT_FIELDS + ([] if estimate
                                                 else BOX3D_FIELDS)
        # records 1 and 3 stay as they are: their done parts are copied
        # into each run, so generate resumes past them
        assert main(["generate", "--manifest", str(data / "manifest.jsonl"),
                     "--out", str(tmp_path / "clean")]) == 0
        ids = [json.loads(line)["image_id"] for line in (lines[0], lines[2])]
        done = [tmp_path / "clean" / "parts" / f"{i}.jsonl" for i in ids]
        manifest = data / "mutated.jsonl"
        out = tmp_path / "run" / "out"
        faults = []
        for field in fields:
            for value in HOSTILE:
                case = f"{field}={value!r}"
                lines[1] = json.dumps(_mutated(record, field, value))
                manifest.write_text("\n".join(lines) + "\n")
                shutil.rmtree(tmp_path / "run", ignore_errors=True)
                (out / "parts").mkdir(parents=True)
                for part in done:
                    shutil.copy(part, out / "parts")
                before = set(tmp_path.rglob("*"))
                try:
                    validate_rc = main(["validate", "--manifest",
                                        str(manifest)])
                    generate_rc = main(["generate", "--manifest",
                                        str(manifest), "--out", str(out)])
                except Exception as e:  # noqa: BLE001 - the fault sought
                    faults.append(f"{case}: {type(e).__name__}: {e}")
                    continue
                finally:
                    capsys.readouterr()
                written = set(tmp_path.rglob("*")) - before
                faults += [f"{case}: wrote {p}" for p in written
                           if out not in p.parents and p != out
                           and p not in out.parents]
                if validate_rc == 0 and (generate_rc != 0 or "failed" in (
                        json.loads((out / "ledger.json").read_text())
                        ["summary"])):
                    faults.append(f"{case}: validates clean, generate "
                                  f"exits {generate_rc}")
        assert not faults, f"{len(faults)} faults:\n" + "\n".join(faults)

    def test_nested_too_deep_is_invalid_json(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("[" * 100_000 + "\n")
        prefix = f"{manifest} line 1: invalid JSON: "
        assert main(["validate", "--manifest", str(manifest)]) == 1
        assert capsys.readouterr().err.startswith(f"violation: {prefix}")
        assert main(["generate", "--manifest", str(manifest),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {prefix}")

    @pytest.mark.parametrize("field, value, message", [
        ("box2d", "1234", "box2d '1234' is not [x0, y0, x1, y1]"),
        ("captions", "a red chair",
         "captions 'a red chair' is not a list of strings"),
    ])
    def test_string_for_a_list_is_a_violation(self, tmp_path, field, value,
                                              message):
        record = _mutated(_entry(tmp_path), field, value)
        path = tmp_path / "manifest.jsonl"
        path.write_text(json.dumps(record) + "\n")
        assert [p.split(": ", 1)[1] for p in validate_manifest(path)] == [
            f"image 'img-0': object 'obj0': {message}"]
