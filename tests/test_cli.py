"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import subprocess
import sys

import pytest

from spatialqa.cli import main
from spatialqa.encoding import read_tensor
from spatialqa.pipeline import read_corpus


@pytest.fixture(scope="module")
def oracle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-oracle")
    rc = main(["oracle", "gen", "--seeds", "0:4", "--out", str(out),
               "--problem-fixtures"])
    assert rc == 0
    return out


class TestOracleGen:
    def test_outputs_exist(self, oracle_dir):
        assert (oracle_dir / "manifest.jsonl").exists()
        assert (oracle_dir / "scenes.jsonl").exists()
        assert (oracle_dir / "fixtures" / "problem-generator").is_dir()

    def test_estimation_preset(self, tmp_path):
        rc = main(["oracle", "gen", "--seeds", "0:1", "--out",
                   str(tmp_path / "est"), "--estimate", "--preset",
                   "estimation"])
        assert rc == 0
        manifest = (tmp_path / "est" / "manifest.jsonl").read_text()
        assert "box3d" not in manifest

    @pytest.mark.parametrize("seeds", ["x:3", "1:", "a..b", "x"])
    def test_bad_seed_range_is_a_usage_error(self, tmp_path, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "gen", "--seeds", seeds, "--out",
                  str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "bad seed range" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestValidate:
    def test_clean_manifest_passes(self, oracle_dir, capsys):
        rc = main(["validate", "--manifest",
                   str(oracle_dir / "manifest.jsonl")])
        assert rc == 0
        assert "0 violations" in capsys.readouterr().out

    def test_broken_manifest_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({
            "image_id": "x", "width": 4, "height": 4,
            "pointmap": "missing.pmap", "objects": []}) + "\n")
        rc = main(["validate", "--manifest", str(bad)])
        assert rc == 1

    def test_malformed_json_is_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{{{\n")
        assert main(["validate", "--manifest", str(bad)]) == 1


class TestGenerateEvaluateCheck:
    def test_pipeline_via_cli(self, oracle_dir, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({
            "clients": {"problem-generator": {
                "fixture_dir": str(oracle_dir / "fixtures")}},
        }))
        run = tmp_path / "run"
        rc = main(["generate", "--manifest",
                   str(oracle_dir / "manifest.jsonl"), "--config",
                   str(config_path), "--out", str(run), "--seed", "0"])
        assert rc == 0
        items = read_corpus(run / "corpus.jsonl")
        assert items

        rc = main(["oracle", "check", "--scenes",
                   str(oracle_dir / "scenes.jsonl"), "--corpus",
                   str(run / "corpus.jsonl")])
        assert rc == 0
        assert "0 mismatches" in capsys.readouterr().out

        responses = tmp_path / "responses.jsonl"
        with open(responses, "w") as f:
            for item in items:
                f.write(json.dumps({"item_id": item["item_id"],
                                    "response": item["answer"]}) + "\n")
        rc = main(["evaluate", "--corpus", str(run / "corpus.jsonl"),
                   "--responses", str(responses), "--out",
                   str(tmp_path / "report")])
        assert rc == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert report["overall"]["accuracy"] == 1.0

    def test_oracle_check_detects_corruption(self, oracle_dir, tmp_path,
                                             capsys):
        run = tmp_path / "run2"
        main(["generate", "--manifest", str(oracle_dir / "manifest.jsonl"),
              "--out", str(run), "--seed", "0"])
        items = read_corpus(run / "corpus.jsonl")
        # corrupt one stored answer payload
        for item in items:
            if item["payload"]["kind"] == "quantity" and \
                    item["format"] == "free-form":
                item["payload"]["value"] = item["payload"]["value"] * 3
                break
        corrupted = tmp_path / "corrupted.jsonl"
        with open(corrupted, "w") as f:
            for item in items:
                f.write(json.dumps(item) + "\n")
        rc = main(["oracle", "check", "--scenes",
                   str(oracle_dir / "scenes.jsonl"), "--corpus",
                   str(corrupted)])
        assert rc == 1

    def test_oracle_check_bad_scenes_file_exits_2(self, oracle_dir, tmp_path,
                                                 capsys):
        scenes = tmp_path / "scenes.jsonl"
        scenes.write_text(
            (oracle_dir / "scenes.jsonl").read_text().splitlines()[0]
            + "\n" + json.dumps({"scene_id": "x"}) + "\n")
        rc = main(["oracle", "check", "--scenes", str(scenes), "--corpus",
                   str(scenes)])
        assert rc == 2
        assert "scenes.jsonl line 2: bad record" in capsys.readouterr().err

    def test_evaluate_bad_responses_file_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        responses = tmp_path / "responses.jsonl"
        responses.write_text(json.dumps({"item_id": "a"}) + "\n")
        rc = main(["evaluate", "--corpus", str(corpus), "--responses",
                   str(responses), "--out", str(tmp_path / "report")])
        assert rc == 2
        assert "responses.jsonl line 1: bad record" in \
            capsys.readouterr().err

    def test_evaluate_non_string_response_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("")
        responses = tmp_path / "responses.jsonl"
        responses.write_text(
            json.dumps({"item_id": "a", "response": "2 meters"}) + "\n"
            + json.dumps({"item_id": "b", "response": 3}) + "\n")
        rc = main(["evaluate", "--corpus", str(corpus), "--responses",
                   str(responses), "--out", str(tmp_path / "report")])
        assert rc == 2
        assert "responses.jsonl line 2: bad record" in \
            capsys.readouterr().err


class TestEncodeDump:
    def test_dump_and_patchify(self, oracle_dir, tmp_path):
        from spatialqa.manifest import read_manifest
        entries = read_manifest(oracle_dir / "manifest.jsonl")
        pmap_path = oracle_dir / entries[0].pointmap
        out = tmp_path / "enc.bin"
        rc = main(["encode-dump", "--pointmap", str(pmap_path), "--out",
                   str(out)])
        assert rc == 0
        tensor = read_tensor(out)
        assert tensor.shape[2] == 193

        out2 = tmp_path / "patch.bin"
        rc = main(["encode-dump", "--pointmap", str(pmap_path), "--out",
                   str(out2), "--patchify", "--channels", "64"])
        assert rc == 0
        tensor2 = read_tensor(out2)
        assert tensor2.shape[2] == 64


class TestErrors:
    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["generate", "--manifest", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_malformed_config_exit_code(self, oracle_dir, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text('{"workers": 2,')
        rc = main(["generate", "--manifest",
                   str(oracle_dir / "manifest.jsonl"), "--config",
                   str(config), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_client_config_error_exit_code(self, tmp_path, capsys):
        # a client role with neither an endpoint nor a fixture directory
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clients": {"judge": {}}}))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["evaluate", "--corpus", str(empty), "--responses",
                   str(empty), "--config", str(config),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("clients", [
        {"judge": {"fixture_dir": "fx", "timeout_s": "abc"}},
        {"judge": "http://x"},
        {"judge": {"fixture_dir": "fx", "cache-dir": "c"}},
        "http://x",
    ])
    def test_bad_client_spec_exit_code(self, tmp_path, capsys, clients):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clients": clients}))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        rc = main(["evaluate", "--corpus", str(empty), "--responses",
                   str(empty), "--config", str(config),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_bad_workers_flag_exit_code(self, oracle_dir, tmp_path, capsys,
                                        workers):
        rc = main(["generate", "--manifest",
                   str(oracle_dir / "manifest.jsonl"), "--out",
                   str(tmp_path / "o"), "--workers", workers])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: --workers must be an integer >= 1")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [
        {"workers": -3},
        {"workers": 2.7},
        {"clients": {"problem-generator": {"fixture_dir": "fx",
                                           "max_attempts": 0}}},
        {"clients": {"problem-generator": {"fixture_dir": "fx",
                                           "timeout_s": 0}}},
    ])
    def test_unusable_config_number_exit_code(self, oracle_dir, tmp_path,
                                              capsys, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main(["generate", "--manifest",
                   str(oracle_dir / "manifest.jsonl"), "--config",
                   str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestImports:
    def test_cli_does_not_load_scipy(self):
        # scipy.spatial alone raises a process's peak RSS by tens of MiB,
        # on every run, clustering or not
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, spatialqa.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
