"""Command-line interface: subcommands, exit codes, file outputs."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from spatialqa.cli import main
from spatialqa.encoding import sinusoidal_encode
from spatialqa.manifest import read_jsonl, read_manifest, write_manifest
from spatialqa.pipeline import read_corpus
from spatialqa.pmap import read_pointmap
from spatialqa.qa import synth


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

    def test_estimation_preset(self, tmp_path, capsys, tree_digest):
        """The estimation preset writes no box3d: the bytes pinned by
        ``TestGenOutputBytes.test_estimation_scenes``."""
        rc = main(["oracle", "gen", "--seeds", "0:3", "--out",
                   str(tmp_path / "est"), "--preset", "estimation",
                   "--sigma", "0.01"])
        assert rc == 0
        assert "box3d" not in (tmp_path / "est" / "manifest.jsonl").read_text()
        assert tree_digest(tmp_path / "est") == (
            "4343807d566a5c112d606965418b266439cd73d001f6b71a653d3bbc46f3f0f7",
            12)
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "gen", "--seeds", "0:3", "--out",
                  str(tmp_path / "old"), "--estimate"])
        assert exc.value.code == 2
        assert "--estimate" in capsys.readouterr().err
        assert not (tmp_path / "old").exists()

    @pytest.mark.parametrize("seeds", ["x:3", "1:", "a..b", "x", "-1",
                                       "-3:-1", "5:3", "3:3"])
    def test_bad_seed_range_is_a_usage_error(self, tmp_path, capsys, seeds):
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "gen", f"--seeds={seeds}", "--out",
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

    def test_oracle_check_reads_the_text(self, tmp_path, monkeypatch,
                                         capsys):
        """Quantities printed at 0.9 times their value leave every payload
        and stated value right; the oracle still finds the text wrong."""
        data = tmp_path / "data"
        assert main(["oracle", "gen", "--seeds", "0:20", "--out", str(data),
                     "--problem-fixtures"]) == 0
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clients": {"problem-generator": {
            "fixture_dir": str(data / "fixtures")}}}))
        text = synth._text
        monkeypatch.setattr(synth, "_text", lambda kind, value: text(
            kind, 0.9 * float(value) if kind == "quantity" else value))
        assert main(["generate", "--manifest", str(data / "manifest.jsonl"),
                     "--config", str(config), "--out", str(tmp_path / "run"),
                     "--workers", "1"]) == 0
        capsys.readouterr()
        assert main(["oracle", "check", "--scenes",
                     str(data / "scenes.jsonl"), "--corpus",
                     str(tmp_path / "run" / "corpus.jsonl")]) == 1
        # both the free-form answers and the True/False prompts are caught
        err = capsys.readouterr().err
        assert "meters' does not state" in err
        assert "prompt does not state" in err
        assert "oracle picks" not in err and "implies" not in err

    def test_oracle_check_counts_unreadable_items(self, oracle_dir, tmp_path,
                                                  capsys):
        """An item the oracle cannot recompute, or whose image has no
        scene, is a counted mismatch; a line that breaks the corpus schema
        is an error."""
        run = tmp_path / "run3"
        main(["generate", "--manifest", str(oracle_dir / "manifest.jsonl"),
              "--out", str(run), "--seed", "0"])
        items = read_corpus(run / "corpus.jsonl")
        missing = next(i for i in items if i["family"] == "object_size")
        del missing["provenance"]["object"]
        no_scene = dict(items[-2], image_id="no-such-scene")
        corpus = tmp_path / "unreadable.jsonl"
        check = ["oracle", "check", "--scenes",
                 str(oracle_dir / "scenes.jsonl"), "--corpus", str(corpus)]
        corpus.write_text("".join(json.dumps(item) + "\n"
                                  for item in (missing, no_scene, items[-1])))
        assert main(check) == 1
        out, err = capsys.readouterr()
        assert f"MISMATCH {missing['item_id']}: oracle cannot read" in err
        assert f"no scene for {no_scene['item_id']}" in err
        assert "oracle check: 2 items, 2 mismatches" in out

        unknown = dict(items[0], family="no_such_family")
        no_image = dict(items[0])
        del no_image["image_id"]
        for item, message in (
                (unknown, "family 'no_such_family' is not a known family"),
                (no_image, "image_id None is not a string")):
            corpus.write_text(json.dumps(item) + "\n")
            assert main(check) == 2
            assert capsys.readouterr().err == \
                f"error: {corpus} line 1: {message}\n"

    def test_oracle_check_bad_scenes_file_exits_2(self, oracle_dir, tmp_path,
                                                 capsys):
        scenes = tmp_path / "scenes.jsonl"
        first = (oracle_dir / "scenes.jsonl").read_text().splitlines()[0]
        record = json.loads(first)

        def with_object(**values):
            return {**record, "objects": [{**record["objects"][0], **values},
                                          *record["objects"][1:]]}

        moved = [record["objects"][0]["center"][0] + 1.0,
                 *record["objects"][0]["center"][1:]]
        # a record missing keys, one with a key no scene has, a camera or
        # a vector the geometry rejects, then a repeated scene_id
        for bad, message in (
                ({"scene_id": "x"}, "bad record"),
                ({**record, "colour": 1}, "bad record"),
                ({**record, "intrinsics": {**record["intrinsics"], "fx": 0}},
                 "bad record"),
                ({**record, "gravity": [0, 2, 0]}, "bad record"),
                ({**record, "gravity": [0, 0, 1]}, "bad record"),
                (with_object(size=[0.5, 0.5]), "bad record"),
                (with_object(center=[float("nan"), 0.0, 3.0]), "bad record"),
                (with_object(center=moved),
                 f"duplicate scene_id {record['scene_id']!r}")):
            scenes.write_text(first + "\n" + json.dumps(bad) + "\n")
            rc = main(["oracle", "check", "--scenes", str(scenes),
                       "--corpus", str(scenes)])
            assert rc == 2, bad
            assert f"scenes.jsonl line 2: {message}" in \
                capsys.readouterr().err

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
        assert "responses.jsonl line 2: response 3 is neither null nor a " \
            "string" in capsys.readouterr().err


class TestTagInclude:
    INCLUDE = ["photo", "indoor"]
    WIN = ["photo", "indoor", "photo", "chart", "text"]    # 3/5 include
    LOSE = ["photo", "chart", "text", "code", "indoor"]    # 2/5 include

    def _run(self, data, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return main(["generate", "--manifest", str(data / "manifest.jsonl"),
                     "--config", str(path), "--out", str(tmp_path / "o")])

    def test_ledger_skips_the_images_that_lose_the_vote(self, oracle_dir,
                                                        tmp_path):
        data = tmp_path / "data"
        shutil.copytree(oracle_dir, data)
        records = read_jsonl(data / "manifest.jsonl", dict)
        losers = {records[0]["image_id"], records[2]["image_id"]}
        for record in records:
            record["tags"] = self.LOSE if record["image_id"] in losers \
                else self.WIN
        write_manifest(records, data / "manifest.jsonl")
        assert self._run(data, tmp_path, {"tag_include": self.INCLUDE}) == 0
        statuses = json.loads(
            (tmp_path / "o" / "ledger.json").read_text())["statuses"]
        assert {i for i, s in statuses.items()
                if s["status"] == "skipped"} == losers
        for image_id in losers:
            assert statuses[image_id]["reason"] == \
                "tag vote: 2/5 include tags"
        assert {i for i, s in statuses.items() if s["status"] == "done"} \
            == {r["image_id"] for r in records} - losers
        corpus_ids = {item["image_id"] for item in
                      read_corpus(tmp_path / "o" / "corpus.jsonl")}
        assert corpus_ids and not corpus_ids & losers

    def test_old_tag_filter_key_exits_2(self, oracle_dir, tmp_path, capsys):
        rc = self._run(oracle_dir, tmp_path,
                       {"tag_filter": {"include": self.INCLUDE}})
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown keys ['tag_filter']")
        assert not (tmp_path / "o").exists()


class TestEncodeDump:
    def test_writes_npy_at_out(self, oracle_dir, tmp_path):
        """The float32 encoding goes to exactly ``--out``: ``np.save``
        given a path would write ``enc.bin.npy``."""
        entries = read_manifest(oracle_dir / "manifest.jsonl")
        pmap_path = oracle_dir / entries[0].pointmap
        out = tmp_path / "enc.bin"
        rc = main(["encode-dump", "--pointmap", str(pmap_path), "--out",
                   str(out)])
        assert rc == 0
        assert [p.name for p in tmp_path.iterdir()] == ["enc.bin"]
        tensor = np.load(out, allow_pickle=False)
        assert tensor.dtype == np.float32
        np.testing.assert_array_equal(
            tensor,
            sinusoidal_encode(read_pointmap(pmap_path)).astype(np.float32))


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
        {"judge": {"endpoint": 5}},
        {"judge": {"fixture_dir": ["fx"]}},
        {"judge": {"fixture_dir": "fx", "cache_dir": "c"}},
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
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--manifest",
                  str(oracle_dir / "manifest.jsonl"), "--out",
                  str(tmp_path / "o"), "--workers", workers])
        assert exc.value.code == 2
        assert f"--workers: '{workers}' is not an integer >= 1" in \
            capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [
        {"workers": -3},
        {"workers": 2.7},
        {"clients": {"problem-generator": {"fixture_dir": "fx",
                                           "max_attempts": 0}}},
        {"clients": {"problem-generator": {"fixture_dir": "fx",
                                           "timeout_s": 0}}},
        {"cache_dir": 5},
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
        assert not (tmp_path / "o").exists()

    def test_environment_does_not_set_workers(self, oracle_dir, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("SPATIALQA_WORKERS", "0")
        rc = main(["generate", "--manifest",
                   str(oracle_dir / "manifest.jsonl"), "--out",
                   str(tmp_path / "o"), "--limit", "1"])
        assert rc == 0
        assert (tmp_path / "o" / "corpus.jsonl").exists()

    def test_rejected_client_spec_writes_nothing(self, oracle_dir, tmp_path,
                                                 capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"clients": {"judge": {
            "fixture_dir": "x", "max_attempts": 0}}}))
        rc = main(["generate", "--manifest",
                   str(oracle_dir / "manifest.jsonl"), "--config",
                   str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [2.7, True, "3", None])
    def test_non_integer_config_seed_exit_code(self, oracle_dir, tmp_path,
                                               capsys, seed):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": seed}))
        rc = main(["generate", "--manifest",
                   str(oracle_dir / "manifest.jsonl"), "--config",
                   str(path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"error: seed must be an integer, got {seed!r}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["generate", "--manifest", "m.jsonl", "--limit", "-1"],
         "--limit: '-1' is not an integer >= 0"),
        # encode-dump writes the encoding as it is: no patch projection
        (["encode-dump", "--pointmap", "p.pmap", "--patchify"],
         "unrecognized arguments: --patchify"),
        (["encode-dump", "--pointmap", "p.pmap", "--channels", "64"],
         "unrecognized arguments: --channels 64"),
        (["encode-dump", "--pointmap", "p.pmap", "--seed", "1"],
         "unrecognized arguments: --seed 1"),
        (["oracle", "gen", "--seeds", "0:1", "--sigma", "-1"],
         "--sigma: '-1' is not a finite number >= 0"),
        (["oracle", "gen", "--seeds", "0:1", "--sigma", "nan"],
         "--sigma: 'nan' is not a finite number >= 0"),
        (["oracle", "gen", "--seeds", "0:1", "--sigma", "inf"],
         "--sigma: 'inf' is not a finite number >= 0"),
    ])
    def test_number_out_of_range_is_a_usage_error(self, tmp_path, capsys,
                                                  argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestImports:
    @staticmethod
    def loaded(child_env, condition: str) -> str:
        """The sorted names ``m`` in ``sys.modules`` that meet
        ``condition`` after ``import spatialqa.cli`` in a fresh
        interpreter."""
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, spatialqa.cli; "
             f"print(sorted(m for m in sys.modules if {condition}))"],
            capture_output=True, text=True, env=child_env)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_cli_does_not_load_scipy(self, child_env):
        # scipy.spatial alone raises a process's peak RSS by tens of MiB,
        # on every run, clustering or not
        assert self.loaded(
            child_env, "m == 'scipy' or m.startswith('scipy.')") == "[]"

    def test_cli_does_not_load_multiprocessing(self, child_env):
        # only `generate --workers 2+` starts a process pool; importing it
        # costs every other command ~19 ms of start-up
        assert self.loaded(
            child_env, "m.split('.')[0] == 'multiprocessing' "
            "or m == 'concurrent.futures.process'") == "[]"
