"""Batch generation and evaluation orchestration."""

import hashlib
import json
import multiprocessing
import shutil
from pathlib import Path

import pytest

from spatialqa.cli import main
from spatialqa.clients import record_fixture
from spatialqa.config import PipelineConfig
from spatialqa.manifest import read_jsonl, read_manifest, write_manifest
from spatialqa.oracle.gen import generate_dataset
from spatialqa.pipeline import (
    SceneSkipped,
    build_scene,
    read_corpus,
    run_evaluate,
    run_generate,
)
from spatialqa.quantity import format_point, format_quantity


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    result = generate_dataset(range(0, 6), out, sigma=0.0, gt_boxes=True)
    return result


class TestBuildScene:
    def test_scene_objects_and_refs(self, dataset):
        entries = read_manifest(dataset.manifest_path)
        config = PipelineConfig()
        scene = build_scene(entries[0], dataset.manifest_path, config)
        assert scene.pm is not None
        assert len(scene.objects) == len(entries[0].objects)
        assert set(scene.refs) == {o.object_id for o in scene.objects}

    def test_pixel_stats_filter_skips(self, dataset):
        entries = read_manifest(dataset.manifest_path)
        entry = entries[0]
        entry.pixel_stats = {"white": 0.5, "black": 0.0, "invalid_depth": 0.0}
        with pytest.raises(SceneSkipped, match="pure-pixel"):
            build_scene(entry, dataset.manifest_path, PipelineConfig())

    def test_tag_filter_skips(self, dataset):
        entries = read_manifest(dataset.manifest_path)
        entry = entries[0]
        entry.tags = ["chart", "chart", "chart", "photo", "photo"]
        config = PipelineConfig(tag_include=["photo"])
        with pytest.raises(SceneSkipped, match="tag vote"):
            build_scene(entry, dataset.manifest_path, config)

    def test_manifest_grounding_records_skip_client(self, dataset):
        entries = read_manifest(dataset.manifest_path)
        entry = entries[0]
        ann = entry.objects[0]
        ann["captions"] = ["an ambiguous thing", "a very specific thing"]
        ann["grounding"] = [
            {"boxes": [[0, 0, 5, 5], [5, 5, 9, 9]]},   # ambiguous
            {"boxes": [list(ann["box2d"])]},            # exact match
        ]
        # no grounder client configured: records alone drive verification
        scene = build_scene(entry, dataset.manifest_path, PipelineConfig())
        assert scene.refs[ann["object_id"]] == "a very specific thing"

    def test_blank_or_shared_caption_not_used(self, dataset):
        entry = next(e for e in read_manifest(dataset.manifest_path)
                     if len(e.objects) >= 3)
        plain = build_scene(entry, dataset.manifest_path, PipelineConfig())
        anns = entry.objects[:3]
        # each grounding record matches its own object's box exactly
        for ann, caption in zip(anns, ("the chair", "the chair", "")):
            ann["captions"] = [caption]
            ann["grounding"] = [{"boxes": [list(ann["box2d"])]}]
        scene = build_scene(entry, dataset.manifest_path, PipelineConfig())
        assert scene.refs == plain.refs
        assert len(set(scene.refs.values())) == len(scene.refs)

    def test_grounder_verification_flow(self, dataset, tmp_path):
        entries = read_manifest(dataset.manifest_path)
        entry = entries[0]
        ann = entry.objects[0]
        ann["captions"] = ["an ambiguous thing", "a very specific thing"]
        # first caption: two boxes (ambiguous); second: one box, high IoU
        record_fixture(tmp_path, "grounder",
                       {"image_id": entry.image_id,
                        "caption": "an ambiguous thing"},
                       {"boxes": [[0, 0, 5, 5], [5, 5, 9, 9]]})
        record_fixture(tmp_path, "grounder",
                       {"image_id": entry.image_id,
                        "caption": "a very specific thing"},
                       {"boxes": [list(ann["box2d"])]})
        config = PipelineConfig(
            clients={"grounder": {"fixture_dir": str(tmp_path)}})
        from spatialqa.clients import build_clients
        scene = build_scene(entry, dataset.manifest_path, config,
                            build_clients(config.clients))
        assert scene.refs[ann["object_id"]] == "a very specific thing"


    @pytest.mark.parametrize("mode", ["gt-boxes", "estimation"])
    def test_unknown_object_keys_stay_unread(self, dataset, reference,
                                             tmp_path, mode):
        """An object record carries keys the schema does not name into the
        pipeline; the scenes and corpus bytes are those of the records
        without them."""
        manifest = Path(dataset.manifest_path if mode == "gt-boxes"
                        else reference.estimation_manifest)
        data = tmp_path / "data"
        shutil.copytree(manifest.parent, data)
        records = read_jsonl(manifest, dict)
        for record in records:
            for obj in record["objects"]:
                obj.update(pitch_deg=-5, note="x")
        write_manifest(records, data / "manifest.jsonl")
        assert read_manifest(data / "manifest.jsonl")[0].objects[0][
            "note"] == "x"
        corpora, scenes = [], []
        for path, out in ((manifest, tmp_path / "plain"),
                          (data / "manifest.jsonl", tmp_path / "extra")):
            built = [build_scene(e, path, PipelineConfig())
                     for e in read_manifest(path)]
            scenes.append([(s.refs, [(o.object_id, o.category,
                                      o.center.tolist(), o.size.tolist(),
                                      o.yaw_deg) for o in s.objects])
                           for s in built])
            run_generate(path, PipelineConfig(), out)
            corpora.append((out / "corpus.jsonl").read_bytes())
        assert scenes[0] == scenes[1]
        assert corpora[0] == corpora[1] and corpora[0]


class TestRunGenerate:
    def test_worker_counts_agree_byte_for_byte(self, dataset, tmp_path):
        config1 = PipelineConfig(workers=1, seed=0)
        config2 = PipelineConfig(workers=4, seed=0)
        run_generate(dataset.manifest_path, config1, tmp_path / "w1")
        run_generate(dataset.manifest_path, config2, tmp_path / "w4")
        c1 = (tmp_path / "w1" / "corpus.jsonl").read_bytes()
        c4 = (tmp_path / "w4" / "corpus.jsonl").read_bytes()
        assert c1 == c4
        assert len(c1) > 0

    def test_resume_reproduces_uninterrupted_corpus(self, dataset, tmp_path):
        config = PipelineConfig(workers=1, seed=0)
        ledger0 = run_generate(dataset.manifest_path, config,
                               tmp_path / "full")
        ledger1 = run_generate(dataset.manifest_path, config,
                               tmp_path / "resumed", limit=3)
        assert ledger1["summary"].get("done") == 3
        ledger2 = run_generate(dataset.manifest_path, config,
                               tmp_path / "resumed")
        assert ledger2["summary"].get("skipped") == 3
        assert ledger2["summary"].get("done") == 3
        full = (tmp_path / "full" / "corpus.jsonl").read_bytes()
        resumed = (tmp_path / "resumed" / "corpus.jsonl").read_bytes()
        assert full == resumed
        assert ledger2["family_counts"] == ledger0["family_counts"]

    def test_resume_keeps_only_parts_of_its_own_seed(self, dataset,
                                                     tmp_path):
        """A rerun under another seed into the same --out redoes the parts
        of the first seed, and assembles none of them past --limit."""
        manifest = dataset.manifest_path
        seed0, seed1 = (PipelineConfig(workers=1, seed=s) for s in (0, 1))
        run_generate(manifest, seed1, tmp_path / "fresh")
        run_generate(manifest, seed1, tmp_path / "fresh-3", limit=3)
        run_generate(manifest, seed0, tmp_path / "mixed", limit=5)
        ledger = run_generate(manifest, seed1, tmp_path / "mixed", limit=3)
        assert ledger["summary"] == {"done": 3, "skipped": 3}
        assert (tmp_path / "mixed" / "corpus.jsonl").read_bytes() == \
            (tmp_path / "fresh-3" / "corpus.jsonl").read_bytes()
        ledger = run_generate(manifest, seed1, tmp_path / "mixed")
        assert ledger["summary"] == {"done": 3, "skipped": 3}
        assert (tmp_path / "mixed" / "corpus.jsonl").read_bytes() == \
            (tmp_path / "fresh" / "corpus.jsonl").read_bytes()

    def test_pool_starts_no_more_processes_than_images(self, dataset,
                                                       tmp_path, monkeypatch):
        data = tmp_path / "data"
        shutil.copytree(Path(dataset.manifest_path).parent, data)
        lines = (data / "manifest.jsonl").read_text().splitlines()[:3]
        (data / "manifest.jsonl").write_text("\n".join(lines) + "\n")
        started = []
        start = multiprocessing.process.BaseProcess.start

        def counted_start(process):
            started.append(process)
            return start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            counted_start)
        ledger = run_generate(data / "manifest.jsonl",
                              PipelineConfig(workers=4), tmp_path / "o",
                              limit=2)
        assert ledger["summary"] == {"done": 2, "skipped": 1}
        assert len(started) == 2

    def test_duplicate_image_id_rejected_before_any_image_runs(
            self, dataset, tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(Path(dataset.manifest_path).parent, data)
        lines = (data / "manifest.jsonl").read_text().splitlines()[:3]
        manifest = data / "duplicated.jsonl"
        manifest.write_text("\n".join(lines + lines[:1]) + "\n")
        image_id = json.loads(lines[0])["image_id"]
        out = tmp_path / "o"
        assert main(["generate", "--manifest", str(manifest),
                     "--out", str(out)]) == 2
        assert f"duplicate image_id {image_id!r}" in capsys.readouterr().err
        assert not (out / "corpus.jsonl").exists()
        assert not (out / "ledger.json").exists()
        assert not (out / "parts").exists()

    def test_limit_ledger_agrees_with_corpus(self, dataset, tmp_path):
        config = PipelineConfig(workers=1, seed=0)
        out = tmp_path / "o"
        first = run_generate(dataset.manifest_path, config, out, limit=3)
        assert first["summary"] == {"done": 3, "skipped": 3}
        corpus = (out / "corpus.jsonl").read_bytes()
        rerun = run_generate(dataset.manifest_path, config, out, limit=1)
        ids = [e.image_id for e in read_manifest(dataset.manifest_path)]
        # parts done earlier are assembled into the corpus, within the
        # limit or beyond it, and the ledger says so
        assert [rerun["statuses"][i].get("reason") for i in ids] == \
            ["already done"] * 3 + ["beyond --limit"] * 3
        assert (out / "corpus.jsonl").read_bytes() == corpus
        assert rerun["family_counts"] == first["family_counts"]
        assert sum(rerun["family_counts"].values()) == \
            len(read_corpus(out / "corpus.jsonl"))

    def test_ledger_partitions_manifest(self, dataset, tmp_path):
        config = PipelineConfig(workers=1, seed=0)
        ledger = run_generate(dataset.manifest_path, config, tmp_path / "o",
                              limit=2)
        entries = read_manifest(dataset.manifest_path)
        assert len(ledger["statuses"]) == len(entries)
        total = sum(ledger["summary"].values())
        assert total == len(entries)

        # two objects at one center lose only the pairs they make, not the
        # image: synthesis skips the direction they have none of
        broken = tmp_path / "coincident"
        shutil.copytree(Path(dataset.manifest_path).parent, broken)
        records = read_jsonl(broken / "manifest.jsonl", dict)[:5]
        victim = records[0]["objects"]
        victim[1]["box3d"]["center"] = list(victim[0]["box3d"]["center"])
        write_manifest(records, broken / "manifest.jsonl")
        out = tmp_path / "coincident-out"
        assert main(["generate", "--manifest",
                     str(broken / "manifest.jsonl"),
                     "--out", str(out)]) == 0
        assert (out / "corpus.jsonl").exists()
        statuses = json.loads((out / "ledger.json").read_text())["statuses"]
        assert len(statuses) == len(records)
        assert statuses[records[0]["image_id"]]["status"] == "done"
        assert sum(s["status"] == "done" for s in statuses.values()) == \
            len(records)

    def test_corrupt_pointmap_isolated(self, dataset, tmp_path):
        # copy the dataset, truncate one pmap file
        broken = tmp_path / "broken"
        shutil.copytree(Path(dataset.manifest_path).parent, broken)
        entries = read_manifest(broken / "manifest.jsonl")
        victim = entries[1]
        pmap_path = broken / victim.pointmap
        pmap_path.write_bytes(pmap_path.read_bytes()[:40])
        config = PipelineConfig(workers=1, seed=0)
        ledger = run_generate(broken / "manifest.jsonl", config,
                              tmp_path / "out")
        assert ledger["statuses"][victim.image_id]["status"] == "failed"
        assert "offset" in ledger["statuses"][victim.image_id]["reason"]
        done = [s for s in ledger["statuses"].values()
                if s["status"] == "done"]
        assert len(done) == len(entries) - 1

    def test_ledger_counts_match_corpus(self, dataset, tmp_path):
        config = PipelineConfig(workers=1, seed=0)
        ledger = run_generate(dataset.manifest_path, config, tmp_path / "o2")
        items = read_corpus(tmp_path / "o2" / "corpus.jsonl")
        assert sum(ledger["family_counts"].values()) == len(items)
        # parts are a header line, then exactly the image's corpus lines
        parts = sorted((tmp_path / "o2" / "parts").iterdir())
        assert {p.suffix for p in parts} == {".jsonl"}
        body = []
        for part in parts:
            header, *lines = part.read_text().splitlines()
            assert sum(json.loads(header)["families"].values()) == len(lines)
            body.extend(lines)
        assert sorted(body) == sorted(
            (tmp_path / "o2" / "corpus.jsonl").read_text().splitlines())


class TestReferenceCorpusBytes:
    """The corpus bytes of the two reference runs, pinned by sha256."""

    @staticmethod
    def _sha256(path) -> str:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()

    def test_gt_box_corpus(self, reference):
        assert self._sha256(reference.gt) == \
            "b911e7910c9193b6b2c686295f76358d0877cc08606e38e68de91666a7d71702"

    def test_estimation_corpus(self, reference):
        assert self._sha256(reference.estimation) == \
            "48560ffea774f5580077274c21b0c9584a08743b4af36f5e2b7a997b58aa7543"

    @staticmethod
    def _wrong(item: dict) -> str:
        """A response outside every scoring band of the item."""
        fmt, answer = item["format"], item["answer"]
        kind, value = item["payload"]["kind"], item["payload"]["value"]
        if fmt == "mcq":
            return next(letter for letter in "ABCD" if letter != answer)
        if fmt == "true-false":
            return "False" if answer == "True" else "True"
        if kind == "quantity":
            return format_quantity(3.0 * float(value))
        if kind in ("unit-vector", "vector3"):
            return format_point([-float(v) for v in value])
        if kind == "count":
            return str(int(value) + 1)
        return "none of them"

    # The evaluate outputs of the GT-box corpus of seeds 0:12 against a
    # fixed mix of correct, wrong, unparseable and missing responses; with
    # a judge, label problem items are scored by recorded verdicts.
    @pytest.mark.parametrize("band, judged, records_sha, report_sha", [
        ("tight", True,
         "8a8af931a5ef757fa5f27dc1c42e4a0ef2343cb990bfac13e3dce0c5d08d4c9c",
         "fbc0ecc2c727c5e7e76ffacfa0ca484c1c2fdc2c42f2b5493e34b4a1453a66e6"),
        ("wide", False,
         "ae9d3be0cfb89c1fb9921363c2ae35a6f3dfbe9de82c794b291fa6b07398bba2",
         "d43cc8d80fc6abbfa49488e35f112c356580b128801873b9dee211a832ea5c12"),
    ], ids=("tight-judge", "wide-no-judge"))
    def test_evaluate_outputs(self, tmp_path, band, judged, records_sha,
                              report_sha):
        data = generate_dataset(range(0, 12), tmp_path / "ds",
                                problem_fixtures=True)
        run_generate(data.manifest_path, PipelineConfig(clients={
            "problem-generator": {"fixture_dir": str(data.fixture_dir)}}),
            tmp_path / "g")
        corpus = tmp_path / "g" / "corpus.jsonl"
        responses = tmp_path / "responses.jsonl"
        fixtures = tmp_path / "judge-fixtures"
        kinds = ("correct", "wrong", "unparseable", "missing")
        with open(responses, "w") as f:
            for item in read_corpus(corpus):
                digest = hashlib.sha256(item["item_id"].encode()).digest()
                kind = kinds[digest[0] % len(kinds)]
                if kind == "missing":
                    continue
                response = {"correct": item["answer"],
                            "unparseable": "I cannot tell from the image."
                            }.get(kind) or self._wrong(item)
                f.write(json.dumps({"item_id": item["item_id"],
                                    "response": response}) + "\n")
                if (item["family"] == "problem_solving"
                        and item["payload"]["kind"] == "label"):
                    record_fixture(fixtures, "judge", {
                        "item_id": item["item_id"],
                        "question": item["prompt"],
                        "answer": item["answer"], "response": response,
                    }, {"verdict": "match" if kind == "correct"
                        else "mismatch"})
        clients = {"judge": {"fixture_dir": str(fixtures)}} if judged else {}
        config = PipelineConfig(band=band, clients=clients,
                                cache_dir=str(tmp_path / "cache"))
        run_evaluate(corpus, responses, config, tmp_path / "r")
        assert self._sha256(tmp_path / "r" / "records.jsonl") == records_sha
        assert self._sha256(tmp_path / "r" / "report.json") == report_sha


class TestRunEvaluate:
    def _respond(self, corpus_path, responses_path, skip=()):
        items = read_corpus(corpus_path)
        with open(responses_path, "w") as f:
            for item in items:
                if item["item_id"] in skip:
                    continue
                f.write(json.dumps({"item_id": item["item_id"],
                                    "response": item["answer"]}) + "\n")
        return items

    def test_full_join(self, dataset, tmp_path):
        config = PipelineConfig(workers=1, seed=0)
        run_generate(dataset.manifest_path, config, tmp_path / "g")
        corpus = tmp_path / "g" / "corpus.jsonl"
        responses = tmp_path / "responses.jsonl"
        items = self._respond(corpus, responses)
        rep = run_evaluate(corpus, responses, config, tmp_path / "r")
        assert rep["overall"]["n"] == len(items)
        assert rep["overall"]["accuracy"] == 1.0
        assert (tmp_path / "r" / "report.json").exists()
        assert (tmp_path / "r" / "report.txt").exists()

    def test_missing_responses_counted(self, dataset, tmp_path):
        config = PipelineConfig(workers=1, seed=0)
        run_generate(dataset.manifest_path, config, tmp_path / "g2")
        corpus = tmp_path / "g2" / "corpus.jsonl"
        items = read_corpus(corpus)
        skip = {items[0]["item_id"], items[1]["item_id"]}
        responses = tmp_path / "responses2.jsonl"
        self._respond(corpus, responses, skip=skip)
        rep = run_evaluate(corpus, responses, config, tmp_path / "r2")
        assert rep["missing"] == 2
        assert rep["overall"]["correct"] == len(items) - 2

    def test_judge_verdicts_cached_and_reused(self, dataset, tmp_path):
        # craft a judgement problem item manually
        corpus = tmp_path / "corpus.jsonl"
        item = {
            "schema_version": 1, "item_id": "img:problem_solving:0001",
            "image_id": "img", "level": 3, "family": "problem_solving",
            "format": "free-form", "prompt": "Is it?", "answer": "yes",
            "payload": {"kind": "label", "value": "yes"}, "provenance": {},
        }
        corpus.write_text(json.dumps(item) + "\n")
        responses = tmp_path / "resp.jsonl"
        responses.write_text(json.dumps(
            {"item_id": item["item_id"], "response": "definitely"}) + "\n")
        fixtures = tmp_path / "fx"
        record_fixture(fixtures, "judge",
                       {"item_id": item["item_id"], "question": "Is it?",
                        "answer": "yes", "response": "definitely"},
                       {"verdict": "match"})
        config = PipelineConfig(
            clients={"judge": {"fixture_dir": str(fixtures)}},
            cache_dir=str(tmp_path / "cache"))
        rep1 = run_evaluate(corpus, responses, config, tmp_path / "rj")
        assert rep1["overall"]["correct"] == 1
        # remove the fixture: the cached verdict must still drive scoring
        for f in (fixtures / "judge").glob("*.json"):
            f.unlink()
        rep2 = run_evaluate(corpus, responses, config, tmp_path / "rj2")
        assert rep2["overall"]["correct"] == 1

    def test_bad_responses_schema_raises(self, dataset, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("")
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        from spatialqa.manifest import ManifestError
        with pytest.raises(ManifestError):
            run_evaluate(corpus, bad, PipelineConfig(), tmp_path / "rr")


class TestLedger:
    def test_ledger_is_the_file_and_counts_the_statuses(self, dataset,
                                                        tmp_path):
        # image 1 fails, image 2 is filtered out, image 5 is beyond --limit
        data = tmp_path / "data"
        shutil.copytree(Path(dataset.manifest_path).parent, data)
        records = read_jsonl(data / "manifest.jsonl", dict)
        pmap_path = data / records[1]["pointmap"]
        pmap_path.write_bytes(pmap_path.read_bytes()[:40])
        records[2]["pixel_stats"] = {"white": 0.5, "black": 0.0,
                                     "invalid_depth": 0.0}
        write_manifest(records, data / "manifest.jsonl")
        out = tmp_path / "out"
        ledger = run_generate(data / "manifest.jsonl", PipelineConfig(),
                              out, limit=5)
        assert ledger == json.loads((out / "ledger.json").read_text())
        assert ledger["summary"] == {"done": 3, "failed": 1, "skipped": 2}
        statuses = ledger["statuses"]
        ids = [r["image_id"] for r in records]
        assert set(statuses) == set(ids)
        for entry in statuses.values():
            assert ("reason" in entry) == (entry["status"] != "done")
        assert statuses[ids[2]]["reason"].startswith("pure-pixel rule")
        assert statuses[ids[5]]["reason"] == "beyond --limit"
