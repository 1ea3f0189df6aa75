"""Corpus lines: one schema (``check_item``), applied where ``generate``
writes a line and where ``evaluate`` and ``oracle check`` read it."""

import json
import re
import sys

import pytest

from spatialqa.cli import main
from spatialqa.manifest import ManifestError
from spatialqa.pipeline import read_corpus

# The manifest sweep's hostile values (test_manifest.HOSTILE), less the
# path, each put in place of one field of a corpus line
HOSTILE = [None, "x", -1, 0, 1e308, float("nan"), [], {}, [1, 2], True,
           10**400]
FIELDS = ["schema_version", "item_id", "image_id", "level", "family",
          "format", "prompt", "answer", "payload", "options", "provenance",
          "payload.kind", "payload.value"]
ABSENT = object()


@pytest.fixture(scope="module")
def samples(reference) -> list[dict]:
    """The first GT line of each format x payload kind x problem or not,
    and an MCQ line with a quantity and one with a count payload: the
    corpus holds none, but one of an earlier version does, so each is
    built from the first free-form line of its kind."""
    first: dict[tuple, dict] = {}
    for item in read_corpus(reference.gt):
        first.setdefault((item["format"], item["payload"]["kind"],
                          item["family"] == "problem_solving"), item)
    for kind in ("quantity", "count"):
        item = first[("free-form", kind, False)]
        first.setdefault(("mcq", kind, False), dict(
            item, format="mcq", answer="B",
            options=["w", item["answer"], "y", "z"]))
    return list(first.values())


def _get(item: dict, field: str):
    *parents, key = field.split(".")
    for parent in parents:
        item = item[parent]
    return item.get(key, ABSENT)


def _mutated(item: dict, field: str, value) -> dict:
    item = json.loads(json.dumps(item))
    *parents, key = field.split(".")
    owner = item
    for parent in parents:
        owner = owner[parent]
    owner[key] = value
    return item


def _accepted(item: dict, field: str, value) -> bool:
    """Whether a line stays well formed with ``value`` in ``field``: the
    corpus rules as they bear on the hostile values."""
    old = _get(item, field)
    if type(value) is type(old) and value == old:
        return True
    if field in ("item_id", "image_id", "prompt"):
        return isinstance(value, str)
    if field == "answer":
        return isinstance(value, str) and item["format"] == "free-form"
    if field == "provenance":
        return isinstance(value, dict)
    if field == "payload.value":
        kind = item["payload"]["kind"]
        if kind == "label":
            return isinstance(value, str)
        if kind == "quantity":
            return (type(value) in (int, float)
                    and 0 < value <= sys.float_info.max)
        if kind == "count":
            return type(value) is int and value >= 0
    return False


class TestReferenceCorpora:
    def test_every_written_line_reads_back(self, reference):
        for corpus in (reference.gt, reference.estimation):
            lines = corpus.read_text().splitlines()
            assert lines
            assert read_corpus(corpus) == [json.loads(line)
                                           for line in lines]

    # phrasings that the template fields once produced: a doubled or a
    # dangling "of", "of" after a bare preposition, a count agreeing with
    # a plural noun, a lowercase reference text opening the sentence
    BROKEN = re.compile(r"\bof of\b|\b(above|below|behind) of\b|\bof\?"
                        r"|There are 1 |^[a-z]")

    def test_prompts_read_as_english(self, reference):
        broken = [item["prompt"] for item in read_corpus(reference.gt)
                  if self.BROKEN.search(item["prompt"])]
        assert broken == []


class TestHostileLines:
    """Mutation sweep over 14 reference lines: each hostile value in each
    field is read as the rules say, and no exception escapes the CLI."""

    def test_read_corpus_applies_the_rules(self, reference, samples,
                                           tmp_path):
        assert len(samples) == 14
        path = tmp_path / "corpus.jsonl"
        faults, accepted = [], []
        for item in samples:
            for field in FIELDS:
                for value in HOSTILE:
                    case = f"{item['item_id']} {field}={value!r}"
                    line = _mutated(item, field, value)
                    path.write_text(json.dumps(line) + "\n")
                    try:
                        read = read_corpus(path)
                    except ManifestError as e:
                        if _accepted(item, field, value):
                            faults.append(f"{case}: rejected: {e}")
                        elif not str(e).startswith(f"{path} line 1: "):
                            faults.append(f"{case}: message {e}")
                        continue
                    if not _accepted(item, field, value):
                        faults.append(f"{case}: accepted")
                    elif field != "item_id":
                        accepted.append(read[0])
        assert not faults, f"{len(faults)} faults:\n" + "\n".join(faults)

        # every accepted line, under its own item_id, through both commands
        corpus = tmp_path / "accepted.jsonl"
        responses = tmp_path / "responses.jsonl"
        with open(corpus, "w") as c, open(responses, "w") as r:
            for n, item in enumerate(accepted):
                item["item_id"] = f"case-{n}"
                c.write(json.dumps(item) + "\n")
                r.write(json.dumps({"item_id": item["item_id"],
                                    "response": item["answer"]}) + "\n")
        assert main(["evaluate", "--corpus", str(corpus), "--responses",
                     str(responses), "--out", str(tmp_path / "report")]) == 0
        assert main(["oracle", "check", "--scenes", str(reference.scenes),
                     "--corpus", str(corpus)]) == 1

    @pytest.mark.parametrize("field, value, message", [
        ("family", None, "family None is not a known family"),
        ("level", True, "level True is not"),
        ("format", None, "format None is not one of"),
        ("payload.kind", "x", "payload.kind 'x' is not one of"),
        ("payload.value", float("nan"), "payload.value nan is not"),
    ])
    @pytest.mark.parametrize("command", ["evaluate", "oracle check"])
    def test_bad_line_exits_2(self, reference, samples, tmp_path, capsys,
                              command, field, value, message):
        item = next(i for i in samples if i["payload"]["kind"] == "quantity")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(_mutated(item, field, value)) + "\n")
        responses = tmp_path / "responses.jsonl"
        responses.write_text("")
        argv = {"evaluate": ["evaluate", "--responses", str(responses),
                             "--out", str(tmp_path / "report")],
                "oracle check": ["oracle", "check",
                                 "--scenes", str(reference.scenes)]}[command]
        assert main(argv + ["--corpus", str(corpus)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {corpus} line 1: {message}")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("bad", ["corpus", "responses"])
    def test_nested_too_deep_exits_2(self, reference, tmp_path, capsys, bad):
        paths = {name: tmp_path / f"{name}.jsonl"
                 for name in ("corpus", "responses")}
        paths["corpus"].write_text(
            reference.gt.read_text().splitlines()[0] + "\n")
        paths["responses"].write_text("")
        paths[bad].write_text("[" * 100_000 + "\n")
        assert main(["evaluate", "--corpus", str(paths["corpus"]),
                     "--responses", str(paths["responses"]),
                     "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {paths[bad]} line 1: invalid JSON: ")
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("line", ["[1, 2]", "7", '"text"'])
    def test_line_not_an_object_exits_2(self, reference, tmp_path, capsys,
                                        line):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(line + "\n")
        assert main(["oracle", "check", "--scenes", str(reference.scenes),
                     "--corpus", str(corpus)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {corpus} line 1: bad record: AttributeError")


class TestRepeatedItemIds:
    def test_in_a_corpus(self, reference, tmp_path, capsys):
        first = reference.gt.read_text().splitlines()[0]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(first + "\n" + first + "\n")
        assert main(["oracle", "check", "--scenes", str(reference.scenes),
                     "--corpus", str(corpus)]) == 2
        item_id = json.loads(first)["item_id"]
        assert capsys.readouterr().err == \
            f"error: {corpus} line 2: duplicate item_id {item_id!r}\n"

    def test_in_responses(self, reference, tmp_path, capsys):
        first = reference.gt.read_text().splitlines()[0]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(first + "\n")
        item_id = json.loads(first)["item_id"]
        responses = tmp_path / "responses.jsonl"
        responses.write_text("".join(
            json.dumps({"item_id": item_id, "response": r}) + "\n"
            for r in ("A", "B")))
        assert main(["evaluate", "--corpus", str(corpus), "--responses",
                     str(responses), "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err == \
            f"error: {responses} line 2: duplicate item_id {item_id!r}\n"


class TestResponsesLines:
    @pytest.mark.parametrize("item_id", [7, None, ["a"]])
    def test_non_string_item_id_exits_2(self, reference, tmp_path, capsys,
                                        item_id):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(reference.gt.read_text().splitlines()[0] + "\n")
        responses = tmp_path / "responses.jsonl"
        responses.write_text(
            json.dumps({"item_id": item_id, "response": "A"}) + "\n")
        assert main(["evaluate", "--corpus", str(corpus), "--responses",
                     str(responses), "--out", str(tmp_path / "report")]) == 2
        assert capsys.readouterr().err == \
            f"error: {responses} line 1: item_id {item_id!r} is not a " \
            f"string\n"

    def test_unknown_item_ids_are_counted(self, reference, tmp_path, capsys):
        first = reference.gt.read_text().splitlines()[0]
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(first + "\n")
        responses = tmp_path / "responses.jsonl"
        responses.write_text("".join(
            json.dumps({"item_id": item_id, "response": "A"}) + "\n"
            for item_id in ("nope", json.loads(first)["item_id"], "nope2")))
        assert main(["evaluate", "--corpus", str(corpus), "--responses",
                     str(responses), "--out", str(tmp_path / "report")]) == 0
        out, err = capsys.readouterr()
        assert err == "evaluate: responses naming no corpus item: 2\n"
        assert out.startswith("evaluate: n=1 ")
