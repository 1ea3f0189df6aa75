"""Scoring rules and report generation."""

import itertools
import json
import math
import re
import warnings

import pytest

from spatialqa.clients import record_fixture
from spatialqa.evalharness import (
    EvalRecord,
    _holds,
    judged,
    normalize_text,
    render_report,
    report,
    score_direction,
    score_item,
    score_label,
    score_mcq,
    score_ratio,
    score_tf,
    )
from spatialqa.cli import main
from spatialqa.manifest import ManifestError
from spatialqa.pipeline import read_corpus
from spatialqa.qa.items import check_item
from spatialqa.quantity import parse_quantity


class TestParseNumeric:
    """Numeric answers are read with quantity.parse_quantity."""

    def test_meters(self):
        assert parse_quantity("about 2.4 meters") == pytest.approx(2.4)

    def test_centimeters(self):
        assert parse_quantity("120 cm") == pytest.approx(1.2)

    def test_failure(self):
        assert parse_quantity("no idea") is None

    def test_takes_final_quantity(self):
        assert parse_quantity("the 2 m table is 40 cm away") == \
            pytest.approx(0.4)


class TestScoreRatio:
    def test_tight_boundary_inclusive(self):
        assert score_ratio(3.0, 4.0, "tight")[0]       # exactly 0.75
        assert score_ratio(5.0, 4.0, "tight")[0]       # exactly 1.25
        assert not score_ratio(5.01, 4.0, "tight")[0]
        assert not score_ratio(2.99, 4.0, "tight")[0]

    def test_wide_boundary_inclusive(self):
        assert score_ratio(2.0, 4.0, "wide")[0]        # exactly 0.5
        assert score_ratio(8.0, 4.0, "wide")[0]        # exactly 2.0
        assert score_ratio(7.9, 4.0, "wide")[0]
        assert not score_ratio(8.1, 4.0, "wide")[0]

    def test_scale_invariance(self):
        for c in (0.01, 1.0, 37.5):
            ok1, _ = score_ratio(3.1, 4.0, "tight")
            ok2, _ = score_ratio(3.1 * c, 4.0 * c, "tight")
            assert ok1 == ok2

    def test_nonpositive_gt_rejected(self):
        with pytest.raises(ValueError, match="positive ground truth"):
            score_ratio(1.0, 0.0)


class TestScoreDirection:
    def test_identical(self):
        ok, angle = score_direction([1, 0, 0], [1, 0, 0])
        assert ok and angle == pytest.approx(0.0)

    def test_exactly_30_degrees_correct(self):
        v = [math.cos(math.radians(30)), math.sin(math.radians(30)), 0]
        ok, angle = score_direction(v, [1, 0, 0])
        assert ok and angle == pytest.approx(30.0, abs=1e-9)

    def test_orthogonal_incorrect(self):
        ok, angle = score_direction([0, 1, 0], [1, 0, 0])
        assert not ok and angle == pytest.approx(90.0)

    def test_rotation_invariance(self):
        import numpy as np
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = rng.normal(size=3)
            g = rng.normal(size=3)
            # random rotation via QR
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            ok1, a1 = score_direction(p, g)
            ok2, a2 = score_direction(q @ p, q @ g)
            assert ok1 == ok2
            assert a1 == pytest.approx(a2, abs=1e-7)

    def test_unnormalized_inputs_accepted(self):
        ok, _ = score_direction([10, 0, 0], [0.1, 0, 0])
        assert ok


class TestScoreMcqTf:
    def test_bare_letter(self):
        assert score_mcq("B", "B")
        assert not score_mcq("C", "B")

    def test_parenthesized_with_text(self):
        assert score_mcq("(b) the chair", "B")

    def test_announced_letter(self):
        assert score_mcq("I believe the answer is B.", "B")

    def test_option_text_match(self):
        options = ["1.00 meters", "2.00 meters", "3.00 meters", "5.00 meters"]
        assert score_mcq("2.00 meters", "B", options)
        assert not score_mcq("2.00 meters and 3.00 meters", "B", options)
        assert score_mcq("It is 2.00 meters.", "B", options)

    def test_option_text_matches_whole_tokens(self):
        # option B is "1": neither "10" nor "1e999" holds it, and "1.5"
        # is a number of its own
        options = ["3", "1", "2", "4"]
        for response in ("10", "1e999 meters", "1.5", "21 or 12"):
            assert not score_mcq(response, "B", options), response
        assert score_mcq("1", "B", options)
        assert score_mcq("I count 1.", "B", options)
        assert not score_mcq("1 or 3", "B", options)

    def test_empty_incorrect(self):
        assert not score_mcq("", "A")

    def test_tf(self):
        assert score_tf("True", "True")
        assert score_tf("false.", "False")
        assert score_tf("I think this is true", "True")
        assert not score_tf("maybe", "True")
        assert not score_tf("true or false", "True")
        assert score_tf("yes", "True")
        assert not score_tf("no", "True")
        # "not" turns the word after it; both readings at once score
        # incorrect against either truth
        assert score_tf("That is not true.", "False")
        assert not score_tf("That is not true.", "True")
        assert score_tf("not correct", "False")
        assert score_tf("not false", "True")
        assert score_tf("It is not incorrect.", "True")
        assert not score_tf("not incorrect", "False")
        assert score_tf("No, that is not true.", "False")
        for both in ("not true, it is true", "true, not false, not true"):
            assert not score_tf(both, "True")
            assert not score_tf(both, "False")
        # a contraction negates too, and one word may stand between
        assert score_tf("That isn't true.", "False")
        assert score_tf("It's not quite true.", "False")
        assert score_tf("That is not really correct.", "False")
        # a "no" followed by a word is an answer only when it stands alone
        assert score_tf("There are no chairs, so true.", "True")
        assert score_tf("There are no chairs there, so that is false.",
                        "False")
        for no in ("No.", "No it isn't.", "I would say no.",
                   "The answer is no."):
            assert score_tf(no, "False")
            assert not score_tf(no, "True")
        assert score_tf("t", "True") and not score_tf("t", "False")
        assert score_tf("f", "False") and not score_tf("f", "True")
        for truth in ("True", "False"):
            assert not score_tf("I cannot tell from the image.", truth)


def _holds_regex(norm: str, phrase: str) -> bool:
    """Whole-token match by regex: the reference ``_holds`` must equal on
    normalized text."""
    return bool(re.search(rf"(?:^|\s){re.escape(phrase)}\.?(?:$|\s)",
                          norm))


class TestHolds:
    NAMED = [("it is 1.", "1"), ("10", "1"), ("1.5", "1"), ("1e999", "1"),
             ("about 1e999 m", "1e999"), ("1", ""), ("", ""), (". 1", ""),
             ("x .", ""), ("1..", "1."), ("1.", "1."), ("x .1 y", ".1"),
             (".1", "1"), ("1 .", "1"), ("2 1. 3", "1"), ("1.-", "1")]

    def test_named_cases(self):
        for norm, phrase in self.NAMED:
            assert norm == normalize_text(norm)
            assert _holds(norm, phrase) == _holds_regex(norm, phrase), (
                norm, phrase)

    def test_equals_regex_on_every_short_normalized_text(self):
        """Every normalized text of up to five characters from "10.e -"
        against every such phrase of up to two."""
        def texts(n):
            seen = set()
            for k in range(n + 1):
                for chars in itertools.product("10.e -", repeat=k):
                    text = "".join(chars)
                    if text == normalize_text(text):
                        seen.add(text)
            return sorted(seen)

        phrases = texts(2)
        for norm in texts(5):
            for phrase in phrases:
                assert _holds(norm, phrase) == _holds_regex(norm, phrase), (
                    norm, phrase)


class TestScoreLabel:
    def test_exact_and_containment(self):
        assert score_label("right", "right")
        assert score_label("it is to the right", "right")
        assert not score_label("downright wrong", "right")
        assert score_label("It is the chair.", "chair")
        assert not score_label("chair.s", "chair")


class TestScoreItem:
    ITEM = {
        "item_id": "x:1", "family": "relative_distance", "level": 2,
        "format": "free-form", "prompt": "?", "answer": "2.00 meters",
        "payload": {"kind": "quantity", "value": 2.0, "unit": "m"},
        "provenance": {},
    }

    def test_quantity_tight(self):
        rec = score_item(self.ITEM, "about 2.2 m")
        assert rec.correct and rec.rule == "ratio-tight"
        assert rec.error == pytest.approx(1.1)

    def test_band_selection(self):
        rec = score_item(self.ITEM, "3.5 m", band="wide")
        assert rec.correct and rec.rule == "ratio-wide"

    def test_parse_failure_counts_incorrect(self):
        rec = score_item(self.ITEM, "no idea")
        assert not rec.correct and rec.note == "parse-failure"

    def test_missing_response(self):
        rec = score_item(self.ITEM, None)
        assert not rec.correct and rec.rule == "missing"

    @pytest.mark.parametrize("truth", [0.0, -1.0, float("nan")])
    def test_quantity_truth_not_positive_is_incorrect(self, truth):
        """A quantity truth that is not positive has no ratio to score
        against, so it makes an incorrect corpus line."""
        item = dict(self.ITEM, schema_version=1, image_id="x",
                    payload={"kind": "quantity", "value": truth, "unit": "m"})
        with pytest.raises(ManifestError, match=re.escape(
                f"payload.value {truth!r} is not a positive number")):
            check_item(item)

    def test_evaluate_finishes_on_a_zero_truth(self, tmp_path, capsys):
        """``evaluate`` stops at the line with exit 2 and writes nothing."""
        item = dict(self.ITEM, schema_version=1, image_id="x",
                    payload={"kind": "quantity", "value": 0.0, "unit": "m"})
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(item) + "\n")
        responses = tmp_path / "responses.jsonl"
        responses.write_text(json.dumps(
            {"item_id": item["item_id"], "response": "2 meters"}) + "\n")
        assert main(["evaluate", "--corpus", str(corpus), "--responses",
                     str(responses), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"error: {corpus} line 1: payload.value 0.0 is not a positive "
            f"number\n")
        assert not (tmp_path / "out").exists()

    def test_problem_numeric_25pct(self):
        item = dict(self.ITEM, family="problem_solving")
        assert score_item(item, "2.4 meters").correct          # 20% off
        assert not score_item(item, "2.6 meters").correct      # 30% off

    def test_problem_judge_verdict_passthrough(self):
        item = {
            "item_id": "x:2", "family": "problem_solving", "level": 3,
            "format": "free-form", "prompt": "?", "answer": "yes",
            "payload": {"kind": "label", "value": "yes"}, "provenance": {},
        }
        assert score_item(item, "whatever", judge_verdict="match").correct
        assert not score_item(item, "yes", judge_verdict="mismatch").correct
        # without a verdict, fall back to normalized match
        assert score_item(item, "Yes!").correct

    def test_unit_vector_30deg(self):
        item = {
            "item_id": "x:3", "family": "relative_direction", "level": 2,
            "format": "free-form", "prompt": "?", "answer": "(1.00, 0.00, 0.00)",
            "payload": {"kind": "unit-vector", "value": [1.0, 0.0, 0.0]},
            "provenance": {},
        }
        assert score_item(item, "(0.9, 0.1, 0.0)").correct
        assert not score_item(item, "(0.0, 1.0, 0.0)").correct

    COUNT = {
        "item_id": "x:4", "family": "spatial_counting", "level": 3,
        "format": "free-form", "prompt": "?", "answer": "3",
        "payload": {"kind": "count", "value": 3}, "provenance": {},
    }

    def test_count_exact(self):
        assert score_item(self.COUNT, "there are 3").correct
        assert not score_item(self.COUNT, "4").correct

    @pytest.mark.parametrize("response, parsed", [
        ("I see 2 shelves and 3 chairs", 3),   # the final number
        ("3 chairs, no: 4", 4),
        ("(3e999, 0, 0)", 0),
        ("+3", 3),
    ])
    def test_count_reads_the_final_number(self, response, parsed):
        rec = score_item(self.COUNT, response)
        assert (rec.parsed, rec.correct, rec.note) == (parsed, parsed == 3,
                                                       None)

    @pytest.mark.parametrize("response", [
        "none", "", "3e999 meters", "1e999 meters", "3e0", "3.0",
        "about 2.5", "9" * 5000])
    def test_count_without_an_integer_is_a_parse_failure(self, response):
        rec = score_item(self.COUNT, response)
        assert not rec.correct
        assert rec.parsed is None and rec.note == "parse-failure"


class TestReport:
    def _records(self):
        return [
            EvalRecord("a", "x", "mcq", True, family="f1", level=1,
                       format="mcq"),
            EvalRecord("b", "x", "mcq", False, family="f1", level=1,
                       format="mcq"),
            EvalRecord("c", "x", "ratio-tight", True, family="f2", level=2,
                       format="free-form"),
            EvalRecord("d", None, "missing", False, family="f2", level=2,
                       format="free-form"),
        ]

    def test_accuracy_per_group(self):
        rep = report(self._records())
        assert rep["overall"] == {"n": 4, "correct": 2, "accuracy": 0.5}
        assert rep["groups"]["family"]["f1"]["accuracy"] == 0.5
        assert rep["missing"] == 1
        # group sizes partition the total
        assert sum(e["n"] for e in rep["groups"]["family"].values()) == 4

    def test_three_of_four_is_75_percent(self):
        records = self._records()[:3] + [
            EvalRecord("e", "x", "mcq", True, family="f1", level=1,
                       format="mcq")]
        rep = report(records)
        assert rep["overall"]["accuracy"] == pytest.approx(0.75)
        assert "75.00%" in render_report(rep)

    def test_empty_reports_undefined_marker(self):
        rep = report([])
        assert rep["overall"]["accuracy"] is None
        assert "n/a" in render_report(rep)


_NOT_KEPT = re.compile(r"[^a-z0-9\s.-]")
_ARTICLE = re.compile(r"\b(a|an|the)\b")
_SPACES = re.compile(r"\s+")


def _normalize_steps(text: str) -> str:
    """Every step of ``normalize_text`` written out on its own: the
    reference it must equal."""
    t = _NOT_KEPT.sub(" ", text.strip().lower())
    return _SPACES.sub(" ", _ARTICLE.sub(" ", t)).strip()


class TestNormalize:
    TOKENS = ("a", "an", "the", "A", "The", "x", "1", " ", "  ", "\t", "\n",
              ".", ",", "-", "!")

    def test_articles_and_case(self):
        assert normalize_text("The  Chair!") == "chair"

    def test_equals_steps_on_every_text_of_five_tokens(self):
        """All 813,615 texts of one to five tokens."""
        texts = ["".join(tokens) for k in range(1, 6)
                 for tokens in itertools.product(self.TOKENS, repeat=k)]
        assert len(texts) == 813_615
        assert [t for t in texts
                if normalize_text(t) != _normalize_steps(t)] == []


# Responses that come from outside the program and break naive parsing:
# integers int() refuses, numbers float() reads as infinite, and finite
# values whose scoring arithmetic would overflow.
HOSTILE_RESPONSES = [
    "9" * 5000, "there are -" + "9" * 4301, "1" + "0" * 400,
    "1e999 meters", "-1e999 m", "1e308 km", "1.7e308 meters",
    "1e200 cm", "1e-400 meters", "0 meters",
    "(1e999, 0, 0)", "(0, -1e999, 1e999)", "(1e200, 1e200, 1e200)",
    "(1e155, 0, 0)", "(0, 0, 0)", "(1, 2)", "", "   ", "A" * 10_000,
]


def test_hostile_responses_score_as_strict_json(reference, tmp_path):
    """One line of each (family, format, payload kind) of the reference
    corpus, answered with every hostile response: ``evaluate`` exits 0
    with no warning, and every ``records.jsonl`` line is strict JSON (no
    ``Infinity`` or ``NaN``)."""
    picked = {}
    for item in read_corpus(reference.gt):
        key = (item["family"], item["format"], item["payload"]["kind"])
        picked.setdefault(key, item)
    assert {kind for _, _, kind in picked} >= {
        "quantity", "unit-vector", "vector3", "count", "label"}
    corpus, responses = [], []
    for item in picked.values():
        for k, response in enumerate(HOSTILE_RESPONSES):
            item_id = f"{item['item_id']}#{k}"
            corpus.append(dict(item, item_id=item_id))
            responses.append({"item_id": item_id, "response": response})
    corpus_path = tmp_path / "corpus.jsonl"
    corpus_path.write_text("".join(json.dumps(c) + "\n" for c in corpus))
    responses_path = tmp_path / "responses.jsonl"
    responses_path.write_text(
        "".join(json.dumps(r) + "\n" for r in responses))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", "--corpus", str(corpus_path),
                     "--responses", str(responses_path),
                     "--out", str(tmp_path / "out")]) == 0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    lines = (tmp_path / "out" / "records.jsonl").read_text().splitlines()
    assert len(lines) == len(corpus)
    records = [json.loads(line, parse_constant=refuse) for line in lines]
    unparsed = {(r["rule"], r["raw_response"]) for r in records
                if r.get("note") == "parse-failure" and not r["correct"]}
    for rule in ("ratio-tight", "direction-30deg", "vector-relative",
                 "count-exact"):
        assert (rule, "9" * 5000) in unparsed
    assert ("ratio-tight", "1e999 meters") in unparsed
    assert ("ratio-tight", "1.7e308 meters") in unparsed
    for rule in ("direction-30deg", "vector-relative"):
        assert (rule, "(1e999, 0, 0)") in unparsed
        assert (rule, "(1e200, 1e200, 1e200)") in unparsed


def test_evaluate_refuses_an_out_file_before_judging(reference, tmp_path,
                                                     capsys):
    """``evaluate --out`` naming an existing file exits 2 before the judge
    answers any item, so the judge cache stays empty; the same call with
    a fresh ``--out`` judges every item and caches each answer."""
    items = [item for item in read_corpus(reference.gt) if judged(item)][:3]
    assert items
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(item) + "\n" for item in items))
    responses = tmp_path / "responses.jsonl"
    responses.write_text("".join(json.dumps(
        {"item_id": item["item_id"], "response": item["answer"]}) + "\n"
        for item in items))
    fixtures, cache = tmp_path / "fixtures", tmp_path / "cache"
    for item in items:
        record_fixture(fixtures, "judge", {
            "item_id": item["item_id"], "question": item["prompt"],
            "answer": item["answer"], "response": item["answer"],
        }, {"verdict": "match"})
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "clients": {"judge": {"fixture_dir": str(fixtures)}},
        "cache_dir": str(cache)}))
    out = tmp_path / "out"
    out.write_text("")
    args = ["evaluate", "--config", str(config), "--corpus", str(corpus),
            "--responses", str(responses), "--out"]
    assert main(args + [str(out)]) == 2
    assert "File exists" in capsys.readouterr().err
    assert not [p for p in cache.rglob("*") if p.is_file()]
    assert main(args + [str(tmp_path / "fresh")]) == 0
    assert len([p for p in cache.rglob("*") if p.is_file()]) == len(items)
