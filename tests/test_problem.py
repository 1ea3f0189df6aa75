"""Problem-generation prompt assembly and candidate validation."""

import numpy as np
import pytest

from spatialqa.geometry import IDENTITY_GRAVITY, gravity_frame
from spatialqa.qa.problem import (
    ProblemValidationError,
    evaluate_check,
    scene_digest,
    validate_candidates,
)
from spatialqa.qa.synth import Scene
from spatialqa.references import assign_references
from spatialqa.relations import SceneObject


def _scene():
    objs = [
        SceneObject("a", "table", np.array([0.0, 0.5, 3.0]),
                    np.array([1.8, 0.8, 1.0]), yaw_deg=0.0),
        SceneObject("b", "table", np.array([2.0, 0.5, 3.0]),
                    np.array([1.0, 0.7, 1.0]), yaw_deg=90.0),
    ]
    gf = gravity_frame(IDENTITY_GRAVITY)
    refs = assign_references(objs, gf)
    return Scene(image_id="img-9", objects=objs, refs=refs, gf=gf)


DIGEST = scene_digest(_scene())


class TestDigest:
    def test_lists_both_tables_with_sizes(self):
        assert DIGEST["image_id"] == "img-9"
        assert len(DIGEST["objects"]) == 2
        entry = DIGEST["objects"][0]
        assert entry["size_m"] == [1.8, 0.8, 1.0]
        assert "reference" in entry and entry["category"] == "table"

    def test_digest_deterministic(self):
        assert scene_digest(_scene()) == DIGEST


class TestEvaluateCheck:
    def test_distance(self):
        v = evaluate_check({"op": "distance", "a": "a", "b": "b"}, DIGEST)
        assert v == pytest.approx(2.0)

    def test_camera_distance(self):
        v = evaluate_check({"op": "camera_distance", "object": "a"}, DIGEST)
        assert v == pytest.approx(np.sqrt(0.25 + 9.0), abs=1e-3)

    def test_size_and_volume(self):
        assert evaluate_check({"op": "size", "object": "a",
                               "dimension": "width"}, DIGEST) == \
            pytest.approx(1.8)
        assert evaluate_check({"op": "volume", "object": "b"}, DIGEST) == \
            pytest.approx(1.0 * 0.7 * 1.0)

    def test_arithmetic(self):
        check = {"op": "add", "args": [
            {"op": "size", "object": "a", "dimension": "height"},
            {"op": "size", "object": "b", "dimension": "height"}]}
        assert evaluate_check(check, DIGEST) == pytest.approx(1.5)
        check = {"op": "sub", "args": [1.0, 3.0]}
        assert evaluate_check(check, DIGEST) == pytest.approx(2.0)

    def test_comparison_yields_yes_no(self):
        check = {"op": "gt", "args": [
            {"op": "size", "object": "a", "dimension": "width"},
            {"op": "size", "object": "b", "dimension": "width"}]}
        assert evaluate_check(check, DIGEST) == "yes"

    def test_unknown_object_rejected(self):
        with pytest.raises(ProblemValidationError):
            evaluate_check({"op": "camera_distance", "object": "zz"}, DIGEST)

    def test_nested_comparison_rejected(self):
        with pytest.raises(ProblemValidationError):
            evaluate_check({"op": "add", "args": [
                {"op": "gt", "args": [1, 2]}, 1.0]}, DIGEST)


class TestValidateCandidates:
    CHECK = {"op": "distance", "a": "a", "b": "b"}

    def test_numeric_within_25pct_accepted_and_canonicalized(self):
        accepted, rejected = validate_candidates(DIGEST, [{
            "kind": "numeric", "question": "How far apart are the tables?",
            "value": 2.3, "check": self.CHECK}])
        assert not rejected
        assert accepted[0].answer_value == pytest.approx(2.0)

    def test_numeric_beyond_25pct_rejected(self):
        accepted, rejected = validate_candidates(DIGEST, [{
            "kind": "numeric", "question": "How far apart are the tables?",
            "value": 3.0, "check": self.CHECK}])
        assert not accepted
        assert "deviates" in rejected[0][1]

    def test_missing_check_rejected(self):
        _, rejected = validate_candidates(DIGEST, [{
            "kind": "numeric", "question": "q", "value": 2.0}])
        assert "machine-checkable" in rejected[0][1]

    def test_judgement_must_match_recomputed(self):
        check = {"op": "gt", "args": [
            {"op": "size", "object": "a", "dimension": "width"},
            {"op": "size", "object": "b", "dimension": "width"}]}
        accepted, rejected = validate_candidates(DIGEST, [
            {"kind": "judgement", "question": "Is a wider?", "answer": "yes",
             "check": check},
            {"kind": "judgement", "question": "Is a wider?", "answer": "no",
             "check": check},
        ])
        assert len(accepted) == 1 and accepted[0].answer_value == "yes"
        assert len(rejected) == 1 and "contradicts" in rejected[1 - 1][1]

    def test_kind_check_mismatch_rejected(self):
        _, rejected = validate_candidates(DIGEST, [{
            "kind": "judgement", "question": "q", "answer": "yes",
            "check": self.CHECK}])
        assert "number" in rejected[0][1]

    def test_empty_question_rejected(self):
        _, rejected = validate_candidates(DIGEST, [{
            "kind": "numeric", "question": " ", "value": 2.0,
            "check": self.CHECK}])
        assert "empty" in rejected[0][1]

    @pytest.mark.parametrize("bad, reason", [
        ("How far?", "bad candidate: AttributeError"),
        ({"kind": "numeric", "question": 5, "value": 2.0,
          "check": CHECK}, "bad candidate: AttributeError"),
        ({"kind": "numeric", "question": "q", "value": "far",
          "check": CHECK}, "bad candidate: ValueError"),
        ({"kind": "numeric", "question": "q", "value": 2.0,
          "check": {"op": "add", "args": 5}}, "bad candidate: TypeError"),
        ({"kind": "numeric", "question": "q", "value": 2.0,
          "check": {"op": "distance", "a": [1], "b": "b"}},
         "bad candidate: TypeError"),
        ({"kind": "numeric", "question": "q", "value": 1e308,
          "check": {"op": "add", "args": [1e308, 1e308]}},
         "not a positive finite number"),
        ({"kind": "numeric", "question": "q", "value": 10 ** 400,
          "check": CHECK}, "bad candidate: OverflowError"),
    ], ids=["not-object", "question-5", "value-far", "args-5", "id-list",
            "infinite", "value-huge-int"])
    def test_bad_candidate_costs_only_itself(self, bad, reason):
        good = {"kind": "numeric", "question": "How far apart?",
                "value": 2.0, "check": self.CHECK}
        accepted, rejected = validate_candidates(DIGEST, [bad, good])
        assert [p.question for p in accepted] == ["How far apart?"]
        assert rejected[0][0] is bad and reason in rejected[0][1]
