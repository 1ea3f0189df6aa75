"""Prompt-only probe over the GT reference corpus: a responder that never
sees the image must not beat chance from the prompt and the options alone
(the blind baselines of "Making the V in VQA Matter", CVPR 2017, and of
MMStar, 2024).

An MCQ is built only for a label question whose options are all answers
the question admits, so no option can be ruled out or singled out from
the text: not by its rank among numbers, not by naming an axis the
question does not ask about, and not by being a label no object can get.
"""

import math
import re
from collections import Counter

import pytest

from spatialqa.pipeline import read_corpus
from spatialqa.relations import ORIENTATION_LABELS

# |observed - expected| within this many binomial standard deviations
SIGMAS = 4.0

SUPERLATIVE = re.compile(r"\b(closest|farthest|narrowest|widest|shortest|"
                         r"tallest|smallest|largest)\b")


@pytest.fixture(scope="module")
def corpus(reference) -> list[dict]:
    return read_corpus(reference.gt)


@pytest.fixture(scope="module")
def mcqs(corpus) -> list[dict]:
    items = [item for item in corpus if item["format"] == "mcq"]
    assert items
    return items


def _extreme(item: dict) -> bool:
    return item["provenance"].get("mode") in ("extreme-min", "extreme-max")


def _within_chance(hits: int, n: int, p: float) -> bool:
    return abs(hits - n * p) <= SIGMAS * math.sqrt(n * p * (1.0 - p))


class TestPromptOnlyProbe:
    def test_mcqs_are_label_questions_with_admitted_options(self, mcqs):
        bad = [item["item_id"] for item in mcqs
               if item["payload"]["kind"] != "label"
               or item["family"] in ("relative_direction",
                                     "perspective_taking")
               or item["provenance"].get("mode") == "full-order"]
        assert bad == []

    def test_every_option_is_an_answer_the_question_admits(self, mcqs):
        bad = []
        for item in mcqs:
            if item["family"] == "object_orientation":
                admitted = set(ORIENTATION_LABELS)
            elif item["family"] == "relational_comparison" and \
                    _extreme(item):
                admitted = set(item["provenance"]["texts"].values())
            else:
                admitted = set()
            if not set(item["options"]) <= admitted:
                bad.append(f"{item['item_id']}: {item['options']}")
        assert bad == []

    def test_two_listed_objects_take_no_superlative(self, corpus):
        """The reference texts themselves may be superlatives ("the
        tallest chair"), so they are cut out of the prompt first."""
        items = [item for item in corpus
                 if item["family"] == "relational_comparison"
                 and _extreme(item)
                 and len(item["provenance"]["objects"]) == 2]
        assert items
        bad = []
        for item in items:
            prompt = item["prompt"]
            for text in item["provenance"]["texts"].values():
                prompt = prompt.replace(text, "")
            if SUPERLATIVE.search(prompt):
                bad.append(item["prompt"])
        assert bad == []

    def test_answer_letters_and_true_at_chance(self, corpus, mcqs):
        letters = Counter(item["answer"] for item in mcqs)
        for letter in "ABCD":
            assert _within_chance(letters[letter], len(mcqs), 0.25), letters
        statements = [item for item in corpus
                      if item["format"] == "true-false"]
        true_n = sum(item["answer"] == "True" for item in statements)
        assert _within_chance(true_n, len(statements), 0.5), \
            (true_n, len(statements))
