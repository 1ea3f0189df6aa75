"""MCQ option construction rules."""

from collections import Counter

import numpy as np

from spatialqa.qa.mcq import make_mcq, render_options
from spatialqa.relations import ORIENTATION_LABELS


class TestLabelOptions:
    def test_needs_three_distractors(self):
        rng = np.random.default_rng(0)
        assert make_mcq("left", ["left", "right"], rng) is None
        assert make_mcq("first", ["first", "second"], rng) is None
        assert make_mcq("similar", ["similar", "orthogonal", "opposite"],
                        rng) is None
        options, _ = make_mcq("left", ["right", "front", "behind"], rng)
        assert sorted(options) == ["behind", "front", "left", "right"]


class TestMakeMcq:
    def test_label_mcq(self):
        rng = np.random.default_rng(1)
        options, letter = make_mcq("left", list(ORIENTATION_LABELS), rng)
        assert options["ABCD".index(letter)] == "left"
        assert sorted(options) == sorted(ORIENTATION_LABELS)

    def test_options_come_from_the_pool(self):
        pool = ["the chair", "the table", "the lamp", "the sofa", "the bed"]
        drawn = Counter()
        for seed in range(400):
            options, letter = make_mcq("the lamp", pool,
                                       np.random.default_rng(seed))
            assert len(set(options)) == 4 and set(options) <= set(pool)
            assert options["ABCD".index(letter)] == "the lamp"
            drawn.update(options)
        # each of the 4 other labels is one of 3 distractors: 300 of 400
        assert drawn["the lamp"] == 400
        assert all(250 < drawn[label] < 350
                   for label in pool if label != "the lamp")

    def test_truth_letter_uniform(self):
        letters = Counter(
            make_mcq("back", list(ORIENTATION_LABELS),
                     np.random.default_rng(seed))[1]
            for seed in range(800))
        assert set(letters) == set("ABCD")
        assert all(150 < n < 250 for n in letters.values())

    def test_seeded_order(self):
        a = make_mcq("left", list(ORIENTATION_LABELS),
                     np.random.default_rng(5))
        b = make_mcq("left", list(ORIENTATION_LABELS),
                     np.random.default_rng(5))
        assert a == b

    def test_render(self):
        text = render_options(["w", "x", "y", "z"])
        assert text.splitlines() == ["(A) w", "(B) x", "(C) y", "(D) z"]
