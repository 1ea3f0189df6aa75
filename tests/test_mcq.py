"""MCQ option construction rules."""

import numpy as np

from spatialqa.qa.mcq import (
    count_options,
    label_options,
    make_mcq,
    quantity_options,
    render_options,
)


class TestQuantityOptions:
    def test_multipliers(self):
        opts = quantity_options(2.0)
        assert opts == ["2.00 meters", "1.00 meters", "3.00 meters",
                        "5.00 meters"]

    def test_no_distractor_inside_scoring_band(self):
        # distractors at x0.5 / x1.5 / x2.5 never fall in [0.75, 1.25]
        for multiplier in (0.5, 1.5, 2.5):
            assert not 0.75 <= multiplier <= 1.25


class TestCountOptions:
    def test_zero(self):
        assert count_options(0) == ["0", "1", "2", "3"]

    def test_positive(self):
        assert count_options(3) == ["3", "2", "4", "5"]


class TestLabelOptions:
    def test_needs_three_distractors(self):
        assert label_options("left", ["left", "right"]) is None
        opts = label_options("left", ["right", "front", "behind", "above"])
        assert opts[0] == "left" and len(opts) == 4


class TestMakeMcq:
    def test_quantity_mcq_shuffled_with_correct_letter(self):
        rng = np.random.default_rng(0)
        out = make_mcq({"kind": "quantity", "value": 2.0, "unit": "m"}, rng)
        assert out is not None
        options, letter = out
        assert len(options) == 4 and len(set(options)) == 4
        assert options["ABCD".index(letter)] == "2.00 meters"

    def test_label_mcq(self):
        rng = np.random.default_rng(1)
        out = make_mcq({"kind": "label", "value": "left"}, rng,
                       label_pool=["left", "right", "front", "behind",
                                   "above", "below"])
        options, letter = out
        assert options["ABCD".index(letter)] == "left"

    def test_vector_payload_unsupported(self):
        rng = np.random.default_rng(2)
        assert make_mcq({"kind": "vector3", "value": [1, 2, 3]}, rng) is None

    def test_tiny_quantity_collision_refused(self):
        # centimeter rounding can collide for sub-centimeter values
        rng = np.random.default_rng(3)
        out = make_mcq({"kind": "quantity", "value": 0.001, "unit": "m"}, rng)
        assert out is None

    def test_seeded_order(self):
        a = make_mcq({"kind": "quantity", "value": 2.0, "unit": "m"},
                     np.random.default_rng(5))
        b = make_mcq({"kind": "quantity", "value": 2.0, "unit": "m"},
                     np.random.default_rng(5))
        assert a == b

    def test_render(self):
        text = render_options(["w", "x", "y", "z"])
        assert text.splitlines() == ["(A) w", "(B) x", "(C) y", "(D) z"]
