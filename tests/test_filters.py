"""Image filter decision rules."""

import itertools

import pytest

from spatialqa.filters import heuristic_image_filter, tag_vote_filter


class TestHeuristicFilter:
    def test_white_over_threshold_discards(self):
        reasons = heuristic_image_filter(0.40, 0.0, 0.1)
        assert len(reasons) == 1
        assert "pure-pixel" in reasons[0]

    def test_all_zero_keeps(self):
        assert heuristic_image_filter(0.0, 0.0, 0.0) == []

    def test_invalid_depth_rule(self):
        reasons = heuristic_image_filter(0.10, 0.10, 0.51)
        assert len(reasons) == 1
        assert "invalid-depth" in reasons[0]

    def test_thresholds_are_strict(self):
        # exactly at the limits stays kept
        assert heuristic_image_filter(0.20, 0.15, 0.50) == []
        assert heuristic_image_filter(0.20, 0.151, 0.0)

    def test_summed_white_black(self):
        # neither color alone exceeds 0.35 but the sum does
        assert heuristic_image_filter(0.20, 0.20, 0.0)

    def test_monotone_never_flips_discard_to_keep(self):
        grid = [0.0, 0.1, 0.2, 0.3, 0.4, 0.6]
        for w, b, i in itertools.product(grid, repeat=3):
            base = heuristic_image_filter(w, b, i)
            for dw, db, di in ((0.2, 0, 0), (0, 0.2, 0), (0, 0, 0.2)):
                w2, b2, i2 = min(w + dw, 1.0), min(b + db, 1.0), min(i + di, 1.0)
                worse = heuristic_image_filter(w2, b2, i2)
                if base:
                    assert worse

    def test_fraction_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            heuristic_image_filter(1.2, 0.0, 0.0)


class TestTagVoteFilter:
    INCLUDE = {"photo", "outdoor", "indoor", "people", "street"}

    def test_three_of_five_keeps(self):
        tags = ["photo", "outdoor", "people", "chart", "text"]
        assert tag_vote_filter(tags, self.INCLUDE) is None

    def test_two_of_five_discards(self):
        tags = ["photo", "outdoor", "chart", "text", "code"]
        reason = tag_vote_filter(tags, self.INCLUDE)
        assert reason is not None
        assert "2/5" in reason

    def test_unanimous_keeps(self):
        tags = ["photo", "outdoor", "people", "street", "indoor"]
        assert tag_vote_filter(tags, self.INCLUDE) is None

    def test_unknown_tags_count_as_non_include(self):
        tags = ["photo", "outdoor", "mystery1", "mystery2", "mystery3"]
        assert tag_vote_filter(tags, self.INCLUDE) is not None

    def test_order_independent(self):
        tags = ["photo", "outdoor", "people", "chart", "text"]
        results = {
            tag_vote_filter(perm, self.INCLUDE)
            for perm in itertools.permutations(tags)
        }
        assert results == {None}

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            tag_vote_filter(["a"] * 4, self.INCLUDE)
