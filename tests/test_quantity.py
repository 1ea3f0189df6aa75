"""Quantity formatting and parsing round trips."""

import numpy as np
import pytest

from spatialqa.quantity import (
    PRINT_RESOLUTION_M,
    format_point,
    format_quantity,
    format_unit_vector,
    parse_quantity,
    parse_triple,
)


class TestFormat:
    def test_meters_two_decimals(self):
        assert format_quantity(2.345) == "2.35 meters"

    def test_centimeters_below_one(self):
        assert format_quantity(0.42) == "42 centimeters"

    def test_boundary_exactly_one(self):
        assert format_quantity(1.0) == "1.00 meters"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_quantity(-0.1)


class TestParse:
    def test_plain_meters(self):
        assert parse_quantity("about 2.4 meters") == pytest.approx(2.4)

    def test_centimeters(self):
        assert parse_quantity("120 cm") == pytest.approx(1.2)

    def test_millimeters_and_feet(self):
        assert parse_quantity("1500 mm") == pytest.approx(1.5)
        assert parse_quantity("10 feet") == pytest.approx(3.048)

    def test_takes_final_quantity(self):
        text = "The table is 2 meters from the wall, so the answer is 50 cm."
        assert parse_quantity(text) == pytest.approx(0.5)

    def test_bare_number_is_meters(self):
        assert parse_quantity("roughly 3.5") == pytest.approx(3.5)

    def test_no_number_returns_none(self):
        assert parse_quantity("no idea") is None

    def test_unit_without_space(self):
        assert parse_quantity("2.4m") == pytest.approx(2.4)

    @pytest.mark.parametrize("text, meters", [
        ("12 in", 0.3048), ("12 in.", 0.3048), ("12 inches", 0.3048),
        ("It is 12 in, I think", 0.3048),
        # the preposition, with a word after it, is no unit
        ("It is 1.5 m. There are 2 in the scene.", 1.5),
        ("roughly 3 in front", 3.0), ("3 In Front", 3.0),
    ])
    def test_in_is_inches_only_with_no_word_after_it(self, text, meters):
        assert parse_quantity(text) == pytest.approx(meters)


class TestRoundTrip:
    def test_1000_random_values_within_half_ulp(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(0.01, 50.0, size=1000)
        for v in values:
            text = format_quantity(float(v))
            back = parse_quantity(text)
            assert back is not None
            assert abs(back - v) <= PRINT_RESOLUTION_M / 2 + 1e-12


class TestTriples:
    def test_point_roundtrip(self):
        text = format_point([0.524, -0.2, 3.1])
        assert text == "(0.52, -0.20, 3.10) meters"
        assert parse_triple(text) == pytest.approx((0.52, -0.2, 3.1))

    def test_unit_vector(self):
        assert format_unit_vector([1, 0, 0]) == "(1.00, 0.00, 0.00)"

    def test_parse_takes_last_triple(self):
        text = "from (1.0, 2.0, 3.0) the point is at (0.00, 0.10, 2.00)"
        assert parse_triple(text) == pytest.approx((0.0, 0.1, 2.0))

    def test_no_triple(self):
        assert parse_triple("2.4 meters") is None
