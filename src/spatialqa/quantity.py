"""Canonical metric quantity text and tolerant parsing of model responses.

Formatting rule: values of at least one meter print as "X.XX meters",
smaller values as whole centimeters.  Parsing normalizes m / cm / mm and
feet to meters and, because models often restate the question's numbers
before answering, takes the final quantity in the text.
"""

from __future__ import annotations

import re

METER_DECIMALS = 2
# Resolution of the printed text: both formats resolve to centimeters.
PRINT_RESOLUTION_M = 0.01

_UNIT_TO_METERS = {
    "m": 1.0, "meter": 1.0, "meters": 1.0, "metre": 1.0, "metres": 1.0,
    "cm": 0.01, "centimeter": 0.01, "centimeters": 0.01,
    "centimetre": 0.01, "centimetres": 0.01,
    "mm": 0.001, "millimeter": 0.001, "millimeters": 0.001,
    "millimetre": 0.001, "millimetres": 0.001,
    "km": 1000.0,
    "ft": 0.3048, "foot": 0.3048, "feet": 0.3048,
    "in": 0.0254, "inch": 0.0254, "inches": 0.0254,
}

# (?<!\d) changes no match; it keeps a failed match linear in a digit run
_NUMBER = r"(?<!\d)[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_UNIT = r"(?:km|mm|cm|m|metres?|meters?|centimetres?|centimeters?|" \
        r"millimetres?|millimeters?|ft|foot|feet|in|inch|inches)"
_QUANTITY_RE = re.compile(
    rf"({_NUMBER})\s*({_UNIT})\b", re.IGNORECASE)
_BARE_NUMBER_RE = re.compile(_NUMBER)
# A parsed value beyond this is unusable: scoring divides it by a truth or
# squares it, and either may overflow to a non-finite float.
MAX_MAGNITUDE = 1e100


def format_quantity(value_m: float) -> str:
    """Canonical text for a nonnegative metric value: meters at >= 1 m,
    whole centimeters below."""
    if value_m < 0:
        raise ValueError(f"quantities are nonnegative, got {value_m}")
    if value_m >= 1.0:
        return f"{value_m:.{METER_DECIMALS}f} meters"
    return f"{round(value_m * 100):d} centimeters"


def parse_quantity(text: str) -> float | None:
    """Final metric quantity in the text, in meters; None when absent or
    beyond ``MAX_MAGNITUDE`` (which takes in every non-finite value).

    A trailing bare number with no unit is read as meters.
    """
    matches = list(_QUANTITY_RE.finditer(text))
    if matches:
        m = matches[-1]
        value = float(m.group(1)) * _UNIT_TO_METERS[m.group(2).lower()]
    else:
        bare = list(_BARE_NUMBER_RE.finditer(text))
        if not bare:
            return None
        value = float(bare[-1].group(0))
    return value if abs(value) <= MAX_MAGNITUDE else None


def format_point(p) -> str:
    """Canonical text for a camera-frame point: "(x, y, z) meters"."""
    return f"{format_unit_vector(p)} meters"


def format_unit_vector(v) -> str:
    """Canonical text for a 3-vector: "(x, y, z)"."""
    x, y, z = (float(c) for c in v)
    d = METER_DECIMALS
    return f"({x:.{d}f}, {y:.{d}f}, {z:.{d}f})"


_TRIPLE_RE = re.compile(
    rf"\(\s*({_NUMBER})\s*,\s*({_NUMBER})\s*,\s*({_NUMBER})\s*\)")


def parse_triple(text: str) -> tuple[float, float, float] | None:
    """Final "(x, y, z)" triple in the text; None when absent or when a
    component is beyond ``MAX_MAGNITUDE``."""
    matches = list(_TRIPLE_RE.finditer(text))
    if not matches:
        return None
    triple = tuple(float(matches[-1].group(i)) for i in (1, 2, 3))
    return triple if max(map(abs, triple)) <= MAX_MAGNITUDE else None
