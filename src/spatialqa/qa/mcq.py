"""Multiple-choice option construction.

Numeric distractors sit at x0.5 / x1.5 / x2.5 of the truth so none of
them falls inside the 0.75-1.25x scoring band; label distractors come
from the family's label pool; counts use neighboring integers.
"""

from __future__ import annotations

import numpy as np

from ..quantity import format_quantity

NUMERIC_MULTIPLIERS = (0.5, 1.5, 2.5)
LETTERS = ("A", "B", "C", "D")

DIRECTION_LABELS = ("left", "right", "above", "below", "front", "behind")
# MCQ distractor pool of object_orientation items; the labels an object can
# actually get are relations.ORIENTATION_LABELS
FACING_LABELS = ("front", "back", "left", "right", "up", "down")


def quantity_options(value: float) -> list[str]:
    return [format_quantity(value)] + [
        format_quantity(value * m) for m in NUMERIC_MULTIPLIERS
    ]


def count_options(value: int) -> list[str]:
    if value == 0:
        distractors = [1, 2, 3]
    else:
        distractors = [value - 1, value + 1, value + 2]
    return [str(value)] + [str(d) for d in distractors]


def label_options(value: str, pool: list[str]) -> list[str] | None:
    """Truth plus three pool labels; None when the pool is too small."""
    distractors = [p for p in pool if p != value]
    if len(distractors) < 3:
        return None
    return [value] + distractors[:3]


def make_mcq(payload: dict, rng: np.random.Generator,
             label_pool: list[str] | None = None
             ) -> tuple[list[str], str] | None:
    """Four shuffled options and the correct letter; None when the payload
    kind cannot support a well-formed MCQ."""
    kind, value = payload["kind"], payload["value"]
    if kind == "quantity":
        raw = quantity_options(float(value))
    elif kind == "count":
        raw = count_options(int(value))
    elif kind == "label":
        if not label_pool:
            return None
        shuffled_pool = [label_pool[i]
                         for i in rng.permutation(len(label_pool))]
        raw = label_options(str(value), shuffled_pool)
        if raw is None:
            return None
    else:
        return None  # vectors are free-form material

    if len(set(raw)) != 4:
        return None  # formatting collisions (e.g. tiny quantities)
    order = rng.permutation(4)
    options = [raw[i] for i in order]
    correct = LETTERS[int(np.nonzero(order == 0)[0][0])]
    return options, correct


def render_options(options: list[str]) -> str:
    return "\n".join(f"({letter}) {text}"
                     for letter, text in zip(LETTERS, options))
