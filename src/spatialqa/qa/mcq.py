"""Multiple-choice options: the truth and three other labels from a pool
of labels, every one of which the question admits as an answer."""

from __future__ import annotations

import numpy as np

from .items import LETTERS


def make_mcq(value: str, pool: list[str], rng: np.random.Generator
             ) -> tuple[list[str], str] | None:
    """Four shuffled options, ``value`` and three other labels drawn from
    ``pool``, and the letter of ``value``; None when the pool holds fewer
    than three other labels."""
    others = [label for label in pool if label != value]
    if len(others) < 3:
        return None
    options = [value] + [others[i] for i in rng.permutation(len(others))[:3]]
    rng.shuffle(options)
    return options, LETTERS[options.index(value)]


def render_options(options: list[str]) -> str:
    return "\n".join(f"({letter}) {text}"
                     for letter, text in zip(LETTERS, options))
