"""Prompt templates: several paraphrases per family, seeded choice.

``TEMPLATES`` maps a template key to {format: [template, ...]}.
"free-form" templates phrase the question; "true-false" templates phrase
a declarative statement (the True/False suffix is appended by the
synthesizer); MCQ reuses the free-form question with an option block.
Placeholders are named; the synthesizer formats each template with the
fields listed per family below.
"""

from __future__ import annotations

import numpy as np

# placeholders by family:
#   point_querying      u, v, stated (tf)
#   depth_ordering      u1, v1, u2, v2
#   object_orientation  ref, stated (tf)
#   object_size         ref, dimension, stated (tf)
#   object_localization ref, stated (tf)
#   relative_direction  a, b, choice ("above or below" etc.), stated (tf)
#   relative_distance   a, b, component_phrase, stated (tf)
#   relational_comparison  listing, superlative / low, high, stated (tf)
#   perspective_taking  anchor, target, choice, stated (tf)
#   spatial_counting    categories (see plural), relation_phrase, anchor,
#                       stated (tf)
TEMPLATES: dict[str, dict[str, list[str]]] = {
    "point_querying": {
        "free-form": [
            "What are the 3D coordinates, in meters, of the point at pixel ({u}, {v})?",
            "Give the camera-frame 3D position of the image point at pixel ({u}, {v}).",
            "Report the metric 3D coordinates of the point shown at pixel ({u}, {v}).",
        ],
        "true-false": [
            "The point at pixel ({u}, {v}) is located at {stated}.",
        ],
    },
    "depth_ordering": {
        "free-form": [
            "Of the two pixels ({u1}, {v1}) and ({u2}, {v2}), which one shows the point closer to the camera? Answer 'first' or 'second'.",
            "Compare the depths at pixel ({u1}, {v1}) and pixel ({u2}, {v2}): is the first or the second closer to the camera?",
        ],
        "true-false": [
            "Of the pixels ({u1}, {v1}) and ({u2}, {v2}), the {stated} one shows the point closer to the camera.",
        ],
    },
    "object_orientation": {
        "free-form": [
            "Which direction is {ref} facing?",
            "From the camera's viewpoint, what direction does {ref} face?",
        ],
        "true-false": [
            "{ref} is facing {stated}.",
        ],
    },
    "object_size": {
        "free-form": [
            "What is the {dimension} of {ref}?",
            "Estimate the {dimension} of {ref} in metric units.",
            "How large is the {dimension} of {ref}?",
        ],
        "true-false": [
            "The {dimension} of {ref} is {stated}.",
        ],
    },
    "object_localization": {
        "free-form": [
            "What are the 3D coordinates of the center of {ref}?",
            "Give the camera-frame position of {ref} in meters.",
        ],
        "true-false": [
            "The center of {ref} is located at {stated}.",
        ],
    },
    "object_camera_distance": {
        # phrasing variant of object_localization (aspect camera-distance)
        "free-form": [
            "How far is {ref} from the camera?",
            "What is the distance between the camera and {ref}?",
        ],
        "true-false": [
            "{ref} is {stated} away from the camera.",
        ],
    },
    "relative_direction": {
        "free-form": [
            "Compared with {a}, is {b} {choice}?",
            "Relative to {a}, is {b} {choice}?",
        ],
        "true-false": [
            "{b} is {stated} {a}.",
        ],
    },
    "relative_direction_precise": {
        "free-form": [
            "What is the unit direction vector, in the camera frame, pointing from {a} to {b}?",
            "Give the camera-frame unit vector from {a} toward {b}.",
        ],
    },
    "relative_distance": {
        "free-form": [
            "What is the {component_phrase} between {a} and {b}?",
            "How large is the {component_phrase} separating {a} and {b}?",
        ],
        "true-false": [
            "The {component_phrase} between {a} and {b} is {stated}.",
        ],
    },
    "relational_comparison": {
        "free-form": [
            "Among {listing}, which one is {superlative}?",
            "Consider {listing}: which of them is {superlative}?",
        ],
        "true-false": [
            "Among {listing}, {stated} is {superlative}.",
        ],
    },
    "relational_order": {
        "free-form": [
            "Order the following from {low} to {high}: {listing}.",
        ],
        "true-false": [
            "Ordered from {low} to {high}, the sequence is: {stated}.",
        ],
    },
    "orientation_consistency": {
        "free-form": [
            "How do the facing directions of {a} and {b} compare: similar, orthogonal, or opposite?",
        ],
        "true-false": [
            "The facing directions of {a} and {b} are {stated}.",
        ],
    },
    "perspective_taking": {
        "free-form": [
            "Imagine standing at {anchor} and facing the way it faces. Is {target} {choice} from that viewpoint?",
            "From the viewpoint of {anchor} (looking along its facing direction), is {target} {choice}?",
        ],
        "true-false": [
            "Seen from {anchor}, facing its way, {target} is {stated}.",
        ],
    },
    "perspective_distance": {
        "free-form": [
            "Imagine standing at {anchor}. How far away is {target}?",
        ],
        "true-false": [
            "Standing at {anchor}, {target} is {stated} away.",
        ],
    },
    "spatial_counting": {
        "free-form": [
            "How many {categories} are {relation_phrase} {anchor}?",
            "Count the {categories} that are {relation_phrase} {anchor}.",
        ],
        "true-false": [
            "The number of {categories} {relation_phrase} {anchor} is {stated}.",
        ],
    },
}

TF_SUFFIX = " True or False?"
MCQ_INSTRUCTION = "Answer with the letter of the correct option."


def plural(noun: str) -> str:
    """English plural of a category name: "bench" -> "benches",
    "library" -> "libraries", "shelf" -> "shelves", "chair" -> "chairs"."""
    if noun.endswith(("s", "x", "z", "ch", "sh")):
        return noun + "es"
    if len(noun) > 1 and noun[-1] == "y" and noun[-2] not in "aeiou":
        return noun[:-1] + "ies"
    if noun.endswith("lf"):
        return noun[:-1] + "ves"
    return noun + "s"


def pick_template(rng: np.random.Generator, key: str, fmt: str) -> str:
    """One of the ``fmt`` paraphrases of ``key``, drawn from ``rng``."""
    options = TEMPLATES[key][fmt]
    return options[int(rng.integers(0, len(options)))]
