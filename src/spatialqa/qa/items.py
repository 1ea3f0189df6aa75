"""QA item schema, task families and sampling configuration."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1

# family -> hierarchy level
FAMILIES: dict[str, int] = {
    "point_querying": 0,
    "depth_ordering": 0,
    "object_orientation": 1,
    "object_size": 1,
    "object_localization": 1,
    "relative_direction": 2,
    "relative_distance": 2,
    "relational_comparison": 2,
    "perspective_taking": 3,
    "spatial_counting": 3,
    "problem_solving": 3,
}

FORMATS = ("free-form", "mcq", "true-false")

# training-mix fractions per family (sum to 1)
DEFAULT_WEIGHTS: dict[str, float] = {
    "point_querying": 0.1051,
    "depth_ordering": 0.0269,
    "object_orientation": 0.0351,
    "object_size": 0.1156,
    "object_localization": 0.0831,
    "relative_direction": 0.2609,
    "relative_distance": 0.1349,
    "relational_comparison": 0.1153,
    "perspective_taking": 0.0422,
    "spatial_counting": 0.0752,
    "problem_solving": 0.0057,
}

PAYLOAD_KINDS = ("quantity", "vector3", "unit-vector", "label", "count")


class QAError(Exception):
    pass


@dataclass
class Payload:
    """Machine-checkable ground truth behind an answer."""

    kind: str
    value: float | int | str | list
    unit: str | None = None

    def __post_init__(self):
        if self.kind not in PAYLOAD_KINDS:
            raise QAError(f"unknown payload kind {self.kind!r}")
        if isinstance(self.value, np.ndarray):
            self.value = [float(v) for v in self.value]
        elif isinstance(self.value, (np.floating, np.integer)):
            self.value = self.value.item()

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "value": self.value}
        if self.unit:
            d["unit"] = self.unit
        return d


@dataclass
class QAItem:
    item_id: str
    image_id: str
    family: str
    format: str
    prompt: str
    answer_text: str
    payload: Payload
    options: list[str] | None = None       # mcq only, exactly 4
    provenance: dict = field(default_factory=dict)

    @property
    def level(self) -> int:
        return FAMILIES[self.family]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise QAError(f"unknown family {self.family!r}")
        if self.format not in FORMATS:
            raise QAError(f"unknown format {self.format!r}")
        if self.format == "mcq":
            if not self.options or len(self.options) != 4:
                raise QAError("mcq items need exactly 4 options")
            if len(set(self.options)) != 4:
                raise QAError("mcq options must be distinct")
            if self.answer_text not in ("A", "B", "C", "D"):
                raise QAError(f"mcq answer must be a letter, got {self.answer_text!r}")
        if self.format == "true-false" and self.answer_text not in ("True", "False"):
            raise QAError(f"true-false answer must be True/False, got "
                          f"{self.answer_text!r}")

    def to_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "item_id": self.item_id,
            "image_id": self.image_id,
            "level": self.level,
            "family": self.family,
            "format": self.format,
            "prompt": self.prompt,
            "answer": self.answer_text,
            "payload": self.payload.to_dict(),
            "provenance": self.provenance,
        }
        if self.options is not None:
            d["options"] = self.options
        return d

    def to_json(self) -> str:
        return canonical_json(self.to_dict())


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass
class SamplingConfig:
    """Per-family sampling weights plus the general-VQA mix ratio."""

    weights: dict[str, float] = field(default_factory=lambda: dict(DEFAULT_WEIGHTS))
    general_mix: tuple[int, int] = (1, 7)   # general : spatial

    def __post_init__(self):
        unknown = set(self.weights) - set(FAMILIES)
        if unknown:
            raise QAError(f"unknown families in weights: {sorted(unknown)}")
        if any(w < 0 for w in self.weights.values()):
            raise QAError("weights must be nonnegative")
        total = sum(self.weights.values())
        if abs(total - 1.0) > 1e-9:
            raise QAError(f"weights sum to {total!r}, expected 1")

    @property
    def families(self) -> list[str]:
        return sorted(self.weights)

    def sample_families(self, rng: np.random.Generator, n: int) -> list[str]:
        """Draw n task families i.i.d. from the configured distribution."""
        fams = self.families
        probs = np.array([self.weights[f] for f in fams], dtype=float)
        probs = probs / probs.sum()
        idx = rng.choice(len(fams), size=n, p=probs)
        return [fams[i] for i in idx]

    def plan_mixture(self, n_total: int) -> tuple[int, int]:
        """Split a corpus budget into (general, spatial) counts."""
        g, s = self.general_mix
        n_general = round(n_total * g / (g + s))
        return n_general, n_total - n_general


def derive_seed(base_seed: int, image_id: str) -> int:
    """Stable per-image seed so output is independent of scheduling."""
    digest = hashlib.sha256(f"{base_seed}:{image_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
