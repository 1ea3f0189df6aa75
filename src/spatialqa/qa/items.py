"""QA item schema and task families."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..schema import (OBJECT, POSITIVE, TEXT, ManifestError, check, integer,
                      numbers, only, strings)

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

PAYLOAD_KINDS = ("quantity", "vector3", "unit-vector", "label", "count")

# (field, test, what a value that fails it is), as read by schema.check:
# the rules of every line, then those of its format and its payload kind.
_ITEM_RULES = (
    ("schema_version", lambda v: integer(v) and v == SCHEMA_VERSION,
     f"is not {SCHEMA_VERSION}"),
    ("item_id", *TEXT), ("image_id", *TEXT),
    ("family", lambda v: isinstance(v, str) and v in FAMILIES,
     "is not a known family"),
    ("format", lambda v: v in FORMATS, f"is not one of {', '.join(FORMATS)}"),
    ("prompt", *TEXT), ("answer", *TEXT),
    ("payload", *OBJECT),
    ("payload.kind", lambda v: v in PAYLOAD_KINDS,
     f"is not one of {', '.join(PAYLOAD_KINDS)}"),
    ("provenance", *OBJECT),
)
_KEYS = ("schema_version", "item_id", "image_id", "level", "family", "format",
         "prompt", "answer", "payload", "provenance")
_FORMAT_RULES = {
    "free-form": (only(_KEYS),),
    "mcq": (("options", lambda v: strings(v) and len(v) == len(set(v)) == 4,
             "is not 4 distinct strings"),
            ("answer", lambda v: v in ("A", "B", "C", "D"),
             "is not a letter A-D"),
            only(_KEYS + ("options",))),
    "true-false": (("answer", lambda v: v in ("True", "False"),
                    "is not 'True' or 'False'"),
                   only(_KEYS)),
}
_VECTOR = (("payload.value", numbers(3), "is not 3 finite numbers"),)
_VALUE_RULES = {
    "quantity": (("payload.value", *POSITIVE),),
    "count": (("payload.value", lambda v: integer(v) and v >= 0,
               "is not an integer >= 0"),),
    "label": (("payload.value", *TEXT),),
    "vector3": _VECTOR, "unit-vector": _VECTOR,
}


def check_item(d: dict) -> dict:
    """``d`` if it is a well-formed corpus line, else a ManifestError
    naming the first field that breaks a rule.  ``QAItem.to_json`` checks
    each line it writes, ``pipeline.read_corpus`` each line it reads."""
    check(d, _ITEM_RULES)
    check(d, _FORMAT_RULES[d["format"]])
    check(d, _VALUE_RULES[d["payload"]["kind"]])
    level = FAMILIES[d["family"]]
    if not (integer(d.get("level")) and d["level"] == level):
        raise ManifestError(f"level {d.get('level')!r} is not {level}, the "
                            f"level of {d['family']}")
    return d


@dataclass
class QAItem:
    item_id: str
    image_id: str
    family: str
    format: str
    prompt: str
    answer_text: str
    payload: dict      # machine-checkable truth: {"kind", "value", "unit"?}
    options: list[str] | None = None       # mcq only, exactly 4
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        d = {
            "schema_version": SCHEMA_VERSION,
            "item_id": self.item_id,
            "image_id": self.image_id,
            "level": FAMILIES.get(self.family),
            "family": self.family,
            "format": self.format,
            "prompt": self.prompt,
            "answer": self.answer_text,
            "payload": self.payload,
            "provenance": self.provenance,
        }
        if self.options is not None:
            d["options"] = self.options
        return d

    def to_json(self) -> str:
        """The corpus line of this item (see ``check_item``)."""
        return canonical_json(check_item(self.to_dict()))


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def derive_seed(base_seed: int, image_id: str) -> int:
    """Stable per-image seed so output is independent of scheduling."""
    digest = hashlib.sha256(f"{base_seed}:{image_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")
