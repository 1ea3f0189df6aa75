"""The rule engine that checks every record the program reads.

A record is a JSON object: a manifest or corpus line, a responses line,
the config file or a client spec.  Each kind states its rules as a table
of ``(field, test, wanted)``: ``check`` applies them in order and raises
for the first field whose value fails its test, naming the field, the
value and what was wanted.  A missing field reads as null, and a dotted
field is checked only when its parent, checked before it, is not null.
``only(keys)`` is the rule that an object holds no other key.

``read_jsonl`` applies a parser to each line of a JSON-lines file and
names the file and line of the first bad one.  ``canonical_json`` is the
form in which the program writes a record and keys a client request.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, Iterator


class ManifestError(Exception):
    """Schema violation in a JSON-lines record; the message says where."""


# How a broken rule of the config file or a client spec reads; a line of a
# JSON-lines file reads "{key} {value!r} {wanted}".
MUST_BE = "{key} must be {wanted}, got {value!r}"


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def integer(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def finite(v) -> bool:
    """A number a float holds: not nan, inf or an int beyond its range."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def numbers(n: int) -> Callable[[Any], bool]:
    return lambda v: (isinstance(v, list) and len(v) == n
                      and all(map(finite, v)))


def boxes(v) -> bool:
    """A list of [x0, y0, x1, y1] finite-number lists."""
    return isinstance(v, list) and all(map(numbers(4), v))


def strings(v) -> bool:
    return isinstance(v, list) and all(isinstance(s, str) for s in v)


def text(v) -> bool:
    return isinstance(v, str)


def is_object(v) -> bool:
    return isinstance(v, dict)


def or_null(ok: Callable[[Any], bool]) -> Callable[[Any], bool]:
    return lambda v: v is None or ok(v)


SIZE = (lambda v: integer(v) and v >= 1, "is not an integer >= 1")
POSITIVE = (lambda v: finite(v) and v > 0, "is not a positive number")
FINITE = (finite, "is not a finite number")
FRACTION = (lambda v: finite(v) and 0 <= v <= 1, "is not a number in [0, 1]")
TEXT = (text, "is not a string")
OBJECT = (is_object, "is not an object")


def only(keys, within: str = "") -> tuple:
    """The rule that the object at ``within`` (the record itself when
    empty) holds no key outside ``keys``."""
    return (f"{within}.*" if within else "*", frozenset(keys).__contains__,
            "unknown keys")


def check(d: dict, rules, error: Callable[[str], Exception] = ManifestError,
          form: str = "{key} {value!r} {wanted}") -> dict:
    """``d`` if it breaks none of ``rules``; else ``error`` of the first
    broken rule, worded by ``form`` (an ``only`` rule lists the unknown
    keys instead)."""
    for key, ok, wanted in rules:
        parent, _, leaf = key.rpartition(".")
        owner = d.get(parent) if parent else d
        if owner is None:
            continue
        if leaf == "*":
            unknown = [k for k in owner if not ok(k)]
            if unknown:
                where = f"{parent}: " if parent else ""
                raise error(f"{where}{wanted} {sorted(unknown)}")
        elif not ok(owner.get(leaf)):
            raise error(form.format(key=key, value=owner.get(leaf),
                                    wanted=wanted))
    return d


def records(path, parse: Callable[[Any], Any]) -> Iterator[tuple[int, Any]]:
    """(line number, ``parse(record)``) for each non-blank line.  Invalid
    UTF-8 or JSON, or a record that ``parse`` rejects with a
    ManifestError, AttributeError, KeyError, TypeError or ValueError,
    gives a ManifestError naming the file and line instead."""
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                record = parse(json.loads(line.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError,
                    RecursionError) as e:
                record = ManifestError(f"{path} line {lineno}: invalid "
                                       f"JSON: {e}")
            except ManifestError as e:
                record = ManifestError(f"{path} line {lineno}: {e}")
            except (AttributeError, KeyError, TypeError, ValueError) as e:
                record = ManifestError(f"{path} line {lineno}: bad "
                                       f"record: {e!r}")
            yield lineno, record


def read_jsonl(path, parse: Callable[[Any], Any]) -> list:
    """``parse`` applied to each record of a JSON-lines file, in order;
    blank lines are ignored, and the first bad line raises its
    ManifestError (see ``records``)."""
    parsed = []
    for _, record in records(path, parse):
        if isinstance(record, ManifestError):
            raise record
        parsed.append(record)
    return parsed


def unique(key: str, parse: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``parse`` that also rejects a record whose ``key`` repeats that of
    an earlier record it accepted."""
    seen: set = set()

    def parse_unique(d):
        record = parse(d)
        if d[key] in seen:
            raise ManifestError(f"duplicate {key} {d[key]!r}")
        seen.add(d[key])
        return record
    return parse_unique
