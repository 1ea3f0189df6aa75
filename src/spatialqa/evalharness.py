"""Scoring of model responses and benchmark report generation.

Rules, all boundaries inclusive:

  ratio-tight     pred/gt in [0.75, 1.25]
  ratio-wide      pred/gt in [0.5, 2.0]
  direction-30deg angle(pred, gt) <= 30 degrees between unit vectors
  problem-25pct   numeric problem answers within 25% (the same ratio band
                  as ratio-tight); judgement answers by judge verdict when
                  cached, else normalized exact match
  mcq             option letter, or the option's text as whole tokens
                  after normalization and no other option's
  true-false      True/False after normalization
  label-exact     normalized label match (the truth token must appear)
  count-exact     the final number, an integer, matches exactly
  vector-relative relative Euclidean error of a 3D point <= 25%

Parse failures and missing responses are incorrect but tracked separately
so report consumers can distinguish them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .quantity import _BARE_NUMBER_RE, parse_quantity, parse_triple

TIGHT_BAND = (0.75, 1.25)
WIDE_BAND = (0.5, 2.0)
DIRECTION_LIMIT_DEG = 30.0
VECTOR_TOLERANCE = 0.25

_ARTICLES = re.compile(r"\b(a|an|the)\b")
_NON_ALNUM = re.compile(r"[^a-z0-9\s.-]")
_WS = re.compile(r"\s+")


class EvalError(Exception):
    pass


@dataclass
class EvalRecord:
    item_id: str
    raw_response: str | None
    rule: str
    correct: bool
    parsed: float | str | list | None = None
    error: float | None = None          # ratio, degrees or relative error
    family: str | None = None
    level: int | None = None
    format: str | None = None
    note: str | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None
                or k in ("raw_response", "correct")}


def normalize_text(text: str) -> str:
    t = text.strip().lower()
    t = _NON_ALNUM.sub(" ", t)
    t = _ARTICLES.sub(" ", t)
    return _WS.sub(" ", t).strip()


def _light_normalize(text: str) -> str:
    """Lowercase and strip punctuation but keep articles (an MCQ letter
    "a" would otherwise vanish)."""
    t = text.strip().lower()
    t = _NON_ALNUM.sub(" ", t)
    return _WS.sub(" ", t).strip()


# ---------------------------------------------------------------------------
# Scoring primitives
# ---------------------------------------------------------------------------

def score_ratio(pred: float, gt: float, band: str = "tight") -> tuple[bool, float]:
    """(correct, pred/gt ratio); boundaries inclusive."""
    if gt <= 0:
        raise EvalError(f"ratio scoring requires positive ground truth, got {gt}")
    lo, hi = TIGHT_BAND if band == "tight" else WIDE_BAND
    ratio = pred / gt
    return lo <= ratio <= hi, ratio


def score_direction(pred, gt) -> tuple[bool, float]:
    """(correct, angular error in degrees); 30 degrees inclusive."""
    p = np.asarray(pred, dtype=float)
    g = np.asarray(gt, dtype=float)
    pn, gn = np.linalg.norm(p), np.linalg.norm(g)
    if pn == 0 or gn == 0:
        return False, 180.0
    cos = float(np.clip(np.dot(p / pn, g / gn), -1.0, 1.0))
    angle = math.degrees(math.acos(cos))
    return angle <= DIRECTION_LIMIT_DEG, angle


def score_mcq(response: str, gt_letter: str,
              options: list[str] | None = None) -> bool:
    """Extract the chosen option letter or match full option text.

    Tries, in order: a leading letter ("B", "(b) ..."), an announced
    letter ("the answer is B"), a unique standalone letter anywhere, and
    finally the option text itself.
    """
    light = _light_normalize(response)
    if not light:
        return False
    gt = gt_letter.lower()
    m = re.match(r"^\(?([a-d])\)?(?![a-z0-9])", light)
    if m:
        return m.group(1) == gt
    m = re.search(r"(?:answer|option|choice)(?:\s+is)?\s*:?\s*\(?([a-d])\)?"
                  r"(?![a-z0-9])", light)
    if m:
        return m.group(1) == gt
    standalone = set(re.findall(r"(?:^|\s)\(?([a-d])\)?(?![a-z0-9])", light))
    if len(standalone) == 1:
        return standalone.pop() == gt
    if options:
        norm = normalize_text(response)
        correct_text = normalize_text(options["ABCD".index(gt_letter)])
        if correct_text and _holds(norm, correct_text):
            others = [normalize_text(o) for i, o in enumerate(options)
                      if "ABCD"[i] != gt_letter]
            if not any(_holds(norm, o) for o in others if o):
                return True
    return False


_TF_WORD = re.compile(r"\b(not )?(true|yes|correct|false|no|incorrect)\b")


def score_tf(response: str, gt: str) -> bool:
    """Correct when every True/False word of the response reads one way:
    "not" turns the word after it ("not true" is False, "not incorrect"
    True), and a response that reads both ways is incorrect."""
    norm = normalize_text(response)
    readings = {(word in ("true", "yes", "correct")) != bool(negated)
                for negated, word in _TF_WORD.findall(norm)}
    if norm in ("t", "f"):
        readings.add(norm == "t")
    return readings == {gt == "True"}


def _holds(norm: str, phrase: str) -> bool:
    """Does normalized text ``norm`` hold ``phrase`` as whole tokens?
    Tokens end at a space, a sentence's closing period or the end of the
    text: "1" is in "it is 1." but not in "10", "1.5" or "1e999"."""
    return bool(re.search(rf"(?:^|\s){re.escape(phrase)}\.?(?:$|\s)",
                          norm))


def score_label(response: str, gt: str) -> bool:
    return _holds(normalize_text(response), normalize_text(gt))


# ---------------------------------------------------------------------------
# Item-level dispatch
# ---------------------------------------------------------------------------

def judged(item: dict) -> bool:
    """Is ``item`` scored by a judge verdict when there is one?  True for
    the free-form problem items whose answer is a label."""
    return (item["family"] == "problem_solving"
            and item["format"] == "free-form"
            and item["payload"]["kind"] == "label")


def score_item(item: dict, response: str | None,
               judge_verdict: str | None = None,
               band: str = "tight") -> EvalRecord:
    """Score one response against a corpus line (see ``check_item``).

    Problem items use rule ``problem-25pct``: numeric answers at the tight
    band, ``judged`` answers by the judge verdict (``"match"`` or
    ``"mismatch"``, as the client checks it) when there is one and by
    label match when not.
    """
    rec = EvalRecord(item_id=item["item_id"], raw_response=response,
                     rule="missing", correct=False, family=item["family"],
                     level=item["level"], format=item["format"])
    if response is None:
        rec.note = "missing"
        return rec

    kind, value = item["payload"]["kind"], item["payload"]["value"]
    problem = item["family"] == "problem_solving"
    if item["format"] == "mcq":
        rec.rule = "mcq"
        rec.correct = score_mcq(response, item["answer"], item["options"])
    elif item["format"] == "true-false":
        rec.rule = "true-false"
        rec.correct = score_tf(response, item["answer"])
    elif judged(item):
        rec.rule = "problem-25pct"
        if judge_verdict is not None:
            rec.correct = judge_verdict == "match"
            rec.note = "judge-verdict"
        else:
            rec.correct = score_label(response, str(value))
    elif kind in ("quantity", "unit-vector", "vector3"):
        if kind == "quantity":
            rec.rule = "problem-25pct" if problem else f"ratio-{band}"
            pred = parse_quantity(response)
        else:
            rec.rule = "direction-30deg" if kind == "unit-vector" \
                else "vector-relative"
            pred = parse_triple(response)
        if pred is None:
            rec.note = "parse-failure"
        elif kind == "quantity":
            rec.parsed = pred
            rec.correct, rec.error = score_ratio(
                pred, float(value), "tight" if problem else band)
        elif kind == "unit-vector":
            rec.parsed = list(pred)
            rec.correct, rec.error = score_direction(pred, value)
        else:
            rec.parsed = list(pred)
            gt = np.asarray(value, dtype=float)
            err = float(np.linalg.norm(np.asarray(pred) - gt))
            rec.error = err / max(float(np.linalg.norm(gt)), 1e-9)
            rec.correct = rec.error <= VECTOR_TOLERANCE
    elif kind == "count":
        rec.rule = "count-exact"
        numbers = _BARE_NUMBER_RE.findall(response)
        try:
            # the final number, as for quantities; int() refuses "2.5",
            # "1e999" and more digits than it converts
            rec.parsed = int(numbers[-1])
        except (IndexError, ValueError):
            rec.note = "parse-failure"
        else:
            rec.correct = rec.parsed == int(value)
    else:
        rec.rule = "label-exact"
        rec.correct = score_label(response, str(value))
    return rec


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def _accuracy(records: list[EvalRecord]) -> dict:
    n = len(records)
    correct = sum(1 for r in records if r.correct)
    entry = {"n": n, "correct": correct}
    entry["accuracy"] = correct / n if n else None
    return entry


def report(records: list[EvalRecord]) -> dict:
    """``{"overall", "groups", "missing"}``: accuracy overall and per group
    of each axis (``groups[axis][key]``); groups with n=0 are simply
    absent, and overall accuracy is None (undefined marker) when no
    records exist."""
    groups = {}
    for axis in ("family", "level", "format", "rule"):
        table: dict[str, list] = {}
        for rec in records:
            table.setdefault(str(getattr(rec, axis)), []).append(rec)
        groups[axis] = {k: _accuracy(v) for k, v in sorted(table.items())}
    return {"overall": _accuracy(records), "groups": groups,
            "missing": sum(1 for r in records if r.rule == "missing")}


def render_report(rep: dict) -> str:
    lines = []
    overall = rep["overall"]
    acc = overall["accuracy"]
    acc_text = f"{acc * 100:.2f}%" if acc is not None else "n/a (n=0)"
    lines.append(f"overall  n={overall['n']}  accuracy={acc_text}")
    if rep["missing"]:
        lines.append(f"missing responses: {rep['missing']}")
    for axis, table in rep["groups"].items():
        lines.append("")
        lines.append(f"by {axis}:")
        width = max((len(k) for k in table), default=0)
        for key, entry in table.items():
            acc = entry["accuracy"]
            acc_text = f"{acc * 100:6.2f}%" if acc is not None else "   n/a"
            lines.append(f"  {key:<{width}}  n={entry['n']:<6d} "
                         f"correct={entry['correct']:<6d} {acc_text}")
    return "\n".join(lines) + "\n"
