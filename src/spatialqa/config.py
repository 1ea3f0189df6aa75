"""Pipeline configuration: one JSON file, then the CLI flags.

Config file keys (all optional):

  workers        int >= 1, parallel image workers (default 1)
  seed           int (not a bool), corpus seed (default 0)
  band           "tight" | "wide", quantitative scoring band
  clients        {role: {"endpoint" | "fixture_dir", ...}}, see ``clients``
  tag_filter     {"include": [...], "exclude": [...]}
  cache_dir      string, the client cache directory of every role

The environment sets nothing: a run is fixed by its manifest, this file
and its command line.

Guard bands, per-scene synthesis caps and prompt templates are fixed
design values (constants in ``relations``, ``qa.synth`` and
``qa.templates``), not configuration.

``_RULES`` and ``_TAG_RULES`` state each key's type and range.  An
unknown key (at the top level or in ``tag_filter``), a bad value, a tag
in both include and exclude, an exclude list without an include list,
malformed JSON or a file that is not a JSON object raises
``ConfigError``; the CLI prints it as ``error: ...`` and exits 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .schema import (MUST_BE, check, integer, is_object, only, or_null,
                     strings, text)


class ConfigError(Exception):
    pass


@dataclass
class PipelineConfig:
    workers: int = 1
    seed: int = 0
    band: str = "tight"
    clients: dict[str, dict] = field(default_factory=dict)
    tag_include: list[str] = field(default_factory=list)
    tag_exclude: list[str] = field(default_factory=list)
    cache_dir: str | None = None


# a key absent from the file takes its value here; null is a value
_DEFAULTS = {"workers": 1, "seed": 0, "band": "tight", "clients": {},
             "tag_filter": {}, "cache_dir": None}
_TAG_DEFAULTS = {"include": [], "exclude": []}

# (key, test, what it must be), read by ``schema.check``
_RULES = (
    only(_DEFAULTS),
    ("workers", lambda v: integer(v) and v >= 1, "an integer >= 1"),
    ("seed", integer, "an integer"),
    ("band", lambda v: v in ("tight", "wide"), "tight or wide"),
    ("clients", is_object, "an object"),
    ("tag_filter", is_object, "an object"),
    only(_TAG_DEFAULTS, within="tag_filter"),
    ("cache_dir", or_null(text), "a string"),
)
_TAG_RULES = (  # on tag_filter, after its defaults
    ("include", strings, "a list of strings"),
    ("exclude", strings, "a list of strings"),
)


def config_from_dict(raw: dict) -> PipelineConfig:
    """The config of the file's object ``raw``."""
    check({"config": raw}, (("config", is_object, "a JSON object"),),
          ConfigError, MUST_BE)
    d = check({**_DEFAULTS, **raw}, _RULES, ConfigError, MUST_BE)
    tags = {**_TAG_DEFAULTS, **d["tag_filter"]}
    check(tags, _TAG_RULES, lambda m: ConfigError(f"tag_filter: {m}"),
          MUST_BE)
    include, exclude = tags["include"], tags["exclude"]
    overlap = set(include) & set(exclude)
    if overlap:
        raise ConfigError(f"tag_filter: tags in both include and exclude: "
                          f"{sorted(overlap)}")
    if exclude and not include:
        # the vote counts include tags only, so every tagged image would
        # be skipped
        raise ConfigError("tag_filter: exclude needs a non-empty include")
    return PipelineConfig(
        workers=d["workers"], seed=d["seed"], band=d["band"],
        clients=d["clients"], tag_include=include, tag_exclude=exclude,
        cache_dir=d["cache_dir"])


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """The config file at ``path``, or the defaults when there is none."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: {e}") from e
    return config_from_dict(raw)
