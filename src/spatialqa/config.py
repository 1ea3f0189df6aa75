"""Pipeline configuration: one JSON file, then the CLI flags.

Config file keys (all optional), each the ``PipelineConfig`` field it
sets:

  workers        int >= 1, parallel image workers (default 1)
  seed           int (not a bool), corpus seed (default 0)
  band           "tight" | "wide", quantitative scoring band
  clients        {role: {"endpoint" | "fixture_dir", ...}}, see ``clients``
  tag_include    [str, ...], the include tags of the tag vote (default
                 [], no vote)
  cache_dir      string, the client cache directory of every role

The environment sets nothing: a run is fixed by its manifest, this file
and its command line.

Guard bands, per-scene synthesis caps and prompt templates are fixed
design values (constants in ``relations``, ``qa.synth`` and
``qa.templates``), not configuration.

``_RULES`` states each key's type and range.  An unknown key, a bad
value, malformed JSON or a file that is not a JSON object raises
``ConfigError``; the CLI prints it as ``error: ...`` and exits 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
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
    cache_dir: str | None = None


# (key, test, what it must be), read by ``schema.check``
_RULES = (
    only(f.name for f in fields(PipelineConfig)),
    ("workers", lambda v: integer(v) and v >= 1, "an integer >= 1"),
    ("seed", integer, "an integer"),
    ("band", lambda v: v in ("tight", "wide"), "tight or wide"),
    ("clients", is_object, "an object"),
    ("tag_include", strings, "a list of strings"),
    ("cache_dir", or_null(text), "a string"),
)


def config_from_dict(raw: dict) -> PipelineConfig:
    """The config of the file's object ``raw``; a key absent from it
    takes its default (fresh containers each call), null is a value."""
    check({"config": raw}, (("config", is_object, "a JSON object"),),
          ConfigError, MUST_BE)
    return PipelineConfig(**check({**vars(PipelineConfig()), **raw}, _RULES,
                                  ConfigError, MUST_BE))


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """The config file at ``path``, or the defaults when there is none."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON
            raise ConfigError(f"{path}: {e}") from e
    return config_from_dict(raw)
