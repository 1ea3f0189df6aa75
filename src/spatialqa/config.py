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

An unknown key (at the top level or in ``tag_filter``), a ``tag_filter``
include or exclude that is not a list of strings, a tag in both, an
exclude list without an include list, a bad value, malformed JSON or a
file that is not a JSON object raises ``ConfigError``; the CLI prints it
as ``error: ...`` and exits 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


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


def _tags_from_dict(d: dict) -> tuple[list[str], list[str]]:
    unknown = set(d) - {"include", "exclude"}
    if unknown:
        raise ConfigError(f"unknown tag_filter keys: {sorted(unknown)}")
    include, exclude = d.get("include", []), d.get("exclude", [])
    for name, tags in (("include", include), ("exclude", exclude)):
        if not (isinstance(tags, list)
                and all(isinstance(t, str) for t in tags)):
            raise ConfigError(f"tag_filter: {name} must be a list of "
                              f"strings, got {tags!r}")
    overlap = set(include) & set(exclude)
    if overlap:
        raise ConfigError(f"tag_filter: tags in both include and exclude: "
                          f"{sorted(overlap)}")
    if exclude and not include:
        # the vote counts include tags only, so every tagged image would
        # be skipped
        raise ConfigError("tag_filter: exclude needs a non-empty include")
    return include, exclude


def check_int(value, source: str, least: int | None = None) -> int:
    """``value`` if it is an integer (not a bool), and >= ``least`` when
    given; else ConfigError naming ``source``."""
    if (isinstance(value, bool) or not isinstance(value, int)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ConfigError(f"{source} must be an integer{bound}, got {value!r}")
    return value


_KEYS = {"workers", "seed", "band", "clients", "tag_filter", "cache_dir"}


def config_from_dict(raw: dict) -> PipelineConfig:
    unknown = set(raw) - _KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    band = raw.get("band", "tight")
    if band not in ("tight", "wide"):
        raise ConfigError(f"band must be tight or wide, got {band!r}")
    if not isinstance(raw.get("clients", {}), dict):
        raise ConfigError(f"clients must be an object, got {raw['clients']!r}")
    cache_dir = raw.get("cache_dir")
    if cache_dir is not None and not isinstance(cache_dir, str):
        raise ConfigError(f"cache_dir must be a string, got {cache_dir!r}")
    try:
        tag_include, tag_exclude = _tags_from_dict(raw.get("tag_filter", {}))
        return PipelineConfig(
            workers=check_int(raw.get("workers", 1), "workers", least=1),
            seed=check_int(raw.get("seed", 0), "seed"),
            band=band,
            clients=raw.get("clients", {}),
            tag_include=tag_include,
            tag_exclude=tag_exclude,
            cache_dir=cache_dir,
        )
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"bad config: {e}") from e


def load_config(path: str | Path | None = None) -> PipelineConfig:
    """The config file at ``path``, or the defaults when there is none."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: not a JSON object")
    return config_from_dict(raw)
