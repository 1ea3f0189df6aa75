"""Pipeline configuration: JSON file plus SPATIALQA_* environment overrides.

Config file keys (all optional):

  workers        int >= 1, parallel image workers (default 1)
  seed           int, corpus seed (default 0)
  band           "tight" | "wide", quantitative scoring band
  clients        {role: {"endpoint" | "fixture_dir", "cache_dir", ...}}
  tag_filter     {"include": [...], "exclude": [...]}
  cache_dir      default client cache directory

Environment overrides (take precedence over the file):
  SPATIALQA_WORKERS, SPATIALQA_SEED, SPATIALQA_BAND, SPATIALQA_CACHE_DIR

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
import os
from dataclasses import dataclass, field
from pathlib import Path

ENV_PREFIX = "SPATIALQA_"


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


def check_workers(value, source: str) -> int:
    """``value`` if it is an integer >= 1, else ConfigError naming
    ``source``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{source} must be an integer >= 1, got {value!r}")
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
    try:
        tag_include, tag_exclude = _tags_from_dict(raw.get("tag_filter", {}))
        return PipelineConfig(
            workers=check_workers(raw.get("workers", 1), "workers"),
            seed=int(raw.get("seed", 0)),
            band=band,
            clients=raw.get("clients", {}),
            tag_include=tag_include,
            tag_exclude=tag_exclude,
            cache_dir=raw.get("cache_dir"),
        )
    except (AttributeError, TypeError, ValueError) as e:
        raise ConfigError(f"bad config: {e}") from e


def load_config(path: str | Path | None = None,
                env: dict | None = None) -> PipelineConfig:
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: {e}") from e
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: not a JSON object")
    config = config_from_dict(raw)
    env = os.environ if env is None else env
    try:
        if f"{ENV_PREFIX}WORKERS" in env:
            config.workers = check_workers(int(env[f"{ENV_PREFIX}WORKERS"]),
                                           f"{ENV_PREFIX}WORKERS")
        if f"{ENV_PREFIX}SEED" in env:
            config.seed = int(env[f"{ENV_PREFIX}SEED"])
    except ValueError as e:
        raise ConfigError(f"bad {ENV_PREFIX}* override: {e}") from e
    if f"{ENV_PREFIX}BAND" in env:
        config.band = env[f"{ENV_PREFIX}BAND"]
        if config.band not in ("tight", "wide"):
            raise ConfigError(f"bad {ENV_PREFIX}BAND {config.band!r}")
    if f"{ENV_PREFIX}CACHE_DIR" in env:
        config.cache_dir = env[f"{ENV_PREFIX}CACHE_DIR"]
    return config
