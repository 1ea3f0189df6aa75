"""Pipeline configuration: JSON file plus SPATIALQA_* environment overrides.

Config file keys (all optional):

  workers        int, parallel image workers (default 1)
  seed           int, corpus seed (default 0)
  band           "tight" | "wide", quantitative scoring band
  synth          candidate caps; "guards" holds the guard-band overrides
  clients        {role: {"endpoint" | "fixture_dir", "cache_dir", ...}}
  tag_filter     {"include": [...], "exclude": [...]}
  cache_dir      default client cache directory

Environment overrides (take precedence over the file):
  SPATIALQA_WORKERS, SPATIALQA_SEED, SPATIALQA_BAND, SPATIALQA_CACHE_DIR

An unknown key (at the top level, in ``synth``, ``synth.guards`` or
``tag_filter``), a ``tag_filter`` exclude list without an include list, a
bad value, malformed JSON or a file that is not a JSON object raises
``ConfigError``; the CLI prints it as ``error: ...`` and exits 2.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .qa.synth import SynthConfig
from .relations import GuardConfig

ENV_PREFIX = "SPATIALQA_"


class ConfigError(Exception):
    pass


@dataclass
class PipelineConfig:
    workers: int = 1
    seed: int = 0
    band: str = "tight"
    synth: SynthConfig = field(default_factory=SynthConfig)
    clients: dict[str, dict] = field(default_factory=dict)
    tag_include: list[str] = field(default_factory=list)
    tag_exclude: list[str] = field(default_factory=list)
    cache_dir: str | None = None


def _guards_from_dict(d: dict) -> GuardConfig:
    fields = {f.name for f in dataclasses.fields(GuardConfig)}
    unknown = set(d) - fields
    if unknown:
        raise ConfigError(f"unknown guard keys: {sorted(unknown)}")
    return GuardConfig(**d)


def _synth_from_dict(d: dict) -> SynthConfig:
    d = dict(d)
    guards = _guards_from_dict(d.pop("guards", {}))
    if "size_dimensions" in d:
        d["size_dimensions"] = tuple(d["size_dimensions"])
    fields = {f.name for f in dataclasses.fields(SynthConfig)} - {"guards"}
    unknown = set(d) - fields
    if unknown:
        raise ConfigError(f"unknown synth keys: {sorted(unknown)}")
    return SynthConfig(guards=guards, **d)


def _tags_from_dict(d: dict) -> tuple[list[str], list[str]]:
    unknown = set(d) - {"include", "exclude"}
    if unknown:
        raise ConfigError(f"unknown tag_filter keys: {sorted(unknown)}")
    include, exclude = list(d.get("include", [])), list(d.get("exclude", []))
    if exclude and not include:
        # the vote counts include tags only, so every tagged image would
        # be skipped
        raise ConfigError("tag_filter: exclude needs a non-empty include")
    return include, exclude


_KEYS = {"workers", "seed", "band", "synth", "clients", "tag_filter",
         "cache_dir"}


def config_from_dict(raw: dict) -> PipelineConfig:
    unknown = set(raw) - _KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    band = raw.get("band", "tight")
    if band not in ("tight", "wide"):
        raise ConfigError(f"band must be tight or wide, got {band!r}")
    try:
        tag_include, tag_exclude = _tags_from_dict(raw.get("tag_filter", {}))
        return PipelineConfig(
            workers=int(raw.get("workers", 1)),
            seed=int(raw.get("seed", 0)),
            band=band,
            synth=_synth_from_dict(raw.get("synth", {})),
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
            config.workers = int(env[f"{ENV_PREFIX}WORKERS"])
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
