"""Configuration loading: the file is the only source; the environment
sets nothing."""

import json
import re
from pathlib import Path

import pytest

from spatialqa.config import ConfigError, config_from_dict, load_config


class TestLoadConfig:
    def test_defaults(self):
        config = load_config(None)
        assert config.workers == 1
        assert config.seed == 0
        assert config.band == "tight"

    def test_file_values(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "workers": 4, "seed": 11, "band": "wide",
            "clients": {"judge": {"fixture_dir": "/fx"}},
            "tag_include": ["photo"],
        }))
        config = load_config(path)
        assert config.workers == 4
        assert config.band == "wide"
        assert config.clients["judge"]["fixture_dir"] == "/fx"
        assert config.tag_include == ["photo"]

    def test_unknown_guard_key_rejected(self, tmp_path):
        # guard bands and synthesis caps are constants, not config keys
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"synth": {"guards": {"depth_tie_margin_m": 0.3}}}))
        with pytest.raises(ConfigError, match="unknown keys.*synth"):
            load_config(path)

    def test_bad_band_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"band": "loose"}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"worker": 2, "sed": 5}))
        with pytest.raises(ConfigError, match="sed.*worker"):
            load_config(path)

    @pytest.mark.parametrize("body", [b"\xff\xfe{}", b"[" * 100_000],
                             ids=["not-utf8", "nested-too-deep"])
    def test_invalid_json_rejected(self, tmp_path, body):
        path = tmp_path / "config.json"
        path.write_bytes(body)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: "):
            load_config(path)

    @pytest.mark.parametrize("workers", [-3, 0, 2.7, True, "2"])
    def test_bad_workers_in_file_rejected(self, tmp_path, workers):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workers": workers}))
        with pytest.raises(ConfigError, match="workers must be an integer"):
            load_config(path)

    @pytest.mark.parametrize("env", [
        {"SPATIALQA_WORKERS": "-3"},
        {"SPATIALQA_WORKERS": "0"},
        {"SPATIALQA_WORKERS": "two"},
        {"SPATIALQA_WORKERS": "8", "SPATIALQA_SEED": "3",
         "SPATIALQA_BAND": "wide", "SPATIALQA_CACHE_DIR": "/cc"},
    ], ids=["-3", "0", "two", "all"])
    def test_environment_is_ignored(self, tmp_path, monkeypatch, env):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workers": 4, "seed": 11}))
        config = load_config(path)
        assert (config.workers, config.seed, config.band,
                config.cache_dir) == (4, 11, "tight", None)

    @pytest.mark.parametrize("tag_include", [
        "photo", [1], {"include": ["photo"]},
    ])
    def test_bad_tag_include_rejected(self, tmp_path, tag_include):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tag_include": tag_include}))
        with pytest.raises(ConfigError,
                           match="tag_include must be a list of strings"):
            load_config(path)

    def test_defaults_are_fresh_containers(self):
        a, b = config_from_dict({}), config_from_dict({})
        assert a.clients is not b.clients
        assert a.tag_include is not b.tag_include
        a.clients["judge"] = {"fixture_dir": "/fx"}
        a.tag_include.append("photo")
        assert (load_config(None).clients, load_config(None).tag_include) \
            == ({}, [])


def test_readme_configuration_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "config.json"
    path.write_text(example)
    config = load_config(path)
    assert config.workers == json.loads(example)["workers"]
