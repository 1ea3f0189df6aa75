"""Configuration loading and environment overrides."""

import json
import re
from pathlib import Path

import pytest

from spatialqa.config import ConfigError, load_config


class TestLoadConfig:
    def test_defaults(self):
        config = load_config(None, env={})
        assert config.workers == 1
        assert config.seed == 0
        assert config.band == "tight"

    def test_file_values(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "workers": 4, "seed": 11, "band": "wide",
            "clients": {"judge": {"fixture_dir": "/fx"}},
            "tag_filter": {"include": ["photo"], "exclude": ["chart"]},
        }))
        config = load_config(path, env={})
        assert config.workers == 4
        assert config.band == "wide"
        assert config.clients["judge"]["fixture_dir"] == "/fx"
        assert config.tag_include == ["photo"]

    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workers": 4, "seed": 11}))
        config = load_config(path, env={"SPATIALQA_WORKERS": "8",
                                        "SPATIALQA_SEED": "3",
                                        "SPATIALQA_BAND": "wide",
                                        "SPATIALQA_CACHE_DIR": "/cc"})
        assert config.workers == 8
        assert config.seed == 3
        assert config.band == "wide"
        assert config.cache_dir == "/cc"

    def test_unknown_guard_key_rejected(self, tmp_path):
        # guard bands and synthesis caps are constants, not config keys
        path = tmp_path / "config.json"
        path.write_text(json.dumps(
            {"synth": {"guards": {"depth_tie_margin_m": 0.3}}}))
        with pytest.raises(ConfigError, match="unknown config keys.*synth"):
            load_config(path, env={})

    def test_bad_band_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"band": "loose"}))
        with pytest.raises(ConfigError):
            load_config(path, env={})

    def test_unknown_top_level_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"worker": 2, "sed": 5}))
        with pytest.raises(ConfigError, match="sed.*worker"):
            load_config(path, env={})

    @pytest.mark.parametrize("workers", [-3, 0, 2.7, True, "2"])
    def test_bad_workers_in_file_rejected(self, tmp_path, workers):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"workers": workers}))
        with pytest.raises(ConfigError, match="workers must be an integer"):
            load_config(path, env={})

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_bad_workers_in_env_rejected(self, workers):
        with pytest.raises(ConfigError,
                           match="SPATIALQA_WORKERS must be an integer"):
            load_config(None, env={"SPATIALQA_WORKERS": workers})

    def test_bad_env_value_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, env={"SPATIALQA_WORKERS": "two"})

    @pytest.mark.parametrize("tag_filter, match", [
        ({"includes": ["photo"]}, "includes"),
        ({"include": ["photo"], "exlude": ["chart"]}, "exlude"),
        ({"exclude": ["chart"]}, "exclude needs"),
        ({"include": [], "exclude": ["chart"]}, "exclude needs"),
        ({"include": ["photo"], "exclude": ["photo"]}, "both.*photo"),
        ({"include": "photo"}, "include must be a list"),
        ({"include": ["photo"], "exclude": "chart"}, "exclude must be a list"),
        ({"include": [1]}, "include must be a list"),
    ])
    def test_bad_tag_filter_rejected(self, tmp_path, tag_filter, match):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tag_filter": tag_filter}))
        with pytest.raises(ConfigError, match=match):
            load_config(path, env={})

    def test_include_only_tag_filter_accepted(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"tag_filter": {"include": ["photo"]}}))
        config = load_config(path, env={})
        assert (config.tag_include, config.tag_exclude) == (["photo"], [])


def test_readme_configuration_example_loads(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    example = re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)
    path = tmp_path / "config.json"
    path.write_text(example)
    config = load_config(path, env={})
    assert config.workers == json.loads(example)["workers"]
