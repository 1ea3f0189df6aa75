"""Client layer: caching, fixtures, retries, hermeticity."""

import json
import urllib.request

import pytest

from spatialqa.clients import (
    Client,
    ClientConfig,
    ClientError,
    FixtureMissError,
    build_clients,
    record_fixture,
    request_key,
)


class TestRequestKey:
    def test_stable_and_role_scoped(self):
        req = {"b": 1, "a": [2, 3]}
        assert request_key("judge", req) == request_key("judge", dict(req))
        assert request_key("judge", req) != request_key("grounder", req)


class TestFixtureMode:
    def test_fixture_replay(self, tmp_path):
        request = {"image_id": "i", "caption": "a red chair"}
        response = {"boxes": [[1, 2, 3, 4]]}
        record_fixture(tmp_path, "grounder", request, response)
        client = Client(ClientConfig(role="grounder",
                                     fixture_dir=str(tmp_path)))
        assert client.call(request) == response
        assert client.call(dict(request)) == response  # stable key

    def test_fixture_miss_is_error(self, tmp_path):
        client = Client(ClientConfig(role="grounder",
                                     fixture_dir=str(tmp_path)))
        with pytest.raises(FixtureMissError):
            client.call({"image_id": "unknown", "caption": "x"})

    def test_no_network_in_fixture_mode(self, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise AssertionError("network touched in fixture mode")
        monkeypatch.setattr(urllib.request, "urlopen", explode)
        request = {"item_id": "i", "question": "q", "answer": "a",
                   "response": "r"}
        record_fixture(tmp_path, "judge", request, {"verdict": "match"})
        client = Client(ClientConfig(role="judge", fixture_dir=str(tmp_path)))
        assert client.call(request)["verdict"] == "match"


class TestCache:
    def test_cache_prevents_second_upstream_call(self, tmp_path, monkeypatch):
        calls = []

        class FakeResponse:
            def __enter__(self):
                return self

            def __exit__(self, *a):
                return False

            def read(self):
                return json.dumps({"verdict": "match"}).encode()

        def fake_urlopen(req, timeout=None):
            calls.append(req)
            return FakeResponse()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        client = Client(ClientConfig(role="judge", endpoint="http://x/judge",
                                     cache_dir=str(tmp_path / "cache")))
        request = {"item_id": "1", "question": "q", "answer": "a",
                   "response": "r"}
        assert client.call(request)["verdict"] == "match"
        assert client.call(request)["verdict"] == "match"
        assert len(calls) == 1

        # a fresh client (new process) reuses the disk cache
        client2 = Client(ClientConfig(role="judge", endpoint="http://x/judge",
                                      cache_dir=str(tmp_path / "cache")))
        assert client2.call(request)["verdict"] == "match"
        assert len(calls) == 1

    def test_cache_file_is_auditable(self, tmp_path):
        record_fixture(tmp_path, "judge", {"q": 1}, {"verdict": "match"})
        files = list((tmp_path / "judge").glob("*.json"))
        assert len(files) == 1
        data = json.loads(files[0].read_text())
        assert data["request"] == {"q": 1}
        assert data["response"] == {"verdict": "match"}


class TestRetries:
    def test_bounded_attempts_then_error(self, tmp_path, monkeypatch):
        attempts = []

        def always_timeout(req, timeout=None):
            attempts.append(1)
            raise TimeoutError("slow")

        monkeypatch.setattr(urllib.request, "urlopen", always_timeout)
        client = Client(ClientConfig(role="grounder", endpoint="http://x/g",
                                     max_attempts=3, backoff_base_s=0.001))
        with pytest.raises(ClientError) as e:
            client.call({"image_id": "i", "caption": "c"})
        assert len(attempts) == 3
        assert e.value.attempts == 3
        assert "grounder" in str(e.value)


class TestBuildClients:
    def test_roles_and_default_cache(self, tmp_path):
        clients = build_clients(
            {"judge": {"fixture_dir": str(tmp_path)},
             "grounder": {"endpoint": "http://x"}},
            cache_dir=str(tmp_path / "cache"))
        assert clients["judge"].config.cache_dir == str(tmp_path / "cache")
        assert clients["grounder"].config.cache_dir == str(tmp_path / "cache")
        # the top-level cache_dir is the only one: a spec cannot set its own
        with pytest.raises(ClientError, match="unknown keys.*cache_dir"):
            build_clients({"grounder": {"endpoint": "http://x",
                                        "cache_dir": "/tmp/own"}},
                          cache_dir=str(tmp_path / "cache"))

    def test_unknown_role_rejected(self, tmp_path):
        with pytest.raises(ClientError):
            Client(ClientConfig(role="oracle", fixture_dir=str(tmp_path)))

    def test_unconfigured_client_rejected(self):
        with pytest.raises(ClientError):
            Client(ClientConfig(role="judge"))

    @pytest.mark.parametrize("spec, match", [
        ("http://x", "must be a JSON object"),
        (["http://x"], "must be a JSON object"),
        ({"fixture_dir": "fx", "timeout_s": "abc"},
         "timeout_s must be a finite number"),
        ({"fixture_dir": "fx", "max_attempts": [3]},
         "max_attempts must be an integer"),
        ({"fixture_dir": "fx", "cache-dir": "c"}, "unknown keys.*cache-dir"),
        ({"endpoint": 5}, "endpoint must be a string"),
        ({"fixture_dir": ["fx"]}, "fixture_dir must be a string"),
    ])
    def test_bad_spec_rejected(self, spec, match):
        with pytest.raises(ClientError, match=match):
            build_clients({"judge": spec})

    @pytest.mark.parametrize("key, value, match", [
        ("max_attempts", 0, "max_attempts must be an integer >= 1"),
        ("max_attempts", -2, "max_attempts must be an integer >= 1"),
        ("max_attempts", 2.7, "max_attempts must be an integer >= 1"),
        ("max_attempts", True, "max_attempts must be an integer >= 1"),
        ("timeout_s", 0, "timeout_s must be a finite number > 0"),
        ("timeout_s", -1.5, "timeout_s must be a finite number > 0"),
        ("backoff_base_s", -0.1,
         "backoff_base_s must be a finite number >= 0"),
    ])
    def test_unusable_number_rejected(self, key, value, match):
        with pytest.raises(ClientError, match=match):
            build_clients({"judge": {"fixture_dir": "fx", key: value}})
        with pytest.raises(ClientError, match=match):
            ClientConfig(role="judge", fixture_dir="fx", **{key: value})

    def test_zero_backoff_accepted(self):
        clients = build_clients({"judge": {"fixture_dir": "fx",
                                           "backoff_base_s": 0,
                                           "max_attempts": 1}})
        assert clients["judge"].config.backoff_base_s == 0
