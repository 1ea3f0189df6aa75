"""Client layer: caching, fixtures, retries, hermeticity."""

import json
import shutil
import urllib.request
from types import SimpleNamespace

import pytest

from spatialqa.clients import (
    Client,
    ClientConfig,
    ClientError,
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
        with pytest.raises(ClientError, match="no fixture for request key"):
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
        assert "failed after 3 attempts" in str(e.value)
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
        ("timeout_s", 10**400, "timeout_s must be a finite number > 0"),
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


# ROADMAP item 4's hostile values, each put in place of a whole reply or
# of its one field
HOSTILE = [None, "x", -1, 0, 1e308, float("nan"), [], {}, [1, 2],
           "../../etc/passwd", True, 10**400]
REQUESTS = {
    "grounder": {"image_id": "i", "caption": "a red chair"},
    "judge": {"item_id": "1", "question": "q", "answer": "a",
              "response": "r"},
    "problem-generator": {"version": 1, "image_id": "i", "objects": []},
}
FIELDS = {"grounder": "boxes", "judge": "verdict",
          "problem-generator": "candidates"}
# hostile field values the role's rules accept: no box, no candidate, and
# candidates that qa.problem.validate_candidates rejects one by one
VALID = {("grounder", "[]"), ("problem-generator", "[]"),
         ("problem-generator", "[1, 2]")}


def _stored_client(tmp_path, role, where, reply):
    """A client whose cache or fixture directory holds ``reply`` to the
    role's request, the path of that file, and the cache directory."""
    fixtures, cache = tmp_path / "fx", tmp_path / "cache"
    path = record_fixture(fixtures if where == "fixture" else cache, role,
                          REQUESTS[role], reply)
    client = Client(ClientConfig(role=role, fixture_dir=str(fixtures),
                                 cache_dir=str(cache)))
    return client, path, cache


def _upstream(monkeypatch, body: bytes):
    class FakeResponse:
        def __enter__(self):
            return self

        def __exit__(self, *a):
            return False

        def read(self):
            return body

    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda req, timeout=None: FakeResponse())


class TestReplies:
    @pytest.mark.parametrize("where", ["cache", "fixture"])
    @pytest.mark.parametrize("shape", ["reply", "field"])
    @pytest.mark.parametrize("role", sorted(REQUESTS))
    @pytest.mark.parametrize("value", HOSTILE, ids=repr)
    def test_hostile_stored_reply(self, tmp_path, role, shape, where, value):
        reply = value if shape == "reply" else {FIELDS[role]: value}
        client, path, cache = _stored_client(tmp_path, role, where, reply)
        if shape == "field" and (role, repr(value)) in VALID:
            assert client.call(REQUESTS[role]) == reply
            return
        with pytest.raises(ClientError) as e:
            client.call(REQUESTS[role])
        assert str(e.value).startswith(f"client {role!r}: {path}: reply")
        if where == "fixture":  # a bad reply is never cached
            assert not cache.exists()

    @pytest.mark.parametrize("body, match", [
        (b'{"request": ', "invalid JSON"),
        (b"\xff\xfe{}", "invalid JSON"),
        (b"[" * 100_000, "invalid JSON"),
        (b"[1, 2]", "not a stored reply to this request"),
        (json.dumps({"request": {"item_id": "2"},
                     "response": {"verdict": "match"}}).encode(),
         "not a stored reply to this request"),
    ], ids=["truncated", "not-utf8", "nested-too-deep", "not-object",
            "other-request"])
    def test_bad_stored_file(self, tmp_path, body, match):
        client, path, _ = _stored_client(tmp_path, "judge", "fixture",
                                         {"verdict": "match"})
        path.write_bytes(body)
        with pytest.raises(ClientError, match=f"client 'judge': .*{match}"):
            client.call(REQUESTS["judge"])

    @pytest.mark.parametrize("body", [b'{"verdict": "Match"}', b"[]",
                                      b'{"verdict": null}'])
    def test_bad_upstream_reply_not_cached(self, tmp_path, monkeypatch,
                                           body):
        _upstream(monkeypatch, body)
        cache = tmp_path / "cache"
        client = Client(ClientConfig(role="judge", endpoint="http://x/judge",
                                     cache_dir=str(cache)))
        with pytest.raises(ClientError,
                           match=r"client 'judge': http://x/judge: reply"):
            client.call(REQUESTS["judge"])
        assert not cache.exists()

    def test_good_upstream_reply_cached_as_fixture(self, tmp_path,
                                                   monkeypatch):
        _upstream(monkeypatch, b'{"verdict": "mismatch"}')
        cache = tmp_path / "cache"
        client = Client(ClientConfig(role="judge", endpoint="http://x/judge",
                                     cache_dir=str(cache)))
        assert client.call(REQUESTS["judge"]) == {"verdict": "mismatch"}
        stored = record_fixture(tmp_path / "fx", "judge", REQUESTS["judge"],
                                {"verdict": "mismatch"})
        [cached] = (cache / "judge").glob("*.json")
        assert cached.name == stored.name
        assert cached.read_bytes() == stored.read_bytes()


@pytest.fixture(scope="module")
def oracle2(tmp_path_factory):
    """Scenes 0:2 with problem-generator fixtures, their corpus, and the
    judge request and responses file of the first judged item."""
    from spatialqa.cli import main
    from spatialqa.evalharness import judged
    from spatialqa.oracle.gen import generate_dataset
    from spatialqa.pipeline import read_corpus

    root = tmp_path_factory.mktemp("oracle2")
    data = generate_dataset(range(0, 2), root / "ds", problem_fixtures=True)
    config = root / "config.json"
    config.write_text(json.dumps({"clients": {"problem-generator": {
        "fixture_dir": str(data.fixture_dir)}}}))
    assert main(["generate", "--manifest", str(data.manifest_path),
                 "--out", str(root / "g"), "--config", str(config)]) == 0
    corpus = root / "g" / "corpus.jsonl"
    item = next(i for i in read_corpus(corpus) if judged(i))
    responses = root / "responses.jsonl"
    responses.write_text(json.dumps({"item_id": item["item_id"],
                                     "response": item["answer"]}) + "\n")
    return SimpleNamespace(
        data=data, corpus=corpus, responses=responses,
        judge_request={"item_id": item["item_id"],
                       "question": item["prompt"], "answer": item["answer"],
                       "response": item["answer"]})


class TestCliReplies:
    def test_bad_judge_fixture_exits_2(self, oracle2, tmp_path, capsys):
        from spatialqa.cli import main

        path = record_fixture(tmp_path / "fx", "judge",
                              oracle2.judge_request, {"verdict": "Match"})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "clients": {"judge": {"fixture_dir": str(tmp_path / "fx")}},
            "cache_dir": str(tmp_path / "cache")}))
        assert main(["evaluate", "--corpus", str(oracle2.corpus),
                     "--responses", str(oracle2.responses),
                     "--out", str(tmp_path / "r"),
                     "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: client 'judge': {path}: ")
        assert not (tmp_path / "cache").exists()

    def test_bad_generator_fixture_fails_its_image(self, oracle2, tmp_path):
        from spatialqa.cli import main

        fixtures = tmp_path / "fx"
        shutil.copytree(oracle2.data.fixture_dir, fixtures)
        path = min((fixtures / "problem-generator").glob("*.json"))
        stored = json.loads(path.read_text())
        record_fixture(fixtures, "problem-generator", stored["request"],
                       {"candidates": "x"})
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"clients": {"problem-generator": {
            "fixture_dir": str(fixtures)}}}))
        out = tmp_path / "o"
        assert main(["generate", "--manifest",
                     str(oracle2.data.manifest_path), "--out", str(out),
                     "--config", str(config)]) == 1
        statuses = json.loads((out / "ledger.json").read_text())["statuses"]
        victim = statuses.pop(stored["request"]["image_id"])
        assert victim["status"] == "failed"
        assert victim["reason"].startswith(
            f"ClientError: client 'problem-generator': {path}: ")
        assert [s["status"] for s in statuses.values()] == ["done"]
        assert (out / "corpus.jsonl").stat().st_size > 0
