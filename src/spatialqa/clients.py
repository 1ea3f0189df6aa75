"""External-service clients with content-addressed caching and fixtures.

Every upstream model the pipeline calls (grounder, judge, problem
generator) is reached through the same request/response JSON discipline:

  request   role-specific JSON object (schemas below)
  response  role-specific JSON object
  key       sha256 of "role" + canonical request JSON

A client resolves a request in order: disk cache, fixture directory,
HTTP endpoint.  Fixture mode never touches the network; a cache miss in
fixture mode is an error.  Cache writes are write-then-rename so
concurrent workers cannot tear files.  Built clients pickle, so
``run_generate`` builds them once and hands them to its workers.

Role schemas:
  grounder            {"image_id", "caption"} ->
                      {"boxes": [[x0, y0, x1, y1], ...]}
  judge               {"item_id", "question", "answer", "response"} ->
                      {"verdict": "match" | "mismatch"}
  problem-generator   scene digest (see qa.problem) ->
                      {"candidates": [{question, kind, value?, answer?,
                                       check}, ...]}

A role's spec in the config file holds the keys of ``_SPEC_RULES`` only:
``endpoint`` and ``fixture_dir`` (strings), ``timeout_s``, ``max_attempts``
and ``backoff_base_s``.  Every role caches under the config's top-level
``cache_dir``; a spec cannot set its own.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .schema import (MUST_BE, check, finite, integer, is_object, only,
                     or_null, text)

ROLES = ("grounder", "judge", "problem-generator")


class ClientError(Exception):
    def __init__(self, role: str, message: str, attempts: int = 0):
        super().__init__(f"client {role!r}: {message}")
        self.role = role
        self.attempts = attempts


class FixtureMissError(ClientError):
    pass


def request_key(role: str, request: dict) -> str:
    blob = role + "\n" + json.dumps(request, sort_keys=True,
                                    separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# (key, test, what it must be), read by ``schema.check``
_SPEC_RULES = (
    ("endpoint", or_null(text), "a string"),
    ("fixture_dir", or_null(text), "a string"),
    ("max_attempts", lambda v: integer(v) and v >= 1, "an integer >= 1"),
    ("timeout_s", lambda v: finite(v) and v > 0, "a finite number > 0"),
    ("backoff_base_s", lambda v: finite(v) and v >= 0,
     "a finite number >= 0"),
)
_SPEC_SHAPE = (("spec", is_object, "a JSON object"),
               only([key for key, _, _ in _SPEC_RULES], within="spec"))


@dataclass
class ClientConfig:
    role: str
    endpoint: str | None = None
    fixture_dir: str | None = None
    cache_dir: str | None = None
    timeout_s: float = 10.0
    max_attempts: int = 3
    backoff_base_s: float = 0.1

    def __post_init__(self):
        """Reject a field that breaks ``_SPEC_RULES``."""
        check(vars(self), _SPEC_RULES,
              functools.partial(ClientError, self.role), MUST_BE)


class Client:
    """One upstream role; resolution order cache -> fixture -> endpoint."""

    def __init__(self, config: ClientConfig):
        if config.role not in ROLES:
            raise ClientError(config.role, "unknown role")
        if config.endpoint is None and config.fixture_dir is None:
            raise ClientError(config.role,
                              "needs an endpoint or a fixture directory")
        self.config = config

    def _cache_path(self, key: str) -> Path | None:
        if self.config.cache_dir is None:
            return None
        return Path(self.config.cache_dir) / self.config.role / f"{key}.json"

    def call(self, request: dict) -> dict:
        key = request_key(self.config.role, request)
        cache_path = self._cache_path(key)
        if cache_path is not None and cache_path.exists():
            return json.loads(cache_path.read_text(encoding="utf-8"))["response"]

        if self.config.fixture_dir is not None:
            fixture = (Path(self.config.fixture_dir) / self.config.role
                       / f"{key}.json")
            if not fixture.exists():
                raise FixtureMissError(
                    self.config.role,
                    f"no fixture for request key {key} "
                    f"(request={json.dumps(request, sort_keys=True)[:200]})")
            response = json.loads(
                fixture.read_text(encoding="utf-8"))["response"]
        else:
            response = self._http(request)

        if cache_path is not None:
            _atomic_write(cache_path, json.dumps(
                {"request": request, "response": response}, sort_keys=True))
        return response

    def _http(self, request: dict) -> dict:
        import urllib.request  # only a run with an endpoint needs it

        body = json.dumps(request).encode()
        last_error = None
        for attempt in range(1, self.config.max_attempts + 1):
            try:
                req = urllib.request.Request(
                    self.config.endpoint, data=body,
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(
                        req, timeout=self.config.timeout_s) as resp:
                    return json.loads(resp.read().decode())
            except Exception as e:  # noqa: BLE001 - retried, then surfaced
                last_error = e
                if attempt < self.config.max_attempts:
                    time.sleep(self.config.backoff_base_s * 2 ** (attempt - 1))
        raise ClientError(self.config.role,
                          f"failed after {self.config.max_attempts} attempts: "
                          f"{last_error}", attempts=self.config.max_attempts)


def record_fixture(fixture_dir: str | Path, role: str, request: dict,
                   response: dict) -> Path:
    """Persist a recorded upstream response for hermetic replay."""
    key = request_key(role, request)
    path = Path(fixture_dir) / role / f"{key}.json"
    _atomic_write(path, json.dumps(
        {"request": request, "response": response}, sort_keys=True))
    return path


def build_clients(client_configs: dict[str, dict],
                  cache_dir: str | None = None) -> dict[str, Client]:
    """Instantiate clients from config specs, all caching under
    ``cache_dir``; roles absent stay disabled.  A spec that is not an
    object, an unknown key or a bad value raises ClientError."""
    clients = {}
    for role, spec in client_configs.items():
        check({"spec": spec}, _SPEC_SHAPE,
              functools.partial(ClientError, role), MUST_BE)
        clients[role] = Client(ClientConfig(role=role, cache_dir=cache_dir,
                                            **spec))
    return clients
