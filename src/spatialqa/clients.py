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
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
import urllib.request
from dataclasses import dataclass, fields
from pathlib import Path

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
        """Reject an attempt count or a duration a client cannot run with."""
        def real(v) -> bool:
            return (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and math.isfinite(v))

        checks = (
            ("max_attempts", "an integer >= 1",
             isinstance(self.max_attempts, int)
             and not isinstance(self.max_attempts, bool)
             and self.max_attempts >= 1),
            ("timeout_s", "a finite number > 0",
             real(self.timeout_s) and self.timeout_s > 0),
            ("backoff_base_s", "a finite number >= 0",
             real(self.backoff_base_s) and self.backoff_base_s >= 0),
        )
        for name, wanted, ok in checks:
            if not ok:
                raise ClientError(self.role, f"bad number: {name} must be "
                                  f"{wanted}, got {getattr(self, name)!r}")

    @classmethod
    def from_dict(cls, role: str, d: dict) -> "ClientConfig":
        """A role's config-file spec; a spec that is not an object, an
        unknown key or a bad number raises ClientError."""
        if not isinstance(d, dict):
            raise ClientError(role, f"spec must be a JSON object, got {d!r}")
        unknown = set(d) - {f.name for f in fields(cls) if f.name != "role"}
        if unknown:
            raise ClientError(role, f"unknown keys: {sorted(unknown)}")
        return cls(role=role, endpoint=d.get("endpoint"),
                   fixture_dir=d.get("fixture_dir"),
                   cache_dir=d.get("cache_dir"),
                   timeout_s=d.get("timeout_s", 10.0),
                   max_attempts=d.get("max_attempts", 3),
                   backoff_base_s=d.get("backoff_base_s", 0.1))


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
    """Instantiate clients from config dicts; roles absent stay disabled."""
    clients = {}
    for role, spec in client_configs.items():
        cfg = ClientConfig.from_dict(role, spec)
        if cfg.cache_dir is None and cache_dir is not None:
            cfg.cache_dir = cache_dir
        clients[role] = Client(cfg)
    return clients
