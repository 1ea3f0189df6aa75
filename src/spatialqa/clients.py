"""External-service clients with content-addressed caching and fixtures.

Every upstream model the pipeline calls (grounder, judge, problem
generator) is reached through the same request/response JSON discipline:

  request   role-specific JSON object (schemas below)
  response  role-specific JSON object
  key       sha256 of "role" + canonical request JSON

A client resolves a request in order: disk cache, fixture directory,
HTTP endpoint.  Fixture mode never touches the network; a cache miss in
fixture mode is an error.  A cache or fixture file is
``<root>/<role>/<key>.json`` holding ``{"request", "response"}`` (sorted
keys), written by ``record_fixture`` with write-then-rename so concurrent
workers cannot tear files.  Built clients pickle, so ``run_generate``
builds them once and hands them to its workers.

Whatever answered, the reply is checked against its role's rules
(``_REPLY_RULES``) before a caller sees it, and a stored file must be a
JSON object whose ``request`` is the request asked.  A reply that breaks
them raises ClientError naming the role and the file or endpoint it came
from, and is never cached.

Role schemas:
  grounder            {"image_id", "caption"} ->
                      {"boxes": [[x0, y0, x1, y1], ...]}
  judge               {"item_id", "question", "answer", "response"} ->
                      {"verdict": "match" | "mismatch"}
  problem-generator   scene digest (see qa.problem) ->
                      {"candidates": [...]}, each candidate checked by
                      qa.problem.validate_candidates

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

from .schema import (MUST_BE, boxes, canonical_json, check, finite, integer,
                     is_object, only, or_null, text)


class ClientError(Exception):
    def __init__(self, role: str, message: str):
        super().__init__(f"client {role!r}: {message}")


def request_key(role: str, request: dict) -> str:
    blob = role + "\n" + canonical_json(request)
    return hashlib.sha256(blob.encode()).hexdigest()


def _stored_path(root: str | Path, role: str, key: str) -> Path:
    return Path(root) / role / f"{key}.json"


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
# (field, test, what it must be) per role, read by ``schema.check`` on
# {"reply": <reply>}; the role check reads the keys
_REPLY = ("reply", is_object, "a JSON object")
_REPLY_RULES = {
    "grounder": (_REPLY, ("reply.boxes", boxes,
                          "a list of [x0, y0, x1, y1] finite-number lists")),
    "judge": (_REPLY, ("reply.verdict", ("match", "mismatch").__contains__,
                       '"match" or "mismatch"')),
    "problem-generator": (_REPLY, ("reply.candidates",
                                   lambda v: isinstance(v, list), "a list")),
}
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
        if config.role not in _REPLY_RULES:
            raise ClientError(config.role, "unknown role")
        if config.endpoint is None and config.fixture_dir is None:
            raise ClientError(config.role,
                              "needs an endpoint or a fixture directory")
        self.config = config

    def call(self, request: dict) -> dict:
        """The checked reply to ``request``; a bad one raises ClientError."""
        role, cache_dir = self.config.role, self.config.cache_dir
        key = request_key(role, request)
        if cache_dir is not None:
            cached = _stored_path(cache_dir, role, key)
            if cached.exists():
                return self._read(cached, request)

        if self.config.fixture_dir is not None:
            fixture = _stored_path(self.config.fixture_dir, role, key)
            if not fixture.exists():
                raise ClientError(
                    role, f"no fixture for request key {key} "
                    f"(request={json.dumps(request, sort_keys=True)[:200]})")
            response = self._read(fixture, request)
        else:
            response = self._checked(self._http(request),
                                     self.config.endpoint)

        if cache_dir is not None:
            record_fixture(cache_dir, role, request, response)
        return response

    def _read(self, path: Path, request: dict) -> dict:
        """The checked reply stored at ``path``, a JSON object whose
        ``request`` must be ``request``."""
        try:
            stored = json.loads(path.read_bytes())
        except (ValueError, RecursionError) as e:  # bad UTF-8 or JSON
            raise ClientError(self.config.role,
                              f"{path}: invalid JSON: {e}") from None
        if not is_object(stored) or stored.get("request") != request:
            raise ClientError(self.config.role,
                              f"{path}: not a stored reply to this request")
        return self._checked(stored.get("response"), path)

    def _checked(self, reply, source) -> dict:
        """``reply`` if it keeps its role's ``_REPLY_RULES``; else a
        ClientError naming ``source``, the file or endpoint."""
        role = self.config.role
        return check({"reply": reply}, _REPLY_RULES[role],
                     lambda m: ClientError(role, f"{source}: {m}"),
                     MUST_BE)["reply"]

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
                          f"{last_error}")


def record_fixture(fixture_dir: str | Path, role: str, request: dict,
                   response: dict) -> Path:
    """Store ``response`` to ``request`` under ``fixture_dir`` for
    hermetic replay; the client's cache writes through here too."""
    path = _stored_path(fixture_dir, role, request_key(role, request))
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
