"""Gateway to external completion services: caching, retries, deterministic mock.

All prompts flow through versioned templates and go out with the fixed
decoding constants TEMPERATURE and MAX_TOKENS; the idempotency key is a pure
function of (template id, template version, prompt), so any run recorded
against the remote backend replays bit-identically under cache-only.
"""

from __future__ import annotations

import json
import os
import random
import re
import threading
import time
import weakref
from dataclasses import dataclass
from functools import cached_property, lru_cache
from importlib import resources
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

from .core import Kind, dumps_sorted, read_jsonl

CREDENTIAL_ENV_VAR = "RADREASON_API_KEY"


class CompletionError(RuntimeError):
    pass


class CacheMissError(CompletionError):
    def __init__(self, key: str):
        super().__init__(f"cache-only backend: no cached response for key {key}")
        self.key = key


@dataclass(frozen=True)
class CompletionRequest:
    template_id: str
    template_version: str
    prompt: str

    @cached_property
    def idempotency_key(self) -> str:
        return _request_sha256(self.template_id, self.template_version, self.prompt).hexdigest()


def _request_sha256(template_id: str, template_version: str, prompt: str):
    """SHA-256 of `dumps_sorted` of a request's payload (its three fields
    and the decoding constants), the one identity that keys the cache and
    the mock fixture. The prompt is spliced into the cached frame by
    `encode_basestring_ascii`, the string encoder of `dumps_sorted`, so the
    bytes are the payload's own. hashlib is imported here: it maps OpenSSL
    (about 3.5 MB resident), which a command that sends no request does not
    need, and hashes a 600-byte prompt 3-4x as fast as the interpreter's."""
    import hashlib

    head, tail = _payload_frame(template_id, template_version)
    return hashlib.sha256(head + encode_basestring_ascii(prompt).encode("ascii") + tail)


@lru_cache(maxsize=64)  # bounded: a fixture record may name any template
def _payload_frame(template_id: str, template_version: str) -> tuple[bytes, bytes]:
    """`dumps_sorted` of a payload with an empty prompt, cut around its
    quotes (only `"max_tokens"` sorts before `"prompt"`)."""
    payload = dumps_sorted(dict(template_id=template_id, template_version=template_version,
                                prompt="", temperature=TEMPERATURE, max_tokens=MAX_TOKENS))
    head, _, tail = payload.partition('"prompt": ""')
    return (head + '"prompt": ').encode("ascii"), tail.encode("ascii")


# ---------------------------------------------------------------------------
# templates

@lru_cache(maxsize=None)
def load_template(name: str) -> tuple[str, str]:
    """Return (version, body) of a bundled prompt template."""
    ref = resources.files("radreason").joinpath(f"data/templates/{name}.txt")
    version = "0"
    body_lines = []
    for line in ref.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            m = re.search(r"version:\s*(\S+)", line)
            if m:
                version = m.group(1)
            continue
        body_lines.append(line)
    return version, "\n".join(body_lines).strip() + "\n"


def render_template(name: str, **fields: str) -> CompletionRequest:
    version, body = load_template(name)
    return CompletionRequest(name, version, body.format(**fields))


# ---------------------------------------------------------------------------
# cache: one append-only log per directory

_LOG_NAME = "responses.jsonl"


class ResponseCache:
    """Content-addressed response cache: one append-only log,
    `<directory>/responses.jsonl`, of `{"key", "response"}` lines, shared by
    any number of threads and processes.

    Each entry is appended with one `write()` on an `O_APPEND` descriptor,
    so on a local file system entries never interleave. The descriptor is
    opened at the first `put` and held until the cache is dropped. The
    first whole line for a key wins, and a line that is torn or does not
    parse is skipped, so its key is a miss. No other file in the directory
    is read."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._log = self.directory / _LOG_NAME
        self._lock = threading.Lock()
        self._entries: Optional[dict[str, str]] = None
        self._torn_tail = False
        self._append = None  # unbuffered, so each entry is one write()

    def _loaded(self) -> dict[str, str]:
        # read on first use, not when the client is built, so that a
        # command pays for it only once it asks for a completion
        if self._entries is None:
            with self._lock:
                if self._entries is None:
                    self._entries = self._load()
        return self._entries

    def _load(self) -> dict[str, str]:
        entries: dict[str, str] = {}
        try:
            with self._log.open("rb") as fh:
                for line in fh:
                    self._torn_tail = not line.endswith(b"\n")
                    try:
                        rec = json.loads(line)
                        key, response = rec["key"], rec["response"]
                    except (ValueError, TypeError, KeyError, RecursionError):
                        continue  # torn, or not an entry
                    if isinstance(key, str) and isinstance(response, str):
                        entries.setdefault(key, response)
        except FileNotFoundError:
            pass
        return entries

    def get(self, key: str) -> Optional[str]:
        return self._loaded().get(key)

    def put(self, key: str, response: str) -> None:
        entries = self._loaded()
        line = json.dumps({"key": key, "response": response}) + "\n"
        with self._lock:
            if key in entries:
                return
            # a torn last line keeps its own bytes; the next entry starts afresh
            data = (("\n" if self._torn_tail else "") + line).encode("utf-8")
            if self._append is None:
                self._append = open(self._log, "ab", buffering=0)
                weakref.finalize(self, self._append.close)
            written = self._append.write(data)
            if written != len(data):
                self._torn_tail = True
                raise CompletionError(f"cache: short write to {self._log}")
            self._torn_tail = False
            entries[key] = response


# ---------------------------------------------------------------------------
# backends

_FIXTURE_FIELDS = dict.fromkeys(
    ("template_id", "template_version", "prompt", "response"), Kind.STRING)


def _fixture_fault(rec: dict) -> Optional[str]:
    """Why a mock fixture record cannot be used, or None. A record that sets
    a decoding parameter restates a constant or answers no request made."""
    for field in ("temperature", "max_tokens"):
        if field in rec:
            return (f"field {field!r} is refused: every request is made at "
                    f"temperature {TEMPERATURE} and max_tokens {MAX_TOKENS}")
    return None


class MockBackend:
    """Fixture-keyed canned responses; never touches the network. The
    fixture is indexed by the 32 raw bytes of each record's idempotency
    key, and a request is found by the key the client computed for the
    cache; a miss names that key."""

    def __init__(self, responses: dict[bytes, str]):
        self._responses = dict(responses)

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        """Load a JSONL fixture: each record holds the string fields of the
        request it answers (`template_id`, `template_version`, `prompt`) and
        its `response`; a later record for the same request wins. A malformed
        line raises CompletionError located as `path:line: reason`."""
        responses: dict[bytes, str] = {}
        for lineno, rec, reason in read_jsonl(path, _FIXTURE_FIELDS):
            reason = reason or _fixture_fault(rec)
            if reason:
                raise CompletionError(f"{path}:{lineno}: {reason}")
            responses[_request_sha256(
                rec["template_id"], rec["template_version"], rec["prompt"]
            ).digest()] = rec["response"]
        return cls(responses)

    def complete(self, request: CompletionRequest) -> str:
        response = self._responses.get(bytes.fromhex(request.idempotency_key))
        if response is None:
            raise CompletionError(
                f"mock backend: no fixture response for key {request.idempotency_key} "
                f"(template {request.template_id} v{request.template_version})"
            )
        return response


# the decoding parameters of every request, which its idempotency key covers
TEMPERATURE = 0.0
MAX_TOKENS = 1024
# attempts at one request, the longest wait before the second (doubled for
# each later one) and the timeout of one attempt, in seconds
MAX_RETRIES = 5
BACKOFF_SECONDS = 0.5
TIMEOUT_SECONDS = 60.0
# statuses worth a retry besides 5xx: request timeout, rate limited
_RETRY_STATUS = frozenset({408, 429})
# statuses whose Retry-After header asks for a wait (RFC 9110, section 10.2.3)
_RETRY_AFTER_STATUS = frozenset({429, 503})
# the longest Retry-After wait honoured, in seconds; a longer one fails the
# request at once
MAX_RETRY_AFTER_SECONDS = 60


def _retry_after_seconds(value: Optional[str]) -> float:
    """The delay-seconds of a Retry-After header; 0 when it is missing or is
    not a delay in seconds (an HTTP-date, say), so the backoff alone applies."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class RemoteBackend:
    """Chat-completion style HTTPS endpoint with bounded exponential backoff
    and full jitter: before attempt k+1 it waits a uniform draw from
    [0, BACKOFF_SECONDS * 2**(k-1)] seconds.

    Retries transport errors, 5xx, 408 and 429, with no wait after the last
    attempt; any other error response fails at once. A 429 or 503 that
    carries a Retry-After in seconds waits the larger of that and the
    draw, or fails at once when it asks for more than
    MAX_RETRY_AFTER_SECONDS."""

    def __init__(self, base_url: str, model: str = "gpt-4o"):
        if not base_url:
            raise CompletionError("remote backend requires a base_url")
        api_key = os.environ.get(CREDENTIAL_ENV_VAR)
        if not api_key:
            raise CompletionError(
                f"remote backend requires the {CREDENTIAL_ENV_VAR} environment variable"
            )
        self.base_url = base_url.rstrip("/")
        self.model = model
        self._api_key = api_key

    def complete(self, request: CompletionRequest) -> str:
        import requests

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": TEMPERATURE,
            "max_tokens": MAX_TOKENS,
        }
        last_error: object = None
        retry_after = 0.0
        for attempt in range(MAX_RETRIES):
            if attempt:
                backoff = random.uniform(0, BACKOFF_SECONDS * 2 ** (attempt - 1))
                time.sleep(max(retry_after, backoff))
            retry_after = 0.0
            try:
                resp = requests.post(
                    f"{self.base_url}/chat/completions",
                    json=payload,
                    headers={"Authorization": f"Bearer {self._api_key}"},
                    timeout=TIMEOUT_SECONDS,
                )
            except requests.RequestException as e:  # transport failure
                last_error = e
                continue
            if resp.status_code >= 500 or resp.status_code in _RETRY_STATUS:
                last_error = f"HTTP {resp.status_code}"
                if resp.status_code in _RETRY_AFTER_STATUS:
                    retry_after = _retry_after_seconds(resp.headers.get("Retry-After"))
                    if retry_after > MAX_RETRY_AFTER_SECONDS:
                        raise CompletionError(
                            f"remote backend: HTTP {resp.status_code} asks to retry after "
                            f"{retry_after:g} s, more than {MAX_RETRY_AFTER_SECONDS} s"
                        )
                continue
            try:
                resp.raise_for_status()
                return resp.json()["choices"][0]["message"]["content"]
            except (requests.HTTPError, ValueError, LookupError, TypeError) as e:
                # a 4xx or a malformed body: asking again cannot succeed
                raise CompletionError(f"remote backend: {e}") from e
        raise CompletionError(f"remote backend: retries exhausted: {last_error}")


class CacheOnlyBackend:
    """Replays a primed cache; a miss is a deterministic error."""

    def complete(self, request: CompletionRequest) -> str:
        raise CacheMissError(request.idempotency_key)


class CompletionClient:
    """Cache-first completion gateway. Callers on several threads share it;
    their number (`--workers`) bounds the requests in flight."""

    def __init__(self, backend, cache: Optional[ResponseCache] = None):
        self.backend = backend
        self.cache = cache

    def complete(self, request: CompletionRequest) -> str:
        if self.cache is None:
            return self.backend.complete(request)
        key = request.idempotency_key
        cached = self.cache.get(key)
        if cached is None:
            cached = self.backend.complete(request)
            self.cache.put(key, cached)
        return cached


def make_client(
    backend_name: str,
    cache_dir: Optional[str | Path] = None,
    mock_fixture: Optional[str | Path] = None,
    base_url: str = "",
) -> CompletionClient:
    cache = ResponseCache(cache_dir) if cache_dir else None
    if backend_name == "mock":
        if mock_fixture is None:
            raise CompletionError("mock backend requires a fixture file")
        backend = MockBackend.from_file(mock_fixture)
    elif backend_name == "cache-only":
        if cache is None:
            raise CompletionError("cache-only backend requires a cache directory")
        backend = CacheOnlyBackend()
    elif backend_name == "remote":
        backend = RemoteBackend(base_url=base_url)
    else:
        raise CompletionError(f"unknown backend {backend_name!r}")
    return CompletionClient(backend, cache=cache)
