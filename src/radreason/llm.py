"""Gateway to external completion services: caching, retries, deterministic mock.

All prompts flow through versioned templates; the idempotency key is a pure
function of (template version, prompt, decoding params), so any run recorded
against the remote backend replays bit-identically under cache-only.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path
from typing import Optional

from .core import dumps_sorted, read_jsonl

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
    temperature: float = 0.0
    max_tokens: int = 1024

    @cached_property
    def idempotency_key(self) -> str:
        payload = dumps_sorted(
            {
                "template_id": self.template_id,
                "template_version": self.template_version,
                "prompt": self.prompt,
                "temperature": self.temperature,
                "max_tokens": self.max_tokens,
            }
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# templates

_TEMPLATE_CACHE: dict[str, tuple[str, str]] = {}


def load_template(name: str) -> tuple[str, str]:
    """Return (version, body) of a bundled prompt template."""
    if name not in _TEMPLATE_CACHE:
        ref = resources.files("radreason").joinpath(f"data/templates/{name}.txt")
        text = ref.read_text(encoding="utf-8")
        version = "0"
        body_lines = []
        for line in text.splitlines():
            if line.startswith("#"):
                m = re.search(r"version:\s*(\S+)", line)
                if m:
                    version = m.group(1)
                continue
            body_lines.append(line)
        _TEMPLATE_CACHE[name] = (version, "\n".join(body_lines).strip() + "\n")
    return _TEMPLATE_CACHE[name]


def render_template(name: str, **fields: str) -> CompletionRequest:
    version, body = load_template(name)
    return CompletionRequest(
        template_id=name,
        template_version=version,
        prompt=body.format(**fields),
    )


# ---------------------------------------------------------------------------
# cache: one append-only log per directory

_LOG_NAME = "responses.jsonl"
_LEGACY_NAME = re.compile(r"[0-9a-f]{64}\.txt")


class ResponseCache:
    """Content-addressed response cache: one append-only log,
    `<directory>/responses.jsonl`, of `{"key", "response"}` lines, shared by
    any number of threads and processes.

    Each entry is appended with one `write()` on an `O_APPEND` descriptor,
    so on a local file system entries never interleave. The descriptor is
    opened at the first `put` and held until the cache is dropped. The
    first whole line for a key wins, and a line that is torn or does not
    parse is skipped, so its key is a miss. Entries of the earlier layout,
    one `<key>.txt` file per key, are read but never written."""

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
                    except ValueError:  # torn, or not UTF-8 JSON
                        continue
                    if (
                        isinstance(rec, dict)
                        and isinstance(rec.get("key"), str)
                        and isinstance(rec.get("response"), str)
                    ):
                        entries.setdefault(rec["key"], rec["response"])
        except FileNotFoundError:
            pass
        for path in self.directory.iterdir():
            key = path.name[:-4]
            if _LEGACY_NAME.fullmatch(path.name) and key not in entries:
                entries[key] = path.read_text(encoding="utf-8")
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

def _request_digest(
    template_id, template_version, temperature, max_tokens, prompt: str
) -> bytes:
    """SHA-256 over a request's fields: the four short ones by `repr`, each
    followed by a NUL (no repr holds one), then the prompt's UTF-8 bytes.
    For the str, int and float fields of a request it is equal exactly when
    the idempotency keys are (`0` and `0.0` stay apart), without JSON."""
    head = f"{template_id!r}\0{template_version!r}\0{temperature!r}\0{max_tokens!r}\0"
    return hashlib.sha256(
        head.encode("utf-8") + prompt.encode("utf-8", "surrogatepass")
    ).digest()


class MockBackend:
    """Fixture-keyed canned responses; never touches the network. The
    fixture is indexed by `_request_digest`, so a request is matched
    without computing its idempotency key; a miss names that key."""

    def __init__(self, responses: dict[bytes, str]):
        self._responses = dict(responses)

    @classmethod
    def from_file(cls, path: str | Path) -> "MockBackend":
        """Load a JSONL fixture: each record holds a response and the fields
        of the request it answers (`template_id`, `template_version`,
        `prompt`, and optionally `temperature` and `max_tokens`). A later
        record for the same request wins. A malformed line raises
        CompletionError located as `path:line: reason`."""
        responses: dict[bytes, str] = {}
        for lineno, rec, reason in read_jsonl(path, ("response",)):
            if reason:
                raise CompletionError(f"{path}:{lineno}: {reason}")
            if not isinstance(rec["response"], str):
                raise CompletionError(f"{path}:{lineno}: field 'response' is not a string")
            try:
                template_id, version, prompt = (
                    rec["template_id"], rec["template_version"], rec["prompt"]
                )
            except KeyError as e:
                raise CompletionError(f"{path}:{lineno}: missing field {e}") from None
            if not isinstance(prompt, str):
                raise CompletionError(f"{path}:{lineno}: field 'prompt' is not a string")
            responses[_request_digest(
                template_id,
                version,
                rec.get("temperature", 0.0),
                rec.get("max_tokens", 1024),
                prompt,
            )] = rec["response"]
        return cls(responses)

    def complete(self, request: CompletionRequest) -> str:
        response = self._responses.get(_request_digest(
            request.template_id,
            request.template_version,
            request.temperature,
            request.max_tokens,
            request.prompt,
        ))
        if response is None:
            raise CompletionError(
                f"mock backend: no fixture response for key {request.idempotency_key} "
                f"(template {request.template_id} v{request.template_version})"
            )
        return response


# attempts at one request, the wait before the second (doubled for each
# later one) and the timeout of one attempt, in seconds
MAX_RETRIES = 5
BACKOFF_SECONDS = 0.5
TIMEOUT_SECONDS = 60.0
# statuses worth a retry besides 5xx: request timeout, rate limited
_RETRY_STATUS = frozenset({408, 429})
# statuses whose Retry-After header asks for a wait (RFC 9110, section 10.2.3)
_RETRY_AFTER_STATUS = frozenset({429, 503})


def _retry_after_seconds(value: Optional[str]) -> float:
    """The delay-seconds of a Retry-After header; 0 when it is missing or is
    not a delay in seconds (an HTTP-date, say), so the backoff alone applies."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


class RemoteBackend:
    """Chat-completion style HTTPS endpoint with bounded exponential backoff.

    Retries transport errors, 5xx, 408 and 429, with no wait after the last
    attempt; any other error response fails at once. A 429 or 503 that
    carries a Retry-After in seconds waits the larger of that and the
    backoff."""

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
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        last_error: object = None
        retry_after = 0.0
        for attempt in range(MAX_RETRIES):
            if attempt:
                time.sleep(max(retry_after, BACKOFF_SECONDS * 2 ** (attempt - 1)))
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
        key = request.idempotency_key
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached
        response = self.backend.complete(request)
        if self.cache is not None:
            self.cache.put(key, response)
        return response


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
