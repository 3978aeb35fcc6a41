import gc
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests

from radreason import llm
from radreason.llm import (
    CacheMissError,
    CacheOnlyBackend,
    CompletionClient,
    CompletionError,
    CompletionRequest,
    MockBackend,
    RemoteBackend,
    ResponseCache,
    load_template,
    make_client,
    render_template,
)


class CountingBackend:
    def __init__(self, response="ok"):
        self.calls = 0
        self.response = response
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls += 1
        return self.response


class TestIdempotencyKey:
    def test_pure_function_of_fields(self):
        a = CompletionRequest("plan", "1", "p")
        b = CompletionRequest("plan", "1", "p")
        assert a.idempotency_key == b.idempotency_key

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"template_id": "other"},
            {"template_version": "2"},
            {"prompt": "q"},
            {"temperature": 0.7},
            {"max_tokens": 16},
        ],
    )
    def test_any_field_changes_key(self, kwargs):
        base = dict(
            template_id="plan", template_version="1", prompt="p",
            temperature=0.0, max_tokens=1024,
        )
        assert (
            CompletionRequest(**base).idempotency_key
            != CompletionRequest(**{**base, **kwargs}).idempotency_key
        )

    def test_key_is_pinned(self):
        # recorded caches are addressed by this key: it must never move
        assert CompletionRequest("plan", "1", "p").idempotency_key == (
            "7969c4719629d321f2b661660517d445cb5312301372fa44ada4b7e6f434195a"
        )


class TestTemplates:
    def test_versions_parsed(self):
        for name in ("plan", "evidence", "refine", "extract", "match"):
            version, body = load_template(name)
            assert version == "1"
            assert "{" in body  # has at least one substitution field

    def test_render_substitutes_fields(self):
        req = render_template("match", left="a", right="b")
        assert "Observation 1: a" in req.prompt
        assert "Observation 2: b" in req.prompt
        assert req.template_version == "1"

    def test_header_comments_stripped(self):
        _, body = load_template("plan")
        assert "#" not in body.splitlines()[0]


class TestCache:
    def test_round_trip(self, tmp_path):
        cache = ResponseCache(tmp_path)
        assert cache.get("k") is None
        cache.put("k", "value\nwith newline")
        # visible at once in this process, and to a later reader of the log
        assert cache.get("k") == "value\nwith newline"
        assert ResponseCache(tmp_path).get("k") == "value\nwith newline"
        assert [p.name for p in tmp_path.iterdir()] == ["responses.jsonl"]

    def test_empty_response_round_trips(self, tmp_path):
        ResponseCache(tmp_path).put("k", "")
        assert ResponseCache(tmp_path).get("k") == ""

    def test_first_line_for_a_key_wins(self, tmp_path):
        log = tmp_path / "responses.jsonl"
        log.write_text(
            '{"key": "k", "response": "first"}\n{"key": "k", "response": "second"}\n',
            encoding="utf-8",
        )
        cache = ResponseCache(tmp_path)
        assert cache.get("k") == "first"
        cache.put("k", "third")  # a key already held is not appended again
        assert cache.get("k") == "first"
        assert log.read_text(encoding="utf-8").count("\n") == 2

    def test_torn_last_line_is_a_miss(self, tmp_path):
        log = tmp_path / "responses.jsonl"
        log.write_text(
            '{"key": "a", "response": "whole"}\n{"key": "b", "response": "to',
            encoding="utf-8",
        )
        cache = ResponseCache(tmp_path)
        assert cache.get("a") == "whole"
        assert cache.get("b") is None
        cache.put("c", "after the tear")
        reread = ResponseCache(tmp_path)
        assert (reread.get("a"), reread.get("b"), reread.get("c")) == (
            "whole", None, "after the tear",
        )

    def test_legacy_entry_files_replay(self, tmp_path):
        req = CompletionRequest("plan", "1", "p")
        (tmp_path / f"{req.idempotency_key}.txt").write_text("recorded", encoding="utf-8")
        (tmp_path / "notes.txt").write_text("not an entry", encoding="utf-8")
        client = CompletionClient(CacheOnlyBackend(), cache=ResponseCache(tmp_path))
        assert client.complete(req) == "recorded"
        assert client.cache.get("notes") is None

    def test_threads_putting_distinct_keys_keep_every_entry(self, tmp_path):
        cache = ResponseCache(tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(
                    target=lambda t=t: [cache.put(f"{t}-{i}", f"v{t}-{i}") for i in range(200)]
                )
                for t in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        reread = ResponseCache(tmp_path)
        for t in range(8):
            for i in range(200):
                assert reread.get(f"{t}-{i}") == f"v{t}-{i}"

    def test_client_is_cache_first(self, tmp_path):
        backend = CountingBackend()
        client = CompletionClient(backend, cache=ResponseCache(tmp_path))
        req = CompletionRequest("plan", "1", "p")
        assert client.complete(req) == "ok"
        assert client.complete(req) == "ok"
        assert backend.calls == 1

    def test_cache_only_replays_primed_cache(self, tmp_path):
        req = CompletionRequest("plan", "1", "p")
        cache = ResponseCache(tmp_path)
        cache.put(req.idempotency_key, "recorded")
        client = CompletionClient(CacheOnlyBackend(), cache=cache)
        assert client.complete(req) == "recorded"

    def test_processes_putting_one_key_leave_one_whole_response(self, tmp_path):
        # each process appends its own large payload, starting together;
        # writes that interleaved would leave no whole line for the key
        script = (
            "import sys, time\n"
            "from pathlib import Path\n"
            "from radreason.llm import ResponseCache\n"
            "cache, name = ResponseCache(sys.argv[1]), sys.argv[2]\n"
            "Path(sys.argv[1], name + '.ready').touch()\n"
            "while not Path(sys.argv[1], 'go').exists():\n"
            "    time.sleep(0.001)\n"
            "for _ in range(300):\n"
            "    cache.put('k', name * 200_000)\n"
        )
        path = [str(Path(llm.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(tmp_path), name],
                env=env,
                stderr=subprocess.PIPE,
                text=True,
            )
            for name in "AB"
        ]
        deadline = time.monotonic() + 60
        while not all((tmp_path / f"{n}.ready").exists() for n in "AB"):
            assert time.monotonic() < deadline, "writer processes did not start"
            time.sleep(0.01)
        (tmp_path / "go").touch()
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        assert ResponseCache(tmp_path).get("k") in ("A" * 200_000, "B" * 200_000)
        assert not list(tmp_path.glob("*.tmp"))

    def test_log_opened_once_for_many_puts(self, tmp_path, monkeypatch):
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(llm, "open", counting_open, raising=False)
        cache = ResponseCache(tmp_path)
        for i in range(50):
            cache.put(f"k{i}", f"v{i}")
        assert opened == [tmp_path / "responses.jsonl"]
        assert ResponseCache(tmp_path).get("k49") == "v49"

    def test_puts_after_a_torn_tail_start_whole_lines(self, tmp_path):
        log = tmp_path / "responses.jsonl"
        log.write_text('{"key": "a", "response": "whole"}\n{"key": "b", "resp',
                       encoding="utf-8")
        cache = ResponseCache(tmp_path)
        cache.put("c", "one")
        cache.put("d", "two")
        lines = log.read_text(encoding="utf-8").splitlines()
        assert lines[1] == '{"key": "b", "resp'
        assert [json.loads(line) for line in lines[2:]] == [
            {"key": "c", "response": "one"}, {"key": "d", "response": "two"},
        ]

    def test_log_closed_when_the_cache_is_dropped(self, tmp_path, monkeypatch):
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(llm, "open", recording_open, raising=False)
        cache = ResponseCache(tmp_path)
        cache.put("k", "v")
        assert len(handles) == 1 and not handles[0].closed
        del cache
        gc.collect()
        assert handles[0].closed

    def test_cache_only_miss_is_deterministic_error(self, tmp_path):
        client = CompletionClient(CacheOnlyBackend(), cache=ResponseCache(tmp_path))
        req = CompletionRequest("plan", "1", "unseen")
        with pytest.raises(CacheMissError) as exc:
            client.complete(req)
        assert exc.value.key == req.idempotency_key


class TestMockBackend:
    def test_fixture_lookup(self, mock_client):
        req = render_template(
            "evidence",
            goal="Assess for pleural effusion",
            report="There is a small left pleural effusion. The heart size is normal.",
        )
        assert mock_client.complete(req) == "There is a small left pleural effusion"

    @staticmethod
    def _fixture(tmp_path, *records):
        path = tmp_path / "fixture.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        return path

    def test_missing_fixture_raises(self):
        backend = MockBackend({})
        req = CompletionRequest("plan", "1", "p")
        with pytest.raises(CompletionError) as exc:
            backend.complete(req)
        assert str(exc.value) == (
            f"mock backend: no fixture response for key {req.idempotency_key} "
            "(template plan v1)"
        )

    def test_int_zero_temperature_does_not_answer_float_zero(self, tmp_path):
        backend = MockBackend.from_file(self._fixture(
            tmp_path, {"template_id": "plan", "template_version": "1", "prompt": "p",
                       "temperature": 0, "response": "r"},
        ))
        with pytest.raises(CompletionError, match="no fixture response"):
            backend.complete(CompletionRequest("plan", "1", "p", temperature=0.0))
        assert backend.complete(CompletionRequest("plan", "1", "p", temperature=0)) == "r"

    def test_later_duplicate_record_wins(self, tmp_path):
        record = {"template_id": "plan", "template_version": "1", "prompt": "p\u00e9"}
        backend = MockBackend.from_file(self._fixture(
            tmp_path, {**record, "response": "first"}, {**record, "response": "second"},
        ))
        assert backend.complete(CompletionRequest("plan", "1", "p\u00e9")) == "second"

    @pytest.mark.parametrize("prompt", [None, 7, ["p"]])
    def test_non_string_prompt_is_located(self, tmp_path, prompt):
        path = self._fixture(
            tmp_path,
            {"template_id": "plan", "template_version": "1", "prompt": "p", "response": "r"},
            {"template_id": "plan", "template_version": "1", "prompt": prompt,
             "response": "r"},
        )
        with pytest.raises(CompletionError) as exc:
            MockBackend.from_file(path)
        assert str(exc.value) == f"{path}:2: field 'prompt' is not a string"


class TestMakeClient:
    def test_mock_requires_fixture(self):
        with pytest.raises(CompletionError):
            make_client("mock")

    def test_cache_only_requires_cache_dir(self):
        with pytest.raises(CompletionError):
            make_client("cache-only")

    def test_unknown_backend(self):
        with pytest.raises(CompletionError):
            make_client("carrier-pigeon")

    def test_remote_requires_credentials(self, monkeypatch):
        monkeypatch.delenv("RADREASON_API_KEY", raising=False)
        with pytest.raises(CompletionError, match="RADREASON_API_KEY"):
            make_client("remote", base_url="https://example.invalid")

    def test_dashed_and_underscored_cache_only(self, tmp_path):
        client = make_client("cache-only", cache_dir=tmp_path)
        assert isinstance(client.backend, CacheOnlyBackend)
        # only the spelling the CLI admits names the backend
        with pytest.raises(CompletionError, match="unknown backend"):
            make_client("cache_only", cache_dir=tmp_path)


class FakeResponse:
    def __init__(self, status_code, body=None, headers=None):
        self.status_code = status_code
        self.body = body
        self.headers = requests.structures.CaseInsensitiveDict(headers or {})

    def raise_for_status(self):
        if self.status_code >= 400:
            raise requests.HTTPError(f"{self.status_code} error")

    def json(self):
        return self.body


OK = FakeResponse(200, {"choices": [{"message": {"content": "done"}}]})


class TestRemoteBackend:
    """Scripted `requests.post` replies; no network, no real waiting."""

    def _run(self, monkeypatch, replies, max_retries=5):
        posts, sleeps = [], []

        def post(*args, **kwargs):
            reply = replies[len(posts)]
            posts.append(kwargs)
            if isinstance(reply, Exception):
                raise reply
            return reply

        monkeypatch.setenv("RADREASON_API_KEY", "test-key")
        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr(llm.time, "sleep", sleeps.append)
        monkeypatch.setattr(llm, "MAX_RETRIES", max_retries)
        backend = RemoteBackend("https://example.invalid")
        try:
            result = backend.complete(CompletionRequest("plan", "1", "prompt"))
        except CompletionError as e:
            result = e
        return result, posts, sleeps

    def test_transient_failures_retried_with_backoff(self, monkeypatch):
        replies = [
            requests.ConnectionError("reset"),
            requests.Timeout("slow"),
            FakeResponse(503),
            FakeResponse(429),
            OK,
        ]
        result, posts, sleeps = self._run(monkeypatch, replies)
        assert result == "done"
        assert len(posts) == 5
        assert sleeps == [0.5, 1.0, 2.0, 4.0]

    def test_request_timeout_status_retried(self, monkeypatch):
        result, posts, sleeps = self._run(monkeypatch, [FakeResponse(408), OK])
        assert (result, len(posts), sleeps) == ("done", 2, [0.5])

    def test_no_sleep_after_last_attempt(self, monkeypatch):
        result, posts, sleeps = self._run(
            monkeypatch, [FakeResponse(500)] * 3, max_retries=3
        )
        assert isinstance(result, CompletionError)
        assert "retries exhausted: HTTP 500" in str(result)
        assert len(posts) == 3
        assert sleeps == [0.5, 1.0]

    def test_retry_after_seconds_honoured(self, monkeypatch):
        replies = [
            FakeResponse(429, headers={"Retry-After": "3"}),
            FakeResponse(503, headers={"retry-after": " 7 "}),
            FakeResponse(503, headers={"Retry-After": "0"}),
            OK,
        ]
        result, posts, sleeps = self._run(monkeypatch, replies)
        # the larger of Retry-After and the backoff 0.5, 1.0, 2.0
        assert (result, len(posts), sleeps) == ("done", 4, [3.0, 7.0, 2.0])

    @pytest.mark.parametrize("value", [
        None, "", "soon", "-5", "1.5", "2e3", "\u00b2",
        "Wed, 21 Oct 2015 07:28:00 GMT",
    ])
    def test_retry_after_not_in_seconds_falls_back_to_backoff(self, monkeypatch, value):
        headers = {} if value is None else {"Retry-After": value}
        replies = [FakeResponse(429, headers=headers), FakeResponse(503, headers=headers), OK]
        result, posts, sleeps = self._run(monkeypatch, replies)
        assert (result, sleeps) == ("done", [0.5, 1.0])

    @pytest.mark.parametrize("status", [408, 500, 502])
    def test_retry_after_only_on_429_and_503(self, monkeypatch, status):
        replies = [FakeResponse(status, headers={"Retry-After": "30"}), OK]
        result, posts, sleeps = self._run(monkeypatch, replies)
        assert (result, sleeps) == ("done", [0.5])

    def test_no_wait_after_last_attempt_despite_retry_after(self, monkeypatch):
        replies = [FakeResponse(429, headers={"Retry-After": "9"})] * 2
        result, posts, sleeps = self._run(monkeypatch, replies, max_retries=2)
        assert isinstance(result, CompletionError)
        assert "retries exhausted: HTTP 429" in str(result)
        assert sleeps == [9.0]

    @pytest.mark.parametrize("status", [400, 401, 403, 404, 422])
    def test_client_errors_not_retried(self, monkeypatch, status):
        result, posts, sleeps = self._run(monkeypatch, [FakeResponse(status), OK])
        assert isinstance(result, CompletionError)
        assert str(status) in str(result)
        assert (len(posts), sleeps) == (1, [])

    def test_malformed_body_not_retried(self, monkeypatch):
        result, posts, sleeps = self._run(
            monkeypatch, [FakeResponse(200, {"choices": []}), OK]
        )
        assert isinstance(result, CompletionError)
        assert (len(posts), sleeps) == (1, [])
