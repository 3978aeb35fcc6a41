"""In-memory span tracing around calls into radreason's public functions.

The tracer wraps functions and methods from the outside: it replaces each
traced object wherever a radreason module refers to it, so calls made
through `from .x import f` bindings are traced too, and `uninstall` puts
every original back. Nothing in the program changes.

Per traced name it keeps calls and self time (duration minus the time of
traced children), plus named counters. It keeps spans (name, start, end,
parent, run id) in memory up to a cap and writes them out on request.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

MAX_SPANS = 20_000  # per traced process; counts and self times are exact


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float, str]] = []
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)
        self.seen: dict[str, set] = defaultdict(set)
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._patches: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks[name], value)

    def repeat(self, name: str, key) -> None:
        """Count a call as a repeat when `key` was already seen."""
        seen = self.seen[name]
        if key in seen:
            self.counts[name + ".repeats"] += 1
        else:
            seen.add(key)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable, on_call: Optional[Callable] = None) -> Callable:
        tracer, stack, spans = self, self._stack, self.spans
        calls, self_s = self.calls, self.self_s

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent[0] if parent else -1, name,
                                  start, end, tracer.run_id))
                else:
                    tracer.dropped += 1
            if on_call is not None:
                on_call(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attr: str, name: str, on_call=None) -> None:
        """Trace `module.attr` in every loaded radreason module bound to it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, on_call)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("radreason") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, on_call=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, on_call))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counts": dict(self.counts), "peaks": dict(self.peaks)}

    def write_spans(self, path: Path) -> None:
        """Append tab-separated spans (id, parent id, name, start, end, run
        id) to `path`; a new file starts with a header line."""
        header = not path.exists()
        with path.open("a", encoding="utf-8") as fh:
            if header:
                fh.write("id\tparent\tname\tstart_s\tend_s\trun\n")
            for span_id, parent, name, start, end, run in self.spans:
                fh.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{run}\n")


# ---------------------------------------------------------------------------
# what the benchmark traces


def _on_sample(tracer, args, kwargs, result):
    tracer.count("policy.sample.tokens", len(result))


def _on_extract(tracer, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    tracer.count("observations.extract.chars", len(text))
    tracer.repeat("observations.extract", text)


def _on_bootstrap(tracer, args, kwargs, result):
    values = args[0] if args else kwargs["values"]
    resamples = args[1] if len(args) > 1 else kwargs.get("resamples", 1000)
    # computed, not measured: the int64 index matrix is resamples x n
    tracer.peak("harness.bootstrap_ci.index_bytes", resamples * len(values) * 8)


def _on_cache_get(tracer, args, kwargs, result):
    tracer.count("llm.cache.misses" if result is None else "llm.cache.hits")


def _on_load_corpus(tracer, args, kwargs, result):
    tracer.count("core.load_corpus.records", len(result))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    from radreason import core, harness, llm, mining, observations, policy
    from radreason import rewards, scoring, tags, training

    for fn in ("sample_group", "grpo_objective", "sft_loss"):
        tracer.patch_function(policy, fn, f"policy.{fn}")
    tracer.patch_method(policy.ToyPolicy, "sample", "policy.sample", _on_sample)
    tracer.patch_method(policy.ToyPolicy, "log_prob", "policy.log_prob")
    tracer.patch_method(policy.ToyPolicy, "log_prob_with_grad", "policy.log_prob_with_grad")
    for fn in ("train_sft", "train_grpo"):
        tracer.patch_function(training, fn, f"training.{fn}")
    for fn in ("total_reward", "process_reward"):
        tracer.patch_function(rewards, fn, f"rewards.{fn}")
    tracer.patch_function(tags, "parse_tags", "tags.parse_tags")
    tracer.patch_method(
        observations.LexicalMatcher, "extract", "observations.extract", _on_extract
    )
    tracer.patch_method(observations.LexicalMatcher, "matches", "observations.matches")
    for fn in ("score_sample", "factuality"):
        tracer.patch_function(scoring, fn, f"scoring.{fn}")
    tracer.patch_function(harness, "bootstrap_ci", "harness.bootstrap_ci", _on_bootstrap)
    for fn in ("cmd_score", "cmd_eval", "cmd_mine", "cmd_train_toy"):
        tracer.patch_function(harness, fn, f"harness.{fn}")
    tracer.patch_method(llm.CompletionClient, "complete", "llm.complete")
    tracer.patch_function(llm, "render_template", "llm.render_template")
    for backend in (llm.MockBackend, llm.CacheOnlyBackend):
        tracer.patch_method(backend, "complete", "llm.backend")
    tracer.patch_method(llm.ResponseCache, "get", "llm.cache.get", _on_cache_get)
    tracer.patch_method(llm.ResponseCache, "put", "llm.cache.put")
    for fn in ("mine_sample", "balance", "compile_benchmark"):
        tracer.patch_function(mining, fn, f"mining.{fn}")
    tracer.patch_function(core, "load_corpus", "core.load_corpus", _on_load_corpus)


# per-run figures that come from call counts and self times
TIMED = (
    "policy.sample_group", "policy.sample", "policy.log_prob", "policy.log_prob_with_grad",
    "policy.grpo_objective", "policy.sft_loss", "training.train_sft", "training.train_grpo",
    "rewards.total_reward", "rewards.process_reward", "tags.parse_tags",
    "observations.extract", "observations.matches", "scoring.score_sample",
    "scoring.factuality", "harness.bootstrap_ci", "harness.cmd_eval", "llm.complete",
    "llm.render_template", "llm.cache.get", "llm.cache.put", "mining.mine_sample",
    "mining.balance", "mining.compile_benchmark", "core.load_corpus",
    "harness.cmd_score", "harness.cmd_mine", "harness.cmd_train_toy",
)
COUNTED = ("policy.sample.tokens", "observations.extract.chars", "llm.cache.hits",
           "llm.cache.misses", "core.load_corpus.records")


def merge(totals: list[dict]) -> dict:
    """Sum the accumulators of several traced calls (peaks take the max)."""
    out: dict = {"calls": {}, "self_s": {}, "counts": {}, "peaks": {}}
    for t in totals:
        for kind in ("calls", "self_s", "counts"):
            for name, value in t[kind].items():
                out[kind][name] = out[kind].get(name, 0) + value
        for name, value in t["peaks"].items():
            out["peaks"][name] = max(out["peaks"].get(name, 0), value)
    return out


def figures(totals: dict) -> dict[str, float]:
    """Per-layer figures from (merged) accumulators."""
    calls, counts = totals["calls"], totals["counts"]
    out: dict[str, float] = {}
    for name in TIMED:
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = totals["self_s"].get(name, 0.0)
    out["llm.backend.calls"] = calls.get("llm.backend", 0)
    for name in COUNTED:
        out[name] = counts.get(name, 0)
    extracts = calls.get("observations.extract", 0)
    repeats = counts.get("observations.extract.repeats", 0)
    out["observations.extract.repeat_share"] = repeats / extracts if extracts else 0.0
    out["harness.bootstrap_ci.index_bytes"] = totals["peaks"].get(
        "harness.bootstrap_ci.index_bytes", 0
    )
    return out
