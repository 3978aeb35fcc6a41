"""Batch drivers: scoring, evaluation with bootstrap CIs, mining, toy training.

All outputs are sorted by sample id and written by `core.write_jsonl` /
`core.write_json`, so runs are byte-identical across repeats and worker
counts.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .core import Corpus, Kind, kind_fault, map_in_order, read_jsonl, write_json, write_jsonl
from .llm import CompletionClient, load_template
from .mining import (
    BenchmarkBundle,
    MinedChain,
    Rejection,
    balance,
    compile_benchmark,
    filter_by_factuality,
    mine_corpus,
)
from .observations import LexicalMatcher
from .policy import GrpoConfig
from .rewards import format_reward, outcome_reward
from .scoring import NotScorableError, score_sample
from .tags import parse_tags
from .training import SftConfig, make_toy_policy, run_preset, save_checkpoint

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_SAMPLE_ERRORS = 2

# most resample indices bootstrap_ci draws at once (0.5 MB of int64)
_INDEX_CHUNK = 2**16


def bootstrap_ci(
    values: Sequence[float] | np.ndarray,
    resamples: int = 1000,
    seed: int = 0,
) -> tuple[float, float] | list[tuple[float, float]]:
    """Nonparametric 95% percentile bootstrap interval for the mean.

    `values` is one sample of n values, or an (n, k) table whose k columns
    are samples over the same n rows; a table gets one interval per column,
    all from one draw of resampled rows. The (resamples, n) index is drawn
    in row chunks of at most _INDEX_CHUNK entries, the stream one draw of
    the whole matrix gives.
    """
    table = np.asarray(values, dtype=float)
    if table.size == 0:
        raise ValueError("bootstrap_ci requires non-empty values")
    if resamples < 1:
        raise ValueError(f"bootstrap_ci requires resamples >= 1, got {resamples}")
    n = table.shape[0]
    cols = table.reshape(n, -1).T
    rng = np.random.default_rng(seed)
    means = np.empty((len(cols), resamples))
    chunk = max(1, _INDEX_CHUNK // n)
    for start in range(0, resamples, chunk):
        idx = rng.integers(0, n, size=(min(chunk, resamples - start), n))
        for k, col in enumerate(cols):
            means[k, start : start + len(idx)] = col[idx].mean(axis=1)
    # the tail of a 95% interval, 0.025000000000000022: the literal 0.025
    # would move the quantiles in the last bits
    alpha = (1.0 - 0.95) / 2.0
    intervals = []
    for col_means in means:
        low, high = np.quantile(col_means, [alpha, 1.0 - alpha])
        intervals.append((float(low), float(high)))
    return intervals if table.ndim > 1 else intervals[0]


def config_hash(config: dict) -> str:
    return hashlib.sha256(
        json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()[:16]


def write_manifest(out_dir: Path, config: dict, seed: int, matcher=None) -> None:
    versions = {"radreason": __version__}
    if isinstance(matcher, LexicalMatcher):
        versions["synonyms"] = matcher.synonyms.version
    for name in ("plan", "evidence", "refine", "extract", "match"):
        versions[f"template_{name}"] = load_template(name)[0]
    manifest = {
        "config_hash": config_hash(config),
        "seed": seed,
        "versions": versions,
    }
    write_json(out_dir / "run_manifest.json", manifest)


# ---------------------------------------------------------------------------
# scoring driver

_OUTPUT_FIELDS = {"id": Kind.STRING, "output": Kind.STRING}


def cmd_score(
    outputs_path: str | Path,
    corpus: Corpus,
    matcher,
    out_path: str | Path,
    workers: int = 1,
) -> tuple[int, list[dict]]:
    """Score model outputs (JSONL: {"id", "output"}) against the corpus.

    Emits one record per output, sorted by sample id; malformed lines,
    unknown ids and unscorable outputs (a sample without report or
    reasoning, an empty output) are collected as errors, located by line
    and sorted by (id, line), and the run continues. An output's tags are
    parsed once, for its scores and its rewards.
    """
    rows, bad_lines = [], []
    for lineno, rec, reason in read_jsonl(outputs_path, _OUTPUT_FIELDS):
        if reason:
            # the error names the record's id when that is a string
            named = rec and kind_fault(rec.get("id"), Kind.STRING) is None
            bad_lines.append({"id": rec["id"] if named else None, "line": lineno,
                              "error": reason})
        else:
            rows.append((lineno, rec["id"], rec["output"]))
    by_id = {s.id: s for s in corpus.samples}

    def _one(row):
        lineno, sample_id, output = row
        sample = by_id.get(sample_id)
        if sample is None:
            return None, {"id": sample_id, "line": lineno, "error": "unknown sample id"}
        tagged = parse_tags(output)
        try:
            scores = score_sample(sample, tagged, matcher)
        except NotScorableError as e:
            return None, {"id": sample_id, "line": lineno, "error": str(e)}
        record = {
            "id": sample_id,
            "task": sample.task.value,
            **vars(scores),
            "format": format_reward(tagged, sample.partition),
            "outcome": outcome_reward(tagged, sample, matcher),
        }
        return record, None

    results = map_in_order(_one, rows, workers)
    records = sorted((r for r, _ in results if r), key=lambda r: r["id"])
    errors = sorted(
        [e for _, e in results if e] + bad_lines, key=lambda e: (e["id"] or "", e["line"])
    )
    write_jsonl(out_path, [*records, *({"error_record": e} for e in errors)])
    return len(records), errors


# ---------------------------------------------------------------------------
# evaluation

_METRICS = ("r_f", "r_c", "r_e", "radrscore", "outcome")
_SCORE_FIELDS = {"id": Kind.STRING, "task": Kind.STRING, **dict.fromkeys(_METRICS, Kind.RATIO)}


@dataclass(frozen=True)
class EvalReport:
    rows: dict[str, dict]  # task (or overall key) -> {metric: {mean, ci_low, ci_high}}
    counts: dict[str, int]
    seed: int
    config_hash: str
    resamples: int

    def as_dict(self) -> dict:
        return {
            "rows": self.rows,
            "counts": self.counts,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "ci_method": f"percentile bootstrap, {self.resamples} resamples",
        }

    def render_table(self) -> str:
        header = ["group", "n"] + list(_METRICS)
        lines = ["\t".join(header)]
        for group, metrics in self.rows.items():
            cells = [group, str(self.counts[group])]
            for m in _METRICS:
                cell = metrics[m]
                cells.append(
                    f"{cell['mean']:.4f} (95%CI={cell['ci_low']:.4f}-{cell['ci_high']:.4f})"
                )
            lines.append("\t".join(cells))
        return "\n".join(lines) + "\n"


def _metric_cells(table: np.ndarray, resamples: int, seed: int) -> dict:
    """Mean and interval of each metric of an (n, 5) table, columns in
    `_METRICS` order."""
    intervals = bootstrap_ci(table, resamples=resamples, seed=seed)
    return {
        m: {"mean": float(np.mean(col)), "ci_low": low, "ci_high": high}
        for m, col, (low, high) in zip(_METRICS, table.T, intervals)
    }


def cmd_eval(
    records_path: str | Path,
    resamples: int = 1000,
    seed: int = 0,
) -> EvalReport:
    """Per-task table with CI annotations plus two overall rows: the
    sample-weighted mean and the unweighted mean over tasks. Skips
    `error_record` lines; any other bad line raises ValueError `path:line: reason`.
    A record is kept as (id, task, *metrics), not as its parsed line."""
    records = []
    for lineno, rec, reason in read_jsonl(records_path, _SCORE_FIELDS):
        if rec is not None and "error_record" in rec:
            continue
        if reason:
            raise ValueError(f"{records_path}:{lineno}: {reason}")
        records.append((rec["id"], rec["task"], *(float(rec[m]) for m in _METRICS)))
    if not records:
        raise ValueError("no score records to evaluate")
    # stable, so records of one id keep file order here and in each task's table
    records.sort(key=itemgetter(0))
    tasks = sorted({r[1] for r in records})
    rows = {}
    counts = {}
    for task in tasks:
        table = np.array([r[2:] for r in records if r[1] == task])
        rows[task] = _metric_cells(table, resamples, seed)
        counts[task] = len(table)
    rows["overall_samples"] = _metric_cells(
        np.array([r[2:] for r in records]), resamples, seed
    )
    counts["overall_samples"] = len(records)
    # unweighted mean over task means; CIs do not aggregate across tasks
    rows["overall_tasks"] = {
        m: {
            "mean": float(np.mean([rows[t][m]["mean"] for t in tasks])),
            "ci_low": float(min(rows[t][m]["ci_low"] for t in tasks)),
            "ci_high": float(max(rows[t][m]["ci_high"] for t in tasks)),
        }
        for m in _METRICS
    }
    counts["overall_tasks"] = len(tasks)
    return EvalReport(
        rows=rows,
        counts=counts,
        seed=seed,
        config_hash=config_hash({"resamples": resamples, "seed": seed}),
        resamples=resamples,
    )


# ---------------------------------------------------------------------------
# mining driver

def cmd_mine(
    corpus: Corpus,
    client: CompletionClient,
    matcher,
    out_dir: str | Path,
    seed: int = 0,
    workers: int = 1,
) -> tuple[BenchmarkBundle, int]:
    """Full pipeline: mine, then the compile tail of `cmd_compile`."""
    chains, rejections = mine_corpus(corpus, client, matcher, workers=workers)
    return cmd_compile(corpus, chains, out_dir, seed, rejections)


def cmd_compile(
    corpus: Corpus,
    chains: Sequence[MinedChain],
    out_dir: str | Path,
    seed: int = 0,
    rejections: Sequence[Rejection] = (),
) -> tuple[BenchmarkBundle, int]:
    """Factuality filter (r_f = 1) -> balance -> compile. A chain whose
    sample id is not in the corpus raises ValueError. Writes the benchmark files,
    the kept chains (`chains.jsonl`) and every rejection, the given ones and
    the filter's (`rejections.jsonl`); returns the bundle and the number of
    rejections."""
    out_dir = Path(out_dir)
    corpus_ids = {s.id for s in corpus.samples}
    for c in chains:
        if c.sample_id not in corpus_ids:
            raise ValueError(f"chain references unknown sample id {c.sample_id!r}")
    kept, filtered = filter_by_factuality(chains)
    rejections = sorted([*rejections, *filtered], key=lambda r: (r.sample_id, r.stage))
    balanced = balance(corpus, seed=seed)
    kept_ids = {s.id for s in balanced.samples}
    kept = [c for c in kept if c.sample_id in kept_ids]
    bundle = compile_benchmark(balanced, kept, out_dir, seed=seed)
    # a chain's fields, its steps' fields under "steps" (`dataclasses.asdict`
    # would deep-copy every value: about 13 ms of a `mine` call)
    write_jsonl(
        out_dir / "chains.jsonl",
        ({**vars(c), "steps": [vars(s) for s in c.steps]} for c in kept),
    )
    write_jsonl(out_dir / "rejections.jsonl", map(vars, rejections))
    return bundle, len(rejections)


# ---------------------------------------------------------------------------
# toy training driver

def cmd_train_toy(
    corpus: Corpus,
    preset: str,
    out_dir: str | Path,
    sft_cfg: SftConfig,
    grpo_cfg: GrpoConfig,
) -> Path:
    """Run an ablation preset, seeded by `grpo_cfg.seed`, and write
    checkpoint + per-step stats."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = make_toy_policy(corpus)
    trained, stats = run_preset(preset, corpus, policy, sft_cfg, grpo_cfg)
    cfg_dict = {
        "preset": preset,
        "sft": vars(sft_cfg),
        "grpo": vars(grpo_cfg),
        "seed": grpo_cfg.seed,
    }
    # stats first: a non-finite figure is refused before a checkpoint is saved
    write_jsonl(out_dir / "stats.jsonl", map(vars, stats))
    checkpoint = out_dir / "checkpoint.npz"
    save_checkpoint(trained, checkpoint, config_hash=config_hash(cfg_dict))
    write_manifest(out_dir, cfg_dict, grpo_cfg.seed)
    return checkpoint
