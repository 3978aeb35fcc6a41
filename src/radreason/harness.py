"""Batch drivers: scoring, evaluation with bootstrap CIs, mining, toy training.

All outputs are sorted by sample id and serialized canonically so runs are
byte-identical across repeats and worker counts.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .core import Corpus
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
from .rewards import entity_f1, format_reward, outcome_reward
from .scoring import NotScorableError, score_sample
from .training import SftConfig, make_toy_policy, run_preset, save_checkpoint

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_SAMPLE_ERRORS = 2


def bootstrap_ci(
    values: Sequence[float] | np.ndarray,
    resamples: int = 1000,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float] | list[tuple[float, float]]:
    """Nonparametric percentile bootstrap interval for the mean.

    `values` is one sample of n values, or an (n, k) table whose k columns
    are samples over the same n rows; a table gets one interval per column,
    all from one draw of resampled rows.
    """
    table = np.asarray(values, dtype=float)
    if table.size == 0:
        raise ValueError("bootstrap_ci requires non-empty values")
    n = table.shape[0]
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(resamples, n))
    alpha = (1.0 - level) / 2.0
    intervals = []
    for col in table.reshape(n, -1).T:
        means = col[idx].mean(axis=1)
        low, high = np.quantile(means, [alpha, 1.0 - alpha])
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
    (out_dir / "run_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


# ---------------------------------------------------------------------------
# scoring driver

def _read_outputs(outputs_path: str | Path) -> tuple[list[tuple[int, str, str]], list[dict]]:
    """Stream an outputs file (JSONL: {"id", "output"}) into (line, id,
    output) rows, and an error (id or None, line, reason) for each non-blank
    line that is not UTF-8 or not a JSON object carrying both fields."""
    rows: list[tuple[int, str, str]] = []
    errors: list[dict] = []
    with Path(outputs_path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # decoded line by line, so one bad byte costs only its own line
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                reason = f"invalid UTF-8 at byte {e.start}: {e.reason}"
                errors.append({"id": None, "line": lineno, "error": reason})
                continue
            if not line.strip():
                continue
            try:
                rec = json.loads(line.rstrip("\n"))
            except json.JSONDecodeError as e:
                reason = f"invalid JSON at column {e.colno}: {e.msg}"
                errors.append({"id": None, "line": lineno, "error": reason})
                continue
            if not isinstance(rec, dict):
                errors.append({"id": None, "line": lineno, "error": "not a JSON object"})
                continue
            sample_id = str(rec["id"]) if "id" in rec else None
            missing = [f for f in ("id", "output") if f not in rec]
            if missing:
                reason = "missing field " + ", ".join(repr(f) for f in missing)
                errors.append({"id": sample_id, "line": lineno, "error": reason})
                continue
            rows.append((lineno, sample_id, str(rec["output"])))
    return rows, errors


def cmd_score(
    outputs_path: str | Path,
    corpus: Corpus,
    matcher,
    out_path: str | Path,
    workers: int = 1,
) -> tuple[int, list[dict]]:
    """Score model outputs (JSONL: {"id", "output"}) against the corpus.

    Emits one record per output, sorted by sample id; malformed lines and
    unresolvable or unscorable ids are collected as errors, located by line
    and sorted by (id, line), and the run continues.
    """
    rows, bad_lines = _read_outputs(outputs_path)
    by_id = {s.id: s for s in corpus.samples}
    open_scorer = partial(entity_f1, matcher=matcher)

    def _one(row):
        lineno, sample_id, output = row
        sample = by_id.get(sample_id)
        if sample is None:
            return None, {"id": sample_id, "line": lineno, "error": "unknown sample id"}
        try:
            scores = score_sample(sample, output, matcher)
        except NotScorableError as e:
            return None, {"id": sample_id, "line": lineno, "error": str(e)}
        record = {
            "id": sample_id,
            "task": sample.task.value,
            **scores.as_record(),
            "format": format_reward(output, sample.partition),
            "outcome": outcome_reward(output, sample, open_scorer),
        }
        return record, None

    if workers <= 1:
        results = [_one(r) for r in rows]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one, rows))

    records = sorted((r for r, _ in results if r), key=lambda r: r["id"])
    errors = sorted(
        [e for _, e in results if e] + bad_lines, key=lambda e: (e["id"] or "", e["line"])
    )
    with Path(out_path).open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
        for err in errors:
            fh.write(json.dumps({"error_record": err}, sort_keys=True) + "\n")
    return len(records), errors


# ---------------------------------------------------------------------------
# evaluation

_METRICS = ("r_f", "r_c", "r_e", "radrscore", "outcome")


@dataclass(frozen=True)
class EvalReport:
    rows: dict[str, dict]  # task (or overall key) -> {metric: {mean, ci_low, ci_high}}
    counts: dict[str, int]
    seed: int
    config_hash: str

    def as_dict(self) -> dict:
        return {
            "rows": self.rows,
            "counts": self.counts,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "ci_method": "percentile bootstrap, 1000 resamples",
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


def _metric_cells(records: list[dict], resamples: int, seed: int) -> dict:
    columns = np.array([[float(r[m]) for r in records] for m in _METRICS])
    intervals = bootstrap_ci(columns.T, resamples=resamples, seed=seed)
    return {
        m: {"mean": float(np.mean(col)), "ci_low": low, "ci_high": high}
        for m, col, (low, high) in zip(_METRICS, columns, intervals)
    }


def cmd_eval(
    records_path: str | Path,
    resamples: int = 1000,
    seed: int = 0,
) -> EvalReport:
    """Per-task table with CI annotations plus two overall rows: the
    sample-weighted mean and the unweighted mean over tasks."""
    records = []
    for line in Path(records_path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            rec = json.loads(line)
            if "error_record" not in rec:
                records.append(rec)
    if not records:
        raise ValueError("no score records to evaluate")
    tasks = sorted({r["task"] for r in records})
    rows = {}
    counts = {}
    for task in tasks:
        subset = sorted(
            (r for r in records if r["task"] == task), key=lambda r: r["id"]
        )
        rows[task] = _metric_cells(subset, resamples, seed)
        counts[task] = len(subset)
    rows["overall_samples"] = _metric_cells(
        sorted(records, key=lambda r: r["id"]), resamples, seed
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
    )


# ---------------------------------------------------------------------------
# mining driver

def cmd_mine(
    corpus: Corpus,
    client: CompletionClient,
    matcher,
    out_dir: str | Path,
    seed: int = 0,
    threshold: float = 1.0,
    workers: int = 1,
) -> tuple[BenchmarkBundle, int]:
    """Full pipeline: mine, then the compile tail of `cmd_compile`."""
    chains, rejections = mine_corpus(corpus, client, matcher, workers=workers)
    return cmd_compile(corpus, chains, out_dir, seed, threshold, rejections)


def cmd_compile(
    corpus: Corpus,
    chains: Sequence[MinedChain],
    out_dir: str | Path,
    seed: int = 0,
    threshold: float = 1.0,
    rejections: Sequence[Rejection] = (),
) -> tuple[BenchmarkBundle, int]:
    """Factuality filter -> balance -> compile. A chain whose sample id is
    not in the corpus raises ValueError. Writes the benchmark files,
    the kept chains (`chains.jsonl`) and every rejection, the given ones and
    the filter's (`rejections.jsonl`); returns the bundle and the number of
    rejections."""
    out_dir = Path(out_dir)
    corpus_ids = {s.id for s in corpus.samples}
    for c in chains:
        if c.sample_id not in corpus_ids:
            raise ValueError(f"chain references unknown sample id {c.sample_id!r}")
    kept, filtered = filter_by_factuality(chains, threshold=threshold)
    rejections = sorted([*rejections, *filtered], key=lambda r: (r.sample_id, r.stage))
    balanced = balance(corpus, seed=seed)
    kept_ids = {s.id for s in balanced.samples}
    kept = [c for c in kept if c.sample_id in kept_ids]
    bundle = compile_benchmark(
        balanced, kept, out_dir, seed=seed, threshold=threshold
    )
    with (out_dir / "chains.jsonl").open("w", encoding="utf-8") as fh:
        for c in kept:
            fh.write(json.dumps(c.as_record(), sort_keys=True) + "\n")
    with (out_dir / "rejections.jsonl").open("w", encoding="utf-8") as fh:
        for r in rejections:
            fh.write(json.dumps(r.as_record(), sort_keys=True) + "\n")
    return bundle, len(rejections)


# ---------------------------------------------------------------------------
# toy training driver

def cmd_train_toy(
    corpus: Corpus,
    preset: str,
    out_dir: str | Path,
    sft_cfg: SftConfig,
    grpo_cfg: GrpoConfig,
    seed: int = 0,
) -> Path:
    """Run an ablation preset and write checkpoint + per-step stats."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    policy = make_toy_policy(corpus, n_contexts=256)
    trained, stats = run_preset(preset, corpus, policy, sft_cfg, grpo_cfg)
    cfg_dict = {
        "preset": preset,
        "sft": vars(sft_cfg),
        "grpo": {k: v for k, v in vars(grpo_cfg).items()},
        "seed": seed,
    }
    checkpoint = out_dir / "checkpoint.npz"
    save_checkpoint(trained, checkpoint, config_hash=config_hash(cfg_dict))
    with (out_dir / "stats.jsonl").open("w", encoding="utf-8") as fh:
        for s in stats:
            fh.write(json.dumps(s.as_record(), sort_keys=True) + "\n")
    write_manifest(out_dir, cfg_dict, seed)
    return checkpoint
