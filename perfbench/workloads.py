"""One CLI call of a workload pass, run in a fresh process.

    python3 perfbench/workloads.py WORKLOAD INPUT_DIR --step {0,1} --spawned-at T [--trace-run ID --spans FILE]

It makes one call through `radreason.cli.main`, times it, checks its output
and prints one JSON line. Each call runs in a process of its own, as it does
for a user of the CLI, so nothing a call leaves in memory can speed up the
next one. An untraced call also reports its set-up time: from T, the
`time.perf_counter()` reading at which the benchmark spawned the process,
until the CLI enters its `harness.cmd_*` driver (radreason imported, the
corpus loaded, the matcher or client built), plus the policy construction
inside `cmd_train_toy`. With --trace-run the call is traced instead and the
line carries the tracer's totals.

A pass is a first call and one or more second calls (step 0 and step 1),
and each call with its output check is one operation. `train` runs
`train-toy --preset full`, then `--preset no_process_reward` (its ablation
partner). `score_eval` runs `score`, then `eval` at 1000 resamples. `mine`
runs `mine` on the mock backend with an empty cache directory, then `mine`
on the cache-only backend over the cache it recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

RESAMPLES = 1000
TRAIN_PRESETS = ("full", "no_process_reward")
TRAIN_GAIN = 1.5  # final GRPO mean reward over the step-0 reward
TOL = 1e-9  # slack for checks on floats that a later change may move in the last bits


class CheckFailed(Exception):
    pass


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


# ---------------------------------------------------------------------------
# output checks


def check_train(out: Path) -> None:
    for name in ("checkpoint.npz", "stats.jsonl", "run_manifest.json"):
        _check((out / name).is_file(), f"train-toy wrote no {out / name}")
    grpo = [s for s in _read_jsonl(out / "stats.jsonl") if s["stage"] == "grpo"]
    _check(len(grpo) == 200, f"{out}: {len(grpo)} GRPO steps, expected 200")
    first, last = grpo[0]["mean_reward"], grpo[-1]["mean_reward"]
    _check(
        last >= TRAIN_GAIN * first and last > first,
        f"{out}: mean reward {first:.4f} -> {last:.4f}, expected a {TRAIN_GAIN}x gain",
    )


def check_scores(path: Path, expected: dict) -> None:
    records, errors = [], []
    for rec in _read_jsonl(path):
        (errors if "error_record" in rec else records).append(rec)
    _check(len(records) == expected["scored"],
           f"{len(records)} score records, expected {expected['scored']}")
    error_ids = sorted(e["error_record"]["id"] for e in errors)
    _check(error_ids == sorted(expected["unknown_ids"]),
           "error records are not exactly the designed unknown ids")
    for rec in records:
        for key in ("r_f", "r_c", "r_e", "radrscore", "format", "outcome"):
            _check(-TOL <= rec[key] <= 1 + TOL, f"{rec['id']}: {key}={rec[key]} outside [0, 1]")
        mean = (rec["r_f"] + rec["r_c"] + rec["r_e"]) / 3
        _check(math.isclose(rec["radrscore"], mean, rel_tol=TOL, abs_tol=TOL),
               f"{rec['id']}: radrscore {rec['radrscore']} is not the mean {mean}")


def check_eval(path: Path, expected: dict) -> None:
    report = json.loads(path.read_text(encoding="utf-8"))
    _check(report["counts"]["overall_samples"] == expected["scored"],
           "eval counted another number of records than score wrote")
    for group, metrics in report["rows"].items():
        for metric, cell in metrics.items():
            _check(cell["ci_low"] - TOL <= cell["mean"] <= cell["ci_high"] + TOL,
                   f"eval {group}/{metric}: interval does not contain its mean")


def mine_figures(out: Path, expected: dict) -> dict:
    """Kept ratio and rejections per stage of one mining run."""
    stages: dict[str, int] = {}
    for rec in _read_jsonl(out / "rejections.jsonl"):
        stages[rec["stage"]] = stages.get(rec["stage"], 0) + 1
    kept = len(_read_jsonl(out / "chains.jsonl"))
    return {"kept_ratio": kept / expected["mined"], "rejections": stages}


def check_record(record: Path, expected: dict) -> None:
    figures = mine_figures(record, expected)
    _check(figures["rejections"] == expected["rejections"],
           f"rejections {figures['rejections']}, designed {expected['rejections']}")
    for chain in _read_jsonl(record / "chains.jsonl"):
        _check(chain["r_f"] >= 1.0, f"kept chain {chain['sample_id']} has r_f {chain['r_f']}")
    manifest = json.loads((record / "manifest.json").read_text(encoding="utf-8"))
    _check(manifest["counts"]["total"] <= expected["samples"], "bundle has unknown samples")


def check_replay(record: Path, replay: Path) -> None:
    rec_files = sorted(p.name for p in record.iterdir())
    rep_files = sorted(p.name for p in replay.iterdir())
    _check(rec_files == rep_files, f"replay wrote {rep_files}, record wrote {rec_files}")
    for name in rec_files:
        _check((record / name).read_bytes() == (replay / name).read_bytes(),
               f"replay {name} differs from the recorded run")


# ---------------------------------------------------------------------------
# calls: two per pass, each followed by its check


def _steps(workload: str, expected: dict) -> list[tuple[list[str], int, object]]:
    """(argv, expected exit code, check) for each call of one pass."""
    seed = str(expected["seed"])
    common = ["--seed", seed, "--workers", "1"]
    if workload == "train":
        return [
            (common + ["train-toy", "corpus.jsonl", "--preset", p, "--out", f"run_{p}"], 0,
             lambda p=p: check_train(Path(f"run_{p}")))
            for p in TRAIN_PRESETS
        ]
    if workload == "score_eval":
        return [
            (common + ["score", "corpus.jsonl", "outputs.jsonl", "--out", "scores.jsonl"], 2,
             lambda: check_scores(Path("scores.jsonl"), expected)),
            (common + ["eval", "scores.jsonl", "--out", "report.json",
                       "--resamples", str(RESAMPLES)], 0,
             lambda: check_eval(Path("report.json"), expected)),
        ]
    mine = ["mine", "corpus.jsonl"]
    # exit code 2: the designed rejections
    return [
        (["--config", "config.json", "--backend", "mock"] + common + mine + ["--out", "record"],
         2, lambda: check_record(Path("record"), expected)),
        (["--config", "config.json", "--backend", "cache-only"] + common + mine
         + ["--out", "replay"], 2,
         lambda: check_replay(Path("record"), Path("replay"))),
    ]


def _clear_outputs(workload: str, step: int) -> None:
    """Move the previous outputs of a mining call out of the way. They are
    renamed, not deleted: ext4 without a journal scans past recently freed
    inodes when it allocates new ones, so deleting thousands of cache files
    right before a recording call would slow that call's file writes. The
    run deletes them when it ends (see `run.spread_subdirectories`)."""
    if workload != "mine":
        return
    trash = Path("trash")
    trash.mkdir(exist_ok=True)
    for name in ("cache", "record", "replay")[step * 2:]:
        if Path(name).exists():
            os.rename(name, trash / f"{name}-{time.time_ns()}")


def _watch_setup():
    """Trace only what marks the end of set-up: the corpus load, the entry
    of the CLI's `harness.cmd_*` driver (after the CLI has loaded the corpus
    and built the matcher or client), and `make_toy_policy`, which
    `cmd_train_toy` calls before it trains."""
    from radreason import core, harness
    from tracing import Tracer

    tracer = Tracer(run_id="setup")
    tracer.patch_function(core, "load_corpus", "core.load_corpus")
    tracer.patch_function(harness, "make_toy_policy", "training.make_toy_policy")
    for fn in ("cmd_score", "cmd_eval", "cmd_mine", "cmd_train_toy"):
        tracer.patch_function(harness, fn, f"harness.{fn}")
    return tracer


def call(workload: str, step: int, spawned_at: float, trace_run: str | None,
         spans: Path | None) -> dict:
    expected = json.loads(Path("expected.json").read_text(encoding="utf-8"))
    argv, want_rc, check = _steps(workload, expected)[step]
    _clear_outputs(workload, step)
    from radreason.cli import main as cli_main

    if trace_run is not None:
        from tracing import Tracer, install

        tracer = Tracer(run_id=trace_run)
        install(tracer)
    else:
        tracer = _watch_setup()
    result: dict = {"call_s": None, "error": ""}
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = cli_main(argv)
            result["call_s"] = time.perf_counter() - start
        _check(rc == want_rc, f"`{' '.join(argv)}` exited {rc}, expected {want_rc}")
        check()
    except Exception as e:  # noqa: BLE001 - every failure is counted and reported
        detail = "" if isinstance(e, CheckFailed) else traceback.format_exc()
        result["error"] = f"{type(e).__name__}: {e}\n{detail}".strip()
    tracer.uninstall()
    if trace_run is not None:
        result["trace"] = tracer.totals()
        result["spans_dropped"] = tracer.dropped
        if spans is not None:
            tracer.write_spans(spans)
    elif tracer.calls["core.load_corpus"] and not result["error"]:
        ready = min(start for _, _, name, start, _, _ in tracer.spans
                    if name.startswith("harness.cmd_"))
        result["setup_s"] = ready - spawned_at + tracer.self_s["training.make_toy_policy"]
    if workload == "mine" and step == 0 and not result["error"]:
        result["mine"] = mine_figures(Path("record"), expected)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("train", "score_eval", "mine"))
    parser.add_argument("input_dir", type=Path)
    parser.add_argument("--step", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() reading when the process was spawned")
    parser.add_argument("--trace-run", default=None, help="trace the call under this run id")
    parser.add_argument("--spans", type=Path, default=None, help="append spans to this file")
    args = parser.parse_args(argv)
    spans = args.spans.resolve() if args.spans else None
    sys.path.insert(0, str(SRC))
    os.chdir(args.input_dir)
    result = call(args.workload, args.step, args.spawned_at, args.trace_run, spans)
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
