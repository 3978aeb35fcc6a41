"""radreason benchmark: one workload run, measured for a fixed time.

    python3 perfbench/run.py --workload {train,score_eval,mine} --seed N --seconds S --trace {0,1}

Run it from the repository root. It generates the workload's inputs from
the seed (`inputs.py`), then repeats passes of the workload for about S
seconds. Each pass makes CLI calls through `radreason.cli.main`, every call
in a fresh process that also checks its output and, untraced, times its
set-up (`workloads.py`).

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics of a traced run with --trace 1. The line before it is
the detail: the environment, each metric with its sample count, the error
rate, and the figures under descriptive names. Results and the spans of
traced runs are also written to perfbench/.out/.
"""

from __future__ import annotations

import argparse
import fcntl
import json
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
WORKLOADS = ("train", "score_eval", "mine")
# calls of step 1 per pass: short calls are repeated for more samples
SECOND_CALLS = {"train": 1, "score_eval": 3, "mine": 2}
CALL_TIMEOUT_S = 120
MINE_STAGES = ("plan", "refine", "factuality_filter", "mine")
# ioctls of `chattr`: inode flags, and the Orlov allocator's top-directory flag
_LONG = struct.calcsize("l")
FS_IOC_GETFLAGS = (2 << 30) | (_LONG << 16) | (ord("f") << 8) | 1
FS_IOC_SETFLAGS = (1 << 30) | (_LONG << 16) | (ord("f") << 8) | 2
FS_TOPDIR_FL = 0x00020000
KEEP_EMPTY_S = 600  # longer than ext4 counts a freed inode as recently deleted


def per_layer_units() -> dict[str, str]:
    from tracing import COUNTED, TIMED

    units = {}
    for name in TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(dict.fromkeys(COUNTED, "count"))
    units.update({
        "llm.backend.calls": "count",
        "observations.extract.repeat_share": "ratio",
        "harness.bootstrap_ci.index_bytes": "bytes-computed",
        "mining.kept_ratio": "ratio",
    })
    for stage in MINE_STAGES:
        units[f"mining.rejections.{stage}"] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def environment() -> dict:
    import numpy

    cpu_model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor(),
        "machine": platform.machine(),
        "system": f"{platform.system()} {platform.release()}",
    }


def spread_subdirectories(path: Path) -> None:
    """Have ext4 place the subdirectories of `path` as top-level ones, as
    `chattr +T` does: each in the block group with the fewest directories,
    searched from a point that depends on the directory's name.

    ext4 without a journal passes over inodes freed in the last minutes when
    it allocates one, checking each. A `mine` run frees tens of thousands of
    inodes when it deletes its cache files, and a recording call that wrote
    its files in the same block group within minutes would take up to three
    times as long. So each run's work directory, where its calls write, goes
    into a block group of its own, and `empty_work_dir` leaves its
    directories behind for a while so that later runs, looking for the group
    with the fewest directories, keep out of that one. On other file systems
    the flag is refused and nothing changes."""
    fd = os.open(path, os.O_RDONLY)
    try:
        flags = struct.unpack("l", fcntl.ioctl(fd, FS_IOC_GETFLAGS, bytes(_LONG)))[0]
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, struct.pack("l", flags | FS_TOPDIR_FL))
    except OSError:
        pass
    finally:
        os.close(fd)


def empty_work_dir(work: Path) -> None:
    """Delete the files the run wrote, but keep its directories, empty, for
    KEEP_EMPTY_S: see `spread_subdirectories`."""
    for root, _, files in os.walk(work):
        for name in files:
            os.unlink(os.path.join(root, name))


def remove_old_work_dirs() -> None:
    for old in OUT.glob("work-*"):
        if time.time() - old.stat().st_mtime > KEEP_EMPTY_S:
            shutil.rmtree(old, ignore_errors=True)


def summary(values: list[float], unit: str) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (null when there are fewer than 20 samples), and the sample count."""
    tail = None
    for p in (99.9, 99, 95, 90, 75, 50):
        if len(values) * (1 - p / 100) >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
            tail = {"percentile": p, "value": cut}
            break
    return {"value": statistics.median(values), "unit": unit, "samples": len(values),
            "tail": tail}


def run_call(workload: str, work: Path, step: int, trace_run: str | None,
             spans: Path) -> dict:
    """One call in a fresh process; a crash or a time-out is a failed call."""
    args = [workload, str(work), "--step", str(step)]
    if trace_run is not None:
        args += ["--trace-run", trace_run, "--spans", str(spans)]
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *args,
             "--spawned-at", repr(time.perf_counter())],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=CALL_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"call {step} ran over {CALL_TIMEOUT_S} s"}
    if done.returncode != 0 or not done.stdout.strip():
        return {"error": f"call {step} exited {done.returncode}:\n{done.stderr}"}
    return json.loads(done.stdout.splitlines()[-1])


def run_passes(workload: str, work: Path, seconds: float, trace: bool, spans: Path) -> dict:
    """Passes for about `seconds`. A traced run alternates untraced and
    traced passes, the untraced ones being the baseline for the overhead."""
    passes, attempted, errors = [], 0, []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.perf_counter()
        calls = []
        for k, step in enumerate([0] + [1] * SECOND_CALLS[workload]):
            attempted += 1
            call = run_call(workload, work, step, f"{len(passes)}.{k}" if traced else None,
                            spans)
            if call["error"]:
                errors.append(call["error"])
                break
            calls.append(call)
        if errors:
            break
        wall = time.perf_counter() - t0
        entry = {"call_s": [c["call_s"] for c in calls], "traced": traced,
                 "setup_s": [c["setup_s"] for c in calls if "setup_s" in c],
                 "peak_rss_mb": max(c["peak_rss_mb"] for c in calls)}
        if "mine" in calls[0]:
            entry["mine"] = calls[0]["mine"]
        if traced:
            from tracing import figures, merge

            entry["layers"] = figures(merge([c["trace"] for c in calls]))
            entry["spans_dropped"] = sum(c["spans_dropped"] for c in calls)
        passes.append(entry)
        # start another pass while at least half of one fits in the time left
        remaining = seconds - (time.perf_counter() - start)
        if remaining < wall / 2 and not (trace and len(passes) < 2):
            break
    return {"passes": passes, "attempted": attempted, "failed": len(errors),
            "errors": errors}


def end_to_end(workload: str, result: dict, expected: dict) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and the detail that goes with them."""
    calls = [p["call_s"] for p in result["passes"]]
    first, second = [c[0] for c in calls], [t for c in calls for t in c[1:]]
    # every call that loads the corpus: all but `eval`
    setup = [t for p in result["passes"] for t in p["setup_s"]]
    detail = {
        "setup_s": summary(setup, "s"),
        "first_call_s": summary(first, "s"),
        "second_call_s": summary(second, "s"),
        "peak_rss_mb": summary([p["peak_rss_mb"] for p in result["passes"]], "MB"),
    }
    metrics = {k: {"value": v["value"], "unit": v["unit"]} for k, v in detail.items()}
    # the same measurements under descriptive names, throughputs included
    if workload == "train":
        named = {"train_wall_s": summary(first, "s"),
                 "train_no_process_reward_wall_s": summary(second, "s")}
    elif workload == "score_eval":
        named = {"score_outputs_per_s": summary([expected["outputs"] / t for t in first],
                                                "outputs/s"),
                 "eval_s": summary(second, "s")}
    else:
        n = expected["mined"]
        named = {"mine_record_samples_per_s": summary([n / t for t in first], "samples/s"),
                 "mine_replay_samples_per_s": summary([n / t for t in second], "samples/s")}
    named["setup_s"] = detail["setup_s"]
    named["peak_rss_mb"] = detail["peak_rss_mb"]
    return metrics, {"end_to_end": detail, "named": named}


def per_layer(result: dict) -> tuple[dict, dict]:
    units = per_layer_units()
    traced = [p for p in result["passes"] if p["traced"]]
    baseline = [sum(p["call_s"]) for p in result["passes"] if not p["traced"]]
    values: dict[str, float] = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(p["layers"][name] for p in traced)
    mine = traced[-1].get("mine", {"kept_ratio": 0.0, "rejections": {}})
    values["mining.kept_ratio"] = mine["kept_ratio"]
    for stage in MINE_STAGES:
        values[f"mining.rejections.{stage}"] = mine["rejections"].get(stage, 0)
    traced_s = statistics.median(sum(p["call_s"]) for p in traced)
    values["trace.overhead_ratio"] = traced_s / statistics.median(baseline) - 1
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    detail = {"traced_passes": len(traced), "untraced_passes": len(baseline),
              "traced_pass_s": traced_s, "untraced_pass_s": statistics.median(baseline),
              "spans_dropped": sum(p["spans_dropped"] for p in traced)}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "radreason" / "__init__.py").is_file():
        print(f"error: no radreason sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import inputs

    OUT.mkdir(exist_ok=True)
    spread_subdirectories(OUT)
    remove_old_work_dirs()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    spans = OUT / f"{tag}.spans.tsv"
    spans.unlink(missing_ok=True)
    try:
        expected = inputs.GENERATORS[args.workload](work, args.seed)
        result = run_passes(args.workload, work, args.seconds, bool(args.trace), spans)
    finally:
        empty_work_dir(work)

    correct = result["failed"] == 0 and bool(result["passes"])
    if not correct:
        metrics, detail = {}, {}
    elif args.trace:
        metrics, detail = per_layer(result)
    else:
        metrics, detail = end_to_end(args.workload, result, expected)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "passes": len(result["passes"]),
        # unexpected failures per operation; designed rejections are not failures
        "error_rate": result["failed"] / result["attempted"],
        "errors": result["errors"],
        **detail,
    }
    (OUT / f"{tag}.json").write_text(
        json.dumps({**report, "metrics": metrics, "raw": result}, indent=1, sort_keys=True)
        + "\n", encoding="utf-8")
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
