"""Tests of the benchmark itself: seeded inputs are reproducible, each
workload's calls pass their output checks, and the metric names match
BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

SMALL = {
    "train": {},
    "score_eval": {"n_samples": 30, "unknown_share": 0.05},
    "mine": {"n_samples": 100},
}


def _generate(workload: str, out: Path, seed: int) -> dict[str, bytes]:
    inputs.GENERATORS[workload](out, seed, **SMALL[workload])
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    first = _generate(workload, tmp_path / "a", 7)
    again = _generate(workload, tmp_path / "b", 7)
    other = _generate(workload, tmp_path / "c", 8)
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generators_work_on_many_seeds(tmp_path, workload):
    for seed in range(40):
        inputs.GENERATORS[workload](tmp_path / str(seed), seed, **SMALL[workload])


def test_mine_inputs_carry_designed_rejections(tmp_path):
    expected = inputs.make_mine_inputs(tmp_path, 3, n_samples=400)
    shares = inputs.MINE_REJECT_SHARE
    for stage, count in expected["rejections"].items():
        assert count == round(shares[stage] * expected["mined"]) > 0


def _call(workload: str, work: Path, step: int, spans: Path | None = None) -> dict:
    args = [sys.executable, str(HERE / "workloads.py"), workload, str(work),
            "--step", str(step), "--spawned-at", repr(time.perf_counter())]
    if spans is not None:
        args += ["--trace-run", f"0.{step}", "--spans", str(spans)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_smoke_pass_passes_its_checks(tmp_path, workload):
    work = tmp_path / "work"
    inputs.GENERATORS[workload](work, 5, **SMALL[workload])
    spans = tmp_path / "spans.tsv"
    first = _call(workload, work, 0)
    second = _call(workload, work, 1, spans)  # traced
    assert first["error"] == "" and second["error"] == ""
    assert first["call_s"] > 0 and second["call_s"] > 0
    assert first["setup_s"] > 0 and "setup_s" not in second  # traced calls time no set-up
    layers = tracing.figures(second["trace"])
    assert set(layers) | {"mining.kept_ratio", "trace.overhead_ratio"} | {
        f"mining.rejections.{s}" for s in run.MINE_STAGES
    } == set(run.per_layer_units())
    assert spans.read_text().startswith("id\tparent\tname")
    root = {"train": "harness.cmd_train_toy", "score_eval": "harness.cmd_eval",
            "mine": "harness.cmd_mine"}[workload]
    assert layers[f"{root}.calls"] == 1


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.per_layer_units())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "first_call_s", "second_call_s", "peak_rss_mb"
    }


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mine", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
