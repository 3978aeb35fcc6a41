"""The package as a user runs it: the CLI as a program, a replay of a
recorded run, strict JSON output and training repeated across processes. CI
runs this module again on the installed package, from outside the checkout."""

import contextlib
import importlib.metadata
import io
import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import radreason
from radreason.cli import main
from radreason.core import save_corpus
from radreason.training import make_toy_corpus

DATA = Path(__file__).parent / "data"
CORPUS = str(DATA / "fixture_corpus.jsonl")
MODULE = [sys.executable, "-m", "radreason.cli"]


def _run(argv, cwd, **env):
    """`argv` run in `cwd`, importing the radreason this module tests."""
    path = os.pathsep.join(filter(None, [str(Path(radreason.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path, **env})


def _console_script():
    try:
        importlib.metadata.distribution("radreason")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("the radreason distribution is not installed: no console script")
    return [shutil.which("radreason", path=sysconfig.get_path("scripts")) or "radreason"]


@pytest.mark.parametrize("runner", ["module", "script"])
@pytest.mark.parametrize("argv, code, err", [
    # main returns the code, and the program exits with it
    (["--config", "missing.json", "eval", "scores.jsonl"], 1,
     "error: cannot read config: [Errno 2] No such file or directory: 'missing.json'\n"),
    # argparse exits by itself
    (["mine", CORPUS, "--out", "run", "--threshold", "1"], 2,
     "radreason: error: unrecognized arguments: --threshold 1\n"),
], ids=["fatal", "usage"])
def test_exit_codes_as_a_program(tmp_path, runner, argv, code, err):
    done = _run([*(MODULE if runner == "module" else _console_script()), *argv], tmp_path)
    assert (done.returncode, done.stdout) == (code, "")
    assert done.stderr.endswith(err) and "Traceback" not in done.stderr, done.stderr
    assert not any(tmp_path.iterdir())  # a refused run writes nothing


def test_training_repeats_bit_for_bit(tmp_path):
    # two fresh processes that hash strings differently
    save_corpus(make_toy_corpus(), tmp_path / "toy.jsonl")
    for run in ("1", "2"):
        done = _run([*MODULE, "train-toy", "toy.jsonl", "--preset", "full", "--out", run],
                    tmp_path, PYTHONHASHSEED=run)
        assert done.returncode == 0, done.stderr
    a, b = tmp_path / "1", tmp_path / "2"
    for name in ("stats.jsonl", "run_manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    # the entries of an .npz zip carry timestamps: compare the arrays
    with np.load(a / "checkpoint.npz") as x, np.load(b / "checkpoint.npz") as y:
        assert sorted(x.files) == sorted(y.files)
        for name in x.files:
            assert x[name].dtype == y[name].dtype and np.array_equal(x[name], y[name]), name


def test_replay_and_strict_json(tmp_path):
    # in-process, from the recording of the bundled fixtures to their report
    out, config, outputs = tmp_path / "out", tmp_path / "config.json", tmp_path / "outputs.jsonl"
    config.write_text(json.dumps({"mock_fixture": str(DATA / "mining_fixture.jsonl"),
                                  "cache_dir": str(out / "cache")}), encoding="utf-8")
    # a faithful output, a wrong one and a line that score records as an error
    outputs.write_text(
        '{"id": "f002", "output": "<think>No pleural effusion.</think><answer>B</answer>"}\n'
        '{"id": "f003", "output": "<think>Cardiomegaly.</think><answer>B</answer>"}\n{bad\n',
        encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        for backend, bundle in [("mock", "bench"), ("cache-only", "replay")]:
            assert main(["--config", str(config), "--backend", backend, "mine", CORPUS,
                         "--out", str(out / bundle)]) == 2  # two designed rejections
        assert main(["score", str(out / "bench" / "train_R.jsonl"), str(outputs),
                     "--out", str(out / "scores.jsonl")]) == 2
        assert main(["eval", str(out / "scores.jsonl"), "--out", str(out / "report.json"),
                     "--resamples", "200"]) == 0
    recorded, replayed = ({p.relative_to(d): p.read_bytes() for p in d.rglob("*") if p.is_file()}
                          for d in (out / "bench", out / "replay"))
    assert replayed == recorded  # byte for byte
    # every file written is strict JSON: NaN or Infinity fails
    paths = sorted(p for p in out.rglob("*") if p.is_file())
    assert {p.suffix for p in paths} == {".json", ".jsonl"}, paths
    for path in paths:
        text = path.read_text(encoding="utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(doc, parse_constant=lambda c: pytest.fail(f"{path}: {c} is not JSON"))
