import contextlib
import functools
import hashlib
import io
import json
import operator
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import radreason
from radreason.cli import build_parser, main
from radreason.core import save_corpus, write_jsonl
from radreason.training import make_toy_corpus


@pytest.fixture()
def mock_config(tmp_path, data_dir):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"mock_fixture": str(data_dir / "mining_fixture.jsonl")}),
        encoding="utf-8",
    )
    return str(path)


def _read_records(path):
    """The JSON objects of a JSON Lines file, read without holding it open."""
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_parser_has_all_subcommands():
    parser = build_parser()
    sub = next(
        a for a in parser._actions if a.__class__.__name__ == "_SubParsersAction"
    )
    assert set(sub.choices) == {"mine", "compile-bench", "score", "eval", "train-toy"}


def test_backend_choices():
    parser = build_parser()
    backend = next(a for a in parser._actions if a.dest == "backend")
    assert set(backend.choices) == {"remote", "mock", "cache-only"}


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--workers", "0", "mine", "corpus.jsonl", "--out", "run"], "--workers"),
        (["--workers", "-2", "score", "c.jsonl", "o.jsonl", "--out", "s"], "--workers"),
        (["eval", "scores.jsonl", "--resamples", "0"], "--resamples"),
        (["eval", "scores.jsonl", "--resamples", "-3"], "--resamples"),
    ],
)
def test_counts_below_one_refused_by_parser(argv, flag, capsys):
    # parsing only: no command runs
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_counts_of_one_accepted_by_parser():
    args = build_parser().parse_args(["--workers", "1", "eval", "s", "--resamples", "1"])
    assert (args.workers, args.resamples) == (1, 1)


@pytest.mark.parametrize("command", [
    ["mine", "corpus.jsonl", "--out", "run"],
    ["compile-bench", "corpus.jsonl", "chains.jsonl", "--out", "run"],
    ["eval", "scores.jsonl"],
    ["train-toy", "corpus.jsonl", "--preset", "full", "--out", "run"],
])
def test_negative_seed_refused_by_parser(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--seed", "-1", *command])
    assert exc.value.code == 2
    assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
    assert build_parser().parse_args(["--seed", "0", *command]).seed == 0


@pytest.mark.parametrize("command", [
    ["mine", "corpus.jsonl", "--out", "run"],
    ["compile-bench", "corpus.jsonl", "chains.jsonl", "--out", "run"],
])
def test_threshold_is_not_an_option(command, capsys):
    # the mining filter keeps r_f = 1 chains, a constant of the method
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*command, "--threshold", "0.5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threshold 0.5" in capsys.readouterr().err


def test_missing_config_is_fatal(tmp_path, data_dir):
    rc = main(
        [
            "--config", str(tmp_path / "missing.json"),
            "mine", str(data_dir / "fixture_corpus.jsonl"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 1


def test_mine_reports_sample_errors(tmp_path, data_dir, mock_config, capsys):
    out = tmp_path / "bench"
    rc = main(
        [
            "--config", mock_config,
            "--backend", "mock",
            "mine", str(data_dir / "fixture_corpus.jsonl"),
            "--out", str(out),
        ]
    )
    assert rc == 2  # two per-sample rejections, batch still completes
    assert (out / "manifest.json").exists()
    assert (out / "run_manifest.json").exists()
    counts = json.loads(capsys.readouterr().out)
    assert counts["total"] == 10


@pytest.mark.parametrize("workers", ["1", "2"])
def test_mine_cache_miss_is_fatal(tmp_path, data_dir, workers, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"cache_dir": str(tmp_path / "cache")}), encoding="utf-8")
    out = tmp_path / "bench"
    rc = main(
        [
            "--config", str(config),
            "--backend", "cache-only",
            "--workers", workers,
            "mine", str(data_dir / "fixture_corpus.jsonl"),
            "--out", str(out),
        ]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: cache-only backend: no cached response for key "
    )
    assert not out.exists()


def _record(tmp_path, data_dir):
    """Mine the bundled fixtures on the mock backend into an empty cache;
    return the cache directory."""
    config, cache = tmp_path / "record.json", tmp_path / "cache"
    config.write_text(json.dumps({
        "mock_fixture": str(data_dir / "mining_fixture.jsonl"), "cache_dir": str(cache),
    }), encoding="utf-8")
    rc = main(["--config", str(config), "mine", str(data_dir / "fixture_corpus.jsonl"),
               "--out", str(tmp_path / "recorded")])
    assert rc == 2  # the fixtures' two designed rejections
    return cache


def test_recording_asks_for_every_fixture_record(tmp_path, data_dir):
    # one log line per record: a record that no request asks for is dead
    cache = _record(tmp_path, data_dir)
    assert [p.name for p in cache.iterdir()] == ["responses.jsonl"]
    fixture = (data_dir / "mining_fixture.jsonl").read_bytes()
    assert (cache / "responses.jsonl").read_bytes().count(b"\n") == fixture.count(b"\n")


def test_cache_only_ignores_key_named_files(tmp_path, data_dir, capsys):
    # every recorded entry moved into a file of its own, `<key>.txt`: none is
    # read, so the replay stops at its first request
    cache = _record(tmp_path, data_dir)
    log = cache / "responses.jsonl"
    for rec in _read_records(log):
        (cache / f"{rec['key']}.txt").write_text(rec["response"], encoding="utf-8")
    log.unlink()
    config = tmp_path / "replay.json"
    config.write_text(json.dumps({"cache_dir": str(cache)}), encoding="utf-8")
    capsys.readouterr()
    rc = main(["--config", str(config), "--backend", "cache-only",
               "mine", str(data_dir / "fixture_corpus.jsonl"), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        "error: cache-only backend: no cached response for key "
    )


def test_train_toy_lists_presets_without_arg(tmp_path, capsys):
    rc = main(["train-toy", "corpus.jsonl", "--out", str(tmp_path)])
    assert rc == 0
    listed = capsys.readouterr().out.split()
    assert "full" in listed and "no_process_reward" in listed


def test_train_toy_unknown_preset_is_fatal(tmp_path, data_dir, mock_config):
    rc = main(
        [
            "--config", mock_config,
            "train-toy", str(data_dir / "fixture_corpus.jsonl"),
            "--preset", "nope",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert rc == 1


def test_train_toy_recipe_hash_is_pinned(tmp_path):
    # the hash of the preset, seed and every sft and grpo value that a run
    # with no config uses: moving any default of the recipe moves it
    from radreason.core import save_corpus
    from radreason.training import make_toy_corpus

    corpus = tmp_path / "toy.jsonl"
    save_corpus(make_toy_corpus(), corpus)
    rc = main(
        ["--seed", "3", "train-toy", str(corpus), "--preset", "sft_ro", "--out", str(tmp_path / "run")]
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "run" / "run_manifest.json").read_text(encoding="utf-8"))
    assert (manifest["config_hash"], manifest["seed"]) == ("057c5c1a186f1574", 3)


@pytest.mark.parametrize("section", ["sft", "grpo"])
def test_train_toy_unknown_config_key_is_fatal(tmp_path, data_dir, section, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({section: {"momentum": 0.9}}), encoding="utf-8")
    rc = main(
        [
            "--config", str(config),
            "train-toy", str(data_dir / "fixture_corpus.jsonl"),
            "--preset", "full",
            "--out", str(tmp_path / "run"),
        ]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config: ") and "'momentum'" in err


def test_train_toy_refuses_non_finite_stats(tmp_path, capsys):
    # a learning rate of 1e308 overflows the policy and its KL: Infinity is
    # not JSON, so the run fails on stats.jsonl before saving a checkpoint
    corpus, config, run = tmp_path / "toy.jsonl", tmp_path / "config.json", tmp_path / "run"
    save_corpus(make_toy_corpus(), corpus)
    config.write_text(json.dumps({"grpo": {"steps": 1, "learning_rate": 1e308}}),
                      encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # NumPy's overflow warnings
        rc = main(["--config", str(config), "train-toy", str(corpus), "--preset", "rl_o",
                   "--out", str(run)])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: {run / 'stats.jsonl'}: Out of range float values are not JSON compliant")
    assert not (run / "checkpoint.npz").exists()
    assert not any(run.iterdir())  # no partial stats.jsonl either


def test_score_then_eval_round_trip(tmp_path, data_dir, mock_config, capsys):
    bench = tmp_path / "bench"
    main(
        [
            "--config", mock_config,
            "mine", str(data_dir / "fixture_corpus.jsonl"),
            "--out", str(bench),
        ]
    )
    corpus_path = bench / "train_R.jsonl"
    outputs_path = tmp_path / "outputs.jsonl"
    with outputs_path.open("w", encoding="utf-8") as fh:
        for line in corpus_path.read_text(encoding="utf-8").splitlines():
            rec = json.loads(line)
            fh.write(
                json.dumps(
                    {
                        "id": rec["id"],
                        "output": (
                            f"<think>{rec['reasoning']}</think>"
                            f"<answer>{rec['answer']}</answer>"
                        ),
                    }
                )
                + "\n"
            )
    scores_path = tmp_path / "scores.jsonl"
    rc = main(
        ["score", str(corpus_path), str(outputs_path), "--out", str(scores_path)]
    )
    assert rc == 0
    report_path = tmp_path / "report.json"
    rc = main(
        ["eval", str(scores_path), "--out", str(report_path), "--resamples", "100"]
    )
    assert rc == 0
    capsys.readouterr()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["rows"]["overall_samples"]["radrscore"]["mean"] == 1.0
    assert report["ci_method"] == "percentile bootstrap, 100 resamples"


# run in a fresh interpreter: which watched modules the commands so far have
# loaded, counted from after `import numpy`, whose own imports none can avoid
_IMPORT_PROBE = """
import contextlib, io, json, sys
import numpy
start = set(sys.modules)
from radreason.cli import main
loaded = {}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    watched = {"_hashlib", "concurrent.futures", "numpy.ma", "numpy.random"}
    loaded[name] = [rc, sorted((set(sys.modules) - start) & watched)]
print(json.dumps(loaded))
"""


def test_commands_load_only_what_they_run(tmp_path, data_dir, mock_config, capsys):
    # OpenSSL (`_hashlib`), the thread pool, numpy.ma and numpy.random cost a
    # process 0.6-3.7 MB each: compile-bench, score and train-toy need none of
    # them, mine only OpenSSL for its request keys, eval no numpy.ma
    corpus = str(data_dir / "fixture_corpus.jsonl")
    _record(tmp_path, data_dir)  # its config, record.json, also serves the replay
    bench, record = tmp_path / "recorded", tmp_path / "record.json"
    capsys.readouterr()
    outputs, config = tmp_path / "outputs.jsonl", tmp_path / "train_config.json"
    outputs.write_text("".join(
        json.dumps({"id": r["id"], "output": f"<think>{r['reasoning']}</think>"
                                             f"<answer>{r['answer']}</answer>"}) + "\n"
        for r in _read_records(bench / "train_R.jsonl")), encoding="utf-8")
    config.write_text('{"sft": {"steps": 2}, "grpo": {"steps": 2}}', encoding="utf-8")
    # the probe counts from its start, so each command adds to the ones before
    steps = [
        ("compile-bench", ["compile-bench", corpus, str(bench / "chains.jsonl"),
                           "--out", str(tmp_path / "compiled")]),
        ("score", ["score", str(bench / "train_R.jsonl"), str(outputs),
                   "--out", str(tmp_path / "scores.jsonl")]),
        ("train-toy", ["--config", str(config), "train-toy", str(bench / "train_R.jsonl"),
                       "--preset", "full", "--out", str(tmp_path / "run")]),
        ("mine", ["--config", mock_config, "mine", corpus, "--out", str(tmp_path / "mined")]),
        ("replay", ["--config", str(record), "--backend", "cache-only", "mine", corpus,
                    "--out", str(tmp_path / "replayed")]),
        ("eval", ["eval", str(tmp_path / "scores.jsonl"), "--resamples", "100"]),
    ]
    src = Path(radreason.__file__).parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(steps)],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = json.loads(done.stdout)
    assert loaded["compile-bench"] == [0, []]
    assert loaded["score"] == [0, []]
    assert loaded["train-toy"] == [0, []]
    # the fixtures' two rejections; mine adds at most OpenSSL for its request
    # keys, which numpy < 2 has already loaded through numpy.random
    assert loaded["mine"][0] == 2
    assert set(loaded["mine"][1]) <= {"_hashlib"}
    # a cache-only replay of the recording rejects the same two samples and
    # still maps no numpy.random, which numpy < 2 loads with numpy itself
    assert loaded["replay"][0] == 2
    assert "numpy.random" not in loaded["replay"][1]
    # eval maps OpenSSL through numpy.random; where `import numpy` loads
    # numpy.ma itself (numpy < 2) it is never counted, so this holds there too
    assert loaded["eval"][0] == 0
    assert "numpy.ma" not in loaded["eval"][1]


BUNDLE_FILES = (
    "train_R.jsonl", "train_A.jsonl", "test_R.jsonl", "test_A.jsonl",
    "manifest.json", "chains.jsonl",
)


def test_compile_bench_reproduces_mine(tmp_path, data_dir, mock_config, capsys):
    corpus = str(data_dir / "fixture_corpus.jsonl")
    mined, compiled = tmp_path / "mined", tmp_path / "compiled"
    assert main(["--config", mock_config, "mine", corpus, "--out", str(mined)]) == 2
    chains = str(mined / "chains.jsonl")
    assert main(["compile-bench", corpus, chains, "--out", str(compiled)]) == 0
    for name in BUNDLE_FILES:
        assert (compiled / name).read_bytes() == (mined / name).read_bytes(), name
    assert (compiled / "rejections.jsonl").read_text(encoding="utf-8") == ""
    assert (compiled / "run_manifest.json").exists()
    mined_counts, compiled_counts = capsys.readouterr().out.splitlines()
    assert compiled_counts == mined_counts


def test_compile_bench_reports_filtered_chains(tmp_path, data_dir, mock_config):
    corpus = str(data_dir / "fixture_corpus.jsonl")
    mined = tmp_path / "mined"
    main(["--config", mock_config, "mine", corpus, "--out", str(mined)])
    records = _read_records(mined / "chains.jsonl")
    records[0]["r_f"] = 0.5
    chains = tmp_path / "chains.jsonl"
    chains.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "compiled"
    assert main(["compile-bench", corpus, str(chains), "--out", str(out)]) == 2
    rejections = _read_records(out / "rejections.jsonl")
    assert rejections == [
        {"sample_id": records[0]["sample_id"], "stage": "factuality_filter",
         "reason": "r_f=0.5000"}
    ]
    kept = [r["sample_id"] for r in _read_records(out / "chains.jsonl")]
    assert kept == [r["sample_id"] for r in records[1:]]


@pytest.mark.parametrize(
    "line, error",
    [
        ('{"sample_id": "f001"}', "missing field 'steps'"),
        ('{"sample_id": "f001", "steps": [], "narrative": "n", "r_f": "high"}',
         "field 'r_f' is not a number"),
        ('{"sample_id": "f001", "steps": [{"goal": "g"}], "narrative": "n", "r_f": 1}',
         "missing field 'order'"),
        ('{"sample_id": "f001", "steps": [{"goal": " ", "order": 0, "evidence": "e", '
         '"inferred": false}], "narrative": "n", "r_f": 1}',
         "malformed chain: plan step goal must be non-empty"),
        ('{"sample_id": "f001", "steps',
         "invalid JSON at column 23: Unterminated string starting at"),
        ('{"sample_id": "f001", "steps": [{"goal": "g", "order": 0, "evidence": "e", '
         '"inferred": "false"}], "narrative": "n", "r_f": 1}',
         "field 'inferred' is not a boolean"),
        ('{"sample_id": "f001", "steps": [], "narrative": "n", "r_f": "1"}',
         "field 'r_f' is not a number"),
        ('{"sample_id": "f001", "steps": [], "narrative": "n", "r_f": 7}',
         "field 'r_f' is outside [0, 1]"),
        ('{"sample_id": "f001", "steps": [], "narrative": "n", "r_f": NaN}',
         "field 'r_f' is outside [0, 1]"),
        ('{"sample_id": "f001", "steps": [], "narrative": ["n"], "r_f": 1}',
         "field 'narrative' is not a string"),
        ('{"sample_id": "f001", "steps": ["g"], "narrative": "n", "r_f": 1}',
         "field 'steps' is not a list of {goal, order, evidence, inferred} objects"),
    ],
)
def test_compile_bench_locates_malformed_chain(tmp_path, data_dir, capsys, line, error):
    chains = tmp_path / "chains.jsonl"
    chains.write_text("\n" + line + "\n", encoding="utf-8")
    rc = main(["compile-bench", str(data_dir / "fixture_corpus.jsonl"), str(chains),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {chains}:2: {error}")


def test_compile_bench_refuses_unknown_sample_id(tmp_path, data_dir, mock_config, capsys):
    corpus = str(data_dir / "fixture_corpus.jsonl")
    mined = tmp_path / "mined"
    main(["--config", mock_config, "mine", corpus, "--out", str(mined)])
    records = _read_records(mined / "chains.jsonl")
    records[1]["sample_id"] = "ghost"
    chains = tmp_path / "chains.jsonl"
    chains.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    rc = main(["compile-bench", corpus, str(chains), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == "error: chain references unknown sample id 'ghost'\n"


def test_compile_bench_locates_non_utf8_chain(tmp_path, data_dir, capsys):
    chains = tmp_path / "chains.jsonl"
    chains.write_bytes(b'\n{"sample_id": "f\xff01"}\n')
    rc = main(["compile-bench", str(data_dir / "fixture_corpus.jsonl"), str(chains),
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"error: {chains}:2: invalid UTF-8 at byte 16: invalid start byte\n"
    )


# One malformed line, after a blank one, in each line-delimited input: every
# reader locates it alike; `score` keeps going and records it instead.
_ARGV = {
    "corpus": ["compile-bench", "{bad}", "{out}.chains", "--out", "{out}"],
    "chains": ["compile-bench", "{corpus}", "{bad}", "--out", "{out}"],
    "outputs": ["score", "{corpus}", "{bad}", "--out", "{out}"],
    "records": ["eval", "{bad}"],
    "fixture": ["--config", "{config}", "mine", "{corpus}", "--out", "{out}"],
    "config": ["--config", "{bad}", "eval", "{bad}"],
    "train-config": ["--config", "{bad}", "train-toy", "{corpus}", "--preset", "full",
                     "--out", "{out}"],
    "mine-config": ["--config", "{bad}", "mine", "{corpus}", "--out", "{out}"],
    "compile-config": ["--config", "{bad}", "compile-bench", "{corpus}", "{bad}",
                       "--out", "{out}"],
    "score-config": ["--config", "{bad}", "score", "{corpus}", "{bad}", "--out", "{out}"],
    "eval-config": ["--config", "{bad}", "eval", "{bad}"],
}
_SAMPLE = {"id": "s", "task": "binary_diagnosis", "images": ["x.png"], "question": "q",
           "options": [{"label": "A", "text": "yes"}], "answer": "A"}
_SCORES = {"id": "s", "task": "t", "r_f": 1, "r_c": True, "r_e": 1, "radrscore": 1,
           "outcome": 1}
_REQUEST = {"template_id": "plan", "template_version": "1", "prompt": "p",
            "response": "r"}
_MALFORMED = [
    *[pytest.param(kind, line, reason, id=f"{kind}-{fault}")
      for kind in ("corpus", "chains", "outputs", "records", "fixture")
      for fault, line, reason in [
          ("utf8", b'{"id": "\xff"}', "invalid UTF-8 at byte 8: invalid start byte"),
          ("json", b'{"id": "x"', "invalid JSON at column 11: Expecting ',' delimiter"),
          ("array", b"[1, 2]", "not a JSON object"),
          ("deep", b"[" * 100_000, "invalid JSON: nested too deeply"),
      ]],
    *[pytest.param(kind, b"{}", "missing field " + fields, id=f"{kind}-missing")
      for kind, fields in [
          ("corpus", "'id', 'task', 'images', 'question', 'answer'"),
          ("chains", "'sample_id', 'steps', 'narrative', 'r_f'"),
          ("outputs", "'id', 'output'"),
          ("records", "'id', 'task', 'r_f', 'r_c', 'r_e', 'radrscore', 'outcome'"),
          ("fixture", "'template_id', 'template_version', 'prompt', 'response'"),
      ]],
    pytest.param("fixture", b'{"response": "r"}',
                 "missing field 'template_id', 'template_version', 'prompt'",
                 id="fixture-missing-request"),
    # every request is made at one temperature and token limit
    *[pytest.param("fixture", json.dumps({**_REQUEST, field: value}).encode(),
                   f"field {field!r} is refused: every request is made at "
                   "temperature 0.0 and max_tokens 1024", id=f"fixture-{field}")
      for field, value in [("temperature", 0.0), ("max_tokens", 1024)]],
    pytest.param("records", json.dumps(_SCORES).encode(), "field 'r_c' is not a number",
                 id="records-non-number"),
    pytest.param("records", json.dumps({**_SCORES, "r_c": 1, "task": 3}).encode(),
                 "field 'task' is not a string", id="records-non-string"),
    # tested before any float(): 10**400 would overflow it
    *[pytest.param("records", b'{"id": "s", "task": "t", "r_f": ' + value
                   + b', "r_c": 1, "r_e": 1, "radrscore": 1, "outcome": 1}',
                   "field 'r_f' is outside [0, 1]", id=f"records-range-{name}")
      for name, value in [("huge", b"1" + b"0" * 400), ("nan", b"NaN"),
                          ("inf", b"Infinity"), ("above-one", b"1.5")]],
    pytest.param("corpus", json.dumps({**_SAMPLE, "id": None}).encode(),
                 "field 'id' is not a string", id="corpus-null-id"),
    pytest.param("corpus", json.dumps({**_SAMPLE, "images": 5}).encode(),
                 "field 'images' is not a list", id="corpus-images"),
    pytest.param("corpus", json.dumps({**_SAMPLE, "images": [1]}).encode(),
                 "field 'images' is not a list of strings", id="corpus-image-number"),
    pytest.param("corpus", json.dumps({**_SAMPLE, "options": ["A"]}).encode(),
                 "field 'options' is not a list of {label, text} objects",
                 id="corpus-options"),
    pytest.param("corpus", json.dumps({**_SAMPLE, "question": None}).encode(),
                 "field 'question' is not a string", id="corpus-null-question"),
    pytest.param("corpus", json.dumps({**_SAMPLE, "answer": None}).encode(),
                 "field 'answer' is not a string", id="corpus-null-answer"),
    pytest.param("fixture", json.dumps({**_REQUEST, "response": 5}).encode(),
                 "field 'response' is not a string", id="fixture-non-string-response"),
    # a blank text has no observations: `score` could not extract them
    *[pytest.param("corpus", json.dumps({**_SAMPLE, "report": "E.", field: " \t"}).encode(),
                   f"sample s: field {field!r} is blank", id=f"corpus-blank-{field}")
      for field in ("report", "reasoning")],
    pytest.param("corpus", json.dumps({**_SAMPLE, "question": "q\ud800"}).encode(),
                 "field 'question' holds a lone surrogate", id="corpus-lone-surrogate"),
    *[pytest.param("outputs", json.dumps(rec).encode(), reason, id=f"outputs-{name}")
      for name, rec, reason in [
          ("list-output", {"id": "s", "output": ["<answer>A</answer>"]},
           "field 'output' is not a string"),
          ("integer-output", {"id": "s", "output": 0}, "field 'output' is not a string"),
          ("list-id", {"id": ["s"], "output": "<answer>A</answer>"},
           "field 'id' is not a string"),
      ]],
    pytest.param("config", b"[1]", "not a JSON object", id="config-array"),
    pytest.param("config", b"[" * 100_000, "invalid JSON: nested too deeply",
                 id="config-deep"),
    pytest.param("train-config", b'{"grpo": [1]}',
                 "config: section 'grpo' is not a JSON object", id="train-config-grpo"),
    pytest.param("train-config", b'{"sft": 5}',
                 "config: section 'sft' is not a JSON object", id="train-config-sft"),
    pytest.param("train-config", b'{"grpo": {"seed": 7}}',
                 "config: section 'grpo' cannot set 'seed'; --seed sets it",
                 id="train-config-grpo-seed"),
    pytest.param("train-config", b'{"grpo": {"clip_mode": "literal"}}',
                 "config: grpo.clip_mode 'literal' trains nothing in train-toy: with one "
                 "update per batch the ratio is 1 and min(ratio, 1 - clip_eps) * A has "
                 "no advantage gradient; use 'standard'",
                 id="train-config-grpo-literal-clip"),
    *[pytest.param("train-config", config, reason, id=f"train-config-{name}")
      for name, config, reason in [
          ("grpo-steps-string", b'{"grpo": {"steps": "5"}}', "config: grpo.steps is not an integer"),
          ("sft-rate-string", b'{"sft": {"learning_rate": "0.5"}}',
           "config: sft.learning_rate is not a finite number"),
          ("sft-steps-bool", b'{"sft": {"steps": true}}', "config: sft.steps is not an integer"),
          ("grpo-rate-nan", b'{"grpo": {"learning_rate": NaN}}',
           "config: grpo.learning_rate is not a finite number"),
          ("grpo-steps-negative", b'{"grpo": {"steps": -1}}', "config: grpo.steps must be >= 0"),
          ("sft-steps-negative", b'{"sft": {"steps": -1}}', "config: sft.steps must be >= 0"),
          ("grpo-group-size", b'{"grpo": {"group_size": 1}}',
           "config: grpo.group_size must be >= 2"),
      ]],
    pytest.param("score-config", b'{"cache_dir": 5}', "config: key 'cache_dir' is not a string",
                 id="score-config-cache-dir"),
    # a misspelt key would otherwise fall back to its default unnoticed
    *[pytest.param(f"{command}-config", b'{"matchr": "llm", "synonym_tabel": "x.tsv"}',
                   "config: unknown key 'matchr'", id=f"{command}-config-unknown-key")
      for command in ("mine", "compile", "score", "eval", "train")],
]


@pytest.mark.parametrize("kind, line, reason", _MALFORMED)
def test_malformed_input_located(tmp_path, data_dir, capsys, kind, line, reason):
    bad, config = tmp_path / "bad.jsonl", tmp_path / "config.json"
    bad.write_bytes(b"\n" + line + b"\n")
    config.write_text(json.dumps({"mock_fixture": str(bad)}), encoding="utf-8")
    paths = {"bad": bad, "config": config, "out": tmp_path / "out",
             "corpus": data_dir / "fixture_corpus.jsonl"}
    rc = main([arg.format(**paths) for arg in _ARGV[kind]])
    err = capsys.readouterr().err
    if kind == "outputs":
        # the error names the line's id when that is a string
        sample_id = "s" if b'"id": "s"' in line else None
        assert rc == 2 and err == ""
        assert json.loads((tmp_path / "out").read_text(encoding="utf-8")) == {
            "error_record": {"id": sample_id, "line": 2, "error": reason}
        }
    elif kind == "config":
        assert rc == 1 and err == f"error: cannot read config: {bad}: {reason}\n"
    elif kind.endswith("-config"):
        assert rc == 1 and err == f"error: {reason}\n"
    else:
        assert rc == 1 and err == f"error: {bad}:2: {reason}\n"


# A valid record of each input kind and the argv that reads it as {bad}. The
# fuzz test mutates one field of it, at any depth, and runs the command.
_FUZZ = {
    "corpus": ({**_SAMPLE, "report": "Effusion.", "reasoning": "effusion"},
               ["score", "{bad}", "{outputs}", "--out", "{out}"]),
    "chains": ({"sample_id": "f001", "steps": [{"goal": "g", "order": 0, "evidence": "e",
                                                "inferred": False}],
                "narrative": "n", "r_f": 1.0}, _ARGV["chains"]),
    "outputs": ({"id": "f001", "output": "<think>Effusion.</think><answer>A</answer>"},
                _ARGV["outputs"]),
    "records": ({**_SCORES, "r_c": 1}, ["eval", "{bad}", "--resamples", "10"]),
    "fixture": (_REQUEST, _ARGV["fixture"]),
    "config": ({"matcher": "lexical", "sft": {"steps": 1, "learning_rate": 0.5},
                "grpo": {"steps": 1, "group_size": 2, "clip_mode": "standard"}},
               ["--config", "{bad}", "train-toy", "{toy}", "--preset", "sft_ro",
                "--out", "{out}"]),
}
# delete the field, give it a value of another JSON type, or splice in raw text
_MUTATIONS = [("delete",), *[("value", v) for v in (None, True, 2, 0.5, "x", [], {})],
              ("raw", "NaN"), ("raw", "[" * 100_000 + "]" * 100_000), ("surrogate",)]


def _paths(value, head=()):
    """The path to every member of a JSON value's objects and lists."""
    members = (value.items() if isinstance(value, dict)
               else enumerate(value) if isinstance(value, list) else ())
    for key, child in members:
        yield head + (key,)
        yield from _paths(child, head + (key,))


@pytest.mark.parametrize("kind", _FUZZ)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_mutated_input_fails_cleanly(tmp_path_factory, data_dir, kind, data):
    base, argv = _FUZZ[kind]
    path = data.draw(st.sampled_from(list(_paths(base))))
    mutation = data.draw(st.sampled_from(_MUTATIONS))
    rec = json.loads(json.dumps(base))
    *head, last = path
    parent = functools.reduce(operator.getitem, head, rec)
    original = parent[last]
    if mutation[0] == "value":
        assume(type(mutation[1]) is not type(original))
    if mutation[0] == "surrogate":
        assume(isinstance(original, str))
    if mutation[0] == "delete":
        del parent[last]
    else:
        parent[last] = {"value": mutation[-1], "raw": "@raw@",
                        "surrogate": f"{original}\ud800"}[mutation[0]]
    line = json.dumps(rec)
    if mutation[0] == "raw":
        line = line.replace('"@raw@"', mutation[1])

    tmp = tmp_path_factory.mktemp(kind)
    bad, toy, outputs = tmp / "bad.jsonl", tmp / "toy.jsonl", tmp / "outputs.jsonl"
    bad.write_text("\n" + line + "\n", encoding="utf-8")
    save_corpus(make_toy_corpus(), toy)
    write_jsonl(outputs, [{"id": "s", "output": "<think>effusion</think><answer>A</answer>"}])
    (tmp / "config.json").write_text(json.dumps({"mock_fixture": str(bad)}), encoding="utf-8")
    paths = {"bad": bad, "config": tmp / "config.json", "out": tmp / "out", "toy": toy,
             "outputs": outputs, "corpus": data_dir / "fixture_corpus.jsonl"}
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main([arg.format(**paths) for arg in argv])
    assert rc in (0, 1, 2)
    if rc == 1:
        located = (f"error: {bad}:2: ", "error: config: ", f"error: cannot read config: {bad}: ")
        assert err.getvalue().startswith(located), err.getvalue()


def test_score_records_empty_output_and_scores_the_rest(tmp_path, data_dir, mock_config):
    bench = tmp_path / "bench"
    main(["--config", mock_config, "mine", str(data_dir / "fixture_corpus.jsonl"),
          "--out", str(bench)])
    outputs, scores = tmp_path / "outputs.jsonl", tmp_path / "scores.jsonl"
    write_jsonl(outputs, [{"id": "f002", "output": ""},
                          {"id": "f003", "output": "<answer>A</answer>"}])
    rc = main(["score", str(bench / "train_R.jsonl"), str(outputs), "--out", str(scores)])
    assert rc == 2
    scored, error = _read_records(scores)
    assert scored["id"] == "f003" and scored["outcome"] == 1.0
    assert error == {"error_record": {"id": "f002", "line": 1,
                                      "error": "model output must be non-empty"}}


# Model outputs for the golden run, scored against the mined `train_R.jsonl`
# (f002-f006): a faithful chain, a partly wrong one, an open-ended answer, an
# empty think, untagged text, an unknown non-ASCII id and a line of bad JSON.
_GOLDEN_OUTPUTS = [
    {"id": "f002", "output": "<think>No pleural effusion. Lungs are clear.</think><answer>B</answer>"},
    {"id": "f003", "output": "<think>Bibasilar atelectasis. Right lower lobe pneumonia.</think>"
                             "<answer>B</answer>"},
    {"id": "f005", "output": "<think>Enlarged heart. No pleural effusion.</think>"
                             "<answer>enlarged heart</answer>"},
    {"id": "f004", "output": "<think></think><answer>A</answer>"},
    {"id": "f006", "output": "Increasing right pleural effusion."},
    {"id": "f9é", "output": "<answer>A</answer>"},
]

# sha256 of every file `mine`, `compile-bench`, `score` and `eval` write on the
# bundled fixtures. Any drift in what is written or in how it is serialized
# (key order, indent, escaping, line ends) changes a digest. `run_manifest.json`
# also pins the package, synonym table and template versions.
_GOLDEN = {
    "compile-bench/chains.jsonl": "f7c563a7188f8b885aa635e52a9f91f547a12ba50168dadbfb520056d54f6cad",
    "compile-bench/manifest.json": "dbb0014285c4a40544d12e7cf17b3f8356bf14d93c843e692fcfa29841fb50c6",
    "compile-bench/rejections.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "compile-bench/run_manifest.json": "4faa0e7a67c5f998917e11214b4c60dcb7b3579dcbfa1ca6a9ef01952b92a193",
    "compile-bench/test_A.jsonl": "1a60f3d1df374bb9e3f35669e2f23013e7dc5b6cb27f3be835637af7d9775571",
    "compile-bench/test_R.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "compile-bench/train_A.jsonl": "bae5039e200a6678fe75d5c8971f2d5c6d3ca650d23398c5ff1076fb3728cac1",
    "compile-bench/train_R.jsonl": "ecf29fa35ee39157bdd393f5eabea9b05ab9d06e5741a3085d6de7f57bd9e678",
    "mine/chains.jsonl": "f7c563a7188f8b885aa635e52a9f91f547a12ba50168dadbfb520056d54f6cad",
    "mine/manifest.json": "dbb0014285c4a40544d12e7cf17b3f8356bf14d93c843e692fcfa29841fb50c6",
    "mine/rejections.jsonl": "7726823ce63eb32d483e8b1476578f1fd83d7fbfad2b88aed3370e42e540b6dd",
    "mine/run_manifest.json": "7089640f46be4f54474bca6f939ef633d1b8fad69c83fa2ac2de558c90788b18",
    "mine/test_A.jsonl": "1a60f3d1df374bb9e3f35669e2f23013e7dc5b6cb27f3be835637af7d9775571",
    "mine/test_R.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "mine/train_A.jsonl": "bae5039e200a6678fe75d5c8971f2d5c6d3ca650d23398c5ff1076fb3728cac1",
    "mine/train_R.jsonl": "ecf29fa35ee39157bdd393f5eabea9b05ab9d06e5741a3085d6de7f57bd9e678",
    "report.json": "79230fb854d07b9f0eab933662544c524ba350a05e8aed8202f3b59b9a54941d",
    "scores.jsonl": "3a75bdb710f1e20d9935d464218e0c98b9d83f15e6cb2d2fb3979cd8a5185e2f",
}


def test_outputs_match_golden_digests(tmp_path, data_dir, monkeypatch, capsys):
    # relative paths keep the config, and so config_hash, free of tmp_path
    monkeypatch.chdir(tmp_path)
    shutil.copy(data_dir / "mining_fixture.jsonl", "fixture.jsonl")
    shutil.copy(data_dir / "fixture_corpus.jsonl", "corpus.jsonl")
    Path("config.json").write_text('{"mock_fixture": "fixture.jsonl"}', encoding="utf-8")
    Path("outputs.jsonl").write_text(
        "".join(json.dumps(r) + "\n" for r in _GOLDEN_OUTPUTS) + "{bad\n", encoding="utf-8"
    )
    assert main(["--config", "config.json", "mine", "corpus.jsonl", "--out", "mine"]) == 2
    assert main(["compile-bench", "corpus.jsonl", "mine/chains.jsonl",
                 "--out", "compile-bench"]) == 0
    assert main(["score", "mine/train_R.jsonl", "outputs.jsonl", "--out", "scores.jsonl"]) == 2
    assert main(["eval", "scores.jsonl", "--out", "report.json"]) == 0
    written = [*Path("mine").iterdir(), *Path("compile-bench").iterdir(),
               Path("scores.jsonl"), Path("report.json")]
    digests = {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == _GOLDEN


def test_mine_with_llm_matcher_builds_one_client(tmp_path, data_dir, monkeypatch, capsys):
    # the miner and its llm matcher share one completion client, so the
    # mock fixture is parsed once and one response cache serves both
    from radreason import llm

    loads = []
    from_file = llm.MockBackend.from_file.__func__

    def counting(cls, path):
        loads.append(path)
        return from_file(cls, path)

    monkeypatch.setattr(llm.MockBackend, "from_file", classmethod(counting))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "matcher": "llm",
            "mock_fixture": str(data_dir / "mining_fixture.jsonl"),
            "cache_dir": str(tmp_path / "cache"),
        }),
        encoding="utf-8",
    )
    # the fixture holds no llm-matcher responses, so the run stops at its
    # first extract request, after both parts of the command were built
    rc = main([
        "--config", str(config),
        "mine", str(data_dir / "fixture_corpus.jsonl"),
        "--out", str(tmp_path / "bench"),
    ])
    assert loads == [str(data_dir / "mining_fixture.jsonl")]
    err = capsys.readouterr().err
    assert rc == 1 and err.startswith("error: mock backend: no fixture response for key ")
    assert err.endswith(" (template extract v1)\n")
