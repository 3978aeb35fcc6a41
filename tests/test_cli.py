import json

import pytest

from radreason.cli import build_parser, main


@pytest.fixture()
def mock_config(tmp_path, data_dir):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps({"mock_fixture": str(data_dir / "mining_fixture.jsonl")}),
        encoding="utf-8",
    )
    return str(path)


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
        "error: cache_only backend: no cached response for key "
    )
    assert not out.exists()


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
    records = [json.loads(line) for line in (mined / "chains.jsonl").open()]
    records[0]["r_f"] = 0.5
    chains = tmp_path / "chains.jsonl"
    chains.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    out = tmp_path / "compiled"
    assert main(["compile-bench", corpus, str(chains), "--out", str(out)]) == 2
    rejections = [json.loads(line) for line in (out / "rejections.jsonl").open()]
    assert rejections == [
        {"sample_id": records[0]["sample_id"], "stage": "factuality_filter",
         "reason": "r_f=0.5000"}
    ]
    kept = [json.loads(line)["sample_id"] for line in (out / "chains.jsonl").open()]
    assert kept == [r["sample_id"] for r in records[1:]]


@pytest.mark.parametrize(
    "line, error",
    [
        ('{"sample_id": "f001"}', "missing field 'steps'"),
        ('{"sample_id": "f001", "steps": [], "narrative": "n", "r_f": "high"}',
         "malformed chain: could not convert string to float: 'high'"),
        ('{"sample_id": "f001", "steps', "malformed chain: Unterminated string"),
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
    records = [json.loads(line) for line in (mined / "chains.jsonl").open()]
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
