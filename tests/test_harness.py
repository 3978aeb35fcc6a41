import hashlib
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radreason import harness
from radreason.core import load_corpus
from radreason.harness import (
    EXIT_FATAL,
    EXIT_OK,
    EXIT_SAMPLE_ERRORS,
    bootstrap_ci,
    cmd_eval,
    cmd_mine,
    cmd_score,
    config_hash,
    write_manifest,
)
from radreason.observations import LexicalMatcher


class TestBootstrapCi:
    def test_zero_variance_zero_width(self):
        low, high = bootstrap_ci([0.7] * 20, seed=0)
        assert low == high
        assert abs(low - 0.7) < 1e-12

    def test_deterministic_for_seed(self):
        values = list(np.random.default_rng(1).uniform(size=30))
        assert bootstrap_ci(values, seed=5) == bootstrap_ci(values, seed=5)

    def test_width_shrinks_with_sample_size(self):
        rng = np.random.default_rng(2)
        small = rng.uniform(size=20)
        large = np.tile(small, 50)  # same distribution, 50x the n
        w_small = np.diff(bootstrap_ci(small, seed=0))[0]
        w_large = np.diff(bootstrap_ci(large, seed=0))[0]
        assert w_large < w_small / 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    @pytest.mark.parametrize("resamples", [0, -3])
    def test_resamples_below_one_rejected(self, resamples):
        with pytest.raises(ValueError, match="resamples"):
            bootstrap_ci([0.1, 0.2], resamples=resamples)

    @pytest.mark.parametrize("chunk", [1, 7, 49, 50, 333])
    @pytest.mark.parametrize("shape", [(1,), (49,), (50, 3)])
    def test_chunked_index_gives_the_one_draw_intervals(self, monkeypatch, chunk, shape):
        # chunks of a part of a row, one row, and odd row counts
        values = np.random.default_rng(3).normal(size=shape)
        whole = bootstrap_ci(values, resamples=101, seed=17)
        monkeypatch.setattr(harness, "_INDEX_CHUNK", chunk)
        assert bootstrap_ci(values, resamples=101, seed=17) == whole

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-5, 5, allow_nan=False), min_size=3, max_size=3),
            min_size=1, max_size=25,
        ),
        st.integers(0, 1000),
    )
    def test_table_columns_equal_single_samples(self, rows, seed):
        table = np.array(rows)
        intervals = bootstrap_ci(table, resamples=200, seed=seed)
        assert intervals == [
            bootstrap_ci(list(table[:, j]), resamples=200, seed=seed) for j in range(3)
        ]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=25),
        st.integers(0, 1000),
    )
    def test_interval_contains_point_estimate(self, values, seed):
        low, high = bootstrap_ci(values, resamples=200, seed=seed)
        assert low <= float(np.mean(values)) <= high


    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 3000),
        st.integers(1, 300),
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(["uniform", "binary", "constant"]), min_size=1, max_size=3),
    )
    def test_equals_the_np_quantile_reference(self, n, resamples, seed, kinds):
        # the percentiles are taken from sorted resample means with numpy's
        # "linear" interpolation written out: equal to np.quantile, bit for bit
        rng = np.random.default_rng(seed)
        columns = {
            "uniform": lambda: rng.uniform(size=n),
            "binary": lambda: rng.integers(0, 2, size=n).astype(float),
            "constant": lambda: np.full(n, rng.uniform()),
        }
        table = np.column_stack([columns[kind]() for kind in kinds])
        idx = np.random.default_rng(seed).integers(0, n, size=(resamples, n))
        alpha = (1.0 - 0.95) / 2.0
        expected = [
            tuple(map(float, np.quantile(col[idx].mean(axis=1), [alpha, 1.0 - alpha])))
            for col in table.T
        ]
        assert bootstrap_ci(table, resamples=resamples, seed=seed) == expected
        assert bootstrap_ci(table[:, 0], resamples=resamples, seed=seed) == expected[0]

    def test_tail_quantiles_equal_np_quantile(self):
        # rows of every length from 1 to 60 and some long ones, with ties and NaN
        rng = np.random.default_rng(23)
        alpha = (1.0 - 0.95) / 2.0
        for m in [*range(1, 61), 999, 1000, 1001, 4000]:
            rows = rng.uniform(size=(12, m))
            rows[1] = rows[1, 0]
            rows[2] = np.round(rows[2], 1)
            rows[3, m // 2] = np.nan
            rows[4] *= 1e300
            expected = np.quantile(rows, [alpha, 1.0 - alpha], axis=1).T
            got = harness._tail_quantiles(rows.copy())
            assert np.array_equal(got, expected, equal_nan=True), m


def test_config_hash_is_stable_and_order_free():
    assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
    assert config_hash({"a": 1}) != config_hash({"a": 2})
    assert len(config_hash({})) == 16


def test_config_hash_is_pinned():
    # a value JSON cannot hold is hashed as its str()
    config = {"preset": "full", "seed": 3, "sft": {"learning_rate": 0.5, "steps": 25},
              "out": Path("run"), "note": "pleural effusion — épanchement"}
    assert config_hash(config) == "856ca0153b7f305e"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), _JSON, max_size=5))
def test_config_hash_is_hashlib_sha256(config):
    # the interpreter's own SHA-256 gives hashlib's digest
    payload = json.dumps(config, sort_keys=True, default=str).encode("utf-8")
    assert config_hash(config) == hashlib.sha256(payload).hexdigest()[:16]


def test_write_manifest_records_versions(tmp_path, matcher):
    write_manifest(tmp_path, {"x": 1}, seed=7, matcher=matcher)
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["seed"] == 7
    assert manifest["versions"]["synonyms"] == "1"
    assert manifest["versions"]["template_plan"] == "1"


@pytest.fixture()
def mined_bundle(fixture_corpus, mock_client, matcher, tmp_path):
    bundle, n_rejected = cmd_mine(
        fixture_corpus, mock_client, matcher, out_dir=tmp_path / "bench", seed=0
    )
    return bundle, n_rejected


class TestCmdScore:
    def _outputs_for(self, corpus):
        return [
            {
                "id": s.id,
                "output": f"<think>{s.reasoning}</think><answer>{s.answer}</answer>",
            }
            for s in corpus.samples
        ]

    def test_echo_outputs_score_perfectly(self, mined_bundle, matcher, tmp_path):
        bundle, _ = mined_bundle
        corpus = load_corpus(bundle.record_file("train", "R"))
        outputs_path = tmp_path / "outputs.jsonl"
        with outputs_path.open("w") as fh:
            for rec in self._outputs_for(corpus):
                fh.write(json.dumps(rec) + "\n")
        scores_path = tmp_path / "scores.jsonl"
        n, errors = cmd_score(outputs_path, corpus, matcher, scores_path)
        assert n == len(corpus) and not errors
        records = [
            json.loads(line) for line in scores_path.read_text().splitlines()
        ]
        assert all(r["radrscore"] == 1.0 for r in records)
        assert all(r["format"] == 1 and r["outcome"] == 1.0 for r in records)
        assert [r["id"] for r in records] == sorted(r["id"] for r in records)

    def test_errors_collected_not_raised(self, mined_bundle, matcher, tmp_path):
        bundle, _ = mined_bundle
        corpus = load_corpus(bundle.record_file("train", "R"))
        outputs_path = tmp_path / "outputs.jsonl"
        rows = self._outputs_for(corpus)
        rows.append({"id": "ghost", "output": "<answer>A</answer>"})
        with outputs_path.open("w") as fh:
            for rec in rows:
                fh.write(json.dumps(rec) + "\n")
        n, errors = cmd_score(outputs_path, corpus, matcher, tmp_path / "s.jsonl")
        assert n == len(corpus)
        assert [e["id"] for e in errors] == ["ghost"]

    def test_malformed_lines_located(self, mined_bundle, matcher, tmp_path):
        bundle, _ = mined_bundle
        corpus = load_corpus(bundle.record_file("train", "R"))
        good = [json.dumps(rec) for rec in self._outputs_for(corpus)]
        lines = good[:1] + [
            json.dumps({"output": "<answer>A</answer>"}),
            '{"id": "x", "output": "<think>trunc',
            "",
            json.dumps({"id": corpus.samples[1].id}),
            "[1, 2]",
        ] + good[1:]
        outputs_path = tmp_path / "outputs.jsonl"
        outputs_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        scores_path = tmp_path / "s.jsonl"
        n, errors = cmd_score(outputs_path, corpus, matcher, scores_path)
        assert n == len(corpus)
        assert errors == [
            {"id": None, "line": 2, "error": "missing field 'id'"},
            {"id": None, "line": 3,
             "error": "invalid JSON at column 23: Unterminated string starting at"},
            {"id": None, "line": 6, "error": "not a JSON object"},
            {"id": corpus.samples[1].id, "line": 5, "error": "missing field 'output'"},
        ]
        written = [json.loads(line) for line in scores_path.read_text().splitlines()]
        assert [r["error_record"] for r in written if "error_record" in r] == errors

    def test_malformed_lines_exit_with_sample_errors(self, mined_bundle, tmp_path):
        from radreason.cli import main

        bundle, _ = mined_bundle
        outputs_path = tmp_path / "outputs.jsonl"
        outputs_path.write_bytes(b'{"output": "x"}\n{"id": "a", "out\n{"id": "\xff"}\n')
        rc = main(["score", str(bundle.record_file("train", "R")), str(outputs_path),
                   "--out", str(tmp_path / "s.jsonl")])
        assert rc == EXIT_SAMPLE_ERRORS
        lines = (tmp_path / "s.jsonl").read_text().splitlines()
        assert [json.loads(line)["error_record"]["line"] for line in lines] == [1, 2, 3]

    def test_non_utf8_line_located(self, mined_bundle, matcher, tmp_path):
        bundle, _ = mined_bundle
        corpus = load_corpus(bundle.record_file("train", "R"))
        good = [json.dumps(rec).encode() for rec in self._outputs_for(corpus)]
        bad = b'{"id": "x", "output": "\xff"}'
        outputs_path = tmp_path / "outputs.jsonl"
        outputs_path.write_bytes(b"\n".join(good[:1] + [bad] + good[1:]) + b"\n")
        n, errors = cmd_score(outputs_path, corpus, matcher, tmp_path / "s.jsonl")
        assert n == len(corpus)
        assert errors == [
            {"id": None, "line": 2, "error": "invalid UTF-8 at byte 23: invalid start byte"}
        ]

    def test_worker_counts_agree(self, mined_bundle, tmp_path):
        bundle, _ = mined_bundle
        corpus = load_corpus(bundle.record_file("train", "R"))
        # three outputs per sample, side by side, and a new matcher for each
        # run: the threaded run fills an empty reference memo while its
        # outputs repeat the same report and reasoning
        outputs_path = tmp_path / "outputs.jsonl"
        with outputs_path.open("w") as fh:
            for rec in self._outputs_for(corpus):
                think = rec["output"].split("</think>")[0]
                for output in (
                    rec["output"],
                    "<think>No acute findings.</think><answer>A</answer>",
                    think + " Pleural effusion.</think><answer>B</answer>",
                ):
                    fh.write(json.dumps({"id": rec["id"], "output": output}) + "\n")
        p1, p4 = tmp_path / "w1.jsonl", tmp_path / "w4.jsonl"
        assert cmd_score(outputs_path, corpus, LexicalMatcher(), p1, workers=1)[0] == (
            3 * len(corpus)
        )
        cmd_score(outputs_path, corpus, LexicalMatcher(), p4, workers=4)
        assert p1.read_bytes() == p4.read_bytes()


class TestCmdEval:
    def _write_records(self, path, rows):
        with path.open("w") as fh:
            for r in rows:
                fh.write(json.dumps(r) + "\n")

    def _row(self, rid, task, value):
        return {
            "id": rid,
            "task": task,
            "r_f": value,
            "r_c": value,
            "r_e": value,
            "radrscore": value,
            "outcome": value,
        }

    def test_overall_rows_arithmetic(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write_records(
            path,
            [
                self._row("a", "binary_diagnosis", 1.0),
                self._row("b", "binary_diagnosis", 1.0),
                self._row("c", "binary_diagnosis", 1.0),
                self._row("d", "anomaly_detection", 0.0),
            ],
        )
        report = cmd_eval(path, resamples=100, seed=0)
        assert report.rows["overall_samples"]["radrscore"]["mean"] == 0.75
        # unweighted mean over the two task means: (1.0 + 0.0) / 2
        assert report.rows["overall_tasks"]["radrscore"]["mean"] == 0.5
        assert report.counts == {
            "anomaly_detection": 1,
            "binary_diagnosis": 3,
            "overall_samples": 4,
            "overall_tasks": 2,
        }

    def test_error_records_skipped(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write_records(
            path,
            [
                self._row("a", "binary_diagnosis", 1.0),
                {"error_record": {"id": "ghost", "error": "unknown sample id"}},
            ],
        )
        report = cmd_eval(path, resamples=50, seed=0)
        assert report.counts["overall_samples"] == 1

    def test_table_renders_ci_annotations(self, tmp_path):
        path = tmp_path / "records.jsonl"
        self._write_records(path, [self._row("a", "binary_diagnosis", 0.5)])
        table = cmd_eval(path, resamples=50, seed=0).render_table()
        assert "95%CI=" in table
        assert table.splitlines()[0].startswith("group\tn\t")

    def test_empty_records_rejected(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            cmd_eval(path)

    TASKS = ("anomaly_detection", "binary_diagnosis", "multi_diagnosis",
             "single_diagnosis", "temporal_comparison")

    def _score_line(self, rng, rid, task):
        """A record shaped like `score`'s, outcome a JSON int half the time."""
        r_f, r_c, r_e = (float(v) for v in rng.uniform(size=3))
        outcome = int(rng.integers(2))
        return {
            "counts": {name: int(rng.integers(12)) for name in (
                "leniency_credits", "matched_c", "matched_e", "matched_f",
                "obs_gt", "obs_model")},
            "degenerate": False,
            "format": outcome,
            "id": rid,
            "outcome": outcome if rng.uniform() < 0.5 else float(outcome),
            "r_c": r_c,
            "r_e": r_e,
            "r_f": r_f,
            "radrscore": (r_f + r_c + r_e) / 3,
            "task": task,
        }

    def _mixed_lines(self, n_ids, per_id, seed):
        """Records of n_ids ids, per_id each with different values, in
        shuffled order so ids repeat and tasks interleave, with an
        `error_record` line after every 10th record."""
        rng = np.random.default_rng(seed)
        lines = [
            self._score_line(rng, f"s{i:05d}", self.TASKS[i % len(self.TASKS)])
            for i in range(n_ids)
            for _ in range(per_id)
        ]
        lines = [lines[i] for i in rng.permutation(len(lines))]
        for at in range(len(lines) - len(lines) % 10, 0, -10):
            lines.insert(at, {"error_record": {"id": "ghost", "line": at, "error": "x"}})
        return lines

    @pytest.mark.parametrize("chunk", [7, 2**18])
    def test_report_equals_dict_records_sorted_per_task(self, tmp_path, monkeypatch, chunk):
        monkeypatch.setattr(harness, "_INDEX_CHUNK", chunk)
        lines = self._mixed_lines(n_ids=23, per_id=3, seed=4)
        path = tmp_path / "records.jsonl"
        self._write_records(path, lines)
        records = [r for r in lines if "error_record" not in r]
        tasks = sorted({r["task"] for r in records})
        groups = {t: [r for r in records if r["task"] == t] for t in tasks}
        groups["overall_samples"] = records
        expected = {}
        for group, subset in groups.items():
            subset = sorted(subset, key=lambda r: r["id"])
            columns = np.array([[float(r[m]) for r in subset] for m in harness._METRICS])
            intervals = bootstrap_ci(columns.T, resamples=60, seed=9)
            expected[group] = {
                m: {"mean": float(np.mean(col)), "ci_low": low, "ci_high": high}
                for m, col, (low, high) in zip(harness._METRICS, columns, intervals)
            }
        report = cmd_eval(path, resamples=60, seed=9)
        assert {g: report.rows[g] for g in expected} == expected
        assert report.counts == {
            **{t: len(groups[t]) for t in tasks},
            "overall_samples": len(records),
            "overall_tasks": len(tasks),
        }

    def test_peak_memory_bounded(self, tmp_path):
        # a small untraced run first, so numpy's lazy imports fall outside the trace
        small = tmp_path / "small.jsonl"
        self._write_records(small, self._mixed_lines(n_ids=10, per_id=2, seed=1))
        cmd_eval(small, resamples=10, seed=0)
        path = tmp_path / "records.jsonl"
        self._write_records(path, self._mixed_lines(n_ids=1000, per_id=4, seed=2))
        tracemalloc.start()
        try:
            report = cmd_eval(path, resamples=200, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counts["overall_samples"] == 4000
        # about 2.6 MiB: 4,000 rows of (id, task, five floats) and 0.5 MB index chunks
        assert peak < 5 * 2**20, f"cmd_eval peaked at {peak / 2**20:.1f} MiB"


class TestCmdMine:
    def test_bundle_and_rejections(self, mined_bundle, tmp_path):
        bundle, n_rejected = mined_bundle
        assert n_rejected == 2  # one factuality reject, one plan reject
        rejections = [
            json.loads(line)
            for line in (bundle.directory / "rejections.jsonl").read_text().splitlines()
        ]
        assert {(r["sample_id"], r["stage"]) for r in rejections} == {
            ("f007", "factuality_filter"),
            ("f008", "plan"),
        }
        chains = [
            json.loads(line)
            for line in (bundle.directory / "chains.jsonl").read_text().splitlines()
        ]
        assert all(c["r_f"] >= 1.0 for c in chains)

    def test_balanced_labels(self, mined_bundle):
        from radreason.core import label_by_answer

        bundle, _ = mined_bundle
        samples = []
        for split in ("train", "test"):
            for part in ("R", "A"):
                samples.extend(
                    load_corpus(bundle.record_file(split, part)).samples
                )
        counts = Counter(map(label_by_answer, samples))
        assert max(counts.values()) <= 2 * min(counts.values())


def test_exit_codes_are_distinct():
    assert {EXIT_OK, EXIT_FATAL, EXIT_SAMPLE_ERRORS} == {0, 1, 2}
