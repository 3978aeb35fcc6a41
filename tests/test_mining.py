import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radreason.core import (
    Corpus,
    CorpusError,
    TaskType,
    VqaSample,
    count_labels,
    label_by_answer,
    load_corpus,
)
from radreason.llm import CacheMissError, make_client
from radreason.mining import (
    MinedChain,
    MiningError,
    PlanStep,
    _parse_list,
    balance,
    build_plans,
    compile_benchmark,
    extract_evidence,
    filter_by_factuality,
    mine_corpus,
    mine_sample,
)


def label_corpus(counts: dict[str, int]) -> Corpus:
    """Anomaly-detection corpus with the given answer-label multiset."""
    samples = []
    for label, n in sorted(counts.items()):
        for i in range(n):
            samples.append(
                VqaSample(
                    id=f"{label}_{i:03d}",
                    task=TaskType.ANOMALY_DETECTION,
                    images=("img/x.png",),
                    question="Identify any abnormality.",
                    options=(),
                    answer=label,
                )
            )
    return Corpus(tuple(samples))


class TestParseList:
    def test_numbered(self):
        assert _parse_list("1. first\n2) second") == ["first", "second"]

    def test_dashed_and_starred(self):
        assert _parse_list("- a\n* b\nprose line") == ["a", "b"]

    def test_empty(self):
        assert _parse_list("no list here") == []


class TestMineSample:
    def test_full_chain(self, fixture_corpus, mock_client, matcher):
        sample = fixture_corpus.by_id("f003")
        chain = mine_sample(sample, mock_client, matcher)
        assert chain.sample_id == "f003"
        assert [s.plan.goal for s in chain.steps] == [
            "Assess for atelectasis",
            "Assess for pneumothorax",
        ]
        assert chain.r_f == 1.0
        assert "atelectasis" in chain.narrative

    def test_plan_requires_report(self, fixture_corpus, mock_client):
        sample = fixture_corpus.by_id("f009")  # answer-only
        with pytest.raises(MiningError, match="no report"):
            build_plans(sample, mock_client)

    def test_inferred_evidence_flagged(self, fixture_corpus, mock_client):
        sample = fixture_corpus.by_id("f007")
        step = extract_evidence(
            PlanStep(goal="Assess the ribs", order=1), sample.report, mock_client
        )
        assert step.inferred
        assert step.evidence == "no disease"

    def test_record_round_trip(self, fixture_corpus, mock_client, matcher):
        chain = mine_sample(fixture_corpus.by_id("f002"), mock_client, matcher)
        assert MinedChain.from_record(chain.as_record()) == chain


class TestMineCorpus:
    def test_rejections_logged_not_raised(self, fixture_corpus, mock_client, matcher):
        chains, rejections = mine_corpus(fixture_corpus, mock_client, matcher)
        assert [c.sample_id for c in chains] == [
            "f001", "f002", "f003", "f004", "f005", "f006", "f007",
        ]
        # f008's plan lists no steps: logged as a plan-stage rejection
        assert [(r.sample_id, r.stage) for r in rejections] == [("f008", "plan")]

    def test_worker_count_does_not_change_output(
        self, fixture_corpus, mock_client, matcher
    ):
        one = mine_corpus(fixture_corpus, mock_client, matcher, workers=1)
        four = mine_corpus(fixture_corpus, mock_client, matcher, workers=4)
        assert one == four

    @pytest.mark.parametrize("workers", [1, 2])
    def test_completion_failure_raised(self, fixture_corpus, matcher, tmp_path, workers):
        client = make_client("cache-only", cache_dir=tmp_path)
        with pytest.raises(CacheMissError):
            mine_corpus(fixture_corpus, client, matcher, workers=workers)


class TestFactualityFilter:
    def test_keeps_exactly_perfect_chains(self, fixture_corpus, mock_client, matcher):
        chains, _ = mine_corpus(fixture_corpus, mock_client, matcher)
        kept, rejected = filter_by_factuality(chains)
        assert all(c.r_f >= 1.0 for c in kept)
        assert [r.sample_id for r in rejected] == ["f007"]
        assert rejected[0].stage == "factuality_filter"

    @given(st.lists(st.floats(0, 1, allow_nan=False), max_size=30))
    def test_threshold_partition_is_exact(self, values):
        chains = [
            MinedChain(f"s{i:03d}", (), "n", r_f=v) for i, v in enumerate(values)
        ]
        kept, rejected = filter_by_factuality(chains, threshold=0.5)
        assert {c.sample_id for c in kept} == {
            c.sample_id for c in chains if c.r_f >= 0.5
        }
        assert len(kept) + len(rejected) == len(chains)

    def test_idempotent(self):
        chains = [MinedChain(f"s{i}", (), "n", r_f=v) for i, v in enumerate([1.0, 0.5])]
        kept, _ = filter_by_factuality(chains)
        again, rejected = filter_by_factuality(kept)
        assert again == kept and rejected == []


class TestBalance:
    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.sampled_from(["edema", "effusion", "fracture", "pneumonia"]),
            st.integers(1, 20),
            min_size=2,
            max_size=4,
        ),
        st.integers(0, 2**31 - 1),
    )
    def test_postcondition_recount(self, counts, seed):
        balanced = balance(label_corpus(counts), seed=seed)
        after = count_labels(balanced.samples, label_by_answer)
        assert max(after.values()) <= 2 * min(after.values())
        # the least frequent class is never down-sampled
        assert min(after.values()) == min(counts.values())
        assert set(after) == set(counts)

    def test_deterministic_for_seed(self):
        corpus = label_corpus({"edema": 9, "fracture": 2})
        a = balance(corpus, seed=3)
        b = balance(corpus, seed=3)
        assert [s.id for s in a.samples] == [s.id for s in b.samples]

    def test_single_label_rejected(self):
        with pytest.raises(CorpusError, match="two disease labels"):
            balance(label_corpus({"edema": 5}))


class TestCompileBenchmark:
    def test_bundle_layout_and_counts(
        self, fixture_corpus, mock_client, matcher, tmp_path
    ):
        chains, _ = mine_corpus(fixture_corpus, mock_client, matcher)
        kept, _ = filter_by_factuality(chains)
        bundle = compile_benchmark(fixture_corpus, kept, tmp_path, seed=0)
        counts = bundle.manifest["counts"]
        assert counts["total"] == len(fixture_corpus)
        assert counts["per_partition"]["reasoning_augmented"] == len(kept)
        assert sum(counts["per_file"].values()) == counts["total"]
        for split in ("train", "test"):
            for part in ("R", "A"):
                path = bundle.record_file(split, part)
                assert path.exists()
                n = len(path.read_text(encoding="utf-8").splitlines())
                assert n == counts["per_file"][f"{split}_{part}"]

    def test_reasoning_attached_and_reports_dropped(
        self, fixture_corpus, mock_client, matcher, tmp_path
    ):
        chains, _ = mine_corpus(fixture_corpus, mock_client, matcher)
        kept, _ = filter_by_factuality(chains)
        bundle = compile_benchmark(fixture_corpus, kept, tmp_path, seed=0)
        train_r = load_corpus(bundle.record_file("train", "R"))
        assert all(s.report and s.reasoning for s in train_r.samples)
        train_a = load_corpus(bundle.record_file("train", "A"))
        assert all(not s.report and not s.reasoning for s in train_a.samples)

    def test_records_sorted_by_id(self, fixture_corpus, tmp_path):
        bundle = compile_benchmark(fixture_corpus, [], tmp_path, seed=0)
        ids = [
            json.loads(line)["id"]
            for line in bundle.record_file("train", "A")
            .read_text(encoding="utf-8")
            .splitlines()
        ]
        assert ids == sorted(ids)

    def test_dangling_chain_id_rejected(self, fixture_corpus, tmp_path):
        ghost = MinedChain("nope", (), "narrative", r_f=1.0)
        with pytest.raises(CorpusError, match="unknown sample id"):
            compile_benchmark(fixture_corpus, [ghost], tmp_path)
