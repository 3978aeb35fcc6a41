import json
from collections import Counter
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radreason.core import (
    Corpus,
    CorpusError,
    Option,
    TaskType,
    VqaSample,
    label_by_answer,
    load_corpus,
)
from radreason.llm import CacheMissError, CompletionClient, make_client
from radreason.mining import (
    FACTUALITY_THRESHOLD,
    EvidenceStep,
    MinedChain,
    MiningError,
    Rejection,
    _parse_list,
    balance,
    build_plans,
    compile_benchmark,
    evidence_request,
    extract_evidence,
    filter_by_factuality,
    mine_corpus,
    mine_sample,
    plan_request,
    refine_chain,
    refine_request,
)
from radreason.observations import LlmMatcher
from radreason.rewards import process_reward
from radreason.tags import parse_tags


@pytest.fixture(scope="module")
def fixture_samples(fixture_corpus):
    return {s.id: s for s in fixture_corpus.samples}


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

    def test_decimal_is_not_a_marker(self):
        assert _parse_list("2.5 cm nodule") == []
        assert _parse_list("1. 2.5 cm nodule") == ["2.5 cm nodule"]
        assert _parse_list("3) 4.2 mm") == ["4.2 mm"]
        assert _parse_list("1.Assess the lungs") == ["Assess the lungs"]


class TestRequests:
    def test_plan_request_lists_options(self, fixture_samples):
        prompt = plan_request(fixture_samples["f003"]).prompt
        assert "A) atelectasis B) pneumonia C) normal study" in prompt
        assert "Bibasilar atelectasis. No pneumothorax." in prompt
        assert "(open-ended)" in plan_request(fixture_samples["f005"]).prompt

    def test_evidence_request_holds_goal_and_report(self, fixture_samples):
        request = evidence_request("Assess heart size", fixture_samples["f007"].report)
        assert (request.template_id, request.template_version) == ("evidence", "1")
        assert "Assess heart size" in request.prompt and "Mild cardiomegaly." in request.prompt

    def test_refine_request_numbers_steps_from_one(self, fixture_samples):
        steps = [
            EvidenceStep("Assess heart size", 0, "Mild cardiomegaly", inferred=False),
            EvidenceStep("Assess the ribs", 1, "no disease", inferred=True),
        ]
        request = refine_request(fixture_samples["f007"], steps)
        assert (request.template_id, request.template_version) == ("refine", "1")
        assert "1. Assess heart size: Mild cardiomegaly\n2. Assess the ribs: no disease" in (
            request.prompt
        )


class ByTemplate:
    """Backend that answers each request by its template."""

    def __init__(self, responses: dict[str, str]):
        self.responses = responses

    def complete(self, request) -> str:
        return self.responses[request.template_id]


class TestMineSample:
    def test_full_chain(self, fixture_samples, mock_client, matcher):
        sample = fixture_samples["f003"]
        chain = mine_sample(sample, mock_client, matcher)
        assert chain.sample_id == "f003"
        assert [s.goal for s in chain.steps] == [
            "Assess for atelectasis",
            "Assess for pneumothorax",
        ]
        assert chain.r_f == 1.0
        assert "atelectasis" in chain.narrative

    def test_plan_requires_report(self, fixture_samples, mock_client):
        sample = fixture_samples["f009"]  # answer-only
        with pytest.raises(MiningError, match="no report"):
            build_plans(sample, mock_client)

    def test_inferred_evidence_flagged(self, fixture_samples, mock_client):
        sample = fixture_samples["f007"]
        step = extract_evidence("Assess the ribs", 1, sample.report, mock_client)
        assert step.inferred
        assert step.evidence == "no disease"

    def test_record_round_trip(self, fixture_samples, mock_client, matcher):
        chain = mine_sample(fixture_samples["f002"], mock_client, matcher)
        assert MinedChain.from_record(asdict(chain)) == chain


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

    def test_llm_matcher_rejection_quotes_the_response(self, fixture_samples):
        client = CompletionClient(ByTemplate({
            "plan": "1. Assess for pleural effusion",
            "evidence": "No pleural effusion",
            "refine": "No pleural effusion. The answer is no.",
            "extract": "-\n",
        }))
        corpus = Corpus((fixture_samples["f002"],))
        assert mine_corpus(corpus, client, LlmMatcher(client)) == ([], [
            Rejection("f002", "mine", "unparseable extraction response: '-\\n'"),
        ])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_completion_failure_raised(self, fixture_corpus, matcher, tmp_path, workers):
        client = make_client("cache-only", cache_dir=tmp_path)
        with pytest.raises(CacheMissError):
            mine_corpus(fixture_corpus, client, matcher, workers=workers)


REPORT = "Small left pleural effusion. The heart size is normal."
YES_NO = (Option("A", "yes"), Option("B", "no"))
CONCLUSION_SAMPLES = {
    "single": VqaSample(
        id="c1", task=TaskType.SINGLE_DIAGNOSIS, images=("img/c1.png",),
        question="What is the most likely diagnosis?",
        options=(Option("A", "cardiomegaly"), Option("B", "pleural effusion"),
                 Option("C", "normal study")),
        answer="B", report="Small left pleural effusion. No cardiomegaly.",
    ),
    "no": VqaSample(id="c2", task=TaskType.BINARY_DIAGNOSIS, images=("img/c2.png",),
                    question="Is there cardiomegaly?", options=YES_NO, answer="B",
                    report=REPORT),
    "yes": VqaSample(id="c3", task=TaskType.BINARY_DIAGNOSIS, images=("img/c3.png",),
                     question="Is there a pleural effusion?", options=YES_NO, answer="A",
                     report=REPORT),
    "anomaly": VqaSample(id="c4", task=TaskType.ANOMALY_DETECTION, images=("img/c4.png",),
                         question="Identify any abnormality.", options=(),
                         answer="cardiomegaly",
                         report="Moderate cardiomegaly. Small left pleural effusion."),
}


class TestConclusion:
    """A narrative is kept only when its stated answer, the last sentence
    after its `answer is` lead-in, earns the full outcome reward."""

    @pytest.mark.parametrize("sample, narrative, rejected_as", [
        # (substring test: kept) pleural effusion is named, cardiomegaly concluded
        ("single", "Small left pleural effusion. No cardiomegaly. The answer is cardiomegaly.",
         "cardiomegaly."),
        # (substring test: kept) "no" is inside "normal"
        ("no", "Small left pleural effusion. The heart size is normal. The answer is yes.",
         "yes."),
        ("yes", "Small left pleural effusion. The heart size is normal. The answer is no.",
         "no."),
        # (substring test: kept) the answer stated first, another sentence last
        ("yes", "The answer is yes. Small left pleural effusion.",
         "Small left pleural effusion."),
        # (substring test: kept) cardiomegaly is named, pleural effusion concluded
        ("anomaly", "Moderate cardiomegaly. Small left pleural effusion. "
                    "The answer is pleural effusion.", "pleural effusion."),
        ("anomaly", "Moderate cardiomegaly. The answer is cardiomegaly.", None),
        ("single", "Small left pleural effusion. The answer is B) pleural effusion.", None),
        ("single", "Small left pleural effusion. The answer is B.", None),
        ("single", "Small left pleural effusion. The final answer is pleural effusion!", None),
        ("yes", "Small left pleural effusion. Therefore, the answer is yes.", None),
        ("yes", "Small left pleural effusion. The answer is yes", None),
        ("yes", "Small left pleural effusion. The answer is: yes.", None),
        ("no", "The heart size is normal. The answer is B) no.", None),
        # (substring test: kept) no lead-in: the whole last sentence is the stated answer
        ("no", "The heart size is normal. So yes.", "So yes."),
    ])
    def test_conclusion_table(self, matcher, sample, narrative, rejected_as):
        sample = CONCLUSION_SAMPLES[sample]
        step = EvidenceStep("Assess the chest", 0, "Small left pleural effusion", False)
        client = CompletionClient(ByTemplate({"refine": narrative}))
        if rejected_as is None:
            assert refine_chain(sample, [step], client, matcher).narrative == narrative
            return
        with pytest.raises(MiningError) as e:
            refine_chain(sample, [step], client, matcher)
        assert (e.value.stage, e.value.reason) == (
            "refine", f"narrative concludes {rejected_as!r}, "
                      f"not the answer {sample.answer_text()!r}",
        )


class TestFactualityFilter:
    @pytest.mark.parametrize("matcher_name", ["matcher", "plain_matcher"])
    def test_r_f_is_the_process_reward_of_the_narrative(
        self, fixture_corpus, mock_client, matcher_name, request
    ):
        # one grounding rule: a mined chain's r_f is what GRPO's process
        # reward pays for its narrative as the think
        matcher = request.getfixturevalue(matcher_name)
        samples = {s.id: s for s in fixture_corpus.samples}
        chains, _ = mine_corpus(fixture_corpus, mock_client, matcher)
        assert chains and any(c.r_f < 1.0 for c in chains)
        for c in chains:
            sample = samples[c.sample_id]
            tagged = parse_tags(f"<think>{c.narrative}</think><answer>{sample.answer}</answer>")
            assert c.r_f == process_reward(tagged, sample, matcher), c.sample_id

    @pytest.mark.parametrize("narrative", [
        # a leniency credit
        "No pneumothorax. Small left pleural effusion. The answer is yes.",
        # credits against the report
        "No pleural effusion. Lungs are clear. The answer is yes.",
        # one ungrounded
        "Right pneumothorax. Small left pleural effusion. The answer is yes.",
    ])
    def test_refined_r_f_is_the_process_reward_with_leniency(
        self, fixture_samples, matcher, narrative
    ):
        sample = fixture_samples["f001"]
        step = EvidenceStep("Assess for effusion", 0, "small left pleural effusion", False)
        client = CompletionClient(ByTemplate({"refine": narrative}))
        chain = refine_chain(sample, [step], client, matcher)
        tagged = parse_tags(f"<think>{narrative}</think><answer>A</answer>")
        assert chain.r_f == process_reward(tagged, sample, matcher)

    def test_keeps_exactly_perfect_chains(self, fixture_corpus, mock_client, matcher):
        chains, _ = mine_corpus(fixture_corpus, mock_client, matcher)
        kept, rejected = filter_by_factuality(chains)
        assert all(c.r_f >= 1.0 for c in kept)
        assert [r.sample_id for r in rejected] == ["f007"]
        assert rejected[0].stage == "factuality_filter"

    # floats in [0, 1] rarely draw 1.0 itself, so the constant is drawn too
    @given(st.lists(st.floats(0, 1) | st.just(FACTUALITY_THRESHOLD), max_size=30))
    def test_threshold_partition_is_exact(self, values):
        chains = [
            MinedChain(f"s{i:03d}", (), "n", r_f=v) for i, v in enumerate(values)
        ]
        kept, rejected = filter_by_factuality(chains)
        assert {c.sample_id for c in kept} == {
            c.sample_id for c in chains if c.r_f >= FACTUALITY_THRESHOLD
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
        after = Counter(map(label_by_answer, balanced.samples))
        assert max(after.values()) <= 2 * min(after.values())
        # the least frequent class is never down-sampled
        assert min(after.values()) == min(counts.values())
        assert set(after) == set(counts)

    def test_deterministic_for_seed(self):
        corpus = label_corpus({"edema": 9, "fracture": 2})
        a = balance(corpus, seed=3)
        b = balance(corpus, seed=3)
        assert [s.id for s in a.samples] == [s.id for s in b.samples]

    def test_draw_is_pinned(self):
        # random.Random(3)'s keys for the nine edema ids; a change of the draw
        # moves every down-sampled bundle, so it has to change this literal too
        kept = balance(label_corpus({"edema": 9, "fracture": 2}), seed=3)
        assert [s.id for s in kept.samples] == [
            "edema_000", "edema_005", "edema_006", "edema_008",
            "fracture_000", "fracture_001",
        ]

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
