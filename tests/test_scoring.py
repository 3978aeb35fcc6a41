import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radreason.core import Option, TaskType, VqaSample
from radreason.llm import CompletionClient
from radreason.observations import LlmMatcher, ObservationSet, Role
from radreason.scoring import (
    NotScorableError,
    RatioResult,
    ScoreRecord,
    aggregate,
    combine,
    completeness,
    effectiveness,
    factuality,
    model_reasoning_text,
    score_sample,
)


def obs(phrases, role=Role.MODEL):
    return ObservationSet.from_phrases(phrases, role)


class TestWorkedFixture:
    MODEL = ["effusion", "cardiomegaly", "pneumothorax"]
    REPORT = ["effusion", "cardiomegaly"]
    GT = ["effusion", "edema"]

    def test_three_ratios_and_mean(self, plain_matcher):
        m = plain_matcher
        rf = factuality(obs(self.MODEL), obs(self.REPORT, Role.REPORT), m)
        rc = completeness(obs(self.GT, Role.GROUND_TRUTH), obs(self.MODEL), m)
        re_ = effectiveness(obs(self.MODEL), obs(self.GT, Role.GROUND_TRUTH), m)
        assert (rf.value, rc.value, re_.value) == (2 / 3, 1 / 2, 1 / 3)
        assert combine(rf, rc, re_).radrscore == 0.5

    def test_leniency_raises_only_factuality(self, plain_matcher):
        m = plain_matcher
        flipped = ["effusion", "cardiomegaly", "no pneumothorax"]
        rf = factuality(obs(flipped), obs(self.REPORT, Role.REPORT), m)
        rc = completeness(obs(self.GT, Role.GROUND_TRUTH), obs(flipped), m)
        re_ = effectiveness(obs(flipped), obs(self.GT, Role.GROUND_TRUTH), m)
        assert rf.value == 1.0
        assert rf.leniency_credits == 1
        assert (rc.value, re_.value) == (1 / 2, 1 / 3)


class TestDegenerate:
    def test_empty_model_set(self, plain_matcher):
        rf = factuality(obs([]), obs(["effusion"], Role.REPORT), plain_matcher)
        assert rf.value == 0.0
        assert rf.degenerate

    def test_empty_gt_set(self, plain_matcher):
        rc = completeness(obs([], Role.GROUND_TRUTH), obs(["effusion"]), plain_matcher)
        assert rc.value == 0.0 and rc.degenerate

    def test_degenerate_propagates_to_combined(self, plain_matcher):
        rf = factuality(obs([]), obs(["effusion"], Role.REPORT), plain_matcher)
        rc = RatioResult(1.0, 1, 1)
        scores = combine(rf, rc, RatioResult(1.0, 1, 1))
        assert scores.degenerate


@given(
    st.tuples(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    )
)
def test_combined_score_is_arithmetic_mean(vals):
    rf, rc, re_ = (RatioResult(v, 0, 1) for v in vals)
    scores = combine(rf, rc, re_)
    assert abs(scores.radrscore - sum(vals) / 3) < 1e-12
    assert 0.0 <= scores.radrscore <= 1.0


class TestModelReasoningText:
    def test_think_content_preferred(self):
        assert model_reasoning_text("<think>x</think><answer>A</answer>") == "x"

    def test_untagged_output_used_whole(self):
        assert model_reasoning_text("plain reasoning") == "plain reasoning"


def make_scorable(**overrides):
    base = dict(
        id="s1",
        task=TaskType.BINARY_DIAGNOSIS,
        images=("img/a.png",),
        question="Is there an effusion?",
        options=(Option("A", "yes"), Option("B", "no")),
        answer="A",
        report="There is a small left pleural effusion. The heart size is normal.",
        reasoning=(
            "There is a small left pleural effusion. The heart size is normal. "
            "The answer is yes."
        ),
    )
    base.update(overrides)
    return VqaSample(**base)


class TestScoreSample:
    def test_perfect_echo(self, matcher):
        s = make_scorable()
        out = f"<think>{s.reasoning}</think><answer>A</answer>"
        scores = score_sample(s, out, matcher)
        assert scores.r_f == scores.r_c == scores.r_e == 1.0
        assert not scores.degenerate

    def test_empty_think_is_degenerate(self, matcher):
        s = make_scorable()
        scores = score_sample(s, "<think>  </think><answer>A</answer>", matcher)
        assert scores.r_f == 0.0
        assert scores.degenerate

    def test_requires_report_and_reasoning(self, matcher):
        bare = make_scorable(report="", reasoning="")
        with pytest.raises(NotScorableError):
            score_sample(bare, "<answer>A</answer>", matcher)

    def test_empty_output_rejected(self, matcher):
        with pytest.raises(ValueError):
            score_sample(make_scorable(), "", matcher)


PHRASES = [
    "effusion",
    "no effusion",
    "cardiomegaly",
    "no pneumothorax",
    "pneumothorax",
    "clear lungs",
    "edema",
    "atelectasis",
]


class RandomVerdicts:
    """Backend that answers each request with a seeded random yes or no and
    counts the requests it was sent."""

    name = "random"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.asked: Counter = Counter()

    def complete(self, request) -> str:
        self.asked[request.prompt] += 1
        return self.rng.choice(["yes", "no"])


class TestLlmMatcher:
    @given(
        st.lists(st.sampled_from(PHRASES), max_size=6),
        st.lists(st.sampled_from(PHRASES), max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_factuality_asks_each_pair_once_and_stays_bounded(self, model, report, seed):
        backend = RandomVerdicts(seed)
        m = LlmMatcher(CompletionClient(backend))
        a, b = obs(model), obs(report, Role.REPORT)
        rf = factuality(a, b, m)
        assert all(n == 1 for n in backend.asked.values())
        assert 0.0 <= rf.value <= 1.0
        assert rf.matched + rf.leniency_credits <= rf.denominator == len(a)

    @given(
        st.lists(st.sampled_from(PHRASES), max_size=6),
        st.lists(st.sampled_from(PHRASES), max_size=6),
        st.integers(0, 2**32 - 1),
    )
    def test_partition_splits_left_operand(self, left, right, seed):
        m = LlmMatcher(CompletionClient(RandomVerdicts(seed)))
        a, b = obs(left), obs(right, Role.REPORT)
        matched, unmatched = m.partition(a, b)
        assert len(matched) + len(unmatched) == len(a)
        assert set(matched).isdisjoint(unmatched)
        assert [x for x in a.items if x in matched] == list(matched)


class TestAggregate:
    def _record(self, sid, task, value):
        r = RatioResult(value, 0, 1)
        return ScoreRecord(sid, task, combine(r, r, r))

    def test_per_task_and_overall_means(self):
        records = [
            self._record("a", TaskType.BINARY_DIAGNOSIS, 1.0),
            self._record("b", TaskType.BINARY_DIAGNOSIS, 0.0),
            self._record("c", TaskType.ANOMALY_DETECTION, 0.5),
        ]
        agg = aggregate(records)
        assert agg.per_task["binary_diagnosis"]["radrscore"] == 0.5
        assert agg.per_task["anomaly_detection"]["radrscore"] == 0.5
        assert agg.overall["radrscore"] == 0.5
        assert agg.counts == {
            "anomaly_detection": 1,
            "binary_diagnosis": 2,
            "overall": 3,
        }

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])
