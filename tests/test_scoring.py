import random
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from radreason.core import Option, TaskType, VqaSample
from radreason.llm import CompletionClient
from radreason.observations import (
    ExtractionError,
    LexicalMatcher,
    LlmMatcher,
    MatchError,
    ObservationSet,
    Polarity,
    Role,
)
from radreason.scoring import (
    NotScorableError,
    RatioResult,
    combine,
    completeness,
    effectiveness,
    entity_f1,
    factuality,
    model_reasoning_text,
    report_factuality,
    score_sample,
)
from radreason.tags import parse_tags


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
        tagged = parse_tags("<think>x</think><answer>A</answer>")
        assert model_reasoning_text(tagged) == "x"

    def test_untagged_output_used_whole(self):
        assert model_reasoning_text(parse_tags("plain reasoning")) == "plain reasoning"


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
        scores = score_sample(s, parse_tags(out), matcher)
        assert scores.r_f == scores.r_c == scores.r_e == 1.0
        assert not scores.degenerate

    def test_empty_think_is_degenerate(self, matcher):
        s = make_scorable()
        tagged = parse_tags("<think>  </think><answer>A</answer>")
        scores = score_sample(s, tagged, matcher)
        assert scores.r_f == 0.0
        assert scores.degenerate

    def test_requires_report_and_reasoning(self, matcher):
        bare = make_scorable(report="", reasoning="")
        with pytest.raises(NotScorableError):
            score_sample(bare, parse_tags("<answer>A</answer>"), matcher)

    def test_empty_output_rejected(self, matcher):
        with pytest.raises(ValueError):
            score_sample(make_scorable(), parse_tags(""), matcher)


class RecordingMatcher:
    """A matcher that logs the (text, role) of each extraction it makes."""

    def __init__(self, matcher):
        self.matcher, self.extracted = matcher, []

    def extract(self, text, role):
        self.extracted.append((text, role))
        return self.matcher.extract(text, role)

    def partition(self, left, right):
        return self.matcher.partition(left, right)


class TestReportFactuality:
    def test_extracts_text_then_report(self, matcher):
        # an llm matcher's cache records its extractions in this order
        recording = RecordingMatcher(matcher)
        result = report_factuality("No pneumothorax. Effusion.", "Effusion.", recording)
        assert recording.extracted == [("No pneumothorax. Effusion.", Role.MODEL),
                                       ("Effusion.", Role.REPORT)]
        assert result == factuality(matcher.extract("No pneumothorax. Effusion.", Role.MODEL),
                                    matcher.extract("Effusion.", Role.REPORT), matcher)
        assert (result.value, result.leniency_credits) == (1.0, 1)


@given(st.lists(st.sampled_from(["effusion", "edema", "no edema", "atelectasis"]),
                min_size=1, max_size=4),
       st.lists(st.sampled_from(["effusion", "edema", "cardiomegaly"]), min_size=1, max_size=4))
def test_entity_f1_is_the_f1_of_its_partitions(pred_phrases, ref_phrases):
    # the F1 of the matched shares of each side, computed from the partitions
    matcher = LexicalMatcher()
    prediction, reference = ". ".join(pred_phrases), ". ".join(ref_phrases)
    pred = matcher.extract(prediction, Role.MODEL)
    ref = matcher.extract(reference, Role.GROUND_TRUTH)
    precision = len(matcher.partition(pred, ref)[0]) / len(pred)
    recall = len(matcher.partition(ref, pred)[0]) / len(ref)
    expected = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    assert entity_f1(prediction, reference, matcher) == expected


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



class FixedResponse:
    """Backend that answers every request with one response."""

    name = "fixed"

    def __init__(self, response: str):
        self.response = response

    def complete(self, request) -> str:
        return self.response


class TestLlmExtraction:
    def extract(self, response: str) -> ObservationSet:
        matcher = LlmMatcher(CompletionClient(FixedResponse(response)))
        return matcher.extract("Small left pleural effusion.", Role.MODEL)

    def test_numbered_list_markers_stripped(self):
        found = self.extract("1. Small left pleural effusion\n2) No pneumothorax\n")
        assert [(o.surface, o.normalized, o.polarity) for o in found.items] == [
            ("Small left pleural effusion", "small left pleural effusion", Polarity.PRESENT),
            ("No pneumothorax", "no pneumothorax", Polarity.ABSENT_OR_NORMAL),
        ]

    def test_bullets_stripped(self):
        found = self.extract("- Edema\n  * No effusion\n-\n")
        assert [o.surface for o in found.items] == ["Edema", "No effusion"]

    def test_unparseable_response_is_quoted(self):
        with pytest.raises(ExtractionError) as exc:
            self.extract("1.\n- \n")
        assert str(exc.value) == "unparseable extraction response: '1.\\n- \\n'"

    def test_unparseable_verdict_is_quoted(self):
        matcher = LlmMatcher(CompletionClient(FixedResponse("maybe")))
        a, b = obs(["edema"]), obs(["effusion"], Role.REPORT)
        with pytest.raises(MatchError) as exc:
            matcher.matches(a.items[0], b.items[0])
        assert str(exc.value) == "unparseable match verdict: 'maybe'"

    def test_marker_needs_whitespace_after_it(self):
        found = self.extract("2.5 cm nodule\n3)mass\n")
        assert [o.surface for o in found.items] == ["2.5 cm nodule", "3)mass"]
