import pytest

from radreason.core import Option, PartitionTag, TaskType, VqaSample
from radreason.rewards import (
    RewardConfig,
    entity_f1,
    format_reward,
    outcome_reward,
    process_reward,
    total_reward,
)
from radreason.tags import parse_tags

R = PartitionTag.REASONING_AUGMENTED
A = PartitionTag.ANSWER_ONLY


def make_sample(**overrides):
    base = dict(
        id="s1",
        task=TaskType.BINARY_DIAGNOSIS,
        images=("img/a.png",),
        question="Is there an effusion?",
        options=(Option("A", "yes"), Option("B", "no")),
        answer="A",
    )
    base.update(overrides)
    return VqaSample(**base)


def reasoning_sample(**overrides):
    return make_sample(
        report="There is a pleural effusion.",
        reasoning="There is a pleural effusion.",
        **overrides,
    )


class TestFormatReward:
    def test_answer_only_partition(self):
        assert format_reward(parse_tags("<answer>A</answer>"), A) == 1
        assert format_reward(parse_tags("A"), A) == 0
        assert format_reward(parse_tags("<think>t</think><answer>A</answer>"), A) == 1

    def test_reasoning_partition_requires_think(self):
        assert format_reward(parse_tags("<answer>A</answer>"), R) == 0
        assert format_reward(parse_tags("<think>t</think><answer>A</answer>"), R) == 1

    def test_order_and_closure_enforced(self):
        assert format_reward(parse_tags("<answer>A</answer><think>t</think>"), R) == 0
        assert format_reward(parse_tags("<think>t<answer>A</answer>"), R) == 0


class TestOutcomeReward:
    def test_label_match(self, matcher):
        for answer, reward in [("A", 1.0), (" a ", 1.0), ("B", 0.0)]:
            tagged = parse_tags(f"<answer>{answer}</answer>")
            assert outcome_reward(tagged, make_sample(), matcher) == reward

    def test_option_text_match(self, matcher):
        tagged = parse_tags("<answer>yes</answer>")
        assert outcome_reward(tagged, make_sample(), matcher) == 1.0

    @pytest.mark.parametrize("answer, reward", [
        ("no.", 1.0), ("No", 1.0), ("B.", 1.0), ("no!", 1.0), (" No . ", 1.0),
        ("A.", 0.0), ("yes.", 0.0), ("A) yes.", 0.0),
    ])
    def test_closing_period_is_not_part_of_the_answer(self, matcher, answer, reward):
        tagged = parse_tags(f"<answer>{answer}</answer>")
        assert outcome_reward(tagged, make_sample(answer="B"), matcher) == reward

    @pytest.mark.parametrize("answer, reward", [
        (": B", 1.0), (": no.", 1.0), (":No", 1.0), (" : B ", 1.0), (": A", 0.0), (": yes", 0.0),
    ])
    def test_colon_after_the_lead_in_is_not_part_of_the_answer(self, matcher, answer, reward):
        tagged = parse_tags(f"<answer>{answer}</answer>")
        assert outcome_reward(tagged, make_sample(answer="B"), matcher) == reward

    def test_leading_label_match(self, matcher):
        s = make_sample(
            task=TaskType.SINGLE_DIAGNOSIS,
            options=(Option("A", "edema"), Option("B", "atelectasis")),
            answer="B",
        )
        assert outcome_reward(parse_tags("<answer>B) atelectasis</answer>"), s, matcher) == 1.0
        assert outcome_reward(parse_tags("<answer>A) edema</answer>"), s, matcher) == 0.0

    def test_missing_answer_tag_scores_zero(self, matcher):
        assert outcome_reward(parse_tags("no tags here"), make_sample(), matcher) == 0.0

    def test_open_ended_is_entity_f1_under_the_matcher(self, matcher, plain_matcher):
        # "enlarged heart" is a synonym of "cardiomegaly" only in the bundled table
        s = make_sample(task=TaskType.ANOMALY_DETECTION, options=(),
                        answer="cardiomegaly. rib fracture.")
        prediction = "enlarged heart"
        tagged = parse_tags(f"<answer>{prediction}</answer>")
        for m, f1 in [(matcher, 2 / 3), (plain_matcher, 0.0)]:
            assert outcome_reward(tagged, s, m) == entity_f1(prediction, s.answer, m)
            assert abs(outcome_reward(tagged, s, m) - f1) < 1e-12


class TestEntityF1:
    def test_identical_texts(self, matcher):
        text = "mild edema. no effusion."
        assert entity_f1(text, text, matcher) == 1.0

    def test_disjoint_texts(self, matcher):
        assert entity_f1("edema", "pneumothorax", matcher) == 0.0

    def test_partial_overlap(self, matcher):
        # prediction {edema, fracture}, reference {edema}: P=0.5, R=1 -> F1 2/3
        value = entity_f1("edema. rib fracture.", "edema.", matcher)
        assert abs(value - 2 / 3) < 1e-12

    def test_empty_sides_score_zero(self, matcher):
        assert entity_f1("", "edema", matcher) == 0.0
        assert entity_f1("edema", " ", matcher) == 0.0


class TestProcessReward:
    def test_factual_think(self, matcher):
        s = reasoning_sample()
        out = "<think>There is a pleural effusion.</think><answer>A</answer>"
        assert process_reward(parse_tags(out), s, matcher) == 1.0

    def test_hallucinated_think(self, matcher):
        s = reasoning_sample()
        out = "<think>rib fracture</think><answer>A</answer>"
        assert process_reward(parse_tags(out), s, matcher) == 0.0

    def test_leniency_for_normal_findings(self, matcher):
        s = reasoning_sample()
        out = "<think>pleural effusion. no pneumothorax.</think><answer>A</answer>"
        assert process_reward(parse_tags(out), s, matcher) == 1.0

    def test_empty_think_scores_zero(self, matcher):
        s = reasoning_sample()
        assert process_reward(parse_tags("<answer>A</answer>"), s, matcher) == 0.0

    def test_requires_report(self, matcher):
        with pytest.raises(ValueError):
            process_reward(parse_tags("<think>t</think>"), make_sample(), matcher)


class TestTotalReward:
    def test_answer_only_composition(self):
        s = make_sample()
        b = total_reward("<answer>A</answer>", s, RewardConfig())
        assert (b.format, b.outcome, b.process, b.total) == (1.0, 1.0, 0.0, 2.0)

    def test_reasoning_composition(self, matcher):
        s = reasoning_sample()
        out = "<think>pleural effusion</think><answer>A</answer>"
        b = total_reward(out, s, RewardConfig(matcher=matcher))
        assert (b.format, b.outcome, b.process, b.total) == (1.0, 1.0, 1.0, 3.0)

    def test_process_disabled_by_config(self, matcher):
        s = reasoning_sample()
        out = "<think>pleural effusion</think><answer>A</answer>"
        cfg = RewardConfig(matcher=matcher, use_process_reward=False)
        b = total_reward(out, s, cfg)
        assert b.process == 0.0 and b.total == 2.0

    def test_partition_inferred_from_sample(self):
        b = total_reward("<answer>A</answer>", make_sample(), RewardConfig())
        assert b.total == 2.0

    def test_mixed_sample_rejected(self):
        mixed = make_sample(report="Effusion.")
        with pytest.raises(ValueError, match="partition"):
            total_reward("<answer>A</answer>", mixed, RewardConfig())
