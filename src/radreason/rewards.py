"""Composite reward: output format + outcome accuracy + process factuality.

Answer-only samples earn format + outcome; reasoning-augmented samples earn
an additional process-factuality component. Components are summed unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import CLOSE_ENDED_TASKS, PartitionTag, VqaSample
from .observations import LexicalMatcher
from .scoring import entity_f1, report_factuality
from .tags import TaggedOutput, parse_tags


@dataclass(frozen=True)
class RewardBreakdown:
    format: float  # 0 or 1
    outcome: float  # in [0, 1]
    process: float  # in [0, 1]; 0 for answer-only samples
    total: float


def format_reward(tagged: TaggedOutput, partition: PartitionTag) -> int:
    """1 iff the output carries the tag structure required for the partition.

    Reasoning-augmented: think then answer. Answer-only: a well-formed answer
    tag; a volunteered think tag is not penalized.
    """
    if not tagged.well_formed:
        return 0
    if partition is PartitionTag.REASONING_AUGMENTED and tagged.think is None:
        return 0
    return 1


def _normalize_answer(text: str) -> str:
    # a closing period is not part of the answer, nor is a colon after the
    # lead-in: "no." and ": no" state "no"
    return " ".join(text.strip().rstrip(".!?").lstrip(":").split()).casefold()


def _match_close_ended(answer_text: str, sample: VqaSample) -> float:
    pred = _normalize_answer(answer_text)
    truth = sample.answer.casefold()
    if pred == truth or pred == _normalize_answer(sample.answer_text()):
        return 1.0
    # answers like "B) atelectasis" match on the leading label
    head = pred.split(")")[0].split(".")[0].strip()
    if head == truth:
        return 1.0
    return 0.0


def answer_reward(answer: str, sample: VqaSample, matcher) -> float:
    """Exact label match for close-ended tasks; `entity_f1` under `matcher`
    for open-ended generation. Outcome reward and mining both judge by it."""
    if sample.task in CLOSE_ENDED_TASKS:
        return _match_close_ended(answer, sample)
    return entity_f1(answer, sample.answer, matcher)


def outcome_reward(tagged: TaggedOutput, sample: VqaSample, matcher) -> float:
    """`answer_reward` of the answer tag; a missing answer tag scores 0."""
    if tagged.answer is None:
        return 0.0
    return answer_reward(tagged.answer, sample, matcher)


def process_reward(tagged: TaggedOutput, sample: VqaSample, matcher) -> float:
    """Factuality of the think content against the clinical report (leniency
    rule included). Empty or missing think content scores 0."""
    if not sample.report:
        raise ValueError(
            f"sample {sample.id}: process reward requires a reasoning-augmented sample"
        )
    think = tagged.think if tagged.think is not None else ""
    if not think.strip():
        return 0.0
    return report_factuality(think, sample.report, matcher).value


@dataclass
class RewardConfig:
    matcher: object = field(default_factory=LexicalMatcher)
    use_process_reward: bool = True


def total_reward(output: str, sample: VqaSample, config: RewardConfig) -> RewardBreakdown:
    """Unweighted component sum under the sample's partition; process
    component only on reasoning-augmented samples (and only when enabled by
    config). The output's tags are parsed once, for all three components."""
    partition = sample.partition
    if partition is None:
        raise ValueError(f"sample {sample.id}: partition undefined (mixed sample)")
    tagged = parse_tags(output)
    fmt = float(format_reward(tagged, partition))
    outcome = outcome_reward(tagged, sample, config.matcher)
    process = 0.0
    if partition is PartitionTag.REASONING_AUGMENTED and config.use_process_reward:
        process = process_reward(tagged, sample, config.matcher)
    return RewardBreakdown(
        format=fmt, outcome=outcome, process=process, total=fmt + outcome + process
    )
