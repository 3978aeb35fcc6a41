"""Composite reward: output format + outcome accuracy + process factuality.

Answer-only samples earn format + outcome; reasoning-augmented samples earn
an additional process-factuality component. Components are summed unweighted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from .core import CLOSE_ENDED_TASKS, PartitionTag, VqaSample
from .observations import LexicalMatcher, Role
from .scoring import factuality
from .tags import TaggedOutput, parse_tags

__all__ = [
    "RewardBreakdown",
    "RewardConfig",
    "parse_tags",
    "TaggedOutput",
    "format_reward",
    "outcome_reward",
    "process_reward",
    "total_reward",
    "entity_f1",
]

OpenScorer = Callable[[str, str], float]


class RewardConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RewardBreakdown:
    format: float  # 0 or 1
    outcome: float  # in [0, 1]
    process: float  # in [0, 1]; 0 for answer-only samples
    total: float

    def as_record(self) -> dict:
        return {
            "format": self.format,
            "outcome": self.outcome,
            "process": self.process,
            "total": self.total,
        }


def format_reward(output: str, partition: PartitionTag) -> int:
    """1 iff the output carries the tag structure required for the partition.

    Reasoning-augmented: think then answer. Answer-only: a well-formed answer
    tag; a volunteered think tag is not penalized.
    """
    tagged = parse_tags(output)
    if not tagged.well_formed:
        return 0
    if partition is PartitionTag.REASONING_AUGMENTED and tagged.think is None:
        return 0
    return 1


def _normalize_answer(text: str) -> str:
    return " ".join(text.strip().split()).casefold()


def _match_close_ended(answer_text: str, sample: VqaSample) -> float:
    pred = _normalize_answer(answer_text)
    truth = sample.answer
    option_text = _normalize_answer(sample.answer_text())
    if pred == truth.casefold() or pred == option_text:
        return 1.0
    # answers like "B) atelectasis" match on the leading label
    head = pred.split(")")[0].split(".")[0].strip()
    if head == truth.casefold():
        return 1.0
    return 0.0


def entity_f1(prediction: str, reference: str, matcher=None) -> float:
    """Entity-level F1 between two free-text answers; the desk-scale stand-in
    for an external report-similarity scorer."""
    matcher = matcher or LexicalMatcher()
    if not prediction.strip() or not reference.strip():
        return 0.0
    pred = matcher.extract(prediction, Role.MODEL)
    ref = matcher.extract(reference, Role.GROUND_TRUTH)
    if len(pred) == 0 or len(ref) == 0:
        return 0.0
    precision = len(matcher.partition(pred, ref)[0]) / len(pred)
    recall = len(matcher.partition(ref, pred)[0]) / len(ref)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def outcome_reward(
    output: str, sample: VqaSample, open_scorer: Optional[OpenScorer] = None
) -> float:
    """Exact label match for close-ended tasks; pluggable similarity scorer
    for open-ended generation. Missing answer tag scores 0."""
    tagged = parse_tags(output)
    if tagged.answer is None:
        return 0.0
    if sample.task in CLOSE_ENDED_TASKS:
        return _match_close_ended(tagged.answer, sample)
    if open_scorer is None:
        raise RewardConfigError(
            "open-ended outcome reward requires an open_scorer (e.g. entity_f1)"
        )
    value = open_scorer(tagged.answer, sample.answer)
    return min(1.0, max(0.0, float(value)))


def process_reward(output: str, sample: VqaSample, matcher) -> float:
    """Factuality of the think content against the clinical report (leniency
    rule included). Empty or missing think content scores 0."""
    if not sample.report:
        raise ValueError(
            f"sample {sample.id}: process reward requires a reasoning-augmented sample"
        )
    tagged = parse_tags(output)
    think = tagged.think if tagged.think is not None else ""
    if not think.strip():
        return 0.0
    obs_model = matcher.extract(think, Role.MODEL)
    obs_report = matcher.extract(sample.report, Role.REPORT)
    return factuality(obs_model, obs_report, matcher).value


@dataclass
class RewardConfig:
    matcher: object = field(default_factory=LexicalMatcher)
    open_scorer: Optional[OpenScorer] = None
    use_process_reward: bool = True
    partition_override: Optional[PartitionTag] = None

    def resolved_open_scorer(self) -> OpenScorer:
        if self.open_scorer is not None:
            return self.open_scorer
        matcher = self.matcher
        return lambda pred, ref: entity_f1(pred, ref, matcher)


def total_reward(
    output: str,
    sample: VqaSample,
    partition: Optional[PartitionTag] = None,
    config: Optional[RewardConfig] = None,
) -> RewardBreakdown:
    """Unweighted component sum; process component only on reasoning-augmented
    samples (and only when enabled by config)."""
    config = config or RewardConfig()
    partition = (
        config.partition_override
        if config.partition_override is not None
        else (partition if partition is not None else sample.partition)
    )
    if partition is None:
        raise ValueError(f"sample {sample.id}: partition undefined (mixed sample)")
    fmt = float(format_reward(output, partition))
    outcome = outcome_reward(output, sample, config.resolved_open_scorer())
    process = 0.0
    if partition is PartitionTag.REASONING_AUGMENTED and config.use_process_reward:
        process = process_reward(output, sample, config.matcher)
    return RewardBreakdown(
        format=fmt, outcome=outcome, process=process, total=fmt + outcome + process
    )
