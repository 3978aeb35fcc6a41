"""Reasoning metric: factuality, completeness, effectiveness, and their mean.

Each dimension is a proportion of the left operand's observations matched in
a reference set; factuality additionally credits unmatched observations that
assert normality (reports often omit normal findings).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .core import TaskType, VqaSample
from .observations import ObservationSet, Role, is_normalish
from .tags import parse_tags


class NotScorableError(ValueError):
    """Sample lacks the report/reasoning needed for scoring."""


@dataclass(frozen=True)
class RatioResult:
    value: float
    matched: int
    denominator: int
    leniency_credits: int = 0
    degenerate: bool = False


@dataclass(frozen=True)
class ReasoningScores:
    r_f: float
    r_c: float
    r_e: float
    radrscore: float
    counts: dict
    degenerate: bool

    def as_record(self) -> dict:
        return {
            "r_f": self.r_f,
            "r_c": self.r_c,
            "r_e": self.r_e,
            "radrscore": self.radrscore,
            "counts": dict(self.counts),
            "degenerate": self.degenerate,
        }


def _ratio(numerator: int, denominator: int) -> tuple[float, bool]:
    if denominator == 0:
        return 0.0, True
    return numerator / denominator, False


def factuality(
    obs_model: ObservationSet, obs_report: ObservationSet, matcher
) -> RatioResult:
    """Proportion of model observations grounded in the report, with leniency
    credit for unmatched observations asserting normality/absence."""
    matched, unmatched = matcher.partition(obs_model, obs_report)
    credits = sum(1 for x in unmatched if is_normalish(x))
    value, degenerate = _ratio(len(matched) + credits, len(obs_model))
    return RatioResult(value, len(matched), len(obs_model), credits, degenerate)


def completeness(
    obs_gt: ObservationSet, obs_model: ObservationSet, matcher
) -> RatioResult:
    """Proportion of ground-truth observations covered by the model."""
    matched = len(matcher.partition(obs_gt, obs_model)[0])
    value, degenerate = _ratio(matched, len(obs_gt))
    return RatioResult(value, matched, len(obs_gt), 0, degenerate)


def effectiveness(
    obs_model: ObservationSet, obs_gt: ObservationSet, matcher
) -> RatioResult:
    """Proportion of model observations present in the ground-truth reasoning."""
    matched = len(matcher.partition(obs_model, obs_gt)[0])
    value, degenerate = _ratio(matched, len(obs_model))
    return RatioResult(value, matched, len(obs_model), 0, degenerate)


def combine(rf: RatioResult, rc: RatioResult, re_: RatioResult) -> ReasoningScores:
    return ReasoningScores(
        r_f=rf.value,
        r_c=rc.value,
        r_e=re_.value,
        radrscore=math.fsum((rf.value, rc.value, re_.value)) / 3,
        counts={
            "obs_model": rf.denominator,
            "obs_gt": rc.denominator,
            "matched_f": rf.matched,
            "matched_c": rc.matched,
            "matched_e": re_.matched,
            "leniency_credits": rf.leniency_credits,
        },
        degenerate=rf.degenerate or rc.degenerate or re_.degenerate,
    )


def model_reasoning_text(model_output: str) -> str:
    """Think-tag content when tags exist, whole output otherwise."""
    tagged = parse_tags(model_output)
    if tagged.think is not None:
        return tagged.think
    return model_output


def score_sample(sample: VqaSample, model_output: str, matcher) -> ReasoningScores:
    """Score one model output against the sample's report and mined reasoning."""
    if not sample.report or not sample.reasoning:
        raise NotScorableError(
            f"sample {sample.id}: scoring requires both report and reasoning"
        )
    if not model_output:
        raise ValueError("model_output must be non-empty")
    think = model_reasoning_text(model_output)
    if think.strip():
        obs_model = matcher.extract(think, Role.MODEL)
    else:
        obs_model = ObservationSet((), role=Role.MODEL)
    obs_gt = matcher.extract(sample.reasoning, Role.GROUND_TRUTH)
    obs_report = matcher.extract(sample.report, Role.REPORT)
    return combine(
        factuality(obs_model, obs_report, matcher),
        completeness(obs_gt, obs_model, matcher),
        effectiveness(obs_model, obs_gt, matcher),
    )


@dataclass(frozen=True)
class ScoreRecord:
    sample_id: str
    task: TaskType
    scores: ReasoningScores


@dataclass(frozen=True)
class ScoreAggregate:
    per_task: dict[str, dict[str, float]]  # task -> metric -> mean
    overall: dict[str, float]
    counts: dict[str, int]  # task -> n, plus "overall"


_METRICS = ("r_f", "r_c", "r_e", "radrscore")


def _means(scores: Iterable[ReasoningScores]) -> dict[str, float]:
    scores = list(scores)
    return {
        m: sum(getattr(s, m) for s in scores) / len(scores) for m in _METRICS
    }


def aggregate(records: list[ScoreRecord]) -> ScoreAggregate:
    """Per-task and overall arithmetic means. Degenerate samples count at
    value 0 — they are failed reasoning, not missing data."""
    if not records:
        raise ValueError("cannot aggregate an empty score list")
    per_task: dict[str, dict[str, float]] = {}
    counts: dict[str, int] = {}
    for task in sorted({r.task for r in records}, key=lambda t: t.value):
        subset = [r.scores for r in records if r.task is task]
        per_task[task.value] = _means(subset)
        counts[task.value] = len(subset)
    overall = _means(r.scores for r in records)
    counts["overall"] = len(records)
    return ScoreAggregate(per_task=per_task, overall=overall, counts=counts)
