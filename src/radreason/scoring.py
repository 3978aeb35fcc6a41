"""Reasoning metric: factuality, completeness, effectiveness, and their mean.

Each dimension is a proportion of the left operand's observations matched in
a reference set; factuality additionally credits unmatched observations that
assert normality (reports often omit normal findings). This is the one module
that asks a matcher for observations and matches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import VqaSample
from .observations import ObservationSet, Role, is_normalish
from .tags import TaggedOutput


class NotScorableError(ValueError):
    """Sample lacks the report/reasoning needed for scoring, or the model
    output is empty."""


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


def report_factuality(text: str, report: str, matcher) -> RatioResult:
    """Factuality of `text` against a report: the grounding rule of both the
    process reward and the mining filter. `text` is extracted first."""
    obs_text = matcher.extract(text, Role.MODEL)
    obs_report = matcher.extract(report, Role.REPORT)
    return factuality(obs_text, obs_report, matcher)


def entity_f1(prediction: str, reference: str, matcher) -> float:
    """Entity-level F1 between two free-text answers under `matcher`, from
    the prediction's effectiveness and the reference's completeness (0 for
    an empty side); the desk-scale stand-in for an external
    report-similarity scorer."""
    if not prediction.strip() or not reference.strip():
        return 0.0
    pred = matcher.extract(prediction, Role.MODEL)
    ref = matcher.extract(reference, Role.GROUND_TRUTH)
    precision = effectiveness(pred, ref, matcher).value
    recall = completeness(ref, pred, matcher).value
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


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


def model_reasoning_text(tagged: TaggedOutput) -> str:
    """Think-tag content when tags exist, whole output otherwise."""
    if tagged.think is not None:
        return tagged.think
    return tagged.text


def score_sample(sample: VqaSample, tagged: TaggedOutput, matcher) -> ReasoningScores:
    """Score one parsed model output against the sample's report and mined
    reasoning. Raises NotScorableError when the sample lacks either, or when
    the output is empty."""
    if not sample.report or not sample.reasoning:
        raise NotScorableError(
            f"sample {sample.id}: scoring requires both report and reasoning"
        )
    if not tagged.text:
        raise NotScorableError("model output must be non-empty")
    think = model_reasoning_text(tagged)
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
