"""Mining reasoning chains from clinical reports and compiling the benchmark.

Three completion-backed steps per sample (plan, evidence, refine), then
factuality filtering, disease balancing, and benchmark bundle emission.
Per-sample content failures skip the sample with a logged reason; a failed
completion (backend or cache) aborts the batch.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable

from .core import (
    Corpus,
    CorpusError,
    Kind,
    VqaSample,
    items_fault,
    label_by_answer,
    map_in_order,
    read_jsonl,
    sample_to_record,
    write_json,
    write_jsonl,
)
from .llm import CompletionClient, CompletionRequest, render_template
from .observations import ExtractionError, MatchError
from .scoring import report_factuality


# the paper's filter: a chain is kept only when it is fully grounded in its
# report (r_f = 1), under the same rule as the process reward
FACTUALITY_THRESHOLD = 1.0


class MiningError(RuntimeError):
    def __init__(self, sample_id: str, stage: str, reason: str):
        self.sample_id = sample_id
        self.stage = stage
        self.reason = reason
        super().__init__(f"[{stage}] sample {sample_id}: {reason}")


@dataclass(frozen=True)
class EvidenceStep:
    """One step of a chain: a plan goal, its place in the plan, and the
    evidence found for it. The fields are the step keys of `chains.jsonl`."""

    goal: str
    order: int
    evidence: str
    inferred: bool  # evidence was not found in the report

    def __post_init__(self) -> None:
        if not self.goal.strip():
            raise ValueError("plan step goal must be non-empty")


@dataclass(frozen=True)
class MinedChain:
    sample_id: str
    steps: tuple[EvidenceStep, ...]
    narrative: str
    r_f: float

    @classmethod
    def from_record(cls, rec: dict) -> "MinedChain":
        steps = tuple(EvidenceStep(**{f: s[f] for f in _STEP_FIELDS}) for s in rec["steps"])
        return cls(
            sample_id=rec["sample_id"],
            steps=steps,
            narrative=rec["narrative"],
            # an integer r_f, which a ratio may be, is written back as a float
            r_f=float(rec["r_f"]),
        )


_CHAIN_FIELDS = {"sample_id": Kind.STRING, "steps": Kind.LIST, "narrative": Kind.STRING,
                 "r_f": Kind.RATIO}
_STEP_FIELDS = {"goal": Kind.STRING, "order": Kind.INTEGER, "evidence": Kind.STRING,
                "inferred": Kind.BOOLEAN}


def load_chains(path: str | Path) -> list[MinedChain]:
    """Read a chains file (JSONL of `MinedChain` records, as `chains.jsonl`
    of a mining run). A malformed line raises ValueError
    located as `path:line: reason`."""
    chains = []
    for lineno, rec, reason in read_jsonl(path, _CHAIN_FIELDS):
        reason = reason or items_fault("steps", rec["steps"], _STEP_FIELDS)
        if reason:
            raise ValueError(f"{path}:{lineno}: {reason}")
        try:
            chains.append(MinedChain.from_record(rec))
        except ValueError as e:  # a blank plan goal
            raise ValueError(f"{path}:{lineno}: malformed chain: {e}") from None
    return chains


# a number then "." or ")" is a marker unless a digit follows: "2.5 cm" is not
_LIST_ITEM_RE = re.compile(r"^\s*(?:\d+[.)](?!\d)|[-*])\s*(.+)$")
_INFERRED_FORMS = frozenset({"no disease", "normal"})


def _parse_list(raw: str) -> list[str]:
    items = []
    for line in raw.splitlines():
        m = _LIST_ITEM_RE.match(line)
        if m and m.group(1).strip():
            items.append(m.group(1).strip())
    return items


def plan_request(sample: VqaSample) -> CompletionRequest:
    """The request of step 1 for a sample: its question, options and report."""
    options = " ".join(f"{o.label}) {o.text}" for o in sample.options) or "(open-ended)"
    return render_template(
        "plan", question=sample.question, options=options, report=sample.report
    )


def refine_request(sample: VqaSample, steps: Iterable[EvidenceStep]) -> CompletionRequest:
    """The request of step 3 for a sample: its question, answer and the
    numbered `goal: evidence` lines of its steps."""
    steps_text = "\n".join(f"{s.order + 1}. {s.goal}: {s.evidence}" for s in steps)
    return render_template(
        "refine", question=sample.question, answer=sample.answer_text(), steps=steps_text
    )


def build_plans(sample: VqaSample, client: CompletionClient) -> list[str]:
    """Step 1: the goals of a structured reasoning plan for a (question,
    options, report), in plan order."""
    if not sample.report:
        raise MiningError(sample.id, "plan", "sample has no report")
    raw = client.complete(plan_request(sample))
    goals = _parse_list(raw)
    if goals:
        return goals
    raise MiningError(sample.id, "plan", f"empty or unparseable plan: {raw!r}")


def extract_evidence(
    goal: str, order: int, report: str, client: CompletionClient
) -> EvidenceStep:
    """Step 2: evidence from the report for plan goal number `order`, or an
    inferred 'normal'/'no disease'."""
    request = render_template("evidence", goal=goal, report=report)
    raw = client.complete(request).strip()
    inferred = raw.lower().strip(".\"' ") in _INFERRED_FORMS
    return EvidenceStep(goal=goal, order=order, evidence=raw, inferred=inferred)


def refine_chain(
    sample: VqaSample,
    steps: list[EvidenceStep],
    client: CompletionClient,
    matcher,
) -> MinedChain:
    """Step 3: integrate steps into a coherent narrative; populate factuality."""
    if not steps:
        raise ValueError("refine_chain requires at least one evidence step")
    narrative = client.complete(refine_request(sample, steps)).strip()
    if not narrative:
        raise MiningError(sample.id, "refine", "empty narrative")
    if sample.answer_text().casefold() not in narrative.casefold():
        raise MiningError(
            sample.id, "refine", "narrative conclusion contradicts the answer"
        )
    r_f = report_factuality(narrative, sample.report, matcher).value
    return MinedChain(
        sample_id=sample.id, steps=tuple(steps), narrative=narrative, r_f=r_f
    )


def mine_sample(sample: VqaSample, client: CompletionClient, matcher) -> MinedChain:
    goals = build_plans(sample, client)
    steps = [
        extract_evidence(goal, order, sample.report, client)
        for order, goal in enumerate(goals)
    ]
    return refine_chain(sample, steps, client, matcher)


@dataclass(frozen=True)
class Rejection:
    sample_id: str
    stage: str
    reason: str


def mine_corpus(
    corpus: Corpus, client: CompletionClient, matcher, workers: int = 1
) -> tuple[list[MinedChain], list[Rejection]]:
    """Mine every sample that carries a report; output order is fixed by
    sample id regardless of worker count.

    A response that cannot be used is that sample's rejection. A failed
    completion (`CompletionError`, a cache miss included) is raised: the
    backend or cache is at fault, not the sample, and mining on would
    quietly shrink the benchmark."""
    candidates = [s for s in corpus.samples if s.report]

    def _one(sample: VqaSample):
        try:
            return mine_sample(sample, client, matcher), None
        except MiningError as e:
            return None, Rejection(e.sample_id, e.stage, e.reason)
        except (ExtractionError, MatchError) as e:
            return None, Rejection(sample.id, "mine", str(e))

    results = list(map_in_order(_one, candidates, workers))
    chains = sorted((c for c, _ in results if c), key=lambda c: c.sample_id)
    rejections = sorted((r for _, r in results if r), key=lambda r: r.sample_id)
    return chains, rejections


def filter_by_factuality(chains: list[MinedChain]) -> tuple[list[MinedChain], list[Rejection]]:
    """Keep exactly the chains with r_f >= FACTUALITY_THRESHOLD (perfect)."""
    kept, rejected = [], []
    for c in chains:
        if c.r_f >= FACTUALITY_THRESHOLD:
            kept.append(c)
        else:
            rejected.append(Rejection(c.sample_id, "factuality_filter", f"r_f={c.r_f:.4f}"))
    return kept, rejected


def balance(corpus: Corpus, seed: int = 0) -> Corpus:
    """Seeded uniform down-sampling until the most frequent disease label
    (`label_by_answer`) does not exceed twice the least frequent; the
    minimum class is never touched. Each label over the cap, in sorted label
    order, draws one `random.Random(seed).random()` key per sample in corpus
    order and keeps the samples with the `cap` smallest keys: Python keeps
    that stream fixed across versions, so the kept subset depends on the
    seed alone."""
    ids_by_label: dict[str, list[str]] = {}
    for s in corpus.samples:
        ids_by_label.setdefault(label_by_answer(s), []).append(s.id)
    if len(ids_by_label) < 2:
        raise CorpusError(
            "balancing needs at least two disease labels; got "
            + ", ".join(repr(k) for k in ids_by_label)
        )
    cap = 2 * min(map(len, ids_by_label.values()))
    rng = random.Random(seed)
    keep_ids: set[str] = set()
    for label in sorted(ids_by_label):
        ids = ids_by_label[label]
        if len(ids) > cap:
            keys = {i: rng.random() for i in ids}
            ids = sorted(ids, key=keys.__getitem__)[:cap]
        keep_ids.update(ids)
    kept = tuple(s for s in corpus.samples if s.id in keep_ids)
    return Corpus(kept)


@dataclass(frozen=True)
class BenchmarkBundle:
    directory: Path
    manifest: dict

    def record_file(self, split: str, partition: str) -> Path:
        return self.directory / f"{split}_{partition}.jsonl"


def compile_benchmark(
    corpus: Corpus,
    chains: list[MinedChain],
    out_dir: str | Path,
    seed: int = 0,
) -> BenchmarkBundle:
    """Emit answer-only and reasoning-augmented record files per split plus a
    manifest. Surviving chains attach their narrative as the sample's
    reasoning; all other samples are emitted answer-only (report dropped, per
    the partition definition). Chains for samples outside `corpus` are
    ignored. Each file is written from a generator over the samples in id
    order, so no record outlives its line."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    narrative = {c.sample_id: c.narrative for c in chains}
    samples = sorted(corpus.samples, key=attrgetter("id"))
    for split in ("train", "test"):
        write_jsonl(out_dir / f"{split}_R.jsonl", (
            sample_to_record(s, reasoning=narrative[s.id])
            for s in samples if s.split == split and s.id in narrative
        ))
        write_jsonl(out_dir / f"{split}_A.jsonl", (
            sample_to_record(s, report="", reasoning="")
            for s in samples if s.split == split and s.id not in narrative
        ))
    file_counts = Counter(
        f"{s.split}_{'R' if s.id in narrative else 'A'}" for s in corpus.samples
    )
    augmented = file_counts["train_R"] + file_counts["test_R"]
    task_counts = Counter(s.task.value for s in corpus.samples)
    source_counts = Counter(s.source or "unknown" for s in corpus.samples)

    manifest = {
        "counts": {
            "total": len(corpus),
            "per_partition": {
                "reasoning_augmented": augmented,
                "answer_only": len(corpus) - augmented,
            },
            "per_task": dict(sorted(task_counts.items())),
            "per_source": dict(sorted(source_counts.items())),
            "per_file": {
                name: file_counts[name] for name in ("test_A", "test_R", "train_A", "train_R")
            },
        },
        "factuality_threshold": FACTUALITY_THRESHOLD,
        "balancing": "seeded uniform down-sampling, max label count <= 2x min",
        "label_scheme": "per-combination (full option combination is the label)",
        "seed": seed,
    }
    write_json(out_dir / "manifest.json", manifest)
    return BenchmarkBundle(directory=out_dir, manifest=manifest)
