"""Mining reasoning chains from clinical reports and compiling the benchmark.

Three completion-backed steps per sample (plan, evidence, refine), then
factuality filtering, disease balancing, and benchmark bundle emission.
Per-sample content failures skip the sample with a logged reason; a failed
completion (backend or cache) aborts the batch.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .core import (
    Corpus,
    CorpusError,
    LabelFn,
    VqaSample,
    count_labels,
    label_by_answer,
    sample_to_record,
)
from .llm import CompletionClient, render_template
from .observations import ExtractionError, MatchError, Role
from .scoring import factuality


class MiningError(RuntimeError):
    def __init__(self, sample_id: str, stage: str, reason: str):
        self.sample_id = sample_id
        self.stage = stage
        self.reason = reason
        super().__init__(f"[{stage}] sample {sample_id}: {reason}")


@dataclass(frozen=True)
class PlanStep:
    goal: str
    order: int

    def __post_init__(self) -> None:
        if not self.goal.strip():
            raise ValueError("plan step goal must be non-empty")


@dataclass(frozen=True)
class EvidenceStep:
    plan: PlanStep
    evidence: str
    inferred: bool  # evidence was not found in the report


@dataclass(frozen=True)
class MinedChain:
    sample_id: str
    steps: tuple[EvidenceStep, ...]
    narrative: str
    r_f: float

    def as_record(self) -> dict:
        return {
            "sample_id": self.sample_id,
            "steps": [
                {
                    "goal": s.plan.goal,
                    "order": s.plan.order,
                    "evidence": s.evidence,
                    "inferred": s.inferred,
                }
                for s in self.steps
            ],
            "narrative": self.narrative,
            "r_f": self.r_f,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "MinedChain":
        steps = tuple(
            EvidenceStep(
                plan=PlanStep(goal=s["goal"], order=s["order"]),
                evidence=s["evidence"],
                inferred=bool(s["inferred"]),
            )
            for s in rec["steps"]
        )
        return cls(
            sample_id=rec["sample_id"],
            steps=steps,
            narrative=rec["narrative"],
            r_f=float(rec["r_f"]),
        )


def load_chains(path: str | Path) -> list[MinedChain]:
    """Read a chains file (JSONL of `MinedChain.as_record` records, as
    `chains.jsonl` of a mining run). A malformed line raises ValueError
    located as `path:line: reason`."""
    path = Path(path)
    chains = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise ValueError(
                    f"{path}:{lineno}: invalid UTF-8 at byte {e.start}: {e.reason}"
                ) from None
            if not line:
                continue
            try:
                chains.append(MinedChain.from_record(json.loads(line)))
            except KeyError as e:
                raise ValueError(f"{path}:{lineno}: missing field {e}") from None
            except (AttributeError, TypeError, ValueError) as e:
                raise ValueError(f"{path}:{lineno}: malformed chain: {e}") from None
    return chains


_LIST_ITEM_RE = re.compile(r"^\s*(?:\d+[.)]|[-*])\s*(.+)$")
_INFERRED_FORMS = frozenset({"no disease", "normal"})


def _parse_list(raw: str) -> list[str]:
    items = []
    for line in raw.splitlines():
        m = _LIST_ITEM_RE.match(line)
        if m and m.group(1).strip():
            items.append(m.group(1).strip())
    return items


def build_plans(
    sample: VqaSample, client: CompletionClient, max_retries: int = 2
) -> list[PlanStep]:
    """Step 1: structured reasoning plan for a (question, options, report)."""
    if not sample.report:
        raise MiningError(sample.id, "plan", "sample has no report")
    options = " ".join(f"{o.label}) {o.text}" for o in sample.options) or "(open-ended)"
    request = render_template(
        "plan", question=sample.question, options=options, report=sample.report
    )
    for _ in range(max_retries + 1):
        raw = client.complete(request)
        goals = _parse_list(raw)
        if goals:
            return [PlanStep(goal=g, order=i) for i, g in enumerate(goals)]
    raise MiningError(sample.id, "plan", f"empty or unparseable plan: {raw!r}")


def extract_evidence(
    plan: PlanStep, report: str, client: CompletionClient
) -> EvidenceStep:
    """Step 2: evidence from the report, or an inferred 'normal'/'no disease'."""
    if not report.strip():
        raise ValueError("report text must be non-empty")
    request = render_template("evidence", goal=plan.goal, report=report)
    raw = client.complete(request).strip()
    inferred = raw.lower().strip(".\"' ") in _INFERRED_FORMS
    return EvidenceStep(plan=plan, evidence=raw, inferred=inferred)


def refine_chain(
    sample: VqaSample,
    steps: list[EvidenceStep],
    client: CompletionClient,
    matcher,
) -> MinedChain:
    """Step 3: integrate steps into a coherent narrative; populate factuality."""
    if not steps:
        raise ValueError("refine_chain requires at least one evidence step")
    steps_text = "\n".join(
        f"{s.plan.order + 1}. {s.plan.goal}: {s.evidence}" for s in steps
    )
    request = render_template(
        "refine",
        question=sample.question,
        answer=sample.answer_text(),
        steps=steps_text,
    )
    narrative = client.complete(request).strip()
    if not narrative:
        raise MiningError(sample.id, "refine", "empty narrative")
    if sample.answer_text().casefold() not in narrative.casefold():
        raise MiningError(
            sample.id, "refine", "narrative conclusion contradicts the answer"
        )
    obs_narr = matcher.extract(narrative, Role.MODEL)
    obs_report = matcher.extract(sample.report, Role.REPORT)
    r_f = factuality(obs_narr, obs_report, matcher).value
    return MinedChain(
        sample_id=sample.id, steps=tuple(steps), narrative=narrative, r_f=r_f
    )


def mine_sample(sample: VqaSample, client: CompletionClient, matcher) -> MinedChain:
    plans = build_plans(sample, client)
    steps = [extract_evidence(p, sample.report, client) for p in plans]
    return refine_chain(sample, steps, client, matcher)


@dataclass(frozen=True)
class Rejection:
    sample_id: str
    stage: str
    reason: str

    def as_record(self) -> dict:
        return {"sample_id": self.sample_id, "stage": self.stage, "reason": self.reason}


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

    if workers <= 1:
        results = [_one(s) for s in candidates]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_one, candidates))
    chains = sorted((c for c, _ in results if c), key=lambda c: c.sample_id)
    rejections = sorted((r for _, r in results if r), key=lambda r: r.sample_id)
    return chains, rejections


def filter_by_factuality(
    chains: list[MinedChain], threshold: float = 1.0
) -> tuple[list[MinedChain], list[Rejection]]:
    """Keep exactly the chains with r_f >= threshold (default: perfect)."""
    kept, rejected = [], []
    for c in chains:
        if c.r_f >= threshold:
            kept.append(c)
        else:
            rejected.append(
                Rejection(c.sample_id, "factuality_filter", f"r_f={c.r_f:.4f}")
            )
    return kept, rejected


def balance(
    corpus: Corpus, label_of: LabelFn = label_by_answer, seed: int = 0
) -> Corpus:
    """Seeded uniform down-sampling until the most frequent disease label does
    not exceed twice the least frequent; the minimum class is never touched."""
    counts = count_labels(corpus.samples, label_of)
    if len(counts) < 2:
        raise CorpusError(
            "balancing needs at least two disease labels; got "
            + ", ".join(repr(k) for k in counts)
        )
    cap = 2 * min(counts.values())
    rng = np.random.default_rng(seed)
    keep_ids: set[str] = set()
    for label in sorted(counts):
        ids = [s.id for s in corpus.samples if label_of(s) == label]
        if len(ids) > cap:
            picked = rng.choice(len(ids), size=cap, replace=False)
            ids = [ids[i] for i in sorted(picked)]
        keep_ids.update(ids)
    kept = tuple(s for s in corpus.samples if s.id in keep_ids)
    return Corpus(kept, provenance=corpus.provenance)


@dataclass(frozen=True)
class BenchmarkBundle:
    directory: Path
    manifest: dict

    def record_file(self, split: str, partition: str) -> Path:
        return self.directory / f"{split}_{partition}.jsonl"


_PARTITION_SUFFIX = {"reasoning_augmented": "R", "answer_only": "A"}


def compile_benchmark(
    corpus: Corpus,
    chains: list[MinedChain],
    out_dir: str | Path,
    seed: int = 0,
    threshold: float = 1.0,
) -> BenchmarkBundle:
    """Emit answer-only and reasoning-augmented record files per split plus a
    manifest. Surviving chains attach their narrative as the sample's
    reasoning; all other samples are emitted answer-only (report dropped, per
    the partition definition)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    by_id = {s.id: s for s in corpus.samples}
    chain_for: dict[str, MinedChain] = {}
    for c in chains:
        if c.sample_id not in by_id:
            raise CorpusError(f"chain references unknown sample id {c.sample_id!r}")
        chain_for[c.sample_id] = c

    buckets: dict[tuple[str, str], list[dict]] = {
        (split, part): []
        for split in ("train", "test")
        for part in ("R", "A")
    }
    task_counts: dict[str, int] = {}
    source_counts: dict[str, int] = {}
    part_counts = {"reasoning_augmented": 0, "answer_only": 0}
    for s in corpus.samples:
        chain = chain_for.get(s.id)
        if chain is not None:
            out = replace(s, reasoning=chain.narrative)
            part = "reasoning_augmented"
        else:
            out = replace(s, report="", reasoning="")
            part = "answer_only"
        buckets[(s.split, _PARTITION_SUFFIX[part])].append(sample_to_record(out))
        part_counts[part] += 1
        task_counts[s.task.value] = task_counts.get(s.task.value, 0) + 1
        source_counts[s.source or "unknown"] = (
            source_counts.get(s.source or "unknown", 0) + 1
        )

    for (split, part), records in buckets.items():
        records.sort(key=lambda r: r["id"])
        path = out_dir / f"{split}_{part}.jsonl"
        with path.open("w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")

    manifest = {
        "counts": {
            "total": len(corpus),
            "per_partition": part_counts,
            "per_task": dict(sorted(task_counts.items())),
            "per_source": dict(sorted(source_counts.items())),
            "per_file": {
                f"{split}_{part}": len(records)
                for (split, part), records in sorted(buckets.items())
            },
        },
        "factuality_threshold": threshold,
        "balancing": "seeded uniform down-sampling, max label count <= 2x min",
        "label_scheme": "per-combination (full option combination is the label)",
        "seed": seed,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    return BenchmarkBundle(directory=out_dir, manifest=manifest)
