"""Seeded input generators for the three benchmark workloads.

Inputs are built only with the program's public constructors (`VqaSample`,
`save_corpus`, `render_template`) and written as the files a user would hand
to the CLI. Each generator also writes `expected.json`, which holds what the
benchmark's output checks need (designed error ids, designed rejection
counts) and is never shown to the program.

The same (workload, seed) always produces byte-identical files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from radreason.core import Corpus, Option, TaskType, VqaSample, save_corpus
from radreason.llm import render_template
from radreason.training import make_toy_corpus

# Input sizes of one workload run.
SCORE_SAMPLES = 1000  # 4 outputs each on average: N = 4000 score records
SCORE_UNKNOWN_SHARE = 0.02  # output lines whose id is not in the corpus
OUTPUTS_PER_SAMPLE = (3, 4, 4, 5)
MINE_SAMPLES = 800
MINE_ANSWER_ONLY_EVERY = 10  # of each task, every 10th sample has no report: never mined
MINE_REJECT_SHARE = {"plan": 0.04, "refine": 0.04, "factuality_filter": 0.04}

# finding -> (present phrases, negated phrases). No finding name is a
# substring of another finding's phrases, so a narrative that leaves out a
# finding's sentences never contains that finding's name.
FINDINGS = {
    "cardiomegaly": (
        ["mild cardiomegaly", "moderate cardiomegaly", "an enlarged cardiac silhouette"],
        ["no cardiomegaly", "normal heart size"],
    ),
    "pleural effusion": (
        ["a small left pleural effusion", "a moderate right pleural effusion",
         "bilateral pleural effusions"],
        ["no pleural effusion", "no effusion"],
    ),
    "pneumothorax": (
        ["a small apical pneumothorax", "a right pneumothorax"],
        ["no pneumothorax"],
    ),
    "atelectasis": (
        ["bibasilar atelectasis", "mild left basilar atelectasis", "lung collapse"],
        ["no atelectasis"],
    ),
    "pneumonia": (
        ["right lower lobe pneumonia", "left upper lobe pneumonia"],
        ["no pneumonia"],
    ),
    "consolidation": (
        ["patchy consolidation", "dense retrocardiac consolidation"],
        ["no consolidation", "no airspace disease"],
    ),
    "pulmonary edema": (
        ["mild pulmonary edema", "interstitial pulmonary edema"],
        ["no pulmonary edema"],
    ),
    "nodule": (
        ["a 6 mm nodule in the left upper lobe", "a calcified nodule"],
        ["no suspicious nodule"],
    ),
}
DISEASES = tuple(FINDINGS)

# statements of normality that belong to no finding
NORMAL_STATEMENTS = (
    "The lungs are clear.",
    "Heart size is normal.",
    "The mediastinal contour is normal.",
    "No acute osseous abnormality.",
    "Lungs are within normal limits.",
)

# present findings that no generated report mentions
HALLUCINATIONS = (
    "a displaced rib fracture",
    "a left hilar mass",
    "subcutaneous emphysema",
    "free subdiaphragmatic air",
)

# a diagnosis no generated report or option names
ANOMALY_DECOY = "pulmonary fibrosis"

SCAFFOLDS = ("First, ", "Next, ", "Then, ", "Moreover, ", "Finally, ", "")
TEMPORAL_OPTIONS = ("improved", "worsened", "unchanged")
# multi-diagnosis answers come from a few pairs, so answer labels stay few
# and balancing has a bounded amount of work to do
MULTI_PAIRS = (
    ("atelectasis", "pneumonia"),
    ("cardiomegaly", "pleural effusion"),
    ("consolidation", "pulmonary edema"),
    ("nodule", "pneumothorax"),
)


def _capitalize(text: str) -> str:
    return text[0].upper() + text[1:]


def _present_sentence(rng: random.Random, phrase: str) -> str:
    form = rng.randrange(4)
    if form == 0:
        return f"There is {phrase}."
    bare = phrase.removeprefix("a ").removeprefix("an ")
    if form == 1:
        return f"{_capitalize(bare)}."
    if form == 2:
        return f"{_capitalize(bare)} is noted."
    return f"{_capitalize(bare)} is seen."


def _negated_sentence(rng: random.Random, name: str, phrase: str) -> str:
    form = rng.randrange(4)
    if form == 0:
        return f"{_capitalize(phrase)}."
    if form == 1:
        return f"{_capitalize(name)} is absent."
    if form == 2:
        return f"No evidence of {name}."
    return f"{_capitalize(name)} is not seen."


def _findings(
    rng: random.Random, i: int, n_present: int, n_absent: int
) -> tuple[list[str], list[str]]:
    """Present and absent finding names for sample `i`; multi-diagnosis
    samples (i % 5 == 2) lead with one of MULTI_PAIRS."""
    if i % 5 == 2:
        lead = list(rng.choice(MULTI_PAIRS))
        rest = rng.sample([d for d in DISEASES if d not in lead], n_present - 2 + n_absent)
        return lead + rest[: n_present - 2], rest[n_present - 2:]
    names = rng.sample(DISEASES, n_present + n_absent)
    return names[:n_present], names[n_present:]


def _report_sentences(
    rng: random.Random, present: list[str], absent: list[str], n_normal: int
) -> list[tuple[str, str]]:
    """(finding or "", sentence) pairs in report order."""
    out = [(f, _present_sentence(rng, rng.choice(FINDINGS[f][0]))) for f in present]
    out += [(f, _negated_sentence(rng, f, rng.choice(FINDINGS[f][1]))) for f in absent]
    out += [("", s) for s in rng.sample(NORMAL_STATEMENTS, n_normal)]
    rng.shuffle(out)
    return out


def _narrative(rng: random.Random, sentences: list[str], conclusion: str) -> str:
    """Scaffolded restatement of report sentences. Every scaffold is one the
    lexical extractor strips, so the observations equal the report's."""
    parts = [rng.choice(SCAFFOLDS) + s[0].lower() + s[1:] if s else s for s in sentences]
    parts = [_capitalize(p) for p in parts]
    return " ".join(parts + [conclusion])


def _close_ended(
    rng: random.Random, i: int, present: list[str], split: str, prefix: str
) -> VqaSample:
    """A close-ended or anomaly sample whose answer agrees with `present`."""
    sid = f"{prefix}{i:05d}"
    images = (f"img/{sid}.png",)
    kind = i % 5
    if kind == 0:
        if rng.random() < 0.5:
            target = rng.choice(present)
        else:
            target = rng.choice([d for d in DISEASES if d not in present])
        options = (Option("A", "yes"), Option("B", "no"))
        return VqaSample(
            id=sid, task=TaskType.BINARY_DIAGNOSIS, images=images,
            question=f"Does this chest X-ray show {target}?", options=options,
            answer="A" if target in present else "B", split=split, source="bench",
        )
    if kind == 1:
        others = rng.sample([d for d in DISEASES if d != present[0]], 2)
        texts = [present[0]] + others
        rng.shuffle(texts)
        options = tuple(Option("ABC"[k], t) for k, t in enumerate(texts))
        return VqaSample(
            id=sid, task=TaskType.SINGLE_DIAGNOSIS, images=images,
            question="What is the most likely diagnosis?", options=options,
            answer="ABC"[texts.index(present[0])], split=split, source="bench",
        )
    if kind == 2:
        both = " and ".join(present[:2])
        decoy = rng.choice([d for d in DISEASES if d not in present])
        options = (Option("A", both), Option("B", decoy), Option("C", "no disease"))
        return VqaSample(
            id=sid, task=TaskType.MULTI_DIAGNOSIS, images=images,
            question="Which findings are present?", options=options,
            answer="A", split=split, source="bench",
        )
    if kind == 3:
        return VqaSample(
            id=sid, task=TaskType.ANOMALY_DETECTION, images=images,
            question="Identify any abnormality on this chest X-ray.", options=(),
            answer=present[0], split=split, source="bench",
        )
    options = tuple(Option("ABC"[k], t) for k, t in enumerate(TEMPORAL_OPTIONS))
    return VqaSample(
        id=sid, task=TaskType.TEMPORAL_COMPARISON,
        images=(f"img/{sid}_prior.png", f"img/{sid}.png"),
        question=f"Compared with the prior study, how has the {present[0]} changed?",
        options=options, answer=rng.choice("ABC"), split=split, source="bench",
    )


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# train


def make_train_inputs(out_dir: Path, seed: int) -> dict:
    """The toy diagnosis corpus of the training criteria, seeded."""
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus = make_toy_corpus(seed=seed)
    save_corpus(corpus, out_dir / "corpus.jsonl")
    expected = {"samples": len(corpus), "seed": seed}
    _write_json(out_dir / "expected.json", expected)
    return expected


# ---------------------------------------------------------------------------
# score_eval


def _model_output(rng: random.Random, sample: VqaSample, report: list[str]) -> str:
    """A model output: think text mixing report findings, fresh phrasings,
    hallucinations and normal statements, then an answer that is right,
    wrong or malformed."""
    n = rng.randint(6, 12)
    pool = list(report)
    picked = rng.sample(pool, min(len(pool), max(1, n - 2)))
    while len(picked) < n:
        roll = rng.random()
        if roll < 0.4:
            picked.append(_present_sentence(rng, rng.choice(HALLUCINATIONS)))
        elif roll < 0.7:
            f = rng.choice(DISEASES)
            picked.append(_negated_sentence(rng, f, rng.choice(FINDINGS[f][1])))
        else:
            picked.append(rng.choice(NORMAL_STATEMENTS))
    if sample.options:
        label = sample.answer if rng.random() < 0.6 else rng.choice(sample.options).label
        if rng.random() < 0.2:
            label = f"{label}) {sample.options['ABC'.index(label)].text}"
    else:
        label = sample.answer if rng.random() < 0.6 else rng.choice(DISEASES)
    think = _narrative(rng, picked, f"The answer is {label}.")
    form = rng.random()
    if form < 0.85:
        return f"<think>{think}</think><answer>{label}</answer>"
    if form < 0.93:
        return f"<answer>{label}</answer>"
    return f"<think>{think}</think> The answer is {label}"


def make_score_inputs(
    out_dir: Path,
    seed: int,
    n_samples: int = SCORE_SAMPLES,
    unknown_share: float = SCORE_UNKNOWN_SHARE,
) -> dict:
    """A scorable corpus (every sample has a report and a reference
    reasoning of 6-12 findings) and 4 model outputs per sample on average,
    plus a fixed share of output lines whose ids the corpus lacks. The
    number of records per task, and so the bootstrap matrices of `eval`,
    is the same on every seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"score_eval/{seed}")
    samples, outputs = [], []
    for i in range(n_samples):
        present, absent = _findings(rng, i, rng.randint(2, 4), rng.randint(2, 4))
        report = _report_sentences(rng, present, absent, rng.randint(2, 3))
        sentences = [s for _, s in report]
        keep = rng.sample(sentences, max(6, len(sentences) - 2))
        keep.sort(key=sentences.index)
        base = _close_ended(rng, i, present, "test", "s")
        reasoning = _narrative(rng, keep, f"The answer is {base.answer_text()}.")
        sample = VqaSample(
            id=base.id, task=base.task, images=base.images, question=base.question,
            options=base.options, answer=base.answer, report=" ".join(sentences),
            reasoning=reasoning, source=base.source, split=base.split,
        )
        samples.append(sample)
        # 3-5 outputs, in a cycle that gives every task the same count on every seed
        for _ in range(OUTPUTS_PER_SAMPLE[i % len(OUTPUTS_PER_SAMPLE)]):
            outputs.append({"id": sample.id, "output": _model_output(rng, sample, sentences)})
    n_unknown = round(unknown_share * len(outputs))
    unknown_ids = [f"unknown{k:05d}" for k in range(n_unknown)]
    for uid in unknown_ids:
        outputs.insert(
            rng.randrange(len(outputs) + 1),
            {"id": uid, "output": "<think>No pneumothorax.</think><answer>A</answer>"},
        )
    save_corpus(Corpus(tuple(samples)), out_dir / "corpus.jsonl")
    with (out_dir / "outputs.jsonl").open("w", encoding="utf-8") as fh:
        for rec in outputs:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    expected = {
        "outputs": len(outputs),
        "scored": len(outputs) - n_unknown,
        "unknown_ids": unknown_ids,
        "seed": seed,
    }
    _write_json(out_dir / "expected.json", expected)
    return expected


# ---------------------------------------------------------------------------
# mine


def _designed(rng: random.Random, candidates: list[int], share: float, total: int) -> list[int]:
    return sorted(rng.sample(candidates, round(share * total)))


def make_mine_inputs(
    out_dir: Path,
    seed: int,
    n_samples: int = MINE_SAMPLES,
) -> dict:
    """A corpus with reports and a mock-backend fixture holding the response
    to every plan / evidence / refine request the miner will render.

    A designed share of the samples is rejected on content: an unparseable
    plan, a narrative that concludes another answer than the sample's, or a
    narrative with a hallucinated finding that the factuality filter drops.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"mine/{seed}")
    samples: list[VqaSample] = []
    reports: dict[str, list[tuple[str, str]]] = {}
    seen_reports: set[str] = set()
    for i in range(n_samples):
        present, absent = _findings(rng, i, rng.randint(2, 4), rng.randint(2, 4))
        base = _close_ended(rng, i, present, rng.choice(("train", "train", "test")), "m")
        if (i // 5) % MINE_ANSWER_ONLY_EVERY == MINE_ANSWER_ONLY_EVERY - 1:
            samples.append(base)
            continue
        # distinct reports keep every request, and so every cache key, distinct
        report = _report_sentences(rng, present, absent, rng.randint(1, 2))
        while " ".join(s for _, s in report) in seen_reports:
            report = _report_sentences(rng, present, absent, rng.randint(1, 2))
        seen_reports.add(" ".join(s for _, s in report))
        reports[base.id] = report
        samples.append(VqaSample(
            id=base.id, task=base.task, images=base.images, question=base.question,
            options=base.options, answer=base.answer,
            report=" ".join(s for _, s in report), source=base.source, split=base.split,
        ))

    mined = [k for k, s in enumerate(samples) if s.report]
    # a contradicting narrative needs an answer text that no other sentence
    # or option of the sample contains: a single finding name
    contradictable = [
        k for k in mined
        if samples[k].task in (TaskType.SINGLE_DIAGNOSIS, TaskType.ANOMALY_DETECTION)
    ]
    plan_bad = _designed(rng, mined, MINE_REJECT_SHARE["plan"], len(mined))
    refine_bad = _designed(
        rng, [k for k in contradictable if k not in plan_bad],
        MINE_REJECT_SHARE["refine"], len(mined),
    )
    taken = set(plan_bad) | set(refine_bad)
    fact_bad = _designed(
        rng, [k for k in mined if k not in taken],
        MINE_REJECT_SHARE["factuality_filter"], len(mined),
    )
    plan_bad, refine_bad, fact_bad = set(plan_bad), set(refine_bad), set(fact_bad)

    fixture = []

    def respond(request, response: str) -> None:
        fixture.append({
            "template_id": request.template_id,
            "template_version": request.template_version,
            "prompt": request.prompt,
            "response": response,
        })

    for k in mined:
        s = samples[k]
        options = " ".join(f"{o.label}) {o.text}" for o in s.options) or "(open-ended)"
        plan_req = render_template("plan", question=s.question, options=options, report=s.report)
        if k in plan_bad:
            respond(plan_req, "I am unable to outline diagnostic steps for this study.")
            continue
        report = reports[s.id]
        answer = s.answer_text()
        if k in refine_bad:
            # leave out every sentence naming the answer, conclude another option
            steps = [(f, sent) for f, sent in report if f != answer]
            wrong = [o.text for o in s.options if o.text != answer] or [ANOMALY_DECOY]
            conclusion = f"The answer is {rng.choice(wrong)}."
        else:
            steps = list(report)
            conclusion = f"The answer is {answer}."
        # two plan steps share the report's sentences, and one step finds
        # nothing in the report ("normal", an inferred step); few steps keep
        # the cache writes per sample few next to the extraction work
        half = (len(steps) + 1) // 2
        goals = ["Assess the first group of findings", "Assess the second group of findings",
                 "Assess the bones"]
        evidence = [" ".join(sent for _, sent in part).rstrip(".")
                    for part in (steps[:half], steps[half:])] + ["normal"]
        respond(plan_req, "\n".join(f"{n + 1}. {g}" for n, g in enumerate(goals)))
        for goal, ev in zip(goals, evidence):
            respond(render_template("evidence", goal=goal, report=s.report), ev)
        steps_text = "\n".join(
            f"{n + 1}. {g}: {ev}" for n, (g, ev) in enumerate(zip(goals, evidence))
        )
        narrative_sents = [sent for _, sent in steps]
        if k in fact_bad:
            narrative_sents.append(_present_sentence(rng, rng.choice(HALLUCINATIONS)))
        refine_req = render_template(
            "refine", question=s.question, answer=answer, steps=steps_text
        )
        respond(refine_req, _narrative(rng, narrative_sents, conclusion))

    save_corpus(Corpus(tuple(samples)), out_dir / "corpus.jsonl")
    with (out_dir / "fixture.jsonl").open("w", encoding="utf-8") as fh:
        for rec in fixture:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    # paths are relative to the input directory, where the CLI runs
    _write_json(out_dir / "config.json", {"mock_fixture": "fixture.jsonl", "cache_dir": "cache"})
    expected = {
        "samples": len(samples),
        "mined": len(mined),
        "rejections": {
            "plan": len(plan_bad),
            "refine": len(refine_bad),
            "factuality_filter": len(fact_bad),
        },
        "seed": seed,
    }
    _write_json(out_dir / "expected.json", expected)
    return expected


GENERATORS = {
    "train": make_train_inputs,
    "score_eval": make_score_inputs,
    "mine": make_mine_inputs,
}
