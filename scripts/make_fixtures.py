"""Regenerate the bundled test fixtures.

Writes tests/data/fixture_corpus.jsonl (a small mixed-task corpus) and
tests/data/mining_fixture.jsonl (canned completion responses for the mock
backend, keyed by the exact requests the mining pipeline issues).

The canned narratives are crafted so that most chains are perfectly factual
against their report, one chain hallucinates a finding (factuality reject),
and one sample gets a plan response that lists no steps (plan-stage reject).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radreason.core import Corpus, Option, TaskType, VqaSample, save_corpus, write_jsonl
from radreason.llm import render_template
from radreason.mining import EvidenceStep, plan_request, refine_request

DATA_DIR = Path(__file__).resolve().parent.parent / "tests" / "data"


def fixture_samples() -> list[VqaSample]:
    yn = (Option("A", "yes"), Option("B", "no"))
    return [
        VqaSample(
            id="f001",
            task=TaskType.BINARY_DIAGNOSIS,
            images=("img/f001.png",),
            question="Is there a pleural effusion?",
            options=yn,
            answer="A",
            report="There is a small left pleural effusion. The heart size is normal.",
            source="fixture",
            split="train",
        ),
        VqaSample(
            id="f002",
            task=TaskType.BINARY_DIAGNOSIS,
            images=("img/f002.png",),
            question="Is there a pleural effusion?",
            options=yn,
            answer="B",
            report="No pleural effusion. Lungs are clear.",
            source="fixture",
            split="train",
        ),
        VqaSample(
            id="f003",
            task=TaskType.SINGLE_DIAGNOSIS,
            images=("img/f003.png",),
            question="What is the most likely diagnosis?",
            options=(
                Option("A", "atelectasis"),
                Option("B", "pneumonia"),
                Option("C", "normal study"),
            ),
            answer="A",
            report="Bibasilar atelectasis. No pneumothorax.",
            source="fixture",
            split="train",
        ),
        VqaSample(
            id="f004",
            task=TaskType.MULTI_DIAGNOSIS,
            images=("img/f004.png",),
            question="Which findings are present?",
            options=(
                Option("A", "atelectasis and pneumonia"),
                Option("B", "cardiomegaly"),
                Option("C", "no disease"),
            ),
            answer="A",
            report="Right lower lobe pneumonia. Mild atelectasis.",
            source="fixture",
            split="train",
        ),
        VqaSample(
            id="f005",
            task=TaskType.ANOMALY_DETECTION,
            images=("img/f005.png",),
            question="Identify any abnormality on this chest X-ray.",
            options=(),
            answer="cardiomegaly",
            report="Moderate cardiomegaly. No pleural effusion.",
            source="fixture",
            split="train",
        ),
        VqaSample(
            id="f006",
            task=TaskType.TEMPORAL_COMPARISON,
            images=("img/f006_prior.png", "img/f006_current.png"),
            question="Compared with the prior study, how has the effusion changed?",
            options=(
                Option("A", "improved"),
                Option("B", "worsened"),
                Option("C", "unchanged"),
            ),
            answer="B",
            report=(
                "Increasing right pleural effusion compared with prior. "
                "Stable cardiomegaly."
            ),
            source="fixture",
            split="train",
        ),
        # narrative for this one hallucinates a fracture: factuality reject
        VqaSample(
            id="f007",
            task=TaskType.BINARY_DIAGNOSIS,
            images=("img/f007.png",),
            question="Is the heart enlarged?",
            options=yn,
            answer="A",
            report="Mild cardiomegaly.",
            source="fixture",
            split="train",
        ),
        # its plan response lists no steps: plan-stage reject
        VqaSample(
            id="f008",
            task=TaskType.BINARY_DIAGNOSIS,
            images=("img/f008.png",),
            question="Are lung volumes low?",
            options=yn,
            answer="A",
            report="Low lung volumes.",
            source="fixture",
            split="train",
        ),
        VqaSample(
            id="f009",
            task=TaskType.BINARY_DIAGNOSIS,
            images=("img/f009.png",),
            question="Is there a pneumothorax?",
            options=yn,
            answer="A",
            source="fixture",
            split="train",
        ),
        VqaSample(
            id="f010",
            task=TaskType.SINGLE_DIAGNOSIS,
            images=("img/f010.png",),
            question="What is the most likely diagnosis?",
            options=(
                Option("A", "edema"),
                Option("B", "fracture"),
                Option("C", "normal study"),
            ),
            answer="B",
            source="fixture",
            split="test",
        ),
        VqaSample(
            id="f011",
            task=TaskType.ANOMALY_DETECTION,
            images=("img/f011.png",),
            question="Identify any abnormality on this chest X-ray.",
            options=(),
            answer="no acute findings",
            source="fixture",
            split="test",
        ),
        VqaSample(
            id="f012",
            task=TaskType.BINARY_DIAGNOSIS,
            images=("img/f012.png",),
            question="Is there consolidation?",
            options=yn,
            answer="B",
            source="fixture",
            split="train",
        ),
    ]


# per sample: plan goals, evidence text per goal, and the refined narrative
CANNED = {
    "f001": {
        "goals": ["Assess for pleural effusion", "Assess heart size"],
        "evidence": [
            "There is a small left pleural effusion",
            "The heart size is normal",
        ],
        "narrative": (
            "There is a small left pleural effusion. The heart size is normal. "
            "The answer is yes."
        ),
    },
    "f002": {
        "goals": ["Assess for pleural effusion", "Assess the lungs"],
        "evidence": ["No pleural effusion", "Lungs are clear"],
        "narrative": "No pleural effusion. Lungs are clear. The answer is no.",
    },
    "f003": {
        "goals": ["Assess for atelectasis", "Assess for pneumothorax"],
        "evidence": ["Bibasilar atelectasis", "No pneumothorax"],
        "narrative": (
            "Bibasilar atelectasis. No pneumothorax. The answer is atelectasis."
        ),
    },
    "f004": {
        "goals": ["Assess for pneumonia", "Assess for atelectasis"],
        "evidence": ["Right lower lobe pneumonia", "Mild atelectasis"],
        "narrative": (
            "Right lower lobe pneumonia. Mild atelectasis. "
            "The answer is atelectasis and pneumonia."
        ),
    },
    "f005": {
        "goals": ["Assess heart size", "Assess for pleural effusion"],
        "evidence": ["Moderate cardiomegaly", "No pleural effusion"],
        "narrative": (
            "Moderate cardiomegaly. No pleural effusion. The answer is cardiomegaly."
        ),
    },
    "f006": {
        "goals": ["Compare effusion with prior", "Assess heart size"],
        "evidence": [
            "Increasing right pleural effusion compared with prior",
            "Stable cardiomegaly",
        ],
        "narrative": (
            "Increasing right pleural effusion compared with prior. "
            "Stable cardiomegaly. The answer is worsened."
        ),
    },
    "f007": {
        "goals": ["Assess heart size", "Assess the ribs"],
        "evidence": ["Mild cardiomegaly", "no disease"],
        "narrative": (
            "Mild cardiomegaly. There is an acute rib fracture. The answer is yes."
        ),
    },
}

# plan responses that list no steps, so mining rejects the sample at "plan"
UNPARSEABLE_PLANS = {
    "f008": "I am unable to outline diagnostic steps for this study.",
}


def build_fixture_records(samples: list[VqaSample]) -> list[dict]:
    records = []

    def add(request, response: str) -> None:
        records.append(
            {
                "template_id": request.template_id,
                "template_version": request.template_version,
                "prompt": request.prompt,
                "response": response,
            }
        )

    by_id = {s.id: s for s in samples}
    for sid, canned in sorted(CANNED.items()):
        sample = by_id[sid]
        plan_text = "\n".join(
            f"{i + 1}. {goal}" for i, goal in enumerate(canned["goals"])
        )
        add(plan_request(sample), plan_text)
        for goal, evidence in zip(canned["goals"], canned["evidence"]):
            add(
                render_template("evidence", goal=goal, report=sample.report),
                evidence,
            )
        # the refine request reads only each step's goal, order and evidence
        steps = [
            EvidenceStep(goal=goal, order=i, evidence=evidence, inferred=False)
            for i, (goal, evidence) in enumerate(zip(canned["goals"], canned["evidence"]))
        ]
        add(refine_request(sample, steps), canned["narrative"])
    for sid, response in sorted(UNPARSEABLE_PLANS.items()):
        add(plan_request(by_id[sid]), response)
    return records


def main() -> None:
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    samples = fixture_samples()
    save_corpus(Corpus(tuple(samples)), DATA_DIR / "fixture_corpus.jsonl")
    write_jsonl(DATA_DIR / "mining_fixture.jsonl", build_fixture_records(samples))
    print(f"wrote fixtures to {DATA_DIR}")


if __name__ == "__main__":
    main()
