"""Domain types, corpus schema, partitioning, and instruction rendering."""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence


class TaskType(str, Enum):
    BINARY_DIAGNOSIS = "binary_diagnosis"
    SINGLE_DIAGNOSIS = "single_diagnosis"
    MULTI_DIAGNOSIS = "multi_diagnosis"
    ANOMALY_DETECTION = "anomaly_detection"
    TEMPORAL_COMPARISON = "temporal_comparison"


CLOSE_ENDED_TASKS = frozenset(
    {
        TaskType.BINARY_DIAGNOSIS,
        TaskType.SINGLE_DIAGNOSIS,
        TaskType.MULTI_DIAGNOSIS,
        TaskType.TEMPORAL_COMPARISON,
    }
)


class PartitionTag(str, Enum):
    REASONING_AUGMENTED = "reasoning_augmented"
    ANSWER_ONLY = "answer_only"


class PromptMode(str, Enum):
    COT = "cot"
    DIRECT = "direct"


class CorpusError(ValueError):
    """Raised on malformed corpus records or invariant violations."""


class PartitionError(ValueError):
    """Raised when a sample fits neither partition (report xor reasoning)."""

    def __init__(self, ids: list[str]):
        self.ids = list(ids)
        super().__init__(
            "samples have a report without reasoning (or vice versa): "
            + ", ".join(self.ids)
        )


@dataclass(frozen=True)
class Option:
    label: str  # single token, e.g. "A"
    text: str


@dataclass(frozen=True)
class VqaSample:
    id: str
    task: TaskType
    images: tuple[str, ...]  # opaque references, never decoded
    question: str
    options: tuple[Option, ...]  # empty for anomaly_detection
    answer: str  # option label for close-ended tasks, free text otherwise
    report: str = ""
    reasoning: str = ""
    source: str = ""
    split: str = "train"

    def validate(self) -> None:
        if not self.id:
            raise CorpusError("sample id must be non-empty")
        if self.split not in ("train", "test"):
            raise CorpusError(f"sample {self.id}: split must be train|test")
        min_images = 2 if self.task is TaskType.TEMPORAL_COMPARISON else 1
        if len(self.images) < min_images:
            raise CorpusError(
                f"sample {self.id}: task {self.task.value} needs >= {min_images} images"
            )
        if self.task in CLOSE_ENDED_TASKS:
            if not self.options:
                raise CorpusError(
                    f"sample {self.id}: field 'options' must be non-empty for "
                    f"close-ended task {self.task.value}"
                )
            labels = [o.label for o in self.options]
            if len(set(labels)) != len(labels):
                raise CorpusError(f"sample {self.id}: duplicate option labels")
            if self.answer not in labels:
                raise CorpusError(
                    f"sample {self.id}: answer {self.answer!r} is not an option label"
                )
        else:
            if self.options:
                raise CorpusError(
                    f"sample {self.id}: anomaly_detection takes no options"
                )
            if not self.answer:
                raise CorpusError(f"sample {self.id}: free-text answer is empty")
        for name, text in (("report", self.report), ("reasoning", self.reasoning)):
            if text and not text.strip():  # "" is absent; a blank text has no observations
                raise CorpusError(f"sample {self.id}: field {name!r} is blank")
        if self.reasoning and not self.report:
            raise CorpusError(
                f"sample {self.id}: reasoning present without its report"
            )

    @property
    def partition(self) -> Optional[PartitionTag]:
        """Partition tag, or None for the undefined mixed case."""
        if self.report and self.reasoning:
            return PartitionTag.REASONING_AUGMENTED
        if not self.report and not self.reasoning:
            return PartitionTag.ANSWER_ONLY
        return None

    def answer_text(self) -> str:
        """Ground-truth answer as display text (option text for close-ended)."""
        for o in self.options:
            if o.label == self.answer:
                return o.text
        return self.answer


@dataclass(frozen=True)
class Corpus:
    samples: tuple[VqaSample, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for s in self.samples:
            if s.id in seen:
                raise CorpusError(f"duplicate sample id {s.id!r}")
            seen.add(s.id)
            s.validate()

    def __len__(self) -> int:
        return len(self.samples)


def sample_to_record(sample: VqaSample, **fields: str) -> dict:
    """A sample as a corpus record, built from its fields (no deep copy);
    `fields` override string fields, e.g. `reasoning`."""
    return {
        **vars(sample),
        "task": sample.task.value,
        "images": list(sample.images),
        "options": [{"label": o.label, "text": o.text} for o in sample.options],
        **fields,
    }


class Kind(Enum):
    """A field's kind in a field table: the noun its fault names and the JSON
    types it admits, tested exactly (JSON true is never an integer or a
    number). An optional kind admits null, and a missing field reads as null."""

    STRING = "a string", (str,)
    INTEGER = "an integer", (int,)
    NUMBER = "a finite number", (int, float)
    RATIO = "a number", (int, float)
    BOOLEAN = "a boolean", (bool,)
    LIST = "a list", (list,)
    OBJECT = "a JSON object", (dict,)
    OPTIONAL_STRING = "a string", (str, type(None))
    OPTIONAL_LIST = "a list", (list, type(None))

    def __init__(self, noun: str, types: tuple[type, ...]):
        self.noun, self.types = noun, types  # read faster than `.value`


# a UTF-16 surrogate: JSON's \ud800 escape parses to one, and no UTF-8 text holds it
_SURROGATE = re.compile("[\ud800-\udfff]")


def kind_fault(value, kind: Kind) -> Optional[str]:
    """How `value` fails to be of `kind`, e.g. "is not a string", or None. A
    string must hold no lone surrogate, a number must be finite and a ratio
    lie in [0, 1], all tested on the parsed value, so a huge integer, NaN or
    Infinity is refused before any `float()`."""
    if type(value) not in kind.types:
        return f"is not {kind.noun}"
    if type(value) is str:
        return None if value.isascii() or not _SURROGATE.search(value) else "holds a lone surrogate"
    if kind is Kind.RATIO and not 0 <= value <= 1:
        return "is outside [0, 1]"
    if kind is Kind.NUMBER and not -sys.float_info.max <= value <= sys.float_info.max:
        return f"is not {kind.noun}"
    return None


def record_fault(rec: dict, fields: Mapping[str, Kind]) -> Optional[str]:
    """The first fault of a record against a field table, or None: every
    missing field, all named, then the first field of the wrong kind."""
    missing = [f for f, kind in fields.items() if f not in rec and type(None) not in kind.types]
    if missing:
        return "missing field " + ", ".join(map(repr, missing))
    for f, kind in fields.items():
        if fault := kind_fault(rec.get(f), kind):
            return f"field {f!r} {fault}"
    return None


def items_fault(name: str, items: list, fields: Mapping[str, Kind]) -> Optional[str]:
    """The first fault of field `name`, a list of records of `fields`."""
    for item in items:
        if type(item) is not dict:
            return f"field {name!r} is not a list of {{{', '.join(fields)}}} objects"
        if fault := record_fault(item, fields):
            return fault
    return None


SAMPLE_FIELDS = {
    "id": Kind.STRING, "task": Kind.STRING, "images": Kind.LIST, "question": Kind.STRING,
    "answer": Kind.STRING, "options": Kind.OPTIONAL_LIST,
    **dict.fromkeys(("report", "reasoning", "source", "split"), Kind.OPTIONAL_STRING),
}
_OPTION_FIELDS = {"label": Kind.STRING, "text": Kind.STRING}


def sample_from_record(rec: dict) -> VqaSample:
    """Build and validate a sample from a record that has no `record_fault`
    against `SAMPLE_FIELDS`; an unknown task, an image reference that is not
    a string, a malformed option or an invalid sample raises CorpusError. A
    null optional field reads as absent."""
    try:
        task = TaskType(rec["task"])
    except ValueError:
        raise CorpusError(f"field 'task' unknown: {rec['task']!r}") from None
    if any(kind_fault(image, Kind.STRING) for image in rec["images"]):
        raise CorpusError("field 'images' is not a list of strings")
    options = rec.get("options") or []
    if fault := items_fault("options", options, _OPTION_FIELDS):
        raise CorpusError(fault)
    sample = VqaSample(
        id=rec["id"],
        task=task,
        images=tuple(rec["images"]),
        question=rec["question"],
        options=tuple(Option(label=o["label"], text=o["text"]) for o in options),
        answer=rec["answer"],
        report=rec.get("report") or "",
        reasoning=rec.get("reasoning") or "",
        source=rec.get("source") or "",
        split=rec.get("split") or "train",
    )
    sample.validate()
    return sample


def read_jsonl(
    path: str | Path, fields: Mapping[str, Kind]
) -> Iterator[tuple[int, Optional[dict], Optional[str]]]:
    """Stream a JSON Lines file as (line number, record, reason) per non-blank
    line. `reason` is None for an object with no `record_fault` against the
    field table `fields`, else it names the fault: invalid UTF-8, invalid or
    too deeply nested JSON, not a JSON object, or the record's fault.
    `record` is the parsed object whenever the line is one, so a caller can
    still name a record with a faulty field."""
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            # decoded line by line, so one bad byte costs only its own line
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as e:
                yield lineno, None, f"invalid UTF-8 at byte {e.start}: {e.reason}"
                continue
            if not line.strip():
                continue
            try:
                rec = json.loads(line.rstrip("\n"))
            except json.JSONDecodeError as e:
                yield lineno, None, f"invalid JSON at column {e.colno}: {e.msg}"
                continue
            except RecursionError:
                yield lineno, None, "invalid JSON: nested too deeply"
                continue
            if not isinstance(rec, dict):
                yield lineno, None, "not a JSON object"
                continue
            yield lineno, rec, record_fault(rec, fields)


def map_in_order(fn: Callable, items: Sequence, workers: int) -> Iterator:
    """Yield `fn` of each item, in item order. With `workers` > 1 the calls
    run on that many threads, which overlap only calls that wait, such as
    requests to a remote backend; the results are the same either way. The
    pool is imported here: `concurrent.futures` brings `logging` with it,
    which a one-worker run does not need."""
    if workers <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


# `json.dumps(obj, sort_keys=True, allow_nan=False)` without building an
# encoder per call: NaN and Infinity are not JSON, so they are refused
dumps_sorted = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """Write records as JSON Lines, one sorted-key object per line: the
    serialization of every JSON Lines file radreason writes. The lines go to
    a sibling temporary file that replaces `path` once every record is
    written, so a failure leaves `path` as it was; a NaN or Infinity raises
    ValueError naming the file."""
    tmp = Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            for rec in records:
                try:
                    fh.write(dumps_sorted(rec) + "\n")
                except ValueError as e:
                    raise ValueError(f"{path}: {e}") from None
        os.replace(tmp, path)
    except OSError as e:  # named as the file asked for, not the temporary one
        tmp.unlink(missing_ok=True)
        raise type(e)(e.errno, e.strerror, str(path)) from None
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj) -> None:
    """Write one JSON document with sorted keys, indent 2 and a final newline:
    the serialization of every JSON document radreason writes. A NaN or
    Infinity raises ValueError naming the file, which is not written."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_corpus(path: str | Path) -> Corpus:
    """Load a line-delimited corpus file, validating every record. A
    malformed record raises CorpusError located as `path:line: reason`."""
    samples: list[VqaSample] = []
    seen: set[str] = set()
    for lineno, rec, reason in read_jsonl(path, SAMPLE_FIELDS):
        try:
            if reason:
                raise CorpusError(reason)
            sample = sample_from_record(rec)
            if sample.id in seen:
                raise CorpusError(f"duplicate sample id {sample.id!r}")
        except CorpusError as e:
            raise CorpusError(f"{path}:{lineno}: {e}") from None
        seen.add(sample.id)
        samples.append(sample)
    return Corpus(samples=tuple(samples))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    write_jsonl(path, map(sample_to_record, corpus.samples))


def partition(corpus: Corpus) -> tuple[Corpus, Corpus]:
    """Split into (reasoning-augmented, answer-only) sub-corpora.

    Samples with a report but no reasoning (or vice versa) fit neither side
    and are rejected rather than coerced.
    """
    augmented: list[VqaSample] = []
    answer_only: list[VqaSample] = []
    bad: list[str] = []
    for s in corpus.samples:
        tag = s.partition
        if tag is PartitionTag.REASONING_AUGMENTED:
            augmented.append(s)
        elif tag is PartitionTag.ANSWER_ONLY:
            answer_only.append(s)
        else:
            bad.append(s.id)
    if bad:
        raise PartitionError(bad)
    return Corpus(tuple(augmented)), Corpus(tuple(answer_only))


IMAGE_TOKEN = "<image>"

_SYSTEM_LINE = "System: You are a helpful AI assistant."
_DIRECT_SUFFIX = " Please enclose the answer within <answer></answer>"
_COT_SUFFIX = (
    " Please think step by step, and enclose the answer within "
    "<answer></answer> and the reasoning processes within <think></think>."
)


def _options_text(sample: VqaSample) -> str:
    if not sample.options:
        return ""
    parts = " ".join(f"{o.label}) {o.text}" for o in sample.options)
    return f" Options: {parts}"


def render_instruction(sample: VqaSample, mode: PromptMode) -> str:
    """Render the two-line instruction prompt for a sample.

    One image placeholder per image reference precedes the question;
    deterministic for identical inputs.
    """
    placeholders = IMAGE_TOKEN * len(sample.images)
    suffix = _COT_SUFFIX if mode is PromptMode.COT else _DIRECT_SUFFIX
    user = f"User: {placeholders}{sample.question}{_options_text(sample)}{suffix}"
    return f"{_SYSTEM_LINE}\n{user}"


def label_by_answer(sample: VqaSample) -> str:
    """Default disease label for balancing: the answer's option text for
    close-ended tasks, the raw answer otherwise."""
    return sample.answer_text()

