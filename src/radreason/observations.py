"""Clinical observation extraction and semantic matching.

The lexical backend is fully deterministic: rule-based clause splitting,
negation folding, and a versioned synonym table. The llm backend delegates
extraction and match judgments to the completion client (cacheable).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Optional


class Polarity(str, Enum):
    PRESENT = "present"
    ABSENT_OR_NORMAL = "absent_or_normal"


class Role(str, Enum):
    MODEL = "model"
    GROUND_TRUTH = "ground_truth"
    REPORT = "report"


class ExtractionError(RuntimeError):
    """llm extraction response could not be parsed."""

    def __init__(self, message: str, raw_response: str = ""):
        super().__init__(message)
        self.raw_response = raw_response


class MatchError(RuntimeError):
    """llm match judgment could not be parsed (never silently false)."""

    def __init__(self, message: str, raw_response: str = ""):
        super().__init__(message)
        self.raw_response = raw_response


_ARTICLES = ("a ", "an ", "the ")
_NON_ALNUM_RE = re.compile(r"[^a-z0-9\s]")
_SPACES_RE = re.compile(r"\s+")

# markers that flag an observation as asserting normality / absence
_NORMALISH_RE = re.compile(
    r"(?:^no\s)|(?:\bwithout\b)|(?:\babsent\b)|(?:\bnormal\b)|(?:\bclear\b)"
    r"|(?:\bunremarkable\b)|(?:\bwithin normal limits\b)|(?:\bno disease\b)"
)


def normalize_phrase(text: str) -> str:
    """Lowercase, strip punctuation, drop leading articles, collapse spaces."""
    t = text.lower().replace("_", " ")
    t = _NON_ALNUM_RE.sub(" ", t)
    t = _SPACES_RE.sub(" ", t).strip()
    changed = True
    while changed:
        changed = False
        for art in _ARTICLES:
            if t.startswith(art):
                t = t[len(art):]
                changed = True
    return t


def detect_polarity(normalized: str) -> Polarity:
    if _NORMALISH_RE.search(normalized):
        return Polarity.ABSENT_OR_NORMAL
    return Polarity.PRESENT


@dataclass(frozen=True)
class Observation:
    surface: str
    normalized: str
    polarity: Polarity

    def __post_init__(self) -> None:
        if not self.normalized:
            raise ValueError("observation normalized form must be non-empty")

    @classmethod
    def from_text(cls, text: str) -> "Observation":
        """Build a single observation from a finding phrase, folding
        clause-level negation (e.g. 'pneumothorax is absent' -> 'no pneumothorax')."""
        folded = _fold_negation(normalize_phrase(text))
        if len(folded) != 1:
            # multi-finding phrase: keep it verbatim as one observation
            folded = [normalize_phrase(text)]
        norm = folded[0]
        return cls(surface=text, normalized=norm, polarity=detect_polarity(norm))


@dataclass(frozen=True)
class ObservationSet:
    items: tuple[Observation, ...]
    role: Role

    def __post_init__(self) -> None:
        seen: set[str] = set()
        deduped = []
        for obs in self.items:
            if obs.normalized not in seen:
                seen.add(obs.normalized)
                deduped.append(obs)
        object.__setattr__(self, "items", tuple(deduped))

    def __len__(self) -> int:
        return len(self.items)

    def normalized_forms(self) -> tuple[str, ...]:
        return tuple(o.normalized for o in self.items)

    @classmethod
    def from_phrases(cls, phrases: Iterable[str], role: Role) -> "ObservationSet":
        return cls(tuple(Observation.from_text(p) for p in phrases), role)


def is_normalish(obs: Observation) -> bool:
    """True iff the observation asserts normality or absence of disease."""
    return obs.polarity is Polarity.ABSENT_OR_NORMAL


# ---------------------------------------------------------------------------
# synonym table


class SynonymTable:
    """Versioned canonicalization table.

    File format: one canonical form per line followed by tab-separated
    synonyms; '#'-prefixed header lines carry metadata (version=N).
    """

    def __init__(self, mapping: dict[str, str], version: str = "0"):
        self._map = dict(mapping)
        self.version = version

    @classmethod
    def empty(cls) -> "SynonymTable":
        return cls({}, version="disabled")

    @classmethod
    def from_file(cls, path: str | Path) -> "SynonymTable":
        mapping: dict[str, str] = {}
        version = "0"
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = re.search(r"version\s*=\s*(\S+)", line)
                if m:
                    version = m.group(1)
                continue
            parts = [normalize_phrase(p) for p in line.split("\t") if p.strip()]
            if not parts:
                continue
            canonical = parts[0]
            for form in parts:
                mapping[form] = canonical
        return cls(mapping, version=version)

    @classmethod
    def bundled(cls) -> "SynonymTable":
        ref = resources.files("radreason").joinpath("data/synonyms.tsv")
        with resources.as_file(ref) as path:
            return cls.from_file(path)

    def fold(self, normalized: str) -> str:
        return self._map.get(normalized, normalized)


# ---------------------------------------------------------------------------
# lexical extraction rules

_SENTENCE_SPLIT = re.compile(r"[.!?;\n]+")
_CLAUSE_SPLIT = re.compile(r",")

# leading scaffolding stripped repeatedly from each clause
_SCAFFOLD_PREFIXES = [
    r"(?:first|firstly|next|then|finally|lastly|second|secondly|third|also"
    r"|besides|additionally|moreover|furthermore|overall|however|in conclusion"
    r"|in summary|notably)\b",
    r"based on (?:the )?(?:given |provided )?images?\b",
    r"upon (?:reviewing|examining|inspection of)\b[^,]*",
    r"(?:moving|turning) to\b[^,]*",
    r"regarding\b[^,]*",
    r"(?:the )?(?:images?|films?|radiographs?) (?:reveal|show|demonstrate)s?\b",
    r"we (?:can )?(?:observe|note|see)(?: that)?\b",
    r"observations? revealed\b",
    r"there (?:is|are)\b",
    r"(?:examining|assessing|checking)(?: for)?\b",
    r"given these (?:observations|findings)\b",
    r"(?:the )?findings (?:indicate|suggest|confirm)\b",
    r"confirming(?: the diagnosis of)?\b",
    r"consistent with\b",
]
_SCAFFOLD_RES = [re.compile(rf"^\s*{p}\s*", re.IGNORECASE) for p in _SCAFFOLD_PREFIXES]
# matches exactly when at least one pattern of _SCAFFOLD_RES matches
_SCAFFOLD_ANY_RE = re.compile(
    r"^\s*(?:" + "|".join(_SCAFFOLD_PREFIXES) + ")", re.IGNORECASE
)

# negation patterns over a normalized clause; group 1 is the scope
_NEGATION_RES = [
    re.compile(r"^no (?:visible )?(?:signs? of |evidence of |indications? of )?(.+)$"),
    re.compile(r"^(?:without|denies) (.+)$"),
    re.compile(r"^(?:absence of|free of) (.+)$"),
    re.compile(r"^(.+?) (?:is|are) absent$"),
    re.compile(r"^(.+?) (?:is|are) not (?:seen|present|observed|identified)$"),
]

_SCOPE_SPLIT = re.compile(r"\s+(?:or|and|nor)\s+")

# trailing verb phrases that carry no finding content
_TRAILING_RE = re.compile(
    r"\s+(?:is|are)\s+(?:noted|observed|seen|present|evident|identified)$"
)

_EMPTY_CLAUSES = frozenset({"", "i", "we", "it", "this", "that"})

# clauses that restate the chosen option rather than a clinical observation
_DROP_RES = [re.compile(r"^(?:the )?(?:correct |final )?answer is\b")]


def _strip_scaffolding(clause: str) -> str:
    # a pass over _SCAFFOLD_RES changes the clause iff one of them matches at
    # the start of the pass, so the pre-check ends the loop where the last,
    # unchanging pass would have
    while _SCAFFOLD_ANY_RE.match(clause):
        for rx in _SCAFFOLD_RES:
            new = rx.sub("", clause, count=1)
            if new != clause:
                clause = new.lstrip(" ,")
    return clause


def _fold_negation(normalized: str) -> list[str]:
    """Fold a normalized clause into one or more 'no <finding>' forms, or
    return the clause unchanged (single-element list) if not negated."""
    for rx in _NEGATION_RES:
        m = rx.match(normalized)
        if m:
            scope = m.group(1)
            items = [normalize_phrase(s) for s in _SCOPE_SPLIT.split(scope)]
            return [f"no {it}" for it in items if it]
    return [normalized]


# Templated clinical text repeats its clauses ("no pneumothorax") across
# texts and roles, and a clause's observations depend on its string alone.
# At about 0.5 KB an entry, a full memo holds about 2 MB.
_CLAUSE_MEMO_SIZE = 4096


@lru_cache(maxsize=_CLAUSE_MEMO_SIZE)
def _clause_observations(clause: str) -> tuple[Observation, ...]:
    """Observations of one raw clause, memoised: a repeat returns the
    tuple built the first time (observations are frozen, so it is safe to
    share)."""
    clause = _strip_scaffolding(clause)
    norm = normalize_phrase(_TRAILING_RE.sub("", clause.strip()))
    if norm in _EMPTY_CLAUSES or any(rx.match(norm) for rx in _DROP_RES):
        return ()
    forms = _fold_negation(norm)
    if forms == [norm]:
        # non-negated clause: conjunction lists name separate findings
        forms = [normalize_phrase(f) for f in _SCOPE_SPLIT.split(norm)]
    out = []
    for folded in forms:
        if folded in _EMPTY_CLAUSES:
            continue
        out.append(
            Observation(
                surface=clause.strip(),
                normalized=folded,
                polarity=detect_polarity(folded),
            )
        )
    return tuple(out)


def lexical_extract(text: str, role: Role) -> ObservationSet:
    if not text.strip():
        raise ValueError("cannot extract observations from empty text")
    items: list[Observation] = []
    for sentence in _SENTENCE_SPLIT.split(text):
        if not sentence.strip():
            continue
        for clause in _CLAUSE_SPLIT.split(sentence):
            if clause.strip():
                items.extend(_clause_observations(clause))
    return ObservationSet(tuple(items), role=role)


# ---------------------------------------------------------------------------
# matcher backends


class LexicalMatcher:
    """Deterministic matcher: normalization + synonym folding + polarity."""

    name = "lexical"

    def __init__(self, synonyms: Optional[SynonymTable] = None):
        self.synonyms = synonyms if synonyms is not None else SynonymTable.bundled()
        # reference sets by (text, role): reports and mined reasoning come
        # from the corpus the process holds, so the memo is bounded by it
        self._references: dict[tuple[str, Role], ObservationSet] = {}

    def extract(self, text: str, role: Role) -> ObservationSet:
        """Observation set of `text`. A report or ground-truth text is
        extracted once per matcher and its frozen set shared; a model text,
        unbounded and mostly distinct, is extracted on every call (its
        clauses are memoised, see `_clause_observations`).

        Threads may share the matcher: two that miss the same key at once
        both extract it, and `setdefault` keeps one of the equal sets."""
        if role is Role.MODEL:
            return lexical_extract(text, role)
        key = (text, role)
        found = self._references.get(key)
        if found is None:
            found = self._references.setdefault(key, lexical_extract(text, role))
        return found

    def _key(self, obs: Observation) -> tuple[Polarity, str]:
        return obs.polarity, self.synonyms.fold(obs.normalized)

    def matches(self, a: Observation, b: Observation) -> bool:
        return self._key(a) == self._key(b)

    def partition(
        self, a: ObservationSet, b: ObservationSet
    ) -> tuple[tuple[Observation, ...], tuple[Observation, ...]]:
        """Split `a` into the observations that match some observation of
        `b` and those that match none, each in the order of `a`.

        Two observations match iff their (polarity, folded form) keys are
        equal, so each side is folded once and the split is a set lookup:
        O(len(a) + len(b)).
        """
        keys = {self._key(y) for y in b.items}
        matched: list[Observation] = []
        unmatched: list[Observation] = []
        for x in a.items:
            (matched if self._key(x) in keys else unmatched).append(x)
        return tuple(matched), tuple(unmatched)


class LlmMatcher:
    """Matcher that delegates to the completion backend (verdicts cacheable
    through the client's cache). Verdicts may be asymmetric."""

    name = "llm"

    def __init__(self, client):
        # client: radreason.llm.CompletionClient
        self.client = client

    def extract(self, text: str, role: Role) -> ObservationSet:
        from .llm import render_template

        if not text.strip():
            raise ValueError("cannot extract observations from empty text")
        request = render_template("extract", text=text)
        raw = self.client.complete(request)
        phrases = [
            ln.lstrip("-* ").strip()
            for ln in raw.splitlines()
            if ln.lstrip("-* ").strip()
        ]
        if not raw.strip():
            return ObservationSet((), role=role)
        if phrases:
            return ObservationSet.from_phrases(phrases, role=role)
        raise ExtractionError("unparseable extraction response", raw)

    def matches(self, a: Observation, b: Observation) -> bool:
        from .llm import render_template

        request = render_template("match", left=a.surface, right=b.surface)
        raw = self.client.complete(request)
        verdict = raw.strip().lower()
        if verdict.startswith("yes"):
            return True
        if verdict.startswith("no"):
            return False
        raise MatchError(f"unparseable match verdict: {raw!r}", raw)

    def partition(
        self, a: ObservationSet, b: ObservationSet
    ) -> tuple[tuple[Observation, ...], tuple[Observation, ...]]:
        """Split `a` into the observations that match some observation of
        `b` and those that match none, each in the order of `a`.

        Verdicts may be asymmetric, so each x of `a` is asked against `b` in
        order until one verdict is yes: every (x, y) pair is asked at most
        once, and each x lands on exactly one side.
        """
        matched: list[Observation] = []
        unmatched: list[Observation] = []
        for x in a.items:
            hit = any(self.matches(x, y) for y in b.items)
            (matched if hit else unmatched).append(x)
        return tuple(matched), tuple(unmatched)

