"""Parsing of <think>/<answer> tagged model output."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional

_THINK_RE = re.compile(r"<think>(.*?)</think>", re.DOTALL)
_ANSWER_RE = re.compile(r"<answer>(.*?)</answer>", re.DOTALL)


@dataclass(frozen=True)
class TaggedOutput:
    """First well-nested think/answer spans found in a model output."""

    text: str  # the output parsed
    think: Optional[str]
    answer: Optional[str]
    well_formed: bool  # answer tag closed; think (if present) closed and before answer


def parse_tags(output: str) -> TaggedOutput:
    """Extract think/answer contents, tolerant of surrounding prose.

    Malformed input never raises; it just yields ``well_formed=False``.
    """
    think_m = _THINK_RE.search(output)
    answer_m = _ANSWER_RE.search(output)
    think = think_m.group(1) if think_m else None
    answer = answer_m.group(1) if answer_m else None

    well_formed = answer_m is not None
    if well_formed and "<think>" in output:
        # an opened think tag must be closed and precede the answer span
        if think_m is None or think_m.end() > answer_m.start():
            well_formed = False
    return TaggedOutput(output, think, answer, well_formed)
