"""Annotated sentences and span-preserving mention rewriting.

Every strategy works on a sentence with its entity mentions
(`AnnotatedSentence`): a context, an answer, a donor or a negative. A
rewrite edits it only inside mention spans, keeping every other byte
intact, and recomputes the spans for later rewrites of the same text.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TypeVar

MentionSpan = tuple[str, int, int]  # (entity id, start, end), half-open


@dataclass(frozen=True)
class AnnotatedSentence:
    """Sentence `sentence` of document `doc_id`, or a rewrite of it, with its mention spans."""

    doc_id: str
    sentence: int
    text: str
    mentions: tuple[MentionSpan, ...]

    @cached_property
    def entity_ids(self) -> frozenset[str]:
        return frozenset(m[0] for m in self.mentions)

    def with_text(self, text: str, mentions: tuple[MentionSpan, ...]) -> AnnotatedSentence:
        """This sentence with `text` and `mentions` in place of its own, every other field kept.

        Built by the constructor, so nothing cached on this one (`entity_ids`)
        carries over; a subclass with more fields overrides it.
        """
        return AnnotatedSentence(self.doc_id, self.sentence, text, mentions)


Annotated = TypeVar("Annotated", bound=AnnotatedSentence)


class OverlappingSpans(ValueError):
    """Mention spans overlap; span-based rewriting would be ambiguous."""


def check_disjoint(text: str, mentions: list[MentionSpan]) -> list[MentionSpan]:
    """Return mentions sorted by start, raising if any pair overlaps."""
    ordered = sorted(mentions, key=lambda m: (m[1], m[2]))
    prev_end = 0
    for eid, start, end in ordered:
        if not 0 <= start < end <= len(text):
            raise OverlappingSpans(f"mention of {eid!r} span [{start}, {end}) outside text")
        if start < prev_end:
            raise OverlappingSpans(f"mention of {eid!r} at [{start}, {end}) overlaps previous span")
        prev_end = end
    return ordered


def rewrite_mentions(
    text: str,
    mentions: list[MentionSpan],
    mapping: dict[str, tuple[str, str]],
) -> tuple[str, list[MentionSpan]]:
    """Rewrite every mention of a mapped entity to its replacement surface.

    `mapping` sends an entity id to (new entity id, new surface). Unmapped
    mentions are kept verbatim; all spans are recomputed for the new text.
    Returns (new text, new mention list sorted by start).
    """
    ordered = check_disjoint(text, mentions)
    pieces: list[str] = []
    new_mentions: list[MentionSpan] = []
    cursor = 0
    offset = 0
    for eid, start, end in ordered:
        pieces.append(text[cursor:start])
        if eid in mapping:
            new_id, surface = mapping[eid]
        else:
            new_id, surface = eid, text[start:end]
        new_start = start + offset
        pieces.append(surface)
        new_mentions.append((new_id, new_start, new_start + len(surface)))
        offset += len(surface) - (end - start)
        cursor = end
    pieces.append(text[cursor:])
    return "".join(pieces), new_mentions


def rewritten(x: Annotated, mapping: dict[str, tuple[str, str]]) -> Annotated:
    """`x` with `rewrite_mentions` applied to its text and spans; every other field kept."""
    text, mentions = rewrite_mentions(x.text, list(x.mentions), mapping)
    return x.with_text(text, tuple(mentions))
