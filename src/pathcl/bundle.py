"""Assembled per-instance unit flowing between pipeline stages.

A bundle holds one positive instance's texts together with its negatives
and, after augmentation, the applied replacement map. Every text is a
`spans.AnnotatedSentence`, carrying its mention spans so later stages can
rewrite entities without re-parsing the corpus. Bundles serialize to
line-delimited JSON at stage boundaries, the texts' ordinals as
`context_sentences` and `answer_sentence`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .corpus import SentenceTable
from .jsonl import RecordError, read_records, require, require_list, require_map, write_records
from .metapath import MetaPath, PositiveInstance, path_from_record, path_to_record
from .negatives import ContextVariant, SynthSentence
from .spans import AnnotatedSentence, MentionSpan, OverlappingSpans, check_disjoint


@dataclass(frozen=True)
class InstanceBundle:
    doc_id: str
    pair: tuple[str, str]
    path: MetaPath
    context: tuple[AnnotatedSentence, ...]
    answer: AnnotatedSentence
    options: tuple[SynthSentence, ...]
    context_variants: tuple[ContextVariant, ...]
    requested_negatives: int
    counterfactual: bool = False
    variant: int = 0  # 0 = original, >=1 = augmented copy ordinal
    replacements: tuple[tuple[str, str], ...] = ()  # original id -> replacement id

    def key(self) -> tuple:
        """Stable identity used to derive per-instance seeds."""
        return (self.doc_id, self.pair[0], self.pair[1], self.answer.sentence, self.variant)


def assemble_bundle(
    inst: PositiveInstance,
    sentences: SentenceTable,
    options: tuple[SynthSentence, ...],
    contexts: tuple[ContextVariant, ...],
    k: int,
) -> InstanceBundle:
    """The bundle of one positive whose negatives were requested K = `k` at a time.

    `sentences` is the table of the positive's document, the one its
    negatives were drawn with.
    """
    return InstanceBundle(
        doc_id=inst.doc_id,
        pair=inst.pair,
        path=inst.path,
        context=tuple(sentences[s] for s in inst.context),
        answer=sentences[inst.answer],
        options=options,
        context_variants=contexts,
        requested_negatives=k,
    )


# -- serialization --


def _mentions_json(mentions: Iterable[MentionSpan]) -> list[list]:
    return [[eid, start, end] for eid, start, end in mentions]


def _text_json(at: AnnotatedSentence) -> dict:
    return {"text": at.text, "mentions": _mentions_json(at.mentions)}


def _synth_json(s: SynthSentence) -> dict:
    return {
        "text": s.text,
        "mentions": _mentions_json(s.mentions),
        "donor_doc": s.doc_id,
        "donor_sentence": s.sentence,
        "replaced": [[a, b] for a, b in s.replaced],
        "swap": s.swap,
    }


def bundle_to_record(b: InstanceBundle) -> dict:
    return {
        "doc": b.doc_id,
        "pair": list(b.pair),
        "path": path_to_record(b.path),
        "context_sentences": [t.sentence for t in b.context],
        "context": [_text_json(t) for t in b.context],
        "answer_sentence": b.answer.sentence,
        "answer": _text_json(b.answer),
        "options": [_synth_json(s) for s in b.options],
        "context_variants": [
            {"replaced_sentence": v.replaced_sentence, **_synth_json(v.replacement)}
            for v in b.context_variants
        ],
        "requested_negatives": b.requested_negatives,
        "counterfactual": b.counterfactual,
        "variant": b.variant,
        "replacements": {a: b_ for a, b_ in b.replacements},
    }


def _text_from(doc_id: str, sentence: int, obj, line: int, at: str) -> AnnotatedSentence:
    text = require(obj, "text", str, line, at)
    return AnnotatedSentence(doc_id, sentence, text, _mentions_from(text, obj, line, at))


def _mentions_from(text: str, obj, line: int, at: str) -> tuple[MentionSpan, ...]:
    mentions = require_list(obj, "mentions", (str, int, int), line, at)
    try:
        check_disjoint(text, list(mentions))
    except OverlappingSpans as exc:
        raise RecordError(line, f"{at}: {exc}", f"{at}.mentions") from exc
    return mentions


def _synth_from(obj, line: int, at: str) -> SynthSentence:
    text = require(obj, "text", str, line, at)
    return SynthSentence(
        text=text,
        doc_id=require(obj, "donor_doc", str, line, at),
        sentence=require(obj, "donor_sentence", int, line, at),
        replaced=require_list(obj, "replaced", (str, str), line, at),
        mentions=_mentions_from(text, obj, line, at),
        swap=require(obj, "swap", bool, line, at),
    )


def _variant_from(obj, line: int, at: str) -> ContextVariant:
    return ContextVariant(
        replaced_sentence=require(obj, "replaced_sentence", int, line, at),
        replacement=_synth_from(obj, line, at),
    )


def bundle_from_record(obj, line: int = 0) -> InstanceBundle:
    """Decode one bundle line.

    Every text's mention spans must be disjoint and inside it, `context`
    must hold one text per entry of `context_sentences`, and every context
    variant must replace one of `context_sentences`.
    """
    context_sentences = require_list(obj, "context_sentences", int, line)
    context = require_list(obj, "context", dict, line, length=len(context_sentences))
    options = require_list(obj, "options", dict, line)
    variants = tuple(
        _variant_from(v, line, f"context_variants[{i}]")
        for i, v in enumerate(require_list(obj, "context_variants", dict, line))
    )
    for i, v in enumerate(variants):
        if v.replaced_sentence not in context_sentences:
            # Such a variant would leave the gold context unchanged.
            path = f"context_variants[{i}].replaced_sentence"
            raise RecordError(
                line,
                f"{path}: expected one of context_sentences {list(context_sentences)}, "
                f"got {v.replaced_sentence}",
                path,
            )
    doc_id = require(obj, "doc", str, line)
    return InstanceBundle(
        doc_id=doc_id,
        pair=require_list(obj, "pair", str, line, length=2),
        path=path_from_record(require(obj, "path", dict, line), line),
        context=tuple(
            _text_from(doc_id, k, t, line, f"context[{i}]")
            for i, (k, t) in enumerate(zip(context_sentences, context))
        ),
        answer=_text_from(
            doc_id, require(obj, "answer_sentence", int, line),
            require(obj, "answer", dict, line), line, "answer",
        ),
        options=tuple(_synth_from(s, line, f"options[{i}]") for i, s in enumerate(options)),
        context_variants=variants,
        requested_negatives=require(obj, "requested_negatives", int, line),
        counterfactual=require(obj, "counterfactual", bool, line),
        variant=require(obj, "variant", int, line),
        replacements=require_map(obj, "replacements", str, line),
    )


def write_bundles(bundles: Iterable[InstanceBundle], fp: IO[str]) -> int:
    return write_records(bundles, bundle_to_record, fp)


def read_bundles(lines: Iterable[str]) -> Iterator[InstanceBundle]:
    yield from read_records(lines, bundle_from_record)
