"""Assembled per-instance unit flowing between pipeline stages.

A bundle holds one positive instance's texts together with its negatives
and, after augmentation, the applied replacement map. Every text carries
its mention spans so later stages can rewrite entities without re-parsing
the corpus. Bundles serialize to line-delimited JSON at stage boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .corpus import Document
from .jsonl import RecordError, read_records, require, require_list, write_records
from .metapath import MetaPath, PositiveInstance, path_from_record, path_to_record
from .negatives import ContextVariant, SynthSentence
from .spans import MentionSpan, OverlappingSpans, check_disjoint


@dataclass(frozen=True)
class AnnotatedText:
    text: str
    mentions: tuple[MentionSpan, ...]


@dataclass(frozen=True)
class InstanceBundle:
    doc_id: str
    pair: tuple[str, str]
    path: MetaPath
    context_sentences: tuple[int, ...]
    context: tuple[AnnotatedText, ...]  # aligned with context_sentences
    answer_sentence: int
    answer: AnnotatedText
    options: tuple[SynthSentence, ...]
    context_variants: tuple[ContextVariant, ...]
    requested_negatives: int
    counterfactual: bool = False
    variant: int = 0  # 0 = original, >=1 = augmented copy ordinal
    replacements: tuple[tuple[str, str], ...] = ()  # original id -> replacement id

    def key(self) -> tuple:
        """Stable identity used to derive per-instance seeds."""
        return (self.doc_id, self.pair[0], self.pair[1], self.answer_sentence, self.variant)


def annotated_sentence(doc: Document, k: int) -> AnnotatedText:
    return AnnotatedText(
        text=doc.sentences[k].text, mentions=tuple(doc.mentions_in_sentence(k))
    )


def assemble_bundle(
    inst: PositiveInstance,
    doc: Document,
    options: tuple[SynthSentence, ...],
    contexts: tuple[ContextVariant, ...],
    k: int,
) -> InstanceBundle:
    """The bundle of one positive whose negatives were requested K = `k` at a time."""
    return InstanceBundle(
        doc_id=inst.doc_id,
        pair=inst.pair,
        path=inst.path,
        context_sentences=inst.context,
        context=tuple(annotated_sentence(doc, s) for s in inst.context),
        answer_sentence=inst.answer,
        answer=annotated_sentence(doc, inst.answer),
        options=options,
        context_variants=contexts,
        requested_negatives=k,
    )


# -- serialization --


def _mentions_json(mentions: Iterable[MentionSpan]) -> list[list]:
    return [[eid, start, end] for eid, start, end in mentions]


def _text_json(at: AnnotatedText) -> dict:
    return {"text": at.text, "mentions": _mentions_json(at.mentions)}


def _synth_json(s: SynthSentence) -> dict:
    return {
        "text": s.text,
        "mentions": _mentions_json(s.mentions),
        "donor_doc": s.donor_doc,
        "donor_sentence": s.donor_sentence,
        "replaced": [[a, b] for a, b in s.replaced],
        "swap": s.swap,
    }


def bundle_to_record(b: InstanceBundle) -> dict:
    return {
        "doc": b.doc_id,
        "pair": list(b.pair),
        "path": path_to_record(b.path),
        "context_sentences": list(b.context_sentences),
        "context": [_text_json(t) for t in b.context],
        "answer_sentence": b.answer_sentence,
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


def _is_mention(m) -> bool:
    return isinstance(m, list) and len(m) == 3 and [type(v) for v in m] == [str, int, int]


def _mentions_from(text: str, obj, line: int, where: str) -> tuple[MentionSpan, ...]:
    if not isinstance(obj, list) or not all(_is_mention(m) for m in obj):
        raise RecordError(line, f"{where}: mentions must be [entity, start, end] lists")
    mentions = tuple(tuple(m) for m in obj)
    try:
        check_disjoint(text, list(mentions))
    except OverlappingSpans as exc:
        raise RecordError(line, f"{where}: {exc}") from exc
    return mentions


def _text_from(obj: dict, line: int, where: str) -> AnnotatedText:
    text = obj["text"]
    return AnnotatedText(text=text, mentions=_mentions_from(text, obj["mentions"], line, where))


def _synth_from(obj: dict, line: int, where: str) -> SynthSentence:
    text = obj["text"]
    return SynthSentence(
        text=text,
        donor_doc=obj["donor_doc"],
        donor_sentence=require(obj, "donor_sentence", int, line),
        replaced=tuple((a, b) for a, b in obj["replaced"]),
        mentions=_mentions_from(text, obj["mentions"], line, where),
        swap=require(obj, "swap", bool, line),
    )


def bundle_from_record(obj: dict, line: int = 0) -> InstanceBundle:
    """Decode one bundle line; every text's mention spans must be disjoint and inside it."""
    doc_id = require(obj, "doc", str, line)
    pair = require_list(obj, "pair", str, line, length=2)
    context_sentences = require_list(obj, "context_sentences", int, line)
    answer_sentence = require(obj, "answer_sentence", int, line)
    try:
        return InstanceBundle(
            doc_id=doc_id,
            pair=pair,
            path=path_from_record(obj["path"]),
            context_sentences=context_sentences,
            context=tuple(
                _text_from(t, line, f"context[{i}]") for i, t in enumerate(obj["context"])
            ),
            answer_sentence=answer_sentence,
            answer=_text_from(obj["answer"], line, "answer"),
            options=tuple(
                _synth_from(s, line, f"options[{i}]") for i, s in enumerate(obj["options"])
            ),
            context_variants=tuple(
                ContextVariant(
                    replaced_sentence=require(v, "replaced_sentence", int, line),
                    replacement=_synth_from(v, line, f"context_variants[{i}]"),
                )
                for i, v in enumerate(obj["context_variants"])
            ),
            requested_negatives=require(obj, "requested_negatives", int, line),
            counterfactual=require(obj, "counterfactual", bool, line),
            variant=require(obj, "variant", int, line),
            replacements=tuple(sorted(obj["replacements"].items())),
        )
    except RecordError:
        raise
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise RecordError(line, f"malformed bundle record: {exc!r}") from exc


def write_bundles(bundles: Iterable[InstanceBundle], fp: IO[str]) -> int:
    return write_records(bundles, bundle_to_record, fp)


def read_bundles(lines: Iterable[str]) -> Iterator[InstanceBundle]:
    yield from read_records(lines, bundle_from_record)
