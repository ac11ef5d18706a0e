"""Assembled per-instance unit flowing between pipeline stages.

A bundle holds one positive instance's texts together with its negatives
and, after augmentation, the applied replacement map. Every text carries
its mention spans so later stages can rewrite entities without re-parsing
the corpus. Bundles serialize to line-delimited JSON at stage boundaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import IO, Iterable, Iterator

from .corpus import Document
from .metapath import MetaPath, PathHop, PositiveInstance, hop_from_record, hop_to_record
from .negatives import ContextVariant, NegativeSet, SynthSentence
from .spans import MentionSpan


class BundleError(Exception):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class AnnotatedText:
    text: str
    mentions: tuple[MentionSpan, ...]


@dataclass(frozen=True)
class InstanceBundle:
    doc_id: str
    pair: tuple[str, str]
    path_entities: tuple[str, ...]
    hops: tuple[PathHop, ...]
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

    @property
    def option_shortfall(self) -> int:
        return self.requested_negatives - len(self.options)

    @property
    def context_shortfall(self) -> int:
        return self.requested_negatives - len(self.context_variants)

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
    options: NegativeSet,
    contexts: NegativeSet,
) -> InstanceBundle:
    if options.requested != contexts.requested:
        raise ValueError("option and context sets were built with different K")
    return InstanceBundle(
        doc_id=inst.doc_id,
        pair=inst.pair,
        path_entities=inst.path.entities,
        hops=inst.path.hops,
        context_sentences=inst.context,
        context=tuple(annotated_sentence(doc, k) for k in inst.context),
        answer_sentence=inst.answer,
        answer=annotated_sentence(doc, inst.answer),
        options=options.items,
        context_variants=contexts.items,
        requested_negatives=options.requested,
    )


def positive_instance(bundle: InstanceBundle) -> PositiveInstance:
    return PositiveInstance(
        doc_id=bundle.doc_id,
        pair=bundle.pair,
        path=MetaPath(entities=bundle.path_entities, hops=bundle.hops),
        context=bundle.context_sentences,
        answers=frozenset({bundle.answer_sentence}),
    )


def with_counterfactual(
    bundle: InstanceBundle,
    variant: int,
    replacements: tuple[tuple[str, str], ...],
    context: tuple[AnnotatedText, ...],
    answer: AnnotatedText,
    options: tuple[SynthSentence, ...],
    context_variants: tuple[ContextVariant, ...],
) -> InstanceBundle:
    return replace(
        bundle,
        counterfactual=True,
        variant=variant,
        replacements=replacements,
        context=context,
        answer=answer,
        options=options,
        context_variants=context_variants,
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
        "path": {
            "entities": list(b.path_entities),
            "hops": [hop_to_record(h) for h in b.hops],
        },
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


def _mentions_from(obj, line: int) -> tuple[MentionSpan, ...]:
    try:
        return tuple((str(e), int(s), int(t)) for e, s, t in obj)
    except (TypeError, ValueError) as exc:
        raise BundleError(line, f"bad mention list: {exc}") from exc


def _text_from(obj: dict, line: int) -> AnnotatedText:
    return AnnotatedText(text=obj["text"], mentions=_mentions_from(obj["mentions"], line))


def _synth_from(obj: dict, line: int) -> SynthSentence:
    return SynthSentence(
        text=obj["text"],
        donor_doc=obj["donor_doc"],
        donor_sentence=int(obj["donor_sentence"]),
        replaced=tuple((a, b) for a, b in obj["replaced"]),
        mentions=_mentions_from(obj["mentions"], line),
        swap=bool(obj["swap"]),
    )


def bundle_from_record(obj: dict, line: int = 0) -> InstanceBundle:
    try:
        pair = obj["pair"]
        return InstanceBundle(
            doc_id=obj["doc"],
            pair=(pair[0], pair[1]),
            path_entities=tuple(obj["path"]["entities"]),
            hops=tuple(hop_from_record(h) for h in obj["path"]["hops"]),
            context_sentences=tuple(int(k) for k in obj["context_sentences"]),
            context=tuple(_text_from(t, line) for t in obj["context"]),
            answer_sentence=int(obj["answer_sentence"]),
            answer=_text_from(obj["answer"], line),
            options=tuple(_synth_from(s, line) for s in obj["options"]),
            context_variants=tuple(
                ContextVariant(
                    replaced_sentence=int(v["replaced_sentence"]),
                    replacement=_synth_from(v, line),
                )
                for v in obj["context_variants"]
            ),
            requested_negatives=int(obj["requested_negatives"]),
            counterfactual=bool(obj["counterfactual"]),
            variant=int(obj["variant"]),
            replacements=tuple(sorted(obj["replacements"].items())),
        )
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise BundleError(line, f"malformed bundle record: {exc!r}") from exc


def write_bundles(bundles: Iterable[InstanceBundle], fp: IO[str]) -> int:
    n = 0
    for b in bundles:
        fp.write(json.dumps(bundle_to_record(b), ensure_ascii=False) + "\n")
        n += 1
    return n


def read_bundles(lines: Iterable[str]) -> Iterator[InstanceBundle]:
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BundleError(line_no, f"invalid JSON: {exc.msg}") from exc
        yield bundle_from_record(obj, line_no)
