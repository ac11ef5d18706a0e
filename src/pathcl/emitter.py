"""Final contrastive instances: assembly, serialization, statistics.

An option-oriented instance queries with the joined context and ranks the
true answer against synthetic options; a context-oriented instance
queries with the answer and ranks the true context against corrupted
ones. Both orientations go through one code path: a query, the gold text,
K negative texts and their donor tags. The gold text is inserted at an
index drawn from a generator seeded per instance and orientation, so
position carries no signal. Output is line-delimited JSON:

    {"orientation": "option"|"context", "query": str, "candidates": [str],
     "gold": int, "meta": {"doc": str, "pair": [str, str], "path": [str],
     "counterfactual": bool, "replacements": {str: str}, "strategy": str,
     "context_texts": [str]}}

meta.context_texts preserves the context's sentence boundaries, which the
joined query/candidate strings erase. A query holds at least one
whitespace-separated token: the trainer's masked-token objective masks it.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

from .bundle import InstanceBundle
from .jsonl import RecordError, read_records, record_line, require, require_list, require_map
from .negatives import ContextVariant, SynthSentence
from .seeding import derive_rng

JOIN = " "


@dataclass(frozen=True, slots=True)
class InstanceMeta:
    doc: str
    pair: tuple[str, str]
    path: tuple[str, ...]
    counterfactual: bool
    replacements: tuple[tuple[str, str], ...]
    strategy: str
    context_texts: tuple[str, ...]


@dataclass(frozen=True, slots=True)
class ContrastiveInstance:
    orientation: str  # "option" | "context"
    query: str
    candidates: tuple[str, ...]
    gold: int
    meta: InstanceMeta

    def __post_init__(self):
        if self.orientation not in ("option", "context"):
            raise ValueError(f"unknown orientation {self.orientation!r}")
        if not 0 <= self.gold < len(self.candidates):
            raise ValueError(f"gold index {self.gold} outside {len(self.candidates)} candidates")


def _donor_tag(s: SynthSentence) -> str:
    tag = f"{s.doc_id}:{s.sentence}"
    if s.swap:
        tag += "+swap"
    return tag


def bundle_to_instances(bundle: InstanceBundle, root_seed: int) -> list[ContrastiveInstance]:
    """Both orientations for one bundle, skipping under-filled ones.

    Only orientations with the full complement of negatives are emitted,
    keeping candidate counts uniform at K+1 across the dataset.
    """
    context_texts = tuple(t.text for t in bundle.context)
    context_joined = JOIN.join(context_texts)
    k = bundle.requested_negatives
    variants = bundle.context_variants
    orientations = (
        (
            "option",
            context_joined,
            bundle.answer.text,
            [s.text for s in bundle.options],
            [_donor_tag(s) for s in bundle.options],
        ),
        (
            "context",
            bundle.answer.text,
            context_joined,
            [_variant_text(bundle, v) for v in variants],
            [f"{_donor_tag(v.replacement)}>{v.replaced_sentence}" for v in variants],
        ),
    )
    out: list[ContrastiveInstance] = []
    for orientation, query, gold_text, negatives, tags in orientations:
        if k == 0 or len(negatives) != k:
            continue
        gold = derive_rng(root_seed, "gold", *bundle.key(), orientation).randrange(k + 1)
        out.append(
            ContrastiveInstance(
                orientation=orientation,
                query=query,
                candidates=(*negatives[:gold], gold_text, *negatives[gold:]),
                gold=gold,
                meta=InstanceMeta(
                    doc=bundle.doc_id,
                    pair=bundle.pair,
                    path=bundle.path.entities,
                    counterfactual=bundle.counterfactual,
                    replacements=bundle.replacements,
                    strategy="donors=" + ",".join(tags),
                    context_texts=context_texts,
                ),
            )
        )
    return out


def _variant_text(bundle: InstanceBundle, variant: ContextVariant) -> str:
    swapped = variant.replaced_sentence
    return JOIN.join(
        [variant.replacement.text if at.sentence == swapped else at.text for at in bundle.context]
    )


def instance_to_record(inst: ContrastiveInstance) -> dict:
    return {
        "orientation": inst.orientation,
        "query": inst.query,
        "candidates": list(inst.candidates),
        "gold": inst.gold,
        "meta": {
            "doc": inst.meta.doc,
            "pair": list(inst.meta.pair),
            "path": list(inst.meta.path),
            "counterfactual": inst.meta.counterfactual,
            "replacements": {a: b for a, b in inst.meta.replacements},
            "strategy": inst.meta.strategy,
            "context_texts": list(inst.meta.context_texts),
        },
    }


TaggedLine = tuple[str, bool, str]  # (orientation, counterfactual, JSON line)


def tagged_line(inst: ContrastiveInstance) -> TaggedLine:
    """One instance's JSON line with the two tags `emit_instances` needs."""
    return inst.orientation, inst.meta.counterfactual, record_line(instance_to_record(inst))


def emit_instances(
    lines: Iterable[TaggedLine],
    copies: int,
    fp: IO[str],
    tally: dict,
) -> int:
    """Write instance lines interleaved one original to `copies` counterfactual ones.

    The pattern repeats one original then `copies` counterfactual
    instances until both queues drain, so a streaming reader sees a
    stationary mixture. With `copies` 0 the counterfactual lines are
    dropped. Lines are consumed lazily: a full round is written as soon as
    both queues hold it, and what is left at the end drains round by
    round, so the bytes do not depend on how far one queue runs ahead of
    the other. Each written line adds one to its orientation's entry of
    `tally` and, if counterfactual, to its "counterfactual" entry.
    """
    if copies < 0:
        raise ValueError(f"copies must be >= 0, got {copies}")
    originals: deque[TaggedLine] = deque()
    counterfactuals: deque[TaggedLine] = deque()

    def one_round() -> Iterator[str]:
        for queue, n in ((originals, 1), (counterfactuals, copies)):
            for _ in range(min(n, len(queue))):
                orientation, counterfactual, line = queue.popleft()
                tally[orientation] += 1
                tally["counterfactual"] += counterfactual
                yield line

    def interleaved() -> Iterator[str]:
        for tagged in lines:
            if not tagged[1]:
                originals.append(tagged)
            elif copies:
                counterfactuals.append(tagged)
            while originals and len(counterfactuals) >= copies:
                yield from one_round()
        while originals or counterfactuals:
            yield from one_round()

    written = 0
    for line in interleaved():
        fp.write(line)
        written += 1
    return written


def _interned(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(map(sys.intern, names))


def instance_from_record(obj, line: int = 0) -> ContrastiveInstance:
    """Decode one instance line.

    `train` holds every instance it reads, so the short names that records
    repeat (the orientation, the document id, and the pair, path and
    replacement ids) are interned: one string per distinct name.
    """
    orientation = sys.intern(require(obj, "orientation", str, line))
    query = require(obj, "query", str, line)
    if not query.split():
        raise RecordError(line, f"query: expected at least one token, got {query!r}", "query")
    candidates = require_list(obj, "candidates", str, line)
    if len(candidates) < 2:
        message = f"candidates: expected at least 2 entries, got {len(candidates)}"
        raise RecordError(line, message, "candidates")
    gold = require(obj, "gold", int, line)
    meta = require(obj, "meta", dict, line)
    info = InstanceMeta(
        doc=sys.intern(require(meta, "doc", str, line, "meta")),
        pair=_interned(require_list(meta, "pair", str, line, "meta", length=2)),
        path=_interned(require_list(meta, "path", str, line, "meta")),
        counterfactual=require(meta, "counterfactual", bool, line, "meta"),
        replacements=tuple(
            _interned(item) for item in require_map(meta, "replacements", str, line, "meta")
        ),
        strategy=require(meta, "strategy", str, line, "meta"),
        context_texts=require_list(meta, "context_texts", str, line, "meta"),
    )
    try:
        return ContrastiveInstance(
            orientation=orientation,
            query=query,
            candidates=candidates,
            gold=gold,
            meta=info,
        )
    except ValueError as exc:
        raise RecordError(line, str(exc)) from exc


def read_instances(lines: Iterable[str]) -> Iterator[ContrastiveInstance]:
    yield from read_records(lines, instance_from_record)


def stats(lines: Iterable[str]) -> dict:
    """Counts and means of an instance file, as `pathcl stats` prints them."""
    total = counterfactual = path_total = context_total = candidate_total = 0
    by_orientation: dict[str, int] = {}
    gold_histogram: dict[int, int] = {}
    for inst in read_instances(lines):
        total += 1
        by_orientation[inst.orientation] = by_orientation.get(inst.orientation, 0) + 1
        counterfactual += inst.meta.counterfactual
        gold_histogram[inst.gold] = gold_histogram.get(inst.gold, 0) + 1
        path_total += len(inst.meta.path)
        context_total += len(inst.meta.context_texts)
        candidate_total += len(inst.candidates)
    n = total or 1  # every mean of an empty file is 0.0
    return {
        "total": total,
        "by_orientation": dict(sorted(by_orientation.items())),
        "counterfactual": counterfactual,
        "counterfactual_share": counterfactual / n,
        "mean_path_length": path_total / n,
        "mean_context_size": context_total / n,
        "mean_candidates": candidate_total / n,
        "gold_histogram": {str(k): v for k, v in sorted(gold_histogram.items())},
    }
