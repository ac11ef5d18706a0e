"""Logically inconsistent negatives via relation editing.

A donor sentence carrying some other relation between a pair of entities
is rewritten so that its entity pair becomes the target pair: the donor's
relation is transplanted onto the target entities, breaking the logical
consistency that the positive answer has with its context. Negatives keep
the same entity identities as the positive, so identity alone cannot
separate candidates.

Option-oriented: the rewritten donor replaces the answer. Context-oriented:
it replaces one context sentence, and the pair rewritten into it must lie
on the meta-path. Where donors come from, and in which order they are
tried, is one document's `DonorSource`. Sampling is driven entirely by the
per-instance generator, so outputs are reproducible byte-for-byte for a
fixed seed. Donors, the answer sentences a negative must not repeat and a
bundle's texts all come from a document's `corpus.SentenceTable`; a
negative (`SynthSentence`) keeps its donor's document and ordinal.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, groupby
from typing import Iterable, Iterator, Sequence

from .corpus import Document, SentenceTable
from .metapath import PositiveInstance
from .spans import AnnotatedSentence, MentionSpan, rewrite_mentions


@dataclass(frozen=True)
class SynthSentence(AnnotatedSentence):
    """A rewritten donor: differs from it only inside mention spans.

    `doc_id` and `sentence` are the donor's; `mentions` are the new text's.
    """

    replaced: tuple[tuple[str, str], ...]  # (donor entity -> target entity), 2 entries
    swap: bool

    def with_text(self, text: str, mentions: tuple[MentionSpan, ...]) -> SynthSentence:
        return SynthSentence(self.doc_id, self.sentence, text, mentions, self.replaced, self.swap)


@dataclass(frozen=True)
class ContextVariant:
    """A context set with exactly one sentence swapped for a synthetic one."""

    replaced_sentence: int
    replacement: SynthSentence


def build_donor_pool(
    docs: Sequence[Document], pool_size: int, rng: random.Random
) -> list[AnnotatedSentence]:
    """Cross-document donor pool: every document's donor sentences.

    When more are eligible than pool_size, a seeded sample of their indices
    in corpus order is taken (`draw_donors`); corpus order is preserved so
    pool content is independent of scheduling. Each document's donors are
    counted off a `SentenceTable` that is dropped at once, so no two tables
    are alive together; a document with a sampled donor gets a second
    table, and only its sampled sentences are annotated.
    """
    counts = [len(SentenceTable(doc).donors) for doc in docs]
    return [
        donor
        for d, picks in draw_donors(counts, pool_size, rng)
        for donor in picked_donors(docs[d], picks)
    ]


def draw_donors(
    counts: Sequence[int], pool_size: int, rng: random.Random
) -> Iterator[tuple[int, list[int]]]:
    """The donor pool's draw, given each document's donor count in corpus order.

    Yields (document position, positions of its picked donors in its
    `SentenceTable.donors`) for each document with a pick, in corpus order.
    """
    ends = list(accumulate(counts))  # one past each document's last index
    total = ends[-1] if ends else 0
    picked = sorted(rng.sample(range(total), pool_size)) if total > pool_size else range(total)
    for d, indices in groupby(picked, key=lambda i: bisect_right(ends, i)):
        first = ends[d] - counts[d]
        yield d, [i - first for i in indices]


def picked_donors(doc: Document, picks: Iterable[int]) -> list[AnnotatedSentence]:
    """The donors of `doc` at positions `picks` of its `SentenceTable.donors`, annotated."""
    table = SentenceTable(doc)
    donors = table.donors
    return [table[donors[i]] for i in picks]


def relation_replace(
    donor: AnnotatedSentence,
    donor_pair: tuple[str, str],
    target: tuple[tuple[str, str], tuple[str, str]],
) -> SynthSentence:
    """Rewrite the donor pair's mentions to the target pair's surfaces.

    `target` is ((entity id, surface), (entity id, surface)). Every mention
    of donor_pair[0] becomes the first target surface, every mention of
    donor_pair[1] the second; all other bytes are preserved and all spans
    are recomputed. Overlapping donor mentions raise OverlappingSpans.
    """
    e_a, e_b = donor_pair
    if e_a == e_b:
        raise ValueError("donor pair entities must differ")
    present = donor.entity_ids
    if e_a not in present or e_b not in present:
        raise ValueError(f"donor does not mention pair ({e_a!r}, {e_b!r})")
    (t_i, surf_i), (t_j, surf_j) = target
    mapping = {e_a: (t_i, surf_i), e_b: (t_j, surf_j)}
    text, mentions = rewrite_mentions(donor.text, list(donor.mentions), mapping)
    return SynthSentence(
        doc_id=donor.doc_id,
        sentence=donor.sentence,
        text=text,
        mentions=tuple(mentions),
        replaced=((e_a, t_i), (e_b, t_j)),
        swap={e_a, e_b} == {t_i, t_j},
    )


def _eligible_pairs(
    donor: AnnotatedSentence, target_pair: tuple[str, str], rng: random.Random
) -> list[tuple[str, str]]:
    """Ordered donor pairs usable without exchanging the targets, shuffled."""
    t_i, t_j = target_pair
    ids = sorted(donor.entity_ids)
    normal = [
        (a, b)
        for a in ids
        for b in ids
        if a != b and {a, b} != {t_i, t_j}
    ]
    rng.shuffle(normal)
    return normal


@dataclass(frozen=True)
class DonorSource:
    """Everything one document's negatives are drawn from, in the order tried.

    1. The host document's donor sentences, answers of the pair excluded.
    2. The cross-document `pool`, foreign documents only.
    3. The donors of 1 and 2 that mention both targets, with the two target
       mentions exchanged.

    `sentences` is the document's sentence table, shared by its donors,
    answers, spellings and bundles; built here if not given.
    """

    doc: Document
    pool: Sequence[AnnotatedSentence] = ()
    sentences: SentenceTable | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.sentences is None:
            object.__setattr__(self, "sentences", SentenceTable(self.doc))

    def candidates(
        self, target_pair: tuple[str, str], excluded: frozenset[int], rng: random.Random
    ) -> Iterator[tuple[AnnotatedSentence, tuple[str, str]]]:
        """Yield (donor, ordered pair) candidates: host, then pool, then swaps.

        A donor whose only contribution would be the target pair itself is a
        last resort: its exchanged pair is yielded only after every ordinary
        pair of every donor has been tried.
        """
        t_i, t_j = target_pair
        swaps: list[AnnotatedSentence] = []

        def tried(donors: Iterable[AnnotatedSentence]):
            for donor in donors:
                for pair in _eligible_pairs(donor, target_pair, rng):
                    yield donor, pair
                if {t_i, t_j} <= donor.entity_ids:
                    swaps.append(donor)

        host = [k for k in self.sentences.donors if k not in excluded]
        rng.shuffle(host)
        # A host donor is annotated when first tried: most instances take
        # their negatives from the first few.
        yield from tried(map(self.sentences.__getitem__, host))
        # Filtered only when the host document runs dry: most instances
        # never touch the pool, and filtering it per instance is not free.
        pool = [d for d in self.pool if d.doc_id != self.doc.id]
        rng.shuffle(pool)
        yield from tried(pool)
        for donor in swaps:
            yield donor, (t_j, t_i)  # exchange the target mentions


def _spellings(sentence: AnnotatedSentence) -> dict[str, str]:
    """Each entity mentioned in `sentence`, spelled as at its first mention there.

    A mention may spell its entity other than by its name (an alias); a
    negative must not differ from the text it imitates in that alone.
    """
    text = sentence.text
    spelled: dict[str, str] = {}
    for eid, start, end in sentence.mentions:
        spelled.setdefault(eid, text[start:end])
    return spelled


def _target_with_surfaces(surfaces: dict[str, str], pair: tuple[str, str]):
    a, b = pair
    return ((a, surfaces[a]), (b, surfaces[b]))


def make_negative_options(
    inst: PositiveInstance, source: DonorSource, k: int, rng: random.Random
) -> tuple[SynthSentence, ...]:
    """Up to k distinct synthetic answer options for the instance.

    Each candidate mentions both target entities, spelled as in the answer
    sentence. Candidates textually equal to any answer sentence of the
    pair, to the donor itself, or to a previously taken negative are
    rejected and the next one is tried.
    """
    doc = source.doc
    answers = source.sentences.shared(*inst.pair)
    forbidden = {doc.sentences[a] for a in answers}
    target = _target_with_surfaces(_spellings(source.sentences[inst.answer]), inst.pair)
    taken: list[SynthSentence] = []
    seen_texts: set[str] = set()
    if k > 0:
        for donor, pair in source.candidates(inst.pair, answers, rng):
            synth = relation_replace(donor, pair, target)
            if synth.text == donor.text or synth.text in forbidden or synth.text in seen_texts:
                continue
            taken.append(synth)
            seen_texts.add(synth.text)
            if len(taken) == k:
                break
    return tuple(taken)


def make_negative_contexts(
    inst: PositiveInstance, source: DonorSource, k: int, rng: random.Random
) -> tuple[ContextVariant, ...]:
    """Up to k context variants, each replacing one context sentence.

    The pair rewritten into the chosen sentence is drawn from the
    meta-path entities mentioned there, spelled as there; variants cycle
    over the context sentences so no single sentence absorbs every edit.
    """
    doc = source.doc
    answers = source.sentences.shared(*inst.pair)

    # Per context sentence: a lazily advanced stream of replacement tries.
    streams: list[tuple[int, Iterator[SynthSentence]]] = []
    order = list(inst.context)
    rng.shuffle(order)
    for s_i in order:
        spelled = _spellings(source.sentences[s_i])
        in_sentence = sorted(e for e in spelled if e in inst.path.entities)
        pairs = [(p, q) for p in in_sentence for q in in_sentence if p != q]
        rng.shuffle(pairs)
        if not pairs:
            continue

        def tries(s_i=s_i, pairs=pairs, spelled=spelled) -> Iterator[SynthSentence]:
            for p, q in pairs:
                target = _target_with_surfaces(spelled, (p, q))
                for donor, dpair in source.candidates((p, q), answers, rng):
                    yield relation_replace(donor, dpair, target)

        streams.append((s_i, tries()))

    taken: list[ContextVariant] = []
    seen: set[tuple[int, str]] = set()
    while len(taken) < k and streams:
        live: list[tuple[int, Iterator[SynthSentence]]] = []
        for s_i, stream in streams:
            original = doc.sentences[s_i]
            for synth in stream:
                key = (s_i, synth.text)
                if synth.text == original or key in seen:
                    continue
                seen.add(key)
                taken.append(ContextVariant(replaced_sentence=s_i, replacement=synth))
                live.append((s_i, stream))
                break
            # else: stream exhausted, dropped from the rotation
            if len(taken) == k:
                break
        streams = live
    return tuple(taken)
