"""Counterfactual augmentation: consistent alien-entity substitution.

A natural positive answer states a real-world fact, while synthetic
negatives usually do not, so factuality alone could identify the
positive. To remove that cue, meta-path entities are replaced by entities
taken from other documents, identically across the context, the answer,
and every negative that mentions them. The rewritten positive no longer
matches world knowledge; only the relational structure distinguishes it.

The two target entities are always replaced; other path entities join
independently with a configurable probability. The alien pool is each
entity id of the corpus once and its surface, as two lists, and a
replacement map is a plain dict from original id to (alien id, alien
surface). Context, answer and negatives are all annotated sentences, so
one rewrite serves them all.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import replace
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .bundle import InstanceBundle
from .corpus import Document
from .metapath import PositiveInstance
from .negatives import ContextVariant
from .spans import rewritten


# An injective map from original path entities to (alien id, alien surface).
Replacements = dict[str, tuple[str, str]]


class AlienPool(NamedTuple):
    """Each entity id of a corpus once, with the surface of its first entity, in line order."""

    ids: list[str]
    surfaces: list[str]


# Part of a corpus's alien pool: the line, id and surface of each entity
# of its documents whose id none before it has, in line order.
AlienShare = tuple[list[int], list[str], list[str]]


def alien_share(pairs: Iterable[tuple[int, Document]]) -> AlienShare:
    """The share of the (line, document) `pairs`, given in line order.

    Its ids and surfaces are the documents' own strings. `first` maps each
    id to its first surface in order: at 20,000 ids its compact table takes
    0.4 MB, where a set of the ids alone would take 2.0.
    """
    lines: list[int] = []
    first: dict[str, str] = {}
    for line, doc in pairs:
        for entity in doc.entities:
            if entity.id not in first:
                first[entity.id] = entity.surface
                lines.append(line)
    return lines, list(first), list(first.values())


def merged_aliens(shares: Sequence[AlienShare]) -> AlienPool:
    """The alien pool of the shares of disjoint sets of lines, merged in line order.

    An id that several shares hold keeps the surface of its earliest line.
    One share already holds each id once and is taken as it is: building
    the pool again would lift the peak RSS of a one-process run on the
    2,000-document bench corpus by about 0.5 MB.
    """
    if len(shares) == 1:
        return AlienPool(*shares[0][1:])
    first: dict[str, str] = {}
    for _, eid, surface in heapq.merge(*(zip(*share) for share in shares), key=itemgetter(0)):
        first.setdefault(eid, surface)
    return AlienPool(list(first), list(first.values()))


def build_entity_pool(docs: Sequence[Document]) -> AlienPool:
    """The alien pool of `docs`, in document order."""
    return merged_aliens([alien_share(enumerate(docs))])


def select_replacements(
    inst: PositiveInstance | InstanceBundle,
    doc: Document,
    pool: AlienPool,
    rng: random.Random,
    *,
    include_prob: float = 0.5,
) -> Replacements:
    """Choose which path entities of `inst` to replace and what replaces each.

    Only `inst.pair` and `inst.path.entities` are read, so a positive and
    its bundle select alike. The target pair is always keyed; every other
    path entity is keyed with probability include_prob. Replacement
    entities are sampled without replacement from pool entries absent from
    the host document. Raises ValueError when the filtered pool cannot
    cover the keyed entities.
    """
    keys = list(inst.pair)
    for eid in inst.path.entities:
        if eid in inst.pair:
            continue
        if rng.random() < include_prob:
            keys.append(eid)

    # Rejection sampling first: uniform without replacement and O(keys) for
    # large pools. Exhaustive filtering only to prove a pool truly too small.
    ids = pool.ids
    chosen: list[int] = []  # positions in the pool
    excluded = {e.id for e in doc.entities}  # the host's entities, then those taken
    attempts = 0
    limit = 30 * len(keys) + 20
    while len(chosen) < len(keys) and attempts < limit and ids:
        attempts += 1
        i = rng.randrange(len(ids))
        if ids[i] in excluded:
            continue
        excluded.add(ids[i])
        chosen.append(i)
    if len(chosen) < len(keys):
        candidates = [i for i, eid in enumerate(ids) if eid not in excluded]
        short = len(keys) - len(chosen)
        if len(candidates) < short:
            raise ValueError(
                f"alien pool too small: need {len(keys)}, "
                f"have {len(chosen) + len(candidates)} usable entities"
            )
        chosen.extend(rng.sample(candidates, short))
    return {orig: (ids[i], pool.surfaces[i]) for orig, i in zip(keys, chosen)}


def apply_counterfactual(
    bundle: InstanceBundle, mapping: Replacements, variant: int = 1
) -> InstanceBundle:
    """Rewrite every keyed entity's mentions in every text of the bundle.

    Every text, negatives included, goes through the one `spans.rewritten`:
    it changes only inside mention spans, its spans are recomputed, and its
    document, sentence ordinal and donor fields are kept. With an empty map
    the bundle is returned unchanged and stays unflagged.
    """
    if not mapping:
        return bundle
    return replace(
        bundle,
        counterfactual=True,
        variant=variant,
        replacements=tuple(sorted((orig, alien) for orig, (alien, _) in mapping.items())),
        context=tuple(rewritten(t, mapping) for t in bundle.context),
        answer=rewritten(bundle.answer, mapping),
        options=tuple(rewritten(s, mapping) for s in bundle.options),
        context_variants=tuple(
            ContextVariant(v.replaced_sentence, rewritten(v.replacement, mapping))
            for v in bundle.context_variants
        ),
    )
