"""Counterfactual augmentation: consistent alien-entity substitution.

A natural positive answer states a real-world fact, while synthetic
negatives usually do not, so factuality alone could identify the
positive. To remove that cue, meta-path entities are replaced by entities
taken from other documents, identically across the context, the answer,
and every negative that mentions them. The rewritten positive no longer
matches world knowledge; only the relational structure distinguishes it.

The two target entities are always replaced; other path entities join
independently with a configurable probability. The alien pool is the
corpus's own entities, each id once, and a replacement map is a plain
dict from original id to (alien id, alien surface). Context, answer and
negatives are all annotated sentences, so one rewrite serves them all.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterable, Iterator, Sequence

from .bundle import InstanceBundle
from .corpus import Document, Entity
from .metapath import PositiveInstance
from .negatives import ContextVariant
from .spans import rewritten


# An injective map from original path entities to (alien id, alien surface).
Replacements = dict[str, tuple[str, str]]


def build_entity_pool(docs: Sequence[Document]) -> list[Entity]:
    """Each entity id of the corpus once, in document order: the documents' own objects."""
    seen: dict[str, None] = {}
    return [entity for doc in docs for entity in first_seen(doc.entities, seen)]


def first_seen(entities: Iterable[Entity], seen: dict[str, None]) -> Iterator[Entity]:
    """Each of `entities` whose id is not in `seen`, which then gains it.

    Fed every entity in corpus order with one `seen`, it yields the alien
    pool: each id once, as its first entity. `seen` is a dict used as a
    set, as it is built while every document is held: at the 20,000 ids
    of a 2,000-document corpus its compact table takes 0.4 MB, a set's 2.0.
    """
    for entity in entities:
        if entity.id not in seen:
            seen[entity.id] = None
            yield entity


def select_replacements(
    inst: PositiveInstance | InstanceBundle,
    doc: Document,
    pool: Sequence[Entity],
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
    chosen: list[Entity] = []
    excluded = {e.id for e in doc.entities}  # the host's entities, then those taken
    attempts = 0
    limit = 30 * len(keys) + 20
    while len(chosen) < len(keys) and attempts < limit and pool:
        attempts += 1
        alien = pool[rng.randrange(len(pool))]
        if alien.id in excluded:
            continue
        excluded.add(alien.id)
        chosen.append(alien)
    if len(chosen) < len(keys):
        candidates = [a for a in pool if a.id not in excluded]
        short = len(keys) - len(chosen)
        if len(candidates) < short:
            raise ValueError(
                f"alien pool too small: need {len(keys)}, "
                f"have {len(chosen) + len(candidates)} usable entities"
            )
        chosen.extend(rng.sample(candidates, short))
    return {orig: (alien.id, alien.surface) for orig, alien in zip(keys, chosen)}


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
