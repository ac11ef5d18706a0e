"""Counterfactual augmentation: consistent alien-entity substitution.

A natural positive answer states a real-world fact, while synthetic
negatives usually do not, so factuality alone could identify the
positive. To remove that cue, meta-path entities are replaced by entities
taken from other documents, identically across the context, the answer,
and every negative that mentions them. The rewritten positive no longer
matches world knowledge; only the relational structure distinguishes it.

The two target entities are always replaced; other path entities join
independently with a configurable probability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

from .bundle import AnnotatedText, InstanceBundle
from .corpus import Document
from .metapath import PositiveInstance
from .negatives import ContextVariant, SynthSentence
from .spans import rewrite_mentions


@dataclass(frozen=True, slots=True)
class AlienEntity:
    id: str
    surface: str
    source_doc: str


@dataclass(frozen=True)
class ReplacementMap:
    """Injective map from original path entities to alien replacements."""

    entries: tuple[tuple[str, tuple[str, str]], ...]  # orig -> (alien id, surface)

    def mapping(self) -> dict[str, tuple[str, str]]:
        return dict(self.entries)

    def id_map(self) -> tuple[tuple[str, str], ...]:
        return tuple(sorted((orig, alien) for orig, (alien, _) in self.entries))


def build_entity_pool(docs: Sequence[Document]) -> list[AlienEntity]:
    """Every entity in the corpus, in document order, first surface wins."""
    seen: set[str] = set()
    pool: list[AlienEntity] = []
    for doc in docs:
        for entity in doc.entities:
            if entity.id in seen:
                continue
            seen.add(entity.id)
            pool.append(AlienEntity(id=entity.id, surface=entity.surface, source_doc=doc.id))
    return pool


def select_replacements(
    inst: PositiveInstance | InstanceBundle,
    doc: Document,
    pool: Sequence[AlienEntity],
    rng: random.Random,
    *,
    include_prob: float = 0.5,
) -> ReplacementMap:
    """Choose which path entities of `inst` to replace and what replaces each.

    Only `inst.pair` and `inst.path.entities` are read, so a positive and
    its bundle select alike. The target pair is always keyed; every other
    path entity is keyed with probability include_prob. Replacement
    entities are sampled without replacement from pool entries absent from
    the host document. Raises ValueError when the filtered pool cannot
    cover the keyed entities.
    """
    host_ids = {e.id for e in doc.entities}
    keys = list(inst.pair)
    for eid in inst.path.entities:
        if eid in inst.pair:
            continue
        if rng.random() < include_prob:
            keys.append(eid)

    def usable(alien: AlienEntity) -> bool:
        return alien.id not in host_ids and alien.source_doc != doc.id

    # Rejection sampling first: uniform without replacement and O(keys) for
    # large pools. Exhaustive filtering only to prove a pool truly too small.
    chosen: list[AlienEntity] = []
    taken_ids: set[str] = set()
    attempts = 0
    limit = 30 * len(keys) + 20
    while len(chosen) < len(keys) and attempts < limit and pool:
        attempts += 1
        alien = pool[rng.randrange(len(pool))]
        if alien.id in taken_ids or not usable(alien):
            continue
        taken_ids.add(alien.id)
        chosen.append(alien)
    if len(chosen) < len(keys):
        candidates = [a for a in pool if usable(a) and a.id not in taken_ids]
        short = len(keys) - len(chosen)
        if len(candidates) < short:
            raise ValueError(
                f"alien pool too small: need {len(keys)}, "
                f"have {len(chosen) + len(candidates)} usable entities"
            )
        chosen.extend(rng.sample(candidates, short))
    return ReplacementMap(
        entries=tuple((orig, (alien.id, alien.surface)) for orig, alien in zip(keys, chosen))
    )


def _rewrite_text(at: AnnotatedText, mapping: dict[str, tuple[str, str]]) -> AnnotatedText:
    text, mentions = rewrite_mentions(at.text, list(at.mentions), mapping)
    return AnnotatedText(text=text, mentions=tuple(mentions))


def _rewrite_synth(s: SynthSentence, mapping: dict[str, tuple[str, str]]) -> SynthSentence:
    text, mentions = rewrite_mentions(s.text, list(s.mentions), mapping)
    return SynthSentence(
        text=text,
        donor_doc=s.donor_doc,
        donor_sentence=s.donor_sentence,
        replaced=s.replaced,
        mentions=tuple(mentions),
        swap=s.swap,
    )


def apply_counterfactual(
    bundle: InstanceBundle, rmap: ReplacementMap | None, variant: int = 1
) -> InstanceBundle:
    """Rewrite every keyed entity's mentions in every text of the bundle.

    Texts change only inside mention spans; spans are recomputed. With an
    empty map the bundle is returned unchanged and stays unflagged.
    """
    if rmap is None or not rmap.entries:
        return bundle
    mapping = rmap.mapping()
    return replace(
        bundle,
        counterfactual=True,
        variant=variant,
        replacements=rmap.id_map(),
        context=tuple(_rewrite_text(t, mapping) for t in bundle.context),
        answer=_rewrite_text(bundle.answer, mapping),
        options=tuple(_rewrite_synth(s, mapping) for s in bundle.options),
        context_variants=tuple(
            ContextVariant(
                replaced_sentence=v.replaced_sentence,
                replacement=_rewrite_synth(v.replacement, mapping),
            )
            for v in bundle.context_variants
        ),
    )
