"""Synthetic corpus generator for demos, benchmarks, and end-to-end tests.

Documents are composed of template blocks. Each block tells a small story
whose designed target pair is co-mentioned only in one answer sentence,
while two support sentences connect the pair through a middle entity; the
remaining sentences supply donor material for negative generation. Block
relation verbs are family-specific, so a trained scorer has a learnable
signal separating consistent answers from relation-edited negatives.

The designed pair of the first block receives the lexicographically
smallest entity ids, so first-pair extraction recovers exactly the
designed instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from .corpus import Document, Entity, Mention, RelationTriple

Part = str | int  # literal text or role index


@dataclass(frozen=True)
class Family:
    name: str
    roles: int
    sentences: tuple[tuple[Part, ...], ...]
    answer: int  # index of the answer sentence within the block
    pair: tuple[int, int]  # roles co-mentioned only in the answer sentence
    kg: tuple[tuple[int, int, str], ...] = ()


FAMILIES: tuple[Family, ...] = (
    Family(
        name="film",
        roles=5,
        sentences=(
            (0, " directed ", 1, "."),
            (2, " starred in ", 1, "."),
            (0, " worked with ", 2, "."),
            (3, " produced ", 1, "."),
            (4, " reviewed ", 1, "."),
            (4, " interviewed ", 3, "."),
        ),
        answer=2,
        pair=(0, 2),
        kg=((0, 1, "director"), (3, 1, "producer")),
    ),
    Family(
        name="geo",
        roles=5,
        sentences=(
            (0, " was born in ", 1, "."),
            (1, " lies in ", 2, "."),
            (0, " comes from ", 2, "."),
            (3, " moved to ", 1, "."),
            (4, " stands in ", 1, "."),
            (3, " photographed ", 4, "."),
        ),
        answer=2,
        pair=(0, 2),
        kg=((0, 1, "birthplace"),),
    ),
    Family(
        name="business",
        roles=5,
        sentences=(
            (0, " founded ", 1, "."),
            (1, " acquired ", 2, "."),
            (0, " controls ", 2, "."),
            (3, " leads ", 2, "."),
            (1, " operates in ", 4, "."),
            (3, " lives in ", 4, "."),
        ),
        answer=2,
        pair=(0, 2),
        kg=((0, 1, "founder"),),
    ),
)

_GIVEN = (
    "Arlo", "Beata", "Ciro", "Delia", "Enzo", "Freya", "Gustav", "Hana",
    "Idris", "Jorun", "Kaveh", "Liv", "Matteo", "Nadia", "Oskar", "Priya",
    "Quentin", "Rosa", "Soren", "Tessa", "Umar", "Vera", "Wendel", "Yusuf",
)
_SURNAME = (
    "Vance", "Okafor", "Lindqvist", "Marchetti", "Osei", "Petrov", "Quispe",
    "Rahal", "Sandoval", "Takeda", "Ulloa", "Varga", "Whitlock", "Yamada",
    "Zubair", "Calloway", "Dorsey", "Eriksen", "Farrow", "Grieco",
)

_FILLERS = (
    "The weather stayed calm for most of the week.",
    "Local records from that period are incomplete.",
    "Several accounts of the events were published later.",
    "The archive mentions the episode only in passing.",
    "Little else survives from those years.",
    "A commemorative plaque was unveiled decades afterwards.",
    "The newspapers covered the story for one season.",
    "Historians still debate the minor details.",
)


def _draw_names(rng: random.Random, count: int, used: set[str]) -> list[str]:
    names = []
    while len(names) < count:
        name = f"{rng.choice(_GIVEN)} {rng.choice(_SURNAME)}"
        if name in used:
            continue
        used.add(name)
        names.append(name)
    return names


def make_document(
    doc_id: str,
    rng: random.Random,
    blocks: int = 2,
    fillers: int = 6,
) -> Document:
    """One synthetic document with `blocks` template blocks plus filler."""
    used_names: set[str] = set()
    sentence_rows: list[tuple[tuple[Part, ...], dict[int, str]]] = []
    entities: dict[str, str] = {}  # id -> surface
    relations: list[RelationTriple] = []

    for b in range(blocks):
        family = FAMILIES[rng.randrange(len(FAMILIES))]
        names = _draw_names(rng, family.roles, used_names)
        # Ids carry the document id so entities never collide across
        # documents; the first block's designed pair sorts first within the
        # document, which first-pair extraction relies on.
        ids: dict[int, str] = {}
        for role in range(family.roles):
            if b == 0 and role == family.pair[0]:
                eid = f"{doc_id}.a0"
            elif b == 0 and role == family.pair[1]:
                eid = f"{doc_id}.a1"
            else:
                eid = f"{doc_id}.m{b}{role}"
            ids[role] = eid
            entities[eid] = names[role]
        for parts in family.sentences:
            sentence_rows.append((parts, ids))
        for head, tail, label in family.kg:
            relations.append(RelationTriple(ids[head], ids[tail], label))

    for _ in range(fillers):
        sentence_rows.append(((rng.choice(_FILLERS),), {}))
    rng.shuffle(sentence_rows)

    sentences: list[str] = []
    mentions: dict[str, list[Mention]] = {eid: [] for eid in entities}
    for k, (parts, ids) in enumerate(sentence_rows):
        text = ""
        for part in parts:
            if isinstance(part, str):
                text += part
            else:
                eid = ids[part]
                surface = entities[eid]
                mentions[eid].append(Mention(sent=k, start=len(text), end=len(text) + len(surface)))
                text += surface
        sentences.append(text)

    return Document(
        id=doc_id,
        sentences=tuple(sentences),
        entities=tuple(
            Entity(id=eid, surface=surface, mentions=tuple(mentions[eid]))
            for eid, surface in sorted(entities.items())
        ),
        relations=tuple(relations),
    )


def make_corpus(
    n_docs: int, seed: int, *, blocks: int = 2, fillers: int = 6
) -> list[Document]:
    rng = random.Random(seed)
    return [
        make_document(f"syn{i:06d}", random.Random(rng.randrange(2**63)), blocks, fillers)
        for i in range(n_docs)
    ]


def split_corpus(docs: Sequence[Document], holdout_fraction: float, seed: int):
    """Deterministic train/held-out split at document granularity."""
    order = list(range(len(docs)))
    random.Random(seed).shuffle(order)
    cut = int(len(docs) * (1.0 - holdout_fraction))
    train_idx = sorted(order[:cut])
    held_idx = sorted(order[cut:])
    return [docs[i] for i in train_idx], [docs[i] for i in held_idx]
