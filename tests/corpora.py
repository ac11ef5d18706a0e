"""Shared fixture documents and random micro-corpus generation."""

from __future__ import annotations

import random

from pathcl.corpus import Document, Entity, Mention, RelationTriple

Part = str | tuple[str, str]  # literal text, or (entity id, surface)


def compose_sentence(parts: list[Part]) -> tuple[str, list[tuple[str, int, int]]]:
    """Build a sentence from literal and (entity, surface) parts with exact spans."""
    text = ""
    mentions: list[tuple[str, int, int]] = []
    for part in parts:
        if isinstance(part, str):
            text += part
        else:
            eid, surface = part
            mentions.append((eid, len(text), len(text) + len(surface)))
            text += surface
    return text, mentions


def build_document(
    doc_id: str,
    sentence_parts: list[list[Part]],
    surfaces: dict[str, str],
    relations: list[tuple[str, str, str]] = (),
) -> Document:
    sentences: list[str] = []
    mention_map: dict[str, list[Mention]] = {eid: [] for eid in surfaces}
    for k, parts in enumerate(sentence_parts):
        sent, mentions = compose_sentence(parts)
        sentences.append(sent)
        for eid, start, end in mentions:
            mention_map[eid].append(Mention(sent=k, start=start, end=end))
    entities = tuple(
        Entity(id=eid, surface=surface, mentions=tuple(mention_map[eid]))
        for eid, surface in surfaces.items()
        if mention_map[eid]
    )
    return Document(
        id=doc_id,
        sentences=tuple(sentences),
        entities=entities,
        relations=tuple(RelationTriple(h, t, r) for h, t, r in relations),
    )


def film_cast_document() -> Document:
    """The film-cast worked example: triangle of co-mentions plus a producer."""
    mckean = ("e1", "Dave McKean")
    leonidas = ("e2", "Stephanie Leonidas")
    film = ("e3", "MirrorMask")
    company = ("e4", "Jim Henson Company")
    parts = [
        [film, " is a 2005 fantasy film."],
        [mckean, " directed the film ", film, "."],
        ["The ", company, " produced ", film, "."],
        [mckean, " cast ", leonidas, " as the protagonist."],
        ["The film premiered at the Sundance Film Festival."],
        [leonidas, " starred in ", film, "."],
    ]
    return build_document(
        "filmcast",
        parts,
        surfaces={
            "e1": "Dave McKean",
            "e2": "Stephanie Leonidas",
            "e3": "MirrorMask",
            "e4": "Jim Henson Company",
        },
        relations=[("e1", "e3", "director")],
    )


_FILLERS = ["visited", "praised", "mentioned", "joined", "called"]


def random_micro_doc(rng: random.Random, doc_id: str = "micro", max_edges: int = 12) -> Document:
    """Random well-formed document: <=8 entities, <=10 sentences, <=`max_edges` edges."""
    n_entities = rng.randint(2, 8)
    ids = [f"e{i}" for i in range(n_entities)]
    surfaces = {eid: f"Node{i}" for i, eid in enumerate(ids)}

    slots: set[tuple[str, str]] = set()

    def slot(a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    sentence_parts: list[list[Part]] = []
    n_sentences = rng.randint(1, 10)
    for _ in range(n_sentences):
        size = rng.choice([0, 1, 2, 2, 2, 3])
        group = rng.sample(ids, min(size, n_entities))
        new_slots = {
            slot(a, b) for i, a in enumerate(group) for b in group[i + 1 :]
        } - slots
        if len(slots) + len(new_slots) > max_edges:
            group = group[:1]
            new_slots = set()
        slots |= new_slots
        parts: list[Part] = []
        if not group:
            parts.append("Nothing notable happened that day.")
        else:
            for i, eid in enumerate(group):
                if i > 0:
                    parts.append(f" {rng.choice(_FILLERS)} ")
                parts.append((eid, surfaces[eid]))
            parts.append(".")
        sentence_parts.append(parts)

    mentioned = {p[0] for parts in sentence_parts for p in parts if isinstance(p, tuple)}
    relations: list[tuple[str, str, str]] = []
    mentioned_list = sorted(mentioned)
    if len(mentioned_list) >= 2:
        for j in range(rng.randint(0, 3)):
            a, b = rng.sample(mentioned_list, 2)
            if len(slots) >= max_edges and slot(a, b) not in slots:
                continue
            slots.add(slot(a, b))
            relations.append((a, b, f"rel{j}"))

    return build_document(
        doc_id,
        sentence_parts,
        surfaces={eid: surfaces[eid] for eid in mentioned_list},
        relations=relations,
    )
