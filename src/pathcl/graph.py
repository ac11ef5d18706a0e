"""Per-document entity graph.

Nodes are the document's entities. Two maps keyed by the unordered
`pair_key` hold the edges: `sentences` sends a pair to the sentences
mentioning both (read off the document's `corpus.SentenceTable`, which
the graph keeps as `table`), `labels` to its sorted relation labels. A
pair may sit in either map or both; adjacency sees one slot per pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import IO

from .corpus import Document, SentenceTable


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered-pair key."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class EntityGraph:
    nodes: frozenset[str]
    sentences: dict[tuple[str, str], frozenset[int]]
    labels: dict[tuple[str, str], tuple[str, ...]]
    table: SentenceTable = field(compare=False, repr=False)

    def intra_sentences(self, a: str, b: str) -> frozenset[int]:
        return self.sentences.get(pair_key(a, b), frozenset())

    def kg_labels(self, a: str, b: str) -> tuple[str, ...]:
        return self.labels.get(pair_key(a, b), ())

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for edges in (self.sentences, self.labels):
            for a, b in edges:
                adj[a].add(b)
                adj[b].add(a)
        return {n: tuple(sorted(vs)) for n, vs in adj.items()}


def build_entity_graph(doc: Document) -> EntityGraph:
    """Construct the entity graph of a validated document, and its sentence table.

    Deterministic: equal documents produce equal graphs.
    """
    table = SentenceTable(doc)
    sentences: dict[tuple[str, str], set[int]] = {}
    for k in table.donors:  # only a sentence naming two entities or more holds a pair
        ids = sorted(table.entities(k))
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                sentences.setdefault(pair_key(a, b), set()).add(k)

    labels: dict[tuple[str, str], set[str]] = {}
    for rel in doc.relations:
        if rel.head != rel.tail:
            labels.setdefault(pair_key(rel.head, rel.tail), set()).add(rel.relation)

    return EntityGraph(
        nodes=frozenset(e.id for e in doc.entities),
        sentences={key: frozenset(ks) for key, ks in sentences.items()},
        labels={key: tuple(sorted(ls)) for key, ls in labels.items()},
        table=table,
    )


def write_edge_list(graph: EntityGraph, fp: IO[str]) -> int:
    """Debug export: one `pair<TAB>kind<TAB>detail` line per edge kind, sorted."""
    rows = [
        (f"{a}|{b}", "sent", ",".join(str(k) for k in sorted(ks)))
        for (a, b), ks in graph.sentences.items()
    ]
    rows.extend(
        (f"{a}|{b}", "kg", label) for (a, b), ls in graph.labels.items() for label in ls
    )
    rows.sort()
    for row in rows:
        fp.write("\t".join(row) + "\n")
    return len(rows)
