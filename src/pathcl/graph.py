"""Per-document entity graph: the document's one index.

`build_entity_graph(doc)` walks a validated document's mentions once,
grouping them by sentence: `graph[k]` is sentence k, its spans sorted by
(start, end), annotated when first asked for; `entities(k)` are the ids
it names, and `donors` the sentences naming two entities or more.

Nodes are the document's entities. Two maps keyed by the unordered
`pair_key` hold the edges: `sentences` sends a pair to the sentences
naming both, `labels` to its sorted relation labels. A pair may sit in
either map or both; adjacency sees one slot per pair. Nodes, maps and
adjacency are computed on first use, so the donor pool's count and
picks pay for the walk alone. Nothing a graph holds refers back to it.
"""

from __future__ import annotations

from functools import cached_property
from operator import itemgetter
from typing import IO

from .corpus import Document
from .spans import AnnotatedSentence, MentionSpan

_by_start = itemgetter(1, 2)  # a mention span's (start, end)


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered-pair key."""
    return (a, b) if a <= b else (b, a)


class EntityGraph:
    """One document's index; `==` compares nodes and both edge maps."""

    def __init__(self, doc: Document):
        n = len(doc.sentences)
        spans: list[list[MentionSpan]] = [[] for _ in range(n)]
        named: list[set[str]] = [set() for _ in range(n)]
        for entity in doc.entities:
            eid = entity.id
            for m in entity.mentions:
                spans[m.sent].append((eid, m.start, m.end))
                named[m.sent].add(eid)
        self.doc, self._spans, self._named = doc, spans, named
        self._built: list[AnnotatedSentence | None] = [None] * n
        # Ordinals of the sentences naming two or more distinct entities, ascending.
        self.donors = [k for k, ids in enumerate(named) if len(ids) >= 2]

    def __getitem__(self, k: int) -> AnnotatedSentence:
        built = self._built[k]
        if built is None:
            mentions = tuple(sorted(self._spans[k], key=_by_start))
            built = AnnotatedSentence(self.doc.id, k, self.doc.sentences[k], mentions)
            self._built[k] = built
        return built

    def entities(self, k: int) -> frozenset[str]:
        """Ids of the entities with at least one mention in sentence k."""
        if not 0 <= k < len(self._named):
            raise IndexError(f"sentence index {k} out of range for document {self.doc.id!r}")
        return frozenset(self._named[k])

    @cached_property
    def nodes(self) -> frozenset[str]:
        return frozenset(e.id for e in self.doc.entities)

    @cached_property
    def sentences(self) -> dict[tuple[str, str], frozenset[int]]:
        pairs: dict[tuple[str, str], set[int]] = {}
        for k in self.donors:  # only a sentence naming two entities or more holds a pair
            ids = sorted(self._named[k])
            for i, a in enumerate(ids):
                for b in ids[i + 1 :]:
                    pairs.setdefault((a, b), set()).add(k)  # a < b: the pair's key
        return {key: frozenset(ks) for key, ks in pairs.items()}

    @cached_property
    def labels(self) -> dict[tuple[str, str], tuple[str, ...]]:
        labels: dict[tuple[str, str], set[str]] = {}
        for rel in self.doc.relations:
            if rel.head != rel.tail:
                labels.setdefault(pair_key(rel.head, rel.tail), set()).add(rel.relation)
        return {key: tuple(sorted(ls)) for key, ls in labels.items()}

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        adj: dict[str, set[str]] = {n: set() for n in self.nodes}
        for edges in (self.sentences, self.labels):
            for a, b in edges:
                adj[a].add(b)
                adj[b].add(a)
        return {n: tuple(sorted(vs)) for n, vs in adj.items()}

    def intra_sentences(self, a: str, b: str) -> frozenset[int]:
        """Ordinals of the sentences naming both `a` and `b`, for a != b."""
        return self.sentences.get(pair_key(a, b), frozenset())

    def kg_labels(self, a: str, b: str) -> tuple[str, ...]:
        return self.labels.get(pair_key(a, b), ())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntityGraph):
            return NotImplemented
        same = self.nodes == other.nodes and self.sentences == other.sentences
        return same and self.labels == other.labels


def build_entity_graph(doc: Document) -> EntityGraph:
    """The one index of a validated document; equal documents give equal graphs."""
    return EntityGraph(doc)


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
