"""Meta-path extraction: positive (context, answer) pairs from an entity graph.

For a target entity pair, the answer candidates are the sentences
mentioning both. A depth-first search then looks for a path between the
two entities through the remaining graph. Each hop is realized either by
a supporting sentence (consumed from the budget of sentences outside the
answer set, at most once each) or by a bare KG relation edge, which
contributes no sentence. The consumed sentences form the context; the
pair (context, answer sentence) is logically consistent by construction:
the context implies an indirect connection whose direct statement is the
answer.

Two search modes exist. `backtracking=True` (default) explores every
(neighbor, hop-support) alternative and is complete: it finds a valid
path whenever one exists under the constraints. `backtracking=False`
reproduces a greedy walk that commits to the first viable hop at each
node and fails if that commitment dead-ends; it is kept for comparison
and provably misses solvable cases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Document, sentence_entities
from .graph import EntityGraph


@dataclass(frozen=True)
class ExtractorConfig:
    max_hops: int = 4  # maximum entities on a path (4 entities = 3 hops)
    mode: str = "first"  # "first": stop at first successful pair; "all": every pair
    backtracking: bool = True
    require_context: bool = True  # reject paths that consume no sentence

    def __post_init__(self):
        if self.max_hops < 2:
            raise ValueError("max_hops must allow at least two entities")
        if self.mode not in ("first", "all"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class PathHop:
    """One edge traversal: a consumed supporting sentence or a KG label."""

    via_sentence: int | None = None
    kg_label: str | None = None

    def __post_init__(self):
        if (self.via_sentence is None) == (self.kg_label is None):
            raise ValueError("hop must carry exactly one of sentence or KG label")


def hop_to_record(hop: PathHop) -> dict:
    return {"sentence": hop.via_sentence, "kg": hop.kg_label}


def hop_from_record(obj: dict) -> PathHop:
    return PathHop(via_sentence=obj["sentence"], kg_label=obj["kg"])


@dataclass(frozen=True)
class MetaPath:
    entities: tuple[str, ...]
    hops: tuple[PathHop, ...]


@dataclass(frozen=True)
class PositiveInstance:
    doc_id: str
    pair: tuple[str, str]
    path: MetaPath
    context: tuple[int, ...]  # consumed sentence indices, ascending
    answers: frozenset[int]

    @property
    def answer(self) -> int:
        return min(self.answers)

    @property
    def path_entities(self) -> frozenset[str]:
        return frozenset(self.path.entities)


def collect_answer_candidates(doc: Document, pair: tuple[str, str]) -> frozenset[int]:
    """Sentences mentioning both entities of the pair."""
    for eid in pair:
        if eid not in doc.entity_index:
            raise KeyError(f"entity {eid!r} not in document {doc.id!r}")
    a, b = pair
    return frozenset(
        k
        for k in range(len(doc.sentences))
        if a in doc.sentence_entity_sets[k] and b in doc.sentence_entity_sets[k]
    )


def _adjacency(graph: EntityGraph) -> dict[str, list[str]]:
    adj: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for a, b in graph.edges:
        adj[a].add(b)
        adj[b].add(a)
    return {n: sorted(vs) for n, vs in adj.items()}


def _hop_options(
    graph: EntityGraph, u: str, v: str, usable: frozenset[int]
) -> list[PathHop]:
    """Ways to realize the hop u->v, sentence supports first, lowest index first."""
    options = [
        PathHop(via_sentence=k) for k in sorted(graph.intra_sentences(u, v) & usable)
    ]
    options.extend(PathHop(kg_label=label) for label in graph.kg_labels(u, v))
    return options


def dfs_metapath(
    graph: EntityGraph,
    doc: Document,
    available: frozenset[int],
    start: str,
    goal: str,
    cfg: ExtractorConfig,
) -> tuple[MetaPath, frozenset[int]] | None:
    """Search for a meta-path from start to goal.

    Every sentence-supported hop consumes a distinct sentence from
    `available`; the consumed set is returned as the context. Entities
    never repeat on a path and at most cfg.max_hops entities are visited.
    Returns None when no acceptable path exists (in greedy mode: when the
    committed walk fails).
    """
    if start == goal:
        raise ValueError("start and goal must differ")
    if start not in graph.nodes or goal not in graph.nodes:
        return None

    adjacency = _adjacency(graph)
    path = [start]
    hops: list[PathHop] = []
    consumed: list[int] = []
    visited = {start}

    def accept() -> bool:
        return bool(consumed) or not cfg.require_context

    def walk(u: str, usable: frozenset[int]) -> bool:
        if u == goal:
            return accept()
        if len(path) >= cfg.max_hops:
            return False
        candidates = (
            (v, hop)
            for v in adjacency[u]
            if v not in visited
            for hop in _hop_options(graph, u, v, usable)
        )
        for v, hop in candidates:
            visited.add(v)
            path.append(v)
            hops.append(hop)
            if hop.via_sentence is not None:
                consumed.append(hop.via_sentence)
                remaining = usable - {hop.via_sentence}
            else:
                remaining = usable
            ok = walk(v, remaining)
            if ok or not cfg.backtracking:
                return ok
            visited.discard(v)
            path.pop()
            hops.pop()
            if hop.via_sentence is not None:
                consumed.pop()
        return False

    if not walk(start, available):
        return None
    meta = MetaPath(entities=tuple(path), hops=tuple(hops))
    return meta, frozenset(consumed)


def extract_positive_instances(
    doc: Document, graph: EntityGraph, cfg: ExtractorConfig
) -> list[PositiveInstance]:
    """Run the pair loop over the document and emit positive instances.

    Ordered entity pairs are visited lexicographically. For each pair with
    answer candidates, the search runs over the sentences outside the
    answer set; on success one instance per answer sentence is emitted
    (all sharing the path and context). mode="first" stops after the first
    successful pair, mode="all" visits every pair.
    """
    ids = sorted(e.id for e in doc.entities)
    all_sentences = frozenset(range(len(doc.sentences)))
    out: list[PositiveInstance] = []
    for a in ids:
        for b in ids:
            if a == b:
                continue
            answers = collect_answer_candidates(doc, (a, b))
            if not answers:
                continue
            found = dfs_metapath(graph, doc, all_sentences - answers, a, b, cfg)
            if found is None:
                continue
            meta, context = found
            for ans in sorted(answers):
                out.append(
                    PositiveInstance(
                        doc_id=doc.id,
                        pair=(a, b),
                        path=meta,
                        context=tuple(sorted(context)),
                        answers=frozenset({ans}),
                    )
                )
            if cfg.mode == "first":
                return out
    return out


def validate_instance(
    inst: PositiveInstance, doc: Document, graph: EntityGraph
) -> list[str]:
    """Check every instance invariant against its document and graph."""
    problems: list[str] = []
    ents = inst.path.entities
    n_sent = len(doc.sentences)

    if len(ents) < 2:
        problems.append("path has fewer than 2 entities")
    if len(set(ents)) != len(ents):
        problems.append("path revisits an entity")
    if ents and (ents[0], ents[-1]) != inst.pair:
        problems.append(f"path endpoints {ents[0]!r}..{ents[-1]!r} do not match target pair")
    for eid in ents:
        if eid not in graph.nodes:
            problems.append(f"path entity {eid!r} not in graph")

    if len(inst.path.hops) != max(len(ents) - 1, 0):
        problems.append("hop count does not match path length")
    else:
        for i, hop in enumerate(inst.path.hops):
            u, v = ents[i], ents[i + 1]
            if hop.via_sentence is not None:
                if hop.via_sentence not in graph.intra_sentences(u, v):
                    problems.append(
                        f"hop {u!r}->{v!r}: missing intra-sentence edge for sentence {hop.via_sentence}"
                    )
            elif hop.kg_label not in graph.kg_labels(u, v):
                problems.append(f"hop {u!r}->{v!r}: missing KG edge {hop.kg_label!r}")

    supports = [h.via_sentence for h in inst.path.hops if h.via_sentence is not None]
    if len(set(supports)) != len(supports):
        problems.append("two hops consume the same sentence")
    if set(inst.context) != set(supports):
        problems.append("context does not equal the set of hop support sentences")
    if not inst.context:
        problems.append("context is empty")
    for k in inst.context:
        if not 0 <= k < n_sent:
            problems.append(f"context sentence {k} out of range")

    if not inst.answers:
        problems.append("answer set is empty")
    for k in inst.answers:
        if not 0 <= k < n_sent:
            problems.append(f"answer sentence {k} out of range")
            continue
        have = sentence_entities(doc, k)
        missing = [e for e in inst.pair if e not in have]
        if missing:
            problems.append(f"answer sentence {k} does not mention {missing!r}")
    overlap = set(inst.context) & set(inst.answers)
    if overlap:
        problems.append(f"answers overlap context at {sorted(overlap)!r}")

    return problems
