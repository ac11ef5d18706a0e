"""Meta-path extraction: positive (context, answer) pairs from an entity graph.

For a target entity pair, the answer candidates are the sentences
mentioning both: the pair's intra-sentence edge in the graph. A
depth-first search then looks for a path between the two entities
through the remaining graph. Each hop is realized either by a supporting
sentence (consumed from the budget of sentences outside the answer set,
at most once each) or by a bare KG relation edge, which contributes no
sentence. The consumed sentences form the context; the pair (context,
answer sentence) is logically consistent by construction: the context
implies an indirect connection whose direct statement is the answer.

The search backtracks over every (neighbor, hop-support) alternative, so
it is complete: it finds a valid path whenever one exists under the
constraints. A path must consume at least one sentence; a chain of KG
edges alone has no context text to imply the answer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Document
from .graph import EntityGraph
from .jsonl import RecordError, bounded, check_config, require, require_list


@dataclass(frozen=True)
class ExtractorConfig:
    max_hops: int = bounded(4, low=2, help="max entities on a path")
    mode: str = bounded("first", choices=("first", "all"), help="pair iteration mode")

    def __post_init__(self):
        check_config(self, "extractor")


@dataclass(frozen=True)
class PathHop:
    """One edge traversal: a consumed supporting sentence or a KG label."""

    via_sentence: int | None = None
    kg_label: str | None = None

    def __post_init__(self):
        if (self.via_sentence is None) == (self.kg_label is None):
            raise ValueError("hop must carry exactly one of sentence or KG label")


@dataclass(frozen=True)
class MetaPath:
    entities: tuple[str, ...]
    hops: tuple[PathHop, ...]


def path_to_record(path: MetaPath) -> dict:
    """The JSON form of a meta-path, shared by the positives and bundle files."""
    return {
        "entities": list(path.entities),
        "hops": [{"sentence": h.via_sentence, "kg": h.kg_label} for h in path.hops],
    }


def _hop_from_record(obj, line: int, at: str) -> PathHop:
    sentence = require(obj, "sentence", int, line, at, nullable=True)
    label = require(obj, "kg", str, line, at, nullable=True)
    try:
        return PathHop(via_sentence=sentence, kg_label=label)
    except ValueError as exc:
        raise RecordError(line, f"{at}: {exc}", at) from exc


def path_from_record(obj, line: int, at: str = "path") -> MetaPath:
    """Inverse of `path_to_record`: the path at field `at` of a record's `line`."""
    hops = tuple(
        _hop_from_record(h, line, f"{at}.hops[{i}]")
        for i, h in enumerate(require(obj, "hops", list, line, at))
    )
    entities = require_list(obj, "entities", str, line, at, length=len(hops) + 1)
    return MetaPath(entities=entities, hops=hops)


@dataclass(frozen=True)
class PositiveInstance:
    doc_id: str
    pair: tuple[str, str]
    path: MetaPath
    context: tuple[int, ...]  # consumed sentence indices, ascending
    answer: int  # the answer sentence


def _hop_options(
    graph: EntityGraph, u: str, v: str, usable: frozenset[int]
) -> list[PathHop]:
    """Ways to realize the hop u->v, sentence supports first, lowest index first."""
    options = [
        PathHop(via_sentence=k) for k in sorted(graph.intra_sentences(u, v) & usable)
    ]
    options.extend(PathHop(kg_label=label) for label in graph.kg_labels(u, v))
    return options


def _walk(
    graph: EntityGraph,
    goal: str,
    max_hops: int,
    path: list[str],
    hops: list[PathHop],
    consumed: list[int],
    visited: set[str],
    usable: frozenset[int],
) -> bool:
    """Extend `path` from its last entity to `goal`, backtracking on failure.

    On success `path`, `hops` and `consumed` hold the found path; on
    failure they are as they were.
    """
    u = path[-1]
    if u == goal:
        return bool(consumed)
    if len(path) >= max_hops:
        return False
    candidates = (
        (v, hop)
        for v in graph.adjacency[u]
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
        if _walk(graph, goal, max_hops, path, hops, consumed, visited, remaining):
            return True
        visited.discard(v)
        path.pop()
        hops.pop()
        if hop.via_sentence is not None:
            consumed.pop()
    return False


def dfs_metapath(
    graph: EntityGraph,
    available: frozenset[int],
    start: str,
    goal: str,
    cfg: ExtractorConfig,
) -> tuple[MetaPath, frozenset[int]] | None:
    """Search for a meta-path from start to goal.

    Every sentence-supported hop consumes a distinct sentence from
    `available`; the consumed set is returned as the context. Entities
    never repeat on a path and at most cfg.max_hops entities are visited.
    Returns None when no path consuming at least one sentence exists.

    The search creates no reference cycle: `_walk` recurses at module
    level, not as a closure that refers to itself, so a document's graph
    and the search state are freed by reference counting as soon as the
    search returns. `pipeline.run_pipeline` runs with the cyclic collector
    paused and relies on this.
    """
    if start == goal:
        raise ValueError("start and goal must differ")
    if start not in graph.nodes or goal not in graph.nodes:
        return None

    path = [start]
    hops: list[PathHop] = []
    consumed: list[int] = []
    if not _walk(graph, goal, cfg.max_hops, path, hops, consumed, {start}, available):
        return None
    meta = MetaPath(entities=tuple(path), hops=tuple(hops))
    return meta, frozenset(consumed)


def extract_positive_instances(
    doc: Document, graph: EntityGraph, cfg: ExtractorConfig
) -> list[PositiveInstance]:
    """Run the pair loop over the document and emit positive instances.

    Each co-mentioned entity pair is visited once, as (a, b) with a < b,
    in lexicographic order: the pairs with answer candidates are exactly
    the keys of `graph.sentences`. The graph is undirected, so the
    reversed pair would only repeat the same context and answers. For each
    pair the search runs over the sentences outside the answer set; on
    success one instance per answer sentence is emitted (all sharing the
    path and context). mode="first" stops after the first successful pair,
    mode="all" visits every pair.

    The search is complete and a reversed path is valid through the same
    sentences, so (b, a) succeeds exactly when (a, b) does; mode="first"
    therefore finds the same first pair as a loop over both orders would.
    """
    all_sentences = frozenset(range(len(doc.sentences)))
    out: list[PositiveInstance] = []
    for a, b in sorted(graph.sentences):
        answers = graph.intra_sentences(a, b)
        found = dfs_metapath(graph, all_sentences - answers, a, b, cfg)
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
                    answer=ans,
                )
            )
        if cfg.mode == "first":
            return out
    return out


def validate_instance(
    inst: PositiveInstance, doc: Document, graph: EntityGraph
) -> list[str]:
    """Check every instance invariant against its document and its graph, the one index."""
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

    k = inst.answer
    if not 0 <= k < n_sent:
        problems.append(f"answer sentence {k} out of range")
    else:
        missing = [e for e in inst.pair if e not in graph.entities(k)]
        if missing:
            problems.append(f"answer sentence {k} does not mention {missing!r}")
    if k in inst.context:
        problems.append(f"answer sentence {k} overlaps the context")

    return problems
