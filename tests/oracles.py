"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's search and rewrite code paths:
the path oracle builds its own adjacency from the graph's two edge maps
and enumerates every simple path and every per-hop sentence assignment;
the consistency scanner re-derives entity occurrences from surfaces
instead of trusting recorded spans; the span diff checks an edit from
the original text's fixed fragments alone.
"""

from __future__ import annotations

import itertools
import re

from pathcl.corpus import Document
from pathcl.graph import EntityGraph, pair_key
from pathcl.spans import MentionSpan


def enumerate_simple_paths(
    graph: EntityGraph, start: str, goal: str, max_entities: int
) -> list[list[str]]:
    adj: dict[str, set[str]] = {n: set() for n in graph.nodes}
    for a, b in [*graph.sentences, *graph.labels]:
        adj[a].add(b)
        adj[b].add(a)
    paths: list[list[str]] = []

    def grow(path: list[str]):
        tip = path[-1]
        if tip == goal:
            paths.append(list(path))
            return
        if len(path) >= max_entities:
            return
        for nxt in sorted(adj[tip]):
            if nxt not in path:
                path.append(nxt)
                grow(path)
                path.pop()

    if start in graph.nodes and goal in graph.nodes:
        grow([start])
    return paths


def hop_choices(graph: EntityGraph, u: str, v: str, available: frozenset[int]):
    """All ways to realize hop (u, v): ('sent', k) or ('kg', label)."""
    key = pair_key(u, v)
    out = [("sent", k) for k in sorted(graph.sentences.get(key, frozenset()) & available)]
    out.extend(("kg", label) for label in graph.labels.get(key, ()))
    return out


def path_assignments(
    graph: EntityGraph,
    path: list[str],
    available: frozenset[int],
    require_context: bool,
) -> list[list[tuple[str, int | str]]]:
    """Valid per-hop assignments: distinct sentences, >=1 sentence if required."""
    per_hop = [
        hop_choices(graph, u, v, available) for u, v in zip(path, path[1:])
    ]
    if any(not c for c in per_hop):
        return []
    valid = []
    for combo in itertools.product(*per_hop):
        sentences = [c[1] for c in combo if c[0] == "sent"]
        if len(set(sentences)) != len(sentences):
            continue
        if require_context and not sentences:
            continue
        valid.append(list(combo))
    return valid


def oracle_pair_solvable(
    graph: EntityGraph,
    doc: Document,
    start: str,
    goal: str,
    available: frozenset[int],
    max_entities: int,
    require_context: bool = True,
) -> bool:
    for path in enumerate_simple_paths(graph, start, goal, max_entities):
        if path_assignments(graph, path, available, require_context):
            return True
    return False


def oracle_document_solvable(
    doc: Document, graph: EntityGraph, max_entities: int, require_context: bool = True
) -> bool:
    """Does any ordered entity pair admit a valid (path, assignment) solution?"""
    ids = sorted(e.id for e in doc.entities)
    all_sentences = frozenset(range(len(doc.sentences)))
    for a in ids:
        for b in ids:
            if a == b:
                continue
            answers = frozenset(
                k for k in all_sentences
                if a in doc.sentence_entity_sets[k] and b in doc.sentence_entity_sets[k]
            )
            if not answers:
                continue
            if oracle_pair_solvable(
                graph, doc, a, b, all_sentences - answers, max_entities, require_context
            ):
                return True
    return False


def surface_occurrences(text: str, surface: str) -> int:
    """Count whole-token occurrences of a surface string in text."""
    if not surface:
        return 0
    pattern = r"(?<!\w)" + re.escape(surface) + r"(?!\w)"
    return len(re.findall(pattern, text))


def diff_outside_spans(original: str, edited: str, original_spans: list[MentionSpan]) -> bool:
    """True iff `edited` can differ from `original` only inside the given spans.

    Used as the machine check that a synthetic sentence is byte-identical
    to its donor outside the recorded replacement spans.
    """
    ordered = sorted(original_spans, key=lambda m: m[1])
    fixed: list[str] = []
    cursor = 0
    for _, start, end in ordered:
        fixed.append(original[cursor:start])
        cursor = end
    fixed.append(original[cursor:])
    if len(fixed) == 1:  # no spans: nothing may change
        return edited == original
    # The fixed fragments must appear in `edited`, in order, non-overlapping,
    # anchored at the ends.
    pos = 0
    for i, frag in enumerate(fixed):
        if i == 0:
            if not edited.startswith(frag):
                return False
            pos = len(frag)
        elif i == len(fixed) - 1:
            if not edited.endswith(frag) or len(edited) - len(frag) < pos:
                return False
        else:
            found = edited.find(frag, pos) if frag else pos
            if found < 0:
                return False
            pos = found + len(frag)
    return True
