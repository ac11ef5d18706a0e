"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's search and rewrite code paths:
the path oracle builds its own adjacency from the graph's two edge maps
and enumerates every simple path and every per-hop sentence assignment;
the consistency scanner re-derives entity occurrences from surfaces
instead of trusting recorded spans; the span diff checks an edit from
the original text's fixed fragments alone; the trainer oracle scores
one candidate and masks one text at a time with the scorer's plain
formulas, where the library batches them; the batch interleaver queues
every instance before writing any, where the library streams them; the
ordered-pair extractor runs the library's search on every co-mentioned
pair in both orders, where the library visits each unordered pair once.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import deque
from typing import IO, Iterable, Iterator

import numpy as np

from pathcl.corpus import Document, sentence_entities
from pathcl.emitter import ContrastiveInstance, instance_to_record
from pathcl.graph import EntityGraph, pair_key
from pathcl.jsonl import write_records
from pathcl.metapath import ExtractorConfig, PositiveInstance, dfs_metapath
from pathcl.seeding import derive_rng
from pathcl.spans import MentionSpan
from pathcl.trainer import SEP_TOKEN, token_ids


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
) -> list[list[tuple[str, int | str]]]:
    """Valid per-hop assignments: distinct sentences, at least one of them."""
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
        if not sentences:
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
) -> bool:
    for path in enumerate_simple_paths(graph, start, goal, max_entities):
        if path_assignments(graph, path, available):
            return True
    return False


def oracle_document_solvable(doc: Document, graph: EntityGraph, max_entities: int) -> bool:
    """Does any ordered entity pair admit a valid (path, assignment) solution?"""
    ids = sorted(e.id for e in doc.entities)
    all_sentences = frozenset(range(len(doc.sentences)))
    for a in ids:
        for b in ids:
            if a == b:
                continue
            answers = frozenset(
                k for k in all_sentences
                if a in sentence_entities(doc, k) and b in sentence_entities(doc, k)
            )
            if not answers:
                continue
            if oracle_pair_solvable(graph, doc, a, b, all_sentences - answers, max_entities):
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


# -- extraction: every co-mentioned pair in both orders --


def ordered_pair_positives(
    doc: Document, graph: EntityGraph, cfg: ExtractorConfig
) -> list[PositiveInstance]:
    """The pair loop over ordered pairs: (a, b) and (b, a) are both searched,
    in lexicographic order; one instance per answer sentence on success."""
    all_sentences = frozenset(range(len(doc.sentences)))
    out: list[PositiveInstance] = []
    for a, b in sorted(p for a, b in graph.sentences for p in ((a, b), (b, a))):
        answers = graph.intra_sentences(a, b)
        found = dfs_metapath(graph, all_sentences - answers, a, b, cfg)
        if found is None:
            continue
        meta, context = found
        out.extend(
            PositiveInstance(doc.id, (a, b), meta, tuple(sorted(context)), frozenset({ans}))
            for ans in sorted(answers)
        )
        if cfg.mode == "first":
            return out
    return out


# -- emitter: the whole input queued before the first write --


def batch_emit_instances(
    instances: Iterable[ContrastiveInstance], copies: int, fp: IO[str]
) -> int:
    """Queue every instance, then write one original and `copies`
    counterfactual instances per round until both queues drain."""
    if copies < 0:
        raise ValueError("copies must be >= 0")
    originals: deque[ContrastiveInstance] = deque()
    counterfactuals: deque[ContrastiveInstance] = deque()
    for inst in instances:
        (counterfactuals if inst.meta.counterfactual else originals).append(inst)
    if copies == 0:
        counterfactuals.clear()

    def interleaved() -> Iterator[ContrastiveInstance]:
        while originals or counterfactuals:
            for queue, n in ((originals, 1), (counterfactuals, copies)):
                for _ in range(min(n, len(queue))):
                    yield queue.popleft()

    return write_records(interleaved(), instance_to_record, fp)


# -- trainer: one candidate, one instance at a time --


def pair_ids(params, a: str, b: str) -> list[int]:
    return token_ids(params, a) + [params.vocab[SEP_TOKEN]] + token_ids(params, b)


def score_pair(params, a: str, b: str) -> float:
    """Scalar compatibility of the pair: mean-pooled "a [sep] b" through the head."""
    mean = params.embeddings[pair_ids(params, a, b)].mean(axis=0)
    hidden = np.tanh(mean @ params.w1 + params.b1)
    return float(hidden @ params.w2 + params.b2[0])


def softmax_grad(scores: np.ndarray, gold: int) -> tuple[float, np.ndarray]:
    """Loss and d(loss)/d(scores) = softmax - onehot(gold)."""
    top = scores.max()
    exp = np.exp(scores - top)
    probs = exp / exp.sum()
    loss = float(math.log(exp.sum()) + top - scores[gold])
    dscores = probs.copy()
    dscores[gold] -= 1.0
    return loss, dscores


def _instance_cl(params, inst, grads, weight: float) -> float:
    id_lists = [pair_ids(params, inst.query, cand) for cand in inst.candidates]
    means = np.stack([params.embeddings[ids].mean(axis=0) for ids in id_lists])
    hidden = np.tanh(means @ params.w1 + params.b1)
    scores = hidden @ params.w2 + params.b2[0]
    loss, dscores = softmax_grad(scores, inst.gold)
    dscores = weight * dscores
    dhidden = np.outer(dscores, params.w2) * (1.0 - hidden * hidden)
    grads["w2"] += hidden.T @ dscores
    grads["b2"][0] += dscores.sum()
    grads["w1"] += means.T @ dhidden
    grads["b1"] += dhidden.sum(axis=0)
    for row, ids in zip(dhidden @ params.w1.T, id_lists):
        np.add.at(grads["embeddings"], ids, row / len(ids))
    return loss


def _instance_mlm(params, text: str, mask_rate: float, rng, grads, weight: float) -> float:
    ids = token_ids(params, text)
    n = len(ids)
    m_count = min(n, math.ceil(mask_rate * n))
    if m_count == 0:
        return 0.0
    masked = sorted(rng.sample(range(n), m_count))
    unmasked_ids = [ids[i] for i in range(n) if i not in masked]
    targets = np.array([ids[i] for i in masked], dtype=int)
    emb = params.embeddings
    context = emb[unmasked_ids].mean(axis=0) if unmasked_ids else np.zeros(emb.shape[1])
    logits = emb @ context
    top = logits.max()
    exp = np.exp(logits - top)
    loss = float(math.log(exp.sum()) + top - logits[targets].mean())
    dlogits = exp / exp.sum() - np.bincount(targets, minlength=len(emb)) / m_count
    grads["embeddings"] += weight * np.outer(dlogits, context)
    if unmasked_ids:
        dcontext = emb.T @ dlogits
        np.add.at(grads["embeddings"], unmasked_ids, weight * dcontext / len(unmasked_ids))
    return loss


def oracle_loss_and_grads(params, batch, *, mlm_weight: float, mask_rate: float, seed: int):
    """`trainer.total_loss_and_grads` with a mean, a head pass and a scatter per candidate."""
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    total = 0.0
    for orientation in ("option", "context"):
        subset = [inst for inst in batch if inst.orientation == orientation]
        for inst in subset:
            total += _instance_cl(params, inst, grads, 1.0 / len(subset)) / len(subset)
    if mlm_weight != 0.0:
        weight = mlm_weight / len(batch)
        rng = derive_rng(seed, "mlm")
        for inst in batch:
            total += weight * _instance_mlm(params, inst.query, mask_rate, rng, grads, weight)
    return total, grads
