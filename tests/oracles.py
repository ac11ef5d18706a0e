"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's search and rewrite code paths:
the path oracle builds its own adjacency from the graph's two edge maps
and enumerates every simple path and every per-hop sentence assignment;
the consistency scanner re-derives entity occurrences from surfaces
instead of trusting recorded spans; the span diff checks an edit from
the original text's fixed fragments alone; the trainer oracle scores
one candidate and masks one text at a time with the scorer's plain
formulas, where the library batches them, and trains with them step by
step, drawing each epoch's masks as it goes, where the library draws them
before the epoch's first step; the pooling reference finds a batch's
distinct ids by sorting, where the library marks them in a vocabulary
mask; the batch interleaver queues every instance before writing any,
where the library streams them; the ordered-pair extractor runs the
library's search on every co-mentioned pair in both orders, where the
library visits each unordered pair once; the field-by-field corpus reader
reads every value through `require` and builds every field path, where
the library checks exact types inline in one walk; the per-sentence scans
(mentions, named entities, donors, answer sentences of a pair) walk a
document's mentions again for each question, where the library's sentence
table groups them in one pass and answers every one from it.
"""

from __future__ import annotations

import itertools
import math
import re
import sys
from collections import deque
from typing import IO, Iterable, Iterator

import numpy as np

from pathcl.corpus import Document, Entity, Mention, RelationTriple
from pathcl.emitter import ContrastiveInstance, instance_to_record
from pathcl.graph import EntityGraph, pair_key
from pathcl.jsonl import RecordError, require, write_records
from pathcl.metapath import ExtractorConfig, PositiveInstance, dfs_metapath
from pathcl.seeding import derive_rng
from pathcl.spans import MentionSpan
from pathcl.trainer import SEP_TOKEN, build_vocab, init_params, token_ids


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
            PositiveInstance(doc.id, (a, b), meta, tuple(sorted(context)), ans)
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


def oracle_batch(params, batch, *, mlm_weight: float, mask_rate: float, rng):
    """Loss and grads of one batch, plus each instance's contrastive and
    masked-token loss (the latter empty when the term is off); every text's
    mask is drawn from `rng`, text by text in batch order."""
    grads = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
    cl = [0.0] * len(batch)
    total = 0.0
    for orientation in ("option", "context"):
        subset = [k for k, inst in enumerate(batch) if inst.orientation == orientation]
        for k in subset:
            cl[k] = _instance_cl(params, batch[k], grads, 1.0 / len(subset))
            total += cl[k] / len(subset)
    mlm = []
    if mlm_weight != 0.0:
        weight = mlm_weight / len(batch)
        for inst in batch:
            mlm.append(_instance_mlm(params, inst.query, mask_rate, rng, grads, weight))
            total += weight * mlm[-1]
    return total, grads, cl, mlm


def oracle_loss_and_grads(params, batch, *, mlm_weight: float, mask_rate: float, seed: int):
    """`trainer.total_loss_and_grads` with a mean, a head pass and a scatter per candidate."""
    total, grads, _, _ = oracle_batch(
        params, batch, mlm_weight=mlm_weight, mask_rate=mask_rate, rng=derive_rng(seed, "mlm")
    )
    return total, grads


def unique_pool(params, flat: np.ndarray, lengths: np.ndarray):
    """`trainer._pool` by sorting: np.unique's ids, and the pooling matrix
    filled one occurrence at a time."""
    ids, inverse = np.unique(flat, return_inverse=True)
    pool = np.zeros((ids.size, lengths.size))
    for u, s in zip(inverse, np.repeat(np.arange(lengths.size), lengths)):
        pool[u, s] += 1.0 / lengths[s]
    return ids, pool, pool.T @ params.embeddings[ids]


def oracle_train(instances, cfg):
    """`trainer.train` as a plain SGD loop over `oracle_batch`: each epoch
    shuffles, draws its masks from one generator across its batches, and
    steps batch by batch."""
    texts = [text for inst in instances for text in (inst.query, *inst.candidates)]
    params = init_params(build_vocab(texts), cfg.dim, cfg.hidden, cfg.seed)
    n = len(instances)
    metrics = []
    for epoch in range(cfg.epochs):
        order = list(range(n))
        derive_rng(cfg.seed, "order", epoch).shuffle(order)
        rng = derive_rng(cfg.seed, "mlm", epoch)
        loss = grad_norm = 0.0
        cl = {"option": [], "context": []}
        mlm = []
        steps = range(0, n, cfg.batch_size)
        for start in steps:
            batch = [instances[i] for i in order[start : start + cfg.batch_size]]
            total, grads, batch_cl, batch_mlm = oracle_batch(
                params, batch, mlm_weight=cfg.mlm_weight, mask_rate=cfg.mask_rate, rng=rng
            )
            for name, grad in grads.items():
                getattr(params, name)[...] -= cfg.learning_rate * grad
            loss += total * len(batch)
            grad_norm += math.sqrt(sum(float((grad * grad).sum()) for grad in grads.values()))
            for inst, value in zip(batch, batch_cl):
                cl[inst.orientation].append(value)
            mlm.extend(batch_mlm)
        hits = sum(
            int(np.argmax([score_pair(params, inst.query, c) for c in inst.candidates])) == inst.gold
            for inst in instances
        )
        metrics.append(
            {
                "epoch": epoch,
                "loss": loss / n,
                "accuracy": hits / n,
                "ocl": sum(cl["option"]) / len(cl["option"]) if cl["option"] else None,
                "ccl": sum(cl["context"]) / len(cl["context"]) if cl["context"] else None,
                "mlm": sum(mlm) / n if cfg.mlm_weight != 0.0 else None,
                "grad_norm": grad_norm / len(steps),
            }
        )
    return params, metrics


# -- corpus records --
#
# The corpus reader as it read before it checked types inline: every value
# through `require`, every field path built, kept verbatim as the reference
# for `corpus.parse_record`'s documents and errors.

_ROW_SEPARATOR = re.compile("[\t\n\r]")
_ENTITY_ID_SEPARATOR = re.compile("[|\t\n\r]")


def _separator_problem(what: str, text: str, separator: re.Pattern) -> str | None:
    held = separator.search(text)
    if held is None:
        return None
    return f"{what} {text!r} holds {held[0]!r}, a graph.tsv separator"


def _problems(doc: Document) -> list[tuple[str, str]]:
    problems: list[tuple[str, str]] = []
    n_sent = len(doc.sentences)

    if problem := _separator_problem("document id", doc.id, _ROW_SEPARATOR):
        problems.append(("id", problem))
    seen_ids: set[str] = set()
    by_sentence: dict[int, list[tuple[int, int, str]]] = {}
    for i, entity in enumerate(doc.entities):
        if entity.id in seen_ids:
            problems.append((f"entities[{i}].id", f"duplicate entity id {entity.id!r}"))
        seen_ids.add(entity.id)
        if problem := _separator_problem("entity id", entity.id, _ENTITY_ID_SEPARATOR):
            problems.append((f"entities[{i}].id", problem))
        if not entity.surface:
            problems.append((f"entities[{i}].name", f"entity {entity.id!r} has empty surface"))
        if not entity.mentions:
            problems.append((f"entities[{i}].mentions", f"entity {entity.id!r} has no mentions"))
        for j, m in enumerate(entity.mentions):
            where = f"entities[{i}].mentions[{j}]"
            if not 0 <= m.sent < n_sent:
                problems.append(
                    (where, f"entity {entity.id!r} mention sentence {m.sent} out of range")
                )
                continue
            length = len(doc.sentences[m.sent])
            if m.start < 0 or m.end > length or m.start >= m.end:
                problems.append((
                    where,
                    f"entity {entity.id!r} span [{m.start}, {m.end}) invalid "
                    f"for sentence {m.sent} of length {length}",
                ))
            else:
                by_sentence.setdefault(m.sent, []).append((m.start, m.end, entity.id))

    for k, spans in sorted(by_sentence.items()):
        spans.sort()
        for (s1, e1, id1), (s2, e2, id2) in zip(spans, spans[1:]):
            if s2 < e1:
                problems.append((
                    f"sentences[{k}]",
                    f"mention [{s1}, {e1}) of {id1!r} overlaps [{s2}, {e2}) of {id2!r}",
                ))

    for i, rel in enumerate(doc.relations):
        if problem := _separator_problem("relation type", rel.relation, _ROW_SEPARATOR):
            problems.append((f"relations[{i}].type", problem))
        if rel.head == rel.tail:
            problems.append((f"relations[{i}]", f"self-relation on entity {rel.head!r}"))
        for role, eid in (("head", rel.head), ("tail", rel.tail)):
            if eid not in seen_ids:
                problems.append((f"relations[{i}].{role}", f"unknown entity id {eid!r}"))

    return problems


def field_by_field_parse_record(obj: dict, line: int = 0) -> Document:
    doc_id = require(obj, "id", str, line)
    sentences = tuple(
        require(s, "text", str, line, f"sentences[{i}]")
        for i, s in enumerate(require(obj, "sentences", list, line))
    )
    entities = []
    for i, e in enumerate(require(obj, "entities", list, line)):
        at = f"entities[{i}]"
        mentions = []
        for j, m in enumerate(require(e, "mentions", list, line, at)):
            m_at = f"{at}.mentions[{j}]"
            mentions.append(
                Mention(
                    sent=require(m, "sent", int, line, m_at),
                    start=require(m, "start", int, line, m_at),
                    end=require(m, "end", int, line, m_at),
                )
            )
        entities.append(
            Entity(
                id=require(e, "id", str, line, at),
                surface=sys.intern(require(e, "name", str, line, at)),
                mentions=tuple(mentions),
            )
        )
    relations = []
    for i, r in enumerate(require(obj, "relations", list, line)):
        at = f"relations[{i}]"
        relations.append(
            RelationTriple(
                head=require(r, "head", str, line, at),
                tail=require(r, "tail", str, line, at),
                relation=sys.intern(require(r, "type", str, line, at)),
            )
        )

    doc = Document(
        id=doc_id,
        sentences=sentences,
        entities=tuple(entities),
        relations=tuple(relations),
    )
    problems = _problems(doc)
    if problems:
        message = "; ".join(f"{where}: {problem}" for where, problem in problems)
        raise RecordError(line, message, problems[0][0])
    return doc


def mentions_in_sentence(doc: Document, k: int) -> tuple[MentionSpan, ...]:
    """All mention spans in sentence k as (entity id, start, end), sorted by start."""
    spans = [(e.id, m.start, m.end) for e in doc.entities for m in e.mentions if m.sent == k]
    return tuple(sorted(spans, key=lambda t: (t[1], t[2])))


def sentence_entities(doc: Document, k: int) -> frozenset[str]:
    """Ids of entities with at least one mention in sentence k."""
    if not 0 <= k < len(doc.sentences):
        raise IndexError(f"sentence index {k} out of range for document {doc.id!r}")
    return frozenset(e.id for e in doc.entities if any(m.sent == k for m in e.mentions))


def donor_sentences(doc: Document) -> list[int]:
    """Indices of the sentences usable as donors: those naming >=2 distinct entities.

    Counted straight from the mentions: entity ids are unique within a
    document.
    """
    named = [0] * len(doc.sentences)
    for entity in doc.entities:
        for k in {m.sent for m in entity.mentions}:
            named[k] += 1
    return [k for k, n in enumerate(named) if n >= 2]


def collect_answer_candidates(doc: Document, pair: tuple[str, str]) -> frozenset[int]:
    """Sentences mentioning both entities of the pair."""
    mentioned = {e.id: {m.sent for m in e.mentions} for e in doc.entities if e.id in pair}
    for eid in pair:
        if eid not in mentioned:
            raise KeyError(f"entity {eid!r} not in document {doc.id!r}")
    a, b = pair
    return frozenset(mentioned[a] & mentioned[b])
