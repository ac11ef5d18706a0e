"""Desk-scale trainable scorer and the contrastive training objectives.

The scorer is the smallest model that exercises every objective: a learned
token embedding table, mean pooling over the separator-joined pair text,
and a two-layer tanh head producing a scalar score. All losses share one
softmax cross-entropy core

    loss = -log( exp(s_pos) / (exp(s_pos) + sum_j exp(s_neg_j)) )

computed with max subtraction. Option-oriented instances score
(context, candidate answer) pairs, context-oriented instances score
(answer, candidate context) pairs, and the multiple-choice loss scores
(passage + question, option) pairs. A masked-token auxiliary predicts
held-out tokens from the mean of the remaining embeddings through the
embedding-tied softmax.

Every loss and the evaluation run on one minibatch layout: all candidate
pairs and masked-token contexts of a batch are segments of one flat id
array, pooled by one matrix product, scored by one head pass and grouped
back into per-instance softmaxes with segment reductions.

Gradients are analytic throughout and verified against central
differences; everything is float64 and deterministic under a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .emitter import ContrastiveInstance
from .jsonl import bounded, check_config, open_output
from .seeding import derive_rng

UNK_TOKEN = "[unk]"
SEP_TOKEN = "[sep]"
ARRAY_FIELDS = ("embeddings", "w1", "b1", "w2", "b2")


def tokenize(text: str) -> list[str]:
    return text.lower().split()


def build_vocab(texts: Iterable[str]) -> dict[str, int]:
    """Lowercased whitespace vocabulary with reserved unknown and separator."""
    seen: set[str] = set()
    for text in texts:
        seen.update(tokenize(text))
    seen.discard(UNK_TOKEN)
    seen.discard(SEP_TOKEN)
    vocab = {UNK_TOKEN: 0, SEP_TOKEN: 1}
    for token in sorted(seen):
        vocab[token] = len(vocab)
    return vocab


@dataclass
class ScorerParams:
    """The scorer's vocabulary and its five arrays.

    The arrays are views of one flat float64 buffer, `flat`, laid out in
    ARRAY_FIELDS order: construction copies the given arrays into it, so an
    SGD step updates every parameter with one in-place array operation.
    """

    vocab: dict[str, int]
    embeddings: np.ndarray  # (V, d)
    w1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h,)
    b2: np.ndarray  # (1,)
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        arrays = self.arrays()
        self.flat = np.concatenate([a.ravel() for a in arrays.values()], dtype=np.float64)
        for name, view in _views(self.flat, arrays).items():
            setattr(self, name, view)

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    @property
    def hidden(self) -> int:
        return self.w1.shape[1]

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in ARRAY_FIELDS}

    def validate(self) -> None:
        v, d = self.embeddings.shape
        if v != len(self.vocab):
            raise ValueError("embedding rows do not match vocabulary size")
        if self.w1.shape != (d, self.w2.shape[0]) or self.b1.shape != self.w2.shape:
            raise ValueError("head dimensions are inconsistent")
        if self.b2.shape != (1,):
            raise ValueError("output bias must have shape (1,)")
        for name, arr in self.arrays().items():
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")


def init_params(vocab: dict[str, int], dim: int, hidden: int, seed: int) -> ScorerParams:
    rng = np.random.default_rng(seed)
    params = zero_params(vocab, dim, hidden)
    params.embeddings[:] = rng.normal(0.0, 0.1, (len(vocab), dim))
    params.w1[:] = rng.normal(0.0, 1.0 / math.sqrt(dim), (dim, hidden))
    params.w2[:] = rng.normal(0.0, 1.0 / math.sqrt(hidden), hidden)
    return params


def zero_params(vocab: dict[str, int], dim: int, hidden: int) -> ScorerParams:
    return ScorerParams(
        vocab=dict(vocab),
        embeddings=np.zeros((len(vocab), dim)),
        w1=np.zeros((dim, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros(hidden),
        b2=np.zeros(1),
    )


def _views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """`flat` cut into consecutive views shaped like `like`, in ARRAY_FIELDS order."""
    out = {}
    cursor = 0
    for name in ARRAY_FIELDS:
        size = like[name].size
        out[name] = flat[cursor : cursor + size].reshape(like[name].shape)
        cursor += size
    return out


def token_ids(params: ScorerParams, text: str) -> list[int]:
    unk = params.vocab[UNK_TOKEN]
    return [params.vocab.get(t, unk) for t in tokenize(text)]


# -- minibatch layout --
#
# Every token-id list of a minibatch (each candidate's "query [sep]
# candidate" pair and each masked-token context) is one segment of a flat
# id array. A dense (unique ids x segments) pooling matrix then yields all
# segment means in one product and scatters their gradients back in one
# more, so a minibatch costs the same few array operations however many
# candidates it holds.


class _Encoded(NamedTuple):
    """An instance as token ids: its query and every candidate's pair ids."""

    orientation: str
    gold: int
    query: np.ndarray  # ids of the query, the masked-token text
    pairs: np.ndarray  # "query [sep] candidate" ids of all candidates, concatenated
    lengths: np.ndarray  # pair length of each candidate


def _encode(
    params: ScorerParams, orientation: str, query: str, candidates: Sequence[str], gold: int
) -> _Encoded:
    if len(candidates) < 2:
        raise ValueError("candidate set must contain at least one negative")
    head = token_ids(params, query)
    prefix = head + [params.vocab[SEP_TOKEN]]
    pairs = [prefix + token_ids(params, cand) for cand in candidates]
    return _Encoded(
        orientation=orientation,
        gold=gold,
        query=np.array(head, dtype=np.intp),
        pairs=np.array([i for pair in pairs for i in pair], dtype=np.intp),
        lengths=np.array([len(pair) for pair in pairs], dtype=np.intp),
    )


def _encode_instance(params: ScorerParams, inst: ContrastiveInstance) -> _Encoded:
    return _encode(params, inst.orientation, inst.query, inst.candidates, inst.gold)


def _pool(params: ScorerParams, flat: np.ndarray, lengths: np.ndarray):
    """Unique ids, the (ids x segments) pooling matrix and every segment mean.

    Entry (u, s) is id u's share of segment s (its occurrences over the
    segment length), so `pool.T @ embeddings[ids]` holds the segment means
    and `pool @ dmeans` scatters their gradients back. An empty segment is
    a zero column, that is a zero mean.
    """
    n = lengths.size
    # The sorted distinct ids and each id's rank among them, read off a
    # presence mask over the vocabulary instead of a sort.
    present = np.zeros(params.embeddings.shape[0], dtype=bool)
    present[flat] = True
    ids = np.flatnonzero(present)
    inverse = (np.cumsum(present) - 1)[flat]
    share = np.repeat(1.0 / np.maximum(lengths, 1), lengths)
    column = np.repeat(np.arange(n), lengths)
    pool = np.bincount(inverse * n + column, weights=share, minlength=ids.size * n)
    # bincount of an empty input is int64, whatever its weights
    pool = pool.astype(np.float64, copy=False).reshape(ids.size, n)
    return ids, pool, pool.T @ params.embeddings[ids]


def _head_forward(params: ScorerParams, means: np.ndarray):
    hidden = np.tanh(means @ params.w1 + params.b1)
    scores = hidden @ params.w2 + params.b2[0]
    return scores, hidden


def _group_softmax(scores: np.ndarray, sizes: np.ndarray, golds: np.ndarray):
    """Per-group cross-entropy of the gold candidate and d(loss)/d(scores).

    Groups are consecutive runs of `sizes` scores; within each the loss is
    log(sum exp) - s_gold with max subtraction, and the gradient is
    softmax - onehot(gold).
    """
    starts = np.cumsum(sizes) - sizes
    top = np.maximum.reduceat(scores, starts)
    exp = np.exp(scores - np.repeat(top, sizes))
    norm = np.add.reduceat(exp, starts)
    gold_at = starts + golds
    losses = np.log(norm) + top - scores[gold_at]
    dscores = exp / np.repeat(norm, sizes)
    dscores[gold_at] -= 1.0
    return losses, dscores


def cl_loss(s_pos: float, s_negs: Sequence[float]) -> float:
    """Softmax cross-entropy of the positive against the negatives; >= 0."""
    if len(s_negs) == 0:
        raise ValueError("candidate set must contain at least one negative")
    scores = np.array([s_pos, *s_negs], dtype=float)
    losses, _ = _group_softmax(scores, np.array([scores.size]), np.array([0]))
    return float(losses[0])


class _Masked(NamedTuple):
    """Masked-token draws of a batch of texts, as segments."""

    kept: np.ndarray  # unmasked ids of all texts, concatenated
    kept_lengths: np.ndarray  # unmasked ids per text
    targets: np.ndarray  # masked ids of all texts, concatenated
    counts: np.ndarray  # masked ids per text


def _mask(texts: Sequence[np.ndarray], mask_rate: float, rng: random.Random) -> _Masked | None:
    """Mask min(n, ceil(mask_rate * n)) distinct positions of each text.

    Every text's positions are drawn from the one `rng`, text by text in
    order. None when the rate masks nothing.
    """
    if not 0.0 <= mask_rate <= 1.0:
        raise ValueError("mask_rate must lie in [0, 1]")
    sizes = [ids.size for ids in texts]
    if 0 in sizes:
        raise ValueError("cannot mask an empty text")
    if mask_rate == 0.0:
        return None
    positions: list[int] = []
    counts = []
    offset = 0
    for n in sizes:
        m = min(n, math.ceil(mask_rate * n))
        positions.extend(offset + k for k in rng.sample(range(n), m))
        counts.append(m)
        offset += n
    flat = np.concatenate(texts)
    keep = np.ones(flat.size, dtype=bool)
    keep[positions] = False
    counts = np.array(counts, dtype=np.intp)
    return _Masked(flat[keep], np.array(sizes) - counts, flat[positions], counts)


def _batch(
    params: ScorerParams,
    groups: Sequence[_Encoded],
    cl_weights: np.ndarray,
    masked: _Masked | None,
    mlm_weight: float,
    grads: dict[str, np.ndarray] | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Contrastive loss of each group and masked-token loss of each text.

    Candidate pairs and unmasked contexts share one layout, so the
    embedding table is gathered once and, when `grads` is given, scattered
    into once; each group's gradient is scaled by its `cl_weights` entry
    and each text's by `mlm_weight`. The masked tokens are predicted from
    their context mean through the embedding-tied softmax.
    """
    sizes = np.array([e.lengths.size for e in groups], dtype=np.intp)
    n_pairs = int(sizes.sum())
    segments = [e.pairs for e in groups]
    lengths = [e.lengths for e in groups]
    if masked is not None:
        segments.append(masked.kept)
        lengths.append(masked.kept_lengths)
    ids, pool, means = _pool(params, np.concatenate(segments), np.concatenate(lengths))
    pair_means, contexts = means[:n_pairs], means[n_pairs:]
    dmeans = np.zeros_like(means)
    cl = mlm = np.zeros(0)
    if groups:
        scores, hidden = _head_forward(params, pair_means)
        cl, dscores = _group_softmax(scores, sizes, np.array([e.gold for e in groups]))
        if grads is not None:
            dscores *= np.repeat(cl_weights, sizes)
            dhidden = np.outer(dscores, params.w2) * (1.0 - hidden * hidden)
            grads["w2"] += hidden.T @ dscores
            grads["b2"][0] += dscores.sum()
            grads["w1"] += pair_means.T @ dhidden
            grads["b1"] += dhidden.sum(axis=0)
            dmeans[:n_pairs] = dhidden @ params.w1.T
    if masked is not None:
        emb = params.embeddings
        texts, vocab_size = masked.counts.size, emb.shape[0]
        rows = np.repeat(np.arange(texts), masked.counts)
        target_share = np.bincount(
            rows * vocab_size + masked.targets,
            weights=np.repeat(1.0 / masked.counts, masked.counts),
            minlength=texts * vocab_size,
        ).reshape(texts, vocab_size)
        logits = contexts @ emb.T
        top = logits.max(axis=1, keepdims=True)
        exp = np.exp(logits - top)
        norm = exp.sum(axis=1, keepdims=True)
        mlm = (np.log(norm) + top)[:, 0] - (target_share * logits).sum(axis=1)
        if grads is not None:
            dlogits = mlm_weight * (exp / norm - target_share)
            # logits = E @ context: output side plus the context's own dependence on E
            grads["embeddings"] += dlogits.T @ contexts
            dmeans[n_pairs:] = dlogits @ emb
    if grads is not None:
        grads["embeddings"][ids] += pool @ dmeans
    return cl, mlm


def _require_orientation(inst: ContrastiveInstance, orientation: str) -> None:
    if inst.orientation != orientation:
        raise ValueError(f"expected {orientation} instance, got {inst.orientation}")


def ocl_loss(params: ScorerParams, inst: ContrastiveInstance) -> float:
    """Option-oriented loss: the context queries, answers are candidates."""
    _require_orientation(inst, "option")
    return total_loss(params, [inst], mlm_weight=0.0)


def ccl_loss(params: ScorerParams, inst: ContrastiveInstance) -> float:
    """Context-oriented loss: the answer queries, contexts are candidates."""
    _require_orientation(inst, "context")
    return total_loss(params, [inst], mlm_weight=0.0)


def mlm_loss(params: ScorerParams, text: str, mask_rate: float, rng: random.Random) -> float:
    """Mean cross-entropy of masked tokens under the embedding-tied softmax."""
    masked = _mask([np.array(token_ids(params, text), dtype=np.intp)], mask_rate, rng)
    if masked is None:
        return 0.0
    _, mlm = _batch(params, [], np.zeros(0), masked, 1.0, None)
    return float(mlm[0])


def total_loss(
    params: ScorerParams,
    batch: Sequence[ContrastiveInstance],
    *,
    mlm_weight: float = 1.0,
    mask_rate: float = 0.15,
    seed: int = 0,
) -> float:
    encoded = [_encode_instance(params, inst) for inst in batch]
    return _total(params, encoded, None, mlm_weight=mlm_weight, mask_rate=mask_rate, seed=seed)


def total_loss_and_grads(
    params: ScorerParams,
    batch: Sequence[ContrastiveInstance],
    *,
    mlm_weight: float = 1.0,
    mask_rate: float = 0.15,
    seed: int = 0,
) -> tuple[float, dict[str, np.ndarray]]:
    grads = _views(np.zeros_like(params.flat), params.arrays())
    encoded = [_encode_instance(params, inst) for inst in batch]
    loss = _total(params, encoded, grads, mlm_weight=mlm_weight, mask_rate=mask_rate, seed=seed)
    return loss, grads


def _total(
    params: ScorerParams,
    batch: Sequence[_Encoded],
    grads: dict[str, np.ndarray] | None,
    *,
    mlm_weight: float,
    mask_rate: float,
    seed: int,
) -> float:
    """Combined loss of one batch: the sum of its orientation means plus the
    weighted mean of its masked-token losses.

    An orientation term is skipped when the batch holds none of its
    instances, the masked-token term when `mlm_weight` is 0. Every mask
    pattern is drawn, in batch order, from one generator derived from
    `seed`, so repeated evaluation of the same batch at the same seed is
    exact, which the gradient checks rely on.
    """
    if not batch:
        raise ValueError("empty batch")
    option = np.array([e.orientation == "option" for e in batch])
    weights = _weights(option, np.array([len(batch)]))
    masked = None
    if mlm_weight != 0.0:
        masked = _mask([e.query for e in batch], mask_rate, derive_rng(seed, "mlm"))
    cl, mlm = _batch(params, batch, weights, masked, mlm_weight / len(batch), grads)
    loss = float(cl @ weights)
    if mlm.size:
        loss += mlm_weight * float(mlm.mean())
    return loss


def _weights(option: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Each instance's contrastive weight: one over the number of instances
    of its orientation in its batch.

    Batches are runs of `sizes` consecutive instances, so a batch's
    orientation means sum to `cl @ weights` over its instances.
    """
    group = 2 * np.repeat(np.arange(sizes.size), sizes) + ~option
    counts = np.bincount(group, minlength=2 * sizes.size)
    return 1.0 / counts[group]


def _split_mask(masked: _Masked, sizes: np.ndarray) -> Iterator[_Masked]:
    """`masked` cut into the draws of runs of `sizes` consecutive texts, run by run."""
    text_at = np.concatenate(([0], np.cumsum(sizes)))
    kept_at = np.concatenate(([0], np.cumsum(masked.kept_lengths)))[text_at]
    target_at = np.concatenate(([0], np.cumsum(masked.counts)))[text_at]
    for b in range(sizes.size):
        texts = slice(text_at[b], text_at[b + 1])
        yield _Masked(
            masked.kept[kept_at[b] : kept_at[b + 1]],
            masked.kept_lengths[texts],
            masked.targets[target_at[b] : target_at[b + 1]],
            masked.counts[texts],
        )


@dataclass(frozen=True)
class MCQAExample:
    passage: str
    question: str
    options: tuple[str, ...]
    gold: int

    def __post_init__(self):
        if not 0 <= self.gold < len(self.options):
            raise ValueError(f"gold index {self.gold} outside {len(self.options)} options")


def mcqa_loss(params: ScorerParams, ex: MCQAExample) -> float:
    """Multiple-choice loss: softmax over score(passage + question, option)."""
    query = f"{ex.passage} {SEP_TOKEN} {ex.question}"
    encoded = _encode(params, "option", query, ex.options, ex.gold)
    return _total(params, [encoded], None, mlm_weight=0.0, mask_rate=0.0, seed=0)


# -- gradient verification --


def grad_check_flat(
    value_fn: Callable[[np.ndarray], float],
    x0: np.ndarray,
    analytic: np.ndarray,
    *,
    h: float = 1e-5,
    n_coords: int = 200,
    rng: random.Random | None = None,
) -> float:
    """Max relative error of `analytic` vs central differences of `value_fn`.

    Coordinates where both sides are below 1e-5 in magnitude are compared
    absolutely (a zero gradient measured against finite-difference noise
    is not a relative-error failure). `value_fn` sees one working copy of
    `x0`, bumped at one coordinate at a time; `x0` is never written.
    """
    rng = rng or random.Random(0)
    size = x0.size
    coords = list(range(size)) if size <= n_coords else sorted(rng.sample(range(size), n_coords))
    worst = 0.0
    x = x0.copy()
    for i in coords:
        saved = x[i]
        x[i] += h
        up = value_fn(x)
        x[i] -= 2 * h
        down = value_fn(x)
        x[i] = saved
        numeric = (up - down) / (2 * h)
        a = float(analytic[i])
        denom = max(abs(a), abs(numeric))
        err = abs(a - numeric) if denom < 1e-5 else abs(a - numeric) / denom
        worst = max(worst, err)
    return worst


def grad_check(
    producer: Callable[[ScorerParams], tuple[float, dict[str, np.ndarray]]],
    params: ScorerParams,
    *,
    h: float = 1e-5,
    n_coords: int = 200,
    seed: int = 0,
) -> float:
    """Check a (loss, grads) producer over sampled parameter coordinates.

    The producer runs on one private copy of `params`, whose `flat` takes
    each bumped vector in place; `params` itself is never written.
    """
    work = ScorerParams(vocab=params.vocab, **params.arrays())
    _, grads = producer(work)
    analytic = np.concatenate([grads[name].ravel() for name in ARRAY_FIELDS])

    def value_fn(vec: np.ndarray) -> float:
        work.flat[:] = vec
        return producer(work)[0]

    return grad_check_flat(
        value_fn, work.flat, analytic, h=h, n_coords=n_coords, rng=random.Random(seed)
    )


# -- training loop --


@dataclass
class TrainConfig:
    learning_rate: float = bounded(0.1, low=0.0)
    epochs: int = bounded(200, low=0)
    batch_size: int = bounded(8, low=1)
    seed: int = 0
    mlm_weight: float = bounded(1.0, low=0.0)
    mask_rate: float = bounded(0.15, low=0.0, high=1.0)
    dim: int = bounded(32, low=1)
    hidden: int = bounded(64, low=1)

    def __post_init__(self):
        check_config(self, "train")


EVAL_CHUNK = 32  # instances per evaluation layout; bounds its pooling matrix


def _hits(params: ScorerParams, chunk: Sequence[_Encoded]) -> int:
    """How many instances of `chunk` rank their gold candidate first.

    Ties go to the lowest candidate index, as with np.argmax.
    """
    sizes = np.array([e.lengths.size for e in chunk], dtype=np.intp)
    _, _, means = _pool(
        params,
        np.concatenate([e.pairs for e in chunk]),
        np.concatenate([e.lengths for e in chunk]),
    )
    scores, _ = _head_forward(params, means)
    starts = np.cumsum(sizes) - sizes
    best = np.repeat(np.maximum.reduceat(scores, starts), sizes)
    local = np.arange(scores.size) - np.repeat(starts, sizes)
    first = np.minimum.reduceat(np.where(scores == best, local, scores.size), starts)
    return int(np.count_nonzero(first == np.array([e.gold for e in chunk])))


def _chunks(items: Sequence, size: int):
    return (items[start : start + size] for start in range(0, len(items), size))


def evaluate(params: ScorerParams, instances: Sequence[ContrastiveInstance]) -> float:
    """Fraction of instances whose best-scoring candidate is the gold one."""
    if not instances:
        raise ValueError("nothing to evaluate")
    hits = sum(
        _hits(params, [_encode_instance(params, inst) for inst in chunk])
        for chunk in _chunks(instances, EVAL_CHUNK)
    )
    return hits / len(instances)


def train(
    instances: Sequence[ContrastiveInstance], cfg: TrainConfig
) -> tuple[ScorerParams, list[dict]]:
    """Plain SGD over the combined loss; returns params and per-epoch metrics.

    Each epoch shuffles the instances and steps through them in batches of
    `cfg.batch_size`. The epoch's masks are drawn before its first step, in
    the shuffled order, from one generator derived from (`cfg.seed`,
    "mlm", epoch); each step takes its batch's slice of that draw. Steps
    record each instance's losses, and the epoch's loss, the batches'
    combined losses weighted by their sizes, is taken from them after its
    last step.

    Each metrics row holds the epoch's mean loss, the train-set accuracy
    after the epoch, the epoch means of the three objective terms over the
    instances they cover (`ocl`, `ccl`, `mlm`; None when a term is absent)
    and the mean L2 norm of the step gradients (`grad_norm`).
    """
    if not instances:
        raise ValueError("no training data")
    texts: list[str] = []
    for inst in instances:
        texts.append(inst.query)
        texts.extend(inst.candidates)
    vocab = build_vocab(texts)
    params = init_params(vocab, cfg.dim, cfg.hidden, cfg.seed)
    gflat = np.zeros_like(params.flat)
    grads = _views(gflat, params.arrays())

    # Tokenization is vocabulary-dependent but parameter-independent, so
    # instances are encoded once for the whole run.
    encoded = [_encode_instance(params, inst) for inst in instances]
    option = np.array([e.orientation == "option" for e in encoded])
    n = len(encoded)
    n_option = int(option.sum())
    starts = range(0, n, cfg.batch_size)
    sizes = np.diff([*starts, n])
    metrics: list[dict] = []
    for epoch in range(cfg.epochs):
        order = list(range(n))
        derive_rng(cfg.seed, "order", epoch).shuffle(order)
        # Everything that does not read the parameters is settled for the
        # whole epoch before its first step: orientation weights and masks.
        picked = option[order]
        weights = _weights(picked, sizes)
        masked = None
        if cfg.mlm_weight != 0.0:
            masked = _mask(
                [encoded[i].query for i in order], cfg.mask_rate, derive_rng(cfg.seed, "mlm", epoch)
            )
        masks = [None] * sizes.size if masked is None else _split_mask(masked, sizes)
        # Each instance's contrastive and masked-token loss, in epoch order.
        cl = np.empty(n)
        mlm = np.empty(0 if masked is None else n)
        grad_norm = 0.0
        for start, size, batch_masks in zip(starts, sizes, masks):
            stop = start + size
            gflat.fill(0.0)
            cl[start:stop], mlm[start:stop] = _batch(
                params,
                [encoded[i] for i in order[start:stop]],
                weights[start:stop],
                batch_masks,
                cfg.mlm_weight / size,
                grads,
            )
            params.flat -= cfg.learning_rate * gflat
            grad_norm += math.sqrt(float(gflat @ gflat))
        loss = cl @ (weights * np.repeat(sizes, sizes)) + cfg.mlm_weight * mlm.sum()
        hits = sum(_hits(params, chunk) for chunk in _chunks(encoded, EVAL_CHUNK))
        metrics.append(
            {
                "epoch": epoch,
                "loss": float(loss) / n,
                "accuracy": hits / n,
                "ocl": float(cl[picked].sum()) / n_option if n_option else None,
                "ccl": float(cl[~picked].sum()) / (n - n_option) if n_option < n else None,
                "mlm": float(mlm.sum()) / n if cfg.mlm_weight != 0.0 else None,
                "grad_norm": grad_norm / sizes.size,
            }
        )
    return params, metrics


# -- parameter persistence --

FORMAT_TAG = "pathcl-scorer v1"


def save_params(params: ScorerParams, path) -> None:
    """Versioned text dump: dims, vocabulary, then row-major array values.

    A failed save keeps any earlier file at `path` (`open_output`).
    """
    params.validate()
    inverse = sorted(params.vocab.items(), key=lambda kv: kv[1])
    with open_output(path) as fp:
        fp.write(FORMAT_TAG + "\n")
        fp.write(f"dims {params.dim} {params.hidden}\n")
        fp.write(f"vocab {len(inverse)}\n")
        for token, index in inverse:
            fp.write(f"{token}\t{index}\n")
        for name, arr in params.arrays().items():
            mat = arr.reshape(1, -1) if arr.ndim == 1 else arr
            fp.write(f"array {name} {mat.shape[0]} {mat.shape[1]}\n")
            for row in mat:
                fp.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def load_params(path) -> ScorerParams:
    """Inverse of save_params.

    A malformed or truncated file raises ValueError naming the 1-based line
    where parsing stopped.
    """
    with open(path, "r", encoding="utf-8") as fp:
        text = fp.read()
    lines = text.splitlines()
    pos = 0  # lines consumed; the line being parsed is lines[pos - 1]

    def take() -> str:
        nonlocal pos
        pos += 1
        if pos > len(lines):
            raise ValueError("unexpected end of file")
        return lines[pos - 1]

    def header(tag: str, n: int) -> list[str]:
        parts = take().split()
        if len(parts) != n + 1 or parts[0] != tag:
            raise ValueError(f"expected {tag!r} followed by {n} fields")
        return parts[1:]

    try:
        if take() != FORMAT_TAG:
            raise ValueError(f"not a {FORMAT_TAG!r} file")
        dim, hidden = map(int, header("dims", 2))
        vocab_size = int(header("vocab", 1)[0])
        vocab: dict[str, int] = {}
        taken: set[int] = set()
        for _ in range(vocab_size):
            token, index = take().split("\t")
            index = int(index)
            if not 0 <= index < vocab_size:
                raise ValueError(f"vocab index {index} outside 0..{vocab_size - 1}")
            if index in taken:
                raise ValueError(f"vocab index {index} given twice")
            if token in vocab:
                raise ValueError(f"vocab token {token!r} given twice")
            taken.add(index)
            vocab[token] = index
        for token in (UNK_TOKEN, SEP_TOKEN):
            if token not in vocab:
                raise ValueError(f"vocab lacks the reserved token {token!r}")
        arrays: dict[str, np.ndarray] = {}
        while pos < len(lines):
            name, rows, cols = header("array", 3)
            if name not in ARRAY_FIELDS:
                raise ValueError(f"unknown array {name!r}")
            if name in arrays:
                raise ValueError(f"array {name!r} given twice")
            rows, cols = int(rows), int(cols)
            block = [[float(v) for v in take().split()] for _ in range(rows)]
            if any(len(row) != cols for row in block):
                raise ValueError(f"array {name}: expected {cols} values per row")
            arrays[name] = np.array(block).reshape(rows, cols)
        if not text.endswith("\n"):
            raise ValueError("last line is cut off")
        missing = [name for name in ARRAY_FIELDS if name not in arrays]
        if missing:
            raise ValueError(f"missing array {missing[0]!r}")
        params = ScorerParams(
            vocab=vocab,
            embeddings=arrays["embeddings"],
            w1=arrays["w1"],
            b1=arrays["b1"].ravel(),
            w2=arrays["w2"].ravel(),
            b2=arrays["b2"].ravel(),
        )
        if params.dim != dim or params.hidden != hidden:
            raise ValueError("header dims do not match array shapes")
        params.validate()
    except ValueError as exc:
        raise ValueError(f"line {pos}: {exc}") from exc
    return params
