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

Gradients are analytic throughout and verified against central
differences; everything is float64 and deterministic under a fixed seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .emitter import ContrastiveInstance
from .seeding import derive_rng, derive_seed

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
    vocab: dict[str, int]
    embeddings: np.ndarray  # (V, d)
    w1: np.ndarray  # (d, h)
    b1: np.ndarray  # (h,)
    w2: np.ndarray  # (h,)
    b2: np.ndarray  # (1,)

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
    return ScorerParams(
        vocab=dict(vocab),
        embeddings=rng.normal(0.0, 0.1, (len(vocab), dim)),
        w1=rng.normal(0.0, 1.0 / math.sqrt(dim), (dim, hidden)),
        b1=np.zeros(hidden),
        w2=rng.normal(0.0, 1.0 / math.sqrt(hidden), hidden),
        b2=np.zeros(1),
    )


def zero_params(vocab: dict[str, int], dim: int, hidden: int) -> ScorerParams:
    return ScorerParams(
        vocab=dict(vocab),
        embeddings=np.zeros((len(vocab), dim)),
        w1=np.zeros((dim, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros(hidden),
        b2=np.zeros(1),
    )


def zero_grads(params: ScorerParams) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in params.arrays().items()}


def pack(arrays: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([arrays[name].ravel() for name in ARRAY_FIELDS])


def unpack_params(template: ScorerParams, vec: np.ndarray) -> ScorerParams:
    out = {}
    cursor = 0
    for name, arr in template.arrays().items():
        out[name] = vec[cursor : cursor + arr.size].reshape(arr.shape).copy()
        cursor += arr.size
    return ScorerParams(vocab=template.vocab, **out)


def token_ids(params: ScorerParams, text: str) -> list[int]:
    unk = params.vocab[UNK_TOKEN]
    return [params.vocab.get(t, unk) for t in tokenize(text)]


def pair_ids(params: ScorerParams, a: str, b: str) -> list[int]:
    return token_ids(params, a) + [params.vocab[SEP_TOKEN]] + token_ids(params, b)


def _candidate_means(params: ScorerParams, id_lists: Sequence[list[int]]) -> np.ndarray:
    return np.stack([params.embeddings[ids].mean(axis=0) for ids in id_lists])


def _head_forward(params: ScorerParams, means: np.ndarray):
    hidden = np.tanh(means @ params.w1 + params.b1)
    scores = hidden @ params.w2 + params.b2[0]
    return scores, hidden


def _head_backward(
    params: ScorerParams,
    id_lists: Sequence[list[int]],
    means: np.ndarray,
    hidden: np.ndarray,
    dscores: np.ndarray,
    grads: dict[str, np.ndarray],
) -> None:
    dhidden = np.outer(dscores, params.w2) * (1.0 - hidden * hidden)
    grads["w2"] += hidden.T @ dscores
    grads["b2"][0] += dscores.sum()
    grads["w1"] += means.T @ dhidden
    grads["b1"] += dhidden.sum(axis=0)
    dmeans = dhidden @ params.w1.T
    for row, ids in zip(dmeans, id_lists):
        np.add.at(grads["embeddings"], ids, row / len(ids))


def score_pair(params: ScorerParams, a: str, b: str) -> float:
    """Scalar compatibility of the pair: mean-pooled "a [sep] b" through the head."""
    means = _candidate_means(params, [pair_ids(params, a, b)])
    scores, _ = _head_forward(params, means)
    return float(scores[0])


def cl_loss(s_pos: float, s_negs: Sequence[float]) -> float:
    """Softmax cross-entropy of the positive against the negatives; >= 0."""
    if len(s_negs) == 0:
        raise ValueError("candidate set must contain at least one negative")
    scores = np.array([s_pos, *s_negs], dtype=float)
    top = scores.max()
    lse = top + math.log(np.exp(scores - top).sum())
    return float(lse - s_pos)


def softmax_grad(scores: np.ndarray, gold: int) -> tuple[float, np.ndarray]:
    """Loss and d(loss)/d(scores) = softmax - onehot(gold)."""
    top = scores.max()
    exp = np.exp(scores - top)
    probs = exp / exp.sum()
    loss = float(math.log(exp.sum()) + top - scores[gold])
    dscores = probs.copy()
    dscores[gold] -= 1.0
    return loss, dscores


def _require_orientation(inst: ContrastiveInstance, orientation: str) -> None:
    if inst.orientation != orientation:
        raise ValueError(f"expected {orientation} instance, got {inst.orientation}")


def _instance_id_lists(params: ScorerParams, inst: ContrastiveInstance) -> list[list[int]]:
    if len(inst.candidates) < 2:
        raise ValueError("candidate set must contain at least one negative")
    return [pair_ids(params, inst.query, cand) for cand in inst.candidates]


def _instance_cl(
    params: ScorerParams,
    inst: ContrastiveInstance,
    grads: dict[str, np.ndarray] | None = None,
    weight: float = 1.0,
    id_lists: list[list[int]] | None = None,
) -> float:
    if id_lists is None:
        id_lists = _instance_id_lists(params, inst)
    means = _candidate_means(params, id_lists)
    scores, hidden = _head_forward(params, means)
    loss, dscores = softmax_grad(scores, inst.gold)
    if grads is not None:
        _head_backward(params, id_lists, means, hidden, weight * dscores, grads)
    return loss


def ocl_loss(params: ScorerParams, inst: ContrastiveInstance) -> float:
    """Option-oriented loss: the context queries, answers are candidates."""
    _require_orientation(inst, "option")
    return _instance_cl(params, inst)


def ccl_loss(params: ScorerParams, inst: ContrastiveInstance) -> float:
    """Context-oriented loss: the answer queries, contexts are candidates."""
    _require_orientation(inst, "context")
    return _instance_cl(params, inst)


def mlm_loss(params: ScorerParams, text: str, mask_rate: float, rng: random.Random) -> float:
    """Mean cross-entropy of masked tokens under the embedding-tied softmax."""
    return _mlm(params, text, mask_rate, rng, None)


def _mlm(
    params: ScorerParams,
    text: str,
    mask_rate: float,
    rng: random.Random,
    grads: dict[str, np.ndarray] | None,
    weight: float = 1.0,
    ids: list[int] | None = None,
) -> float:
    if not 0.0 <= mask_rate <= 1.0:
        raise ValueError("mask_rate must lie in [0, 1]")
    if ids is None:
        ids = token_ids(params, text)
    if not ids:
        raise ValueError("cannot mask an empty text")
    if mask_rate == 0.0:
        return 0.0
    n = len(ids)
    m_count = min(n, math.ceil(mask_rate * n))
    masked = sorted(rng.sample(range(n), m_count))
    masked_set = set(masked)
    unmasked_ids = [ids[i] for i in range(n) if i not in masked_set]
    targets = np.array([ids[i] for i in masked], dtype=int)

    emb = params.embeddings
    context = (
        emb[unmasked_ids].mean(axis=0) if unmasked_ids else np.zeros(params.dim)
    )
    logits = emb @ context
    top = logits.max()
    exp = np.exp(logits - top)
    lse = math.log(exp.sum()) + top
    loss = float(lse - logits[targets].mean())

    if grads is not None:
        probs = exp / exp.sum()
        counts = np.bincount(targets, minlength=len(params.vocab))
        dlogits = probs - counts / m_count
        # logits = E @ context: output side plus the context's own dependence on E
        grads["embeddings"] += weight * np.outer(dlogits, context)
        if unmasked_ids:
            dcontext = emb.T @ dlogits
            np.add.at(
                grads["embeddings"],
                unmasked_ids,
                weight * dcontext / len(unmasked_ids),
            )
    return loss


def total_loss(
    params: ScorerParams,
    batch: Sequence[ContrastiveInstance],
    *,
    mlm_weight: float = 1.0,
    mask_rate: float = 0.15,
    seed: int = 0,
) -> float:
    return _total(params, batch, None, mlm_weight=mlm_weight, mask_rate=mask_rate, seed=seed)


def total_loss_and_grads(
    params: ScorerParams,
    batch: Sequence[ContrastiveInstance],
    *,
    mlm_weight: float = 1.0,
    mask_rate: float = 0.15,
    seed: int = 0,
) -> tuple[float, dict[str, np.ndarray]]:
    grads = zero_grads(params)
    loss = _total(params, batch, grads, mlm_weight=mlm_weight, mask_rate=mask_rate, seed=seed)
    return loss, grads


def _total(
    params: ScorerParams,
    batch: Sequence[ContrastiveInstance],
    grads: dict[str, np.ndarray] | None,
    *,
    mlm_weight: float,
    mask_rate: float,
    seed: int,
    compiled: Sequence[tuple[list[list[int]], list[int]]] | None = None,
) -> float:
    """Sum of the orientation means plus the weighted masked-token mean.

    Each orientation term is the mean over the instances of that
    orientation and is skipped when none are present. Mask patterns are
    derived from (seed, instance position), so repeated evaluation on the
    same batch is exact, which the gradient checks rely on. `compiled`
    optionally carries precomputed (candidate id lists, query ids) so the
    training loop does not re-tokenize every epoch.
    """
    if not batch:
        raise ValueError("empty batch")
    option = [i for i, inst in enumerate(batch) if inst.orientation == "option"]
    context = [i for i, inst in enumerate(batch) if inst.orientation == "context"]
    total = 0.0
    for subset in (option, context):
        if not subset:
            continue
        share = 1.0 / len(subset)
        value = 0.0
        for i in subset:
            id_lists = compiled[i][0] if compiled is not None else None
            value += _instance_cl(params, batch[i], grads, weight=share, id_lists=id_lists)
        total += value * share
    if mlm_weight != 0.0:
        share = 1.0 / len(batch)
        value = 0.0
        for i, inst in enumerate(batch):
            rng = derive_rng(seed, "mlm", i)
            ids = compiled[i][1] if compiled is not None else None
            value += _mlm(
                params, inst.query, mask_rate, rng, grads, weight=mlm_weight * share, ids=ids
            )
        total += mlm_weight * value * share
    return total


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
    id_lists = [pair_ids(params, query, option) for option in ex.options]
    if len(id_lists) < 2:
        raise ValueError("candidate set must contain at least one negative")
    means = _candidate_means(params, id_lists)
    scores, _ = _head_forward(params, means)
    loss, _ = softmax_grad(scores, ex.gold)
    return loss


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
    is not a relative-error failure).
    """
    rng = rng or random.Random(0)
    size = x0.size
    coords = list(range(size)) if size <= n_coords else sorted(rng.sample(range(size), n_coords))
    worst = 0.0
    for i in coords:
        bumped = x0.copy()
        bumped[i] += h
        up = value_fn(bumped)
        bumped[i] -= 2 * h
        down = value_fn(bumped)
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
    """Check a (loss, grads) producer over sampled parameter coordinates."""
    x0 = pack(params.arrays())
    _, grads = producer(params)
    analytic = pack(grads)

    def value_fn(vec: np.ndarray) -> float:
        return producer(unpack_params(params, vec))[0]

    return grad_check_flat(
        value_fn, x0, analytic, h=h, n_coords=n_coords, rng=random.Random(seed)
    )


# -- training loop --


@dataclass
class TrainConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    batch_size: int = 8
    seed: int = 0
    mlm_weight: float = 1.0
    mask_rate: float = 0.15
    dim: int = 32
    hidden: int = 64

    def __post_init__(self):
        if self.dim <= 0 or self.hidden <= 0:
            raise ValueError("dimensions must be positive")
        if not 0.0 <= self.mask_rate <= 1.0:
            raise ValueError("mask_rate must lie in [0, 1]")
        if self.epochs < 0 or self.batch_size <= 0:
            raise ValueError("bad epoch or batch size")


def _evaluate_compiled(
    params: ScorerParams,
    instances: Sequence[ContrastiveInstance],
    compiled: Sequence[list[list[int]]] | None = None,
) -> float:
    if not instances:
        raise ValueError("nothing to evaluate")
    hits = 0
    for i, inst in enumerate(instances):
        id_lists = (
            compiled[i] if compiled is not None else _instance_id_lists(params, inst)
        )
        scores, _ = _head_forward(params, _candidate_means(params, id_lists))
        hits += int(np.argmax(scores)) == inst.gold
    return hits / len(instances)


def evaluate(params: ScorerParams, instances: Sequence[ContrastiveInstance]) -> float:
    """Fraction of instances whose best-scoring candidate is the gold one."""
    return _evaluate_compiled(params, instances)


def train(
    instances: Sequence[ContrastiveInstance], cfg: TrainConfig
) -> tuple[ScorerParams, list[dict]]:
    """Plain SGD over the combined loss; returns params and per-epoch metrics."""
    if not instances:
        raise ValueError("no training data")
    texts: list[str] = []
    for inst in instances:
        texts.append(inst.query)
        texts.extend(inst.candidates)
    vocab = build_vocab(texts)
    params = init_params(vocab, cfg.dim, cfg.hidden, cfg.seed)

    # Tokenization is vocabulary-dependent but parameter-independent, so
    # id lists are compiled once for the whole run.
    compiled = [
        (_instance_id_lists(params, inst), token_ids(params, inst.query))
        for inst in instances
    ]

    n = len(instances)
    metrics: list[dict] = []
    for epoch in range(cfg.epochs):
        order = list(range(n))
        derive_rng(cfg.seed, "order", epoch).shuffle(order)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            chosen = order[start : start + cfg.batch_size]
            batch = [instances[i] for i in chosen]
            grads = zero_grads(params)
            loss = _total(
                params,
                batch,
                grads,
                mlm_weight=cfg.mlm_weight,
                mask_rate=cfg.mask_rate,
                seed=derive_seed(cfg.seed, "mlm", epoch, start),
                compiled=[compiled[i] for i in chosen],
            )
            for name, arr in params.arrays().items():
                arr -= cfg.learning_rate * grads[name]
            epoch_loss += loss * len(batch)
        metrics.append(
            {
                "epoch": epoch,
                "loss": epoch_loss / n,
                "accuracy": _evaluate_compiled(
                    params, instances, [c[0] for c in compiled]
                ),
            }
        )
    return params, metrics


# -- parameter persistence --

FORMAT_TAG = "pathcl-scorer v1"


def save_params(params: ScorerParams, path) -> None:
    """Versioned text dump: dims, vocabulary, then row-major array values."""
    params.validate()
    inverse = sorted(params.vocab.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fp:
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
        for _ in range(vocab_size):
            token, index = take().split("\t")
            vocab[token] = int(index)
        arrays: dict[str, np.ndarray] = {}
        while pos < len(lines):
            name, rows, cols = header("array", 3)
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
