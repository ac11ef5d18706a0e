import math
import random

import numpy as np
import pytest

from pathcl.emitter import ContrastiveInstance, InstanceMeta
from pathcl.trainer import (
    MCQAExample,
    TrainConfig,
    _pool,
    build_vocab,
    cl_loss,
    ccl_loss,
    evaluate,
    grad_check,
    grad_check_flat,
    init_params,
    load_params,
    mcqa_loss,
    mlm_loss,
    ocl_loss,
    save_params,
    total_loss,
    total_loss_and_grads,
    train,
    zero_params,
)

from oracles import oracle_loss_and_grads, oracle_train, score_pair, softmax_grad, unique_pool

LN4 = math.log(4.0)


def make_instance(orientation, query, candidates, gold, counterfactual=False):
    return ContrastiveInstance(
        orientation=orientation,
        query=query,
        candidates=tuple(candidates),
        gold=gold,
        meta=InstanceMeta(
            doc="d",
            pair=("a", "b"),
            path=("a", "m", "b"),
            counterfactual=counterfactual,
            replacements=(),
            strategy="donors=d:0",
            context_texts=(query,),
        ),
    )


def tiny_vocab(*texts):
    return build_vocab(texts)


def test_cl_loss_uniform():
    assert cl_loss(0.0, [0.0, 0.0, 0.0]) == pytest.approx(LN4, abs=1e-12)
    assert cl_loss(2.5, [2.5, 2.5, 2.5]) == pytest.approx(LN4, abs=1e-12)


def test_cl_loss_margin_one():
    assert cl_loss(1.0, [0.0]) == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-12)


def test_cl_loss_large_margin():
    expected = math.log1p(3.0 * math.exp(-20.0))  # ~6.18e-9
    assert cl_loss(20.0, [0.0, 0.0, 0.0]) == pytest.approx(expected, rel=1e-9)
    assert cl_loss(20.0, [0.0, 0.0, 0.0]) == pytest.approx(6.1834608e-09, rel=1e-6)


def test_cl_loss_properties():
    rng = random.Random(3)
    for _ in range(200):
        s_pos = rng.uniform(-5, 5)
        negs = [rng.uniform(-5, 5) for _ in range(rng.randint(1, 6))]
        loss = cl_loss(s_pos, negs)
        assert loss >= 0.0
        shift = rng.uniform(-10, 10)
        shifted = cl_loss(s_pos + shift, [s + shift for s in negs])
        assert shifted == pytest.approx(loss, abs=1e-12)
        better = cl_loss(s_pos + 0.5, negs)
        assert better < loss
    assert cl_loss(0.0, [0.0] * 3) == pytest.approx(LN4, abs=1e-12)
    with pytest.raises(ValueError):
        cl_loss(1.0, [])


def test_cl_loss_stable_at_extremes():
    assert math.isfinite(cl_loss(1000.0, [-1000.0, 900.0]))
    assert cl_loss(-1000.0, [1000.0]) == pytest.approx(2000.0, rel=1e-12)


def test_score_pair_zero_params_constant():
    params = zero_params(tiny_vocab("alpha beta gamma"), 4, 3)
    s1 = score_pair(params, "alpha beta", "gamma")
    s2 = score_pair(params, "totally different words", "here")
    assert s1 == s2 == 0.0


def test_score_pair_deterministic_and_token_sensitive():
    vocab = tiny_vocab("red green blue yellow purple")
    params = init_params(vocab, 8, 6, seed=5)
    a = score_pair(params, "red green", "blue")
    assert a == score_pair(params, "red green", "blue")
    changed = 0
    for other in ["yellow", "purple", "red", "green blue"]:
        changed += score_pair(params, "red green", other) != a
    assert changed == 4  # sampled non-collision: all differ under random params


def test_ocl_ccl_uniform():
    inst_o = make_instance("option", "some context", ["a", "b", "c", "d"], 2)
    inst_c = make_instance("context", "an answer", ["w", "x", "y", "z"], 0)
    params = zero_params(tiny_vocab("some context an answer a b c d w x y z"), 4, 3)
    assert ocl_loss(params, inst_o) == pytest.approx(LN4, abs=1e-12)
    assert ccl_loss(params, inst_c) == pytest.approx(LN4, abs=1e-12)
    with pytest.raises(ValueError):
        ocl_loss(params, inst_c)
    with pytest.raises(ValueError):
        ccl_loss(params, inst_o)


def test_cl_single_candidate_errors():
    inst = make_instance("option", "q", ["only"], 0)
    params = zero_params(tiny_vocab("q only"), 4, 3)
    with pytest.raises(ValueError):
        ocl_loss(params, inst)


def rigged_params():
    # One-dimensional rig: score(candidate) = tanh(mean embedding), with the
    # positive token placed at +2*atanh(0.5) and the negative at the mirror
    # point, so the score margin is exactly 1.
    vocab = {"[unk]": 0, "[sep]": 1, "pos": 2, "neg": 3}
    params = zero_params(vocab, 1, 1)
    x = 2.0 * math.atanh(0.5)
    params.embeddings[2, 0] = x
    params.embeddings[3, 0] = -x
    params.w1[0, 0] = 1.0
    params.w2[0] = 1.0
    return params


def test_ocl_rigged_margin():
    params = rigged_params()
    inst = make_instance("option", "", ["pos", "neg"], 0)
    assert score_pair(params, "", "pos") - score_pair(params, "", "neg") == pytest.approx(1.0, abs=1e-12)
    assert ocl_loss(params, inst) == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-9)


def test_ccl_mirrors_ocl_on_swapped_texts():
    vocab = tiny_vocab("alpha beta gamma delta")
    params = init_params(vocab, 6, 5, seed=11)
    option = make_instance("option", "alpha beta", ["gamma", "delta"], 1)
    context = make_instance("context", "alpha beta", ["gamma", "delta"], 1)
    assert ocl_loss(params, option) == pytest.approx(ccl_loss(params, context), abs=1e-12)


def test_ccl_rigged_margin():
    params = rigged_params()
    inst = make_instance("context", "", ["pos", "neg"], 0)
    assert ccl_loss(params, inst) == pytest.approx(math.log1p(math.exp(-1.0)), abs=1e-9)


def test_mlm_zero_rate_and_empty_text():
    params = init_params(tiny_vocab("one two three"), 4, 3, seed=1)
    assert mlm_loss(params, "one two three", 0.0, random.Random(0)) == 0.0
    with pytest.raises(ValueError):
        mlm_loss(params, "   ", 0.5, random.Random(0))
    with pytest.raises(ValueError):
        mlm_loss(params, "one", 1.5, random.Random(0))


def test_mlm_uniform_logits():
    words = " ".join(f"w{i}" for i in range(48))  # 48 words + 2 reserved = 50
    vocab = build_vocab([words])
    assert len(vocab) == 50
    params = zero_params(vocab, 4, 3)
    loss = mlm_loss(params, words, 0.25, random.Random(3))
    assert loss == pytest.approx(math.log(50.0), abs=1e-12)


def test_mlm_deterministic_under_seed():
    params = init_params(tiny_vocab("a b c d e f g h"), 6, 4, seed=2)
    losses = {mlm_loss(params, "a b c d e f g h", 0.4, random.Random(9)) for _ in range(5)}
    assert len(losses) == 1
    other = mlm_loss(params, "a b c d e f g h", 0.4, random.Random(10))
    assert other not in losses  # different mask pattern moves the loss


def test_total_loss_uniform_batches():
    texts = "ctx ans c1 c2 c3 c4"
    params = zero_params(tiny_vocab(texts), 4, 3)
    option = make_instance("option", "ctx", ["c1", "c2", "c3", "c4"], 1)
    context = make_instance("context", "ans", ["c1", "c2", "c3", "c4"], 3)
    assert total_loss(params, [option, option], mlm_weight=0.0) == pytest.approx(LN4, abs=1e-12)
    both = total_loss(params, [option, context], mlm_weight=0.0)
    assert both == pytest.approx(2 * LN4, abs=1e-12)
    with pytest.raises(ValueError):
        total_loss(params, [], mlm_weight=0.0)


def test_total_loss_recomposition():
    rng = random.Random(21)
    texts = ["north south east west up down left right charm strange"]
    vocab = build_vocab(texts)
    params = init_params(vocab, 8, 6, seed=7)
    words = texts[0].split()

    def rand_inst(orientation):
        q = " ".join(rng.sample(words, 3))
        cands = [" ".join(rng.sample(words, 2)) for _ in range(4)]
        return make_instance(orientation, q, cands, rng.randrange(4))

    batch = [rand_inst("option"), rand_inst("context"), rand_inst("option")]
    seed = 99
    w = 0.7
    total = total_loss(params, batch, mlm_weight=w, mask_rate=0.3, seed=seed)
    options = [b for b in batch if b.orientation == "option"]
    contexts = [b for b in batch if b.orientation == "context"]
    expected = sum(ocl_loss(params, b) for b in options) / len(options)
    expected += sum(ccl_loss(params, b) for b in contexts) / len(contexts)
    from pathcl.seeding import derive_rng

    rng = derive_rng(seed, "mlm")  # one generator, drawn text by text in batch order
    mlm_terms = [mlm_loss(params, inst.query, 0.3, rng) for inst in batch]
    expected += w * sum(mlm_terms) / len(batch)
    assert total == pytest.approx(expected, abs=1e-12)


def test_one_mask_generator_per_batch(monkeypatch):
    from pathcl import trainer

    words = "a b c d e f g h i j k l".split()
    vocab = build_vocab([" ".join(words)])
    params = init_params(vocab, 6, 4, seed=3)
    batch = [
        make_instance("option" if n % 2 else "context", " ".join(words[:n]), ["a b", "c d"], 0)
        for n in (1, 2, 3, 5, 7, 12)
    ]
    calls, draws = [], []
    real_rng, real_mask = trainer.derive_rng, trainer._mask

    def counting_rng(*key):
        calls.append(key)
        return real_rng(*key)

    def recording_mask(texts, mask_rate, rng):
        draws.append((texts, real_mask(texts, mask_rate, rng)))
        return draws[-1][1]

    monkeypatch.setattr(trainer, "derive_rng", counting_rng)
    monkeypatch.setattr(trainer, "_mask", recording_mask)
    total_loss_and_grads(params, batch, mask_rate=0.3, seed=5)
    assert calls == [(5, "mlm")]
    (texts, masked), = draws
    sizes = [ids.size for ids in texts]
    assert masked.counts.tolist() == [min(n, math.ceil(0.3 * n)) for n in sizes]
    # Masked and kept ids of each text are a split of its ids, so no
    # position is masked twice.
    kept = np.split(masked.kept, np.cumsum(masked.kept_lengths)[:-1])
    targets = np.split(masked.targets, np.cumsum(masked.counts)[:-1])
    for ids, keep, target in zip(texts, kept, targets):
        assert sorted(np.concatenate([keep, target]).tolist()) == sorted(ids.tolist())


def test_mcqa_uniform_and_errors():
    params = zero_params(tiny_vocab("p q o1 o2 o3 o4"), 4, 3)
    ex = MCQAExample(passage="p", question="q", options=("o1", "o2", "o3", "o4"), gold=2)
    assert mcqa_loss(params, ex) == pytest.approx(LN4, abs=1e-12)
    with pytest.raises(ValueError):
        MCQAExample(passage="p", question="q", options=("o1", "o2"), gold=5)


def test_mcqa_matches_scalar_composition():
    vocab = tiny_vocab("museum opened early visitors waited quietly outside doors")
    params = init_params(vocab, 8, 6, seed=13)
    ex = MCQAExample(
        passage="museum opened early",
        question="visitors waited",
        options=("quietly", "outside doors", "early visitors", "museum"),
        gold=1,
    )
    query = "museum opened early [sep] visitors waited"
    scores = [score_pair(params, query, o) for o in ex.options]
    expected = cl_loss(scores[1], [scores[0], scores[2], scores[3]])
    assert mcqa_loss(params, ex) == pytest.approx(expected, abs=1e-12)


def test_grad_softmax_versus_finite_difference():
    rng = random.Random(17)
    scores = np.array([rng.uniform(-2, 2) for _ in range(5)])
    gold = 2

    def value_fn(vec):
        loss, _ = softmax_grad(vec, gold)
        return loss

    _, analytic = softmax_grad(scores, gold)
    err = grad_check_flat(value_fn, scores, analytic, h=1e-5, n_coords=5)
    assert err < 1e-7


def test_grad_total_loss():
    rng = random.Random(23)
    words = "ember quartz delta onyx maple cedar ridge stone".split()
    vocab = build_vocab([" ".join(words), "spare unused filler"])
    params = init_params(vocab, 5, 4, seed=3)
    before = params.flat.tobytes()

    def rand_inst(orientation):
        q = " ".join(rng.sample(words, 3))
        cands = [" ".join(rng.sample(words, 2)) for _ in range(3)]
        return make_instance(orientation, q, cands, rng.randrange(3))

    batch = [rand_inst("option"), rand_inst("context"), rand_inst("option")]

    def producer(p):
        return total_loss_and_grads(p, batch, mlm_weight=0.5, mask_rate=0.3, seed=4)

    err = grad_check(producer, params, h=1e-5, n_coords=250, seed=1)
    assert err < 1e-4

    # Without the embedding-tied masked-token term (whose softmax spans the
    # whole vocabulary), unused vocabulary rows have exactly zero gradient,
    # and the checker treats them as zero-vs-zero coordinates.
    def cl_only(p):
        return total_loss_and_grads(p, batch, mlm_weight=0.0)

    _, grads = cl_only(params)
    for token in ("spare", "unused", "filler"):
        row = vocab[token]
        assert np.all(grads["embeddings"][row] == 0.0)
    err = grad_check(cl_only, params, h=1e-5, n_coords=250, seed=2)
    assert err < 1e-4
    assert params.flat.tobytes() == before  # the checks bump a private copy


def test_batched_path_matches_per_candidate_oracle():
    vocab = build_vocab(["solo amber birch cedar dune ember fjord gale heath"])
    params = init_params(vocab, 6, 5, seed=12)
    batch = [
        make_instance("option", "amber birch cedar", ["dune", "ember fjord"], 1),
        make_instance("context", "solo", ["gale heath", "birch", "cedar dune", "amber"], 2),
        # "ember" twice inside one candidate; the query is out of vocabulary.
        make_instance("option", "unseen words", ["ember ember gale", "heath", "fjord", "dune"], 0),
        make_instance("context", "dune ember gale heath", ["amber", "solo birch"], 0),
    ]
    # The one-token query "solo" is masked whole: its context is zero.
    for mlm_weight in (0.7, 0.0):
        kwargs = dict(mlm_weight=mlm_weight, mask_rate=0.3, seed=5)
        loss, grads = total_loss_and_grads(params, batch, **kwargs)
        want_loss, want_grads = oracle_loss_and_grads(params, batch, **kwargs)
        assert loss == pytest.approx(want_loss, abs=1e-12)
        for name, want in want_grads.items():
            np.testing.assert_allclose(grads[name], want, rtol=0.0, atol=1e-12, err_msg=name)
        assert np.any(grads["embeddings"] != 0.0)


def test_pool_equals_sorting_reference():
    rng = np.random.default_rng(8)
    vocab = build_vocab([" ".join(f"w{k}" for k in range(30))])
    params = init_params(vocab, 5, 3, seed=2)
    size = len(vocab)
    layouts = [
        # a repeated id in one segment, and the first and last vocabulary ids
        ([0, 7, 7, 7, size - 1], [3, 2]),
        # an empty segment, as a text masked whole leaves, between two others
        ([size - 1, 0, 4, 4], [2, 0, 2]),
        # no ids at all: the pooling matrix is still float
        ([], [0]),
        ([], [0, 0]),
    ]
    for _ in range(50):
        lengths = rng.integers(0, 9, size=rng.integers(1, 12))
        layouts.append((rng.integers(0, size, size=lengths.sum()), lengths))
    for flat, lengths in layouts:
        flat, lengths = np.asarray(flat, dtype=np.intp), np.asarray(lengths, dtype=np.intp)
        for got, want in zip(_pool(params, flat, lengths), unique_pool(params, flat, lengths)):
            assert np.array_equal(got, want) and got.dtype == want.dtype


def test_train_equals_step_by_step_oracle():
    rng = random.Random(31)
    words = "amber birch cedar dune ember fjord gale heath isle juniper".split()
    # 11 instances in batches of 4: the last batch holds 3.
    insts = [make_instance("context", "solo", ["amber birch", "cedar"], 1)]
    for k in range(10):
        cands = rng.sample([" ".join(rng.sample(words, 2)) for _ in range(6)], 2 + k % 3)
        query = " ".join(rng.sample(words, 1 + k % 4))
        insts.append(make_instance(("option", "context")[k % 3 == 0], query, cands, k % 2))
    for mlm_weight in (1.0, 0.0):
        cfg = TrainConfig(
            learning_rate=0.5, epochs=2, batch_size=4, seed=6, dim=6, hidden=5,
            mlm_weight=mlm_weight, mask_rate=0.3,
        )
        params, metrics = train(insts, cfg)
        want_params, want_metrics = oracle_train(insts, cfg)
        for name, want in want_params.arrays().items():
            np.testing.assert_allclose(
                params.arrays()[name], want, rtol=0.0, atol=1e-12, err_msg=name
            )
        assert len(metrics) == len(want_metrics) == 2
        for row, want in zip(metrics, want_metrics):
            assert set(row) == set(want)
            for key, value in want.items():
                if value is None or key in ("epoch", "accuracy"):
                    assert row[key] == value, key
                else:
                    assert row[key] == pytest.approx(value, rel=0.0, abs=1e-12), key
        assert (metrics[0]["mlm"] is None) == (mlm_weight == 0.0)


def test_evaluate_mixed_candidate_counts_and_ties():
    rng = random.Random(43)
    words = "amber birch cedar dune ember fjord gale heath".split()
    params = init_params(build_vocab([" ".join(words)]), 6, 5, seed=4)
    # 70 instances span three evaluation chunks.
    instances = []
    for i in range(70):
        k = 2 + i % 3
        cands = [" ".join(rng.sample(words, 2)) for _ in range(k)]
        query = " ".join(rng.sample(words, 2))
        instances.append(make_instance("option", query, cands, rng.randrange(k)))
    hits = 0
    for inst in instances:
        scores = [score_pair(params, inst.query, c) for c in inst.candidates]
        hits += int(np.argmax(scores)) == inst.gold
    assert evaluate(params, instances) == pytest.approx(hits / len(instances), abs=1e-12)

    # Every score ties under zero parameters: the first candidate wins.
    flat = zero_params(params.vocab, 6, 5)
    first = sum(inst.gold == 0 for inst in instances)
    assert evaluate(flat, instances) == pytest.approx(first / len(instances), abs=1e-12)


def test_evaluate_chance_and_oracle():
    rng = random.Random(41)
    texts = "q c0 c1 c2 c3"
    vocab = tiny_vocab(texts)
    params = zero_params(vocab, 4, 3)
    instances = [
        make_instance("option", "q", ["c0", "c1", "c2", "c3"], rng.randrange(4))
        for _ in range(2000)
    ]
    acc = evaluate(params, instances)
    assert abs(acc - 0.25) < 0.04  # uniform scorer, argmax ties resolve to index 0

    rigged = rigged_params()
    oracle_insts = [make_instance("option", "", ["pos", "neg"], 0) for _ in range(10)]
    assert evaluate(rigged, oracle_insts) == 1.0

    hand = [
        make_instance("option", "", ["pos", "neg"], 0),
        make_instance("option", "", ["neg", "pos"], 0),  # gold scores lower
    ]
    assert evaluate(rigged, hand) == 0.5
    with pytest.raises(ValueError):
        evaluate(params, [])


def test_train_zero_learning_rate_keeps_params():
    insts = [make_instance("option", "alpha beta", ["gamma", "delta"], i % 2) for i in range(6)]
    cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=2, seed=5, dim=4, hidden=3)
    params, metrics = train(insts, cfg)
    fresh = init_params(params.vocab, 4, 3, seed=5)
    assert np.array_equal(params.flat, fresh.flat)
    assert len(metrics) == 2


def test_train_same_seed_same_metrics(tmp_path):
    rng = random.Random(9)
    words = "lake river delta ocean pond creek".split()
    insts = [
        make_instance(
            rng.choice(["option", "context"]),
            " ".join(rng.sample(words, 2)),
            [" ".join(rng.sample(words, 2)) for _ in range(3)],
            rng.randrange(3),
        )
        for _ in range(12)
    ]
    cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=4, seed=8, dim=6, hidden=4)
    p1, m1 = train(insts, cfg)
    first = {name: arr.copy() for name, arr in p1.arrays().items()}
    p2, m2 = train(insts, cfg)
    assert m1 == m2
    for name, arr in p2.arrays().items():
        assert np.array_equal(arr, first[name]), name
        arr += 1.0  # the two runs share no buffer
    for name, arr in p1.arrays().items():
        assert np.array_equal(arr, first[name]), name
    path = tmp_path / "scorer.txt"
    save_params(p1, path)
    loaded = load_params(path)
    for name, arr in first.items():
        assert np.array_equal(loaded.arrays()[name], arr), name
    with pytest.raises(ValueError):
        train([], cfg)


def test_train_metrics_report_objective_terms():
    rng = random.Random(19)
    words = "lake river delta ocean pond creek".split()
    insts = [
        make_instance(
            orientation,
            " ".join(rng.sample(words, 2)),
            [" ".join(rng.sample(words, 2)) for _ in range(3)],
            rng.randrange(3),
        )
        for orientation in ["option", "context", "option"] * 4
    ]
    # With a zero learning rate every step sees the initial parameters, so
    # the epoch means of the contrastive terms are the per-instance losses.
    cfg = TrainConfig(learning_rate=0.0, epochs=2, batch_size=5, seed=3, dim=6, hidden=4)
    params, metrics = train(insts, cfg)
    want_ocl = sum(ocl_loss(params, i) for i in insts if i.orientation == "option") / 8
    want_ccl = sum(ccl_loss(params, i) for i in insts if i.orientation == "context") / 4
    for row in metrics:
        assert set(row) == {"epoch", "loss", "accuracy", "ocl", "ccl", "mlm", "grad_norm"}
        assert row["ocl"] == pytest.approx(want_ocl, abs=1e-12)
        assert row["ccl"] == pytest.approx(want_ccl, abs=1e-12)
        assert row["mlm"] > 0.0 and row["grad_norm"] > 0.0

    options_only = [i for i in insts if i.orientation == "option"]
    cfg = TrainConfig(
        learning_rate=0.1, epochs=1, batch_size=4, seed=3, dim=6, hidden=4, mlm_weight=0.0
    )
    _, metrics = train(options_only, cfg)
    assert metrics[0]["ccl"] is None and metrics[0]["mlm"] is None
    assert metrics[0]["loss"] == pytest.approx(metrics[0]["ocl"], abs=1e-12)


def test_params_save_load_round_trip(tmp_path):
    vocab = tiny_vocab("alpha beta gamma delta epsilon")
    params = init_params(vocab, 7, 5, seed=31)
    path = tmp_path / "scorer.txt"
    save_params(params, path)
    loaded = load_params(path)
    assert loaded.vocab == params.vocab
    for name, arr in params.arrays().items():
        assert np.array_equal(arr, loaded.arrays()[name]), name
    with pytest.raises(ValueError):
        load_params(__file__)
