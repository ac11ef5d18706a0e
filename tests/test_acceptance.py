"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import hashlib
import io
import json
import math
import random
import re
import time

import pytest

from pathcl import pipeline as pl
from pathcl.corpus import document_to_record, write_corpus
from pathcl.emitter import read_instances
from pathcl.graph import build_entity_graph
from pathcl.metapath import ExtractorConfig, extract_positive_instances, validate_instance
from pathcl.synth import make_corpus, split_corpus
from pathcl.trainer import (
    TrainConfig,
    build_vocab,
    evaluate,
    grad_check,
    init_params,
    total_loss_and_grads,
    train,
    zero_params,
)

from corpora import film_cast_document, random_micro_doc
from oracles import oracle_document_solvable
from test_trainer import cl_term, make_instance, mlm_term, softmax_loss

LN4 = math.log(4.0)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


def build_instances(docs, seed, mode="first", copies=1):
    per_doc = pl.stage_extract(docs, ExtractorConfig(mode=mode))
    bundles, _ = pl.stage_negatives(docs, per_doc, pl.NegativesConfig(), seed)
    cf, _ = pl.stage_counterfactual(docs, bundles, pl.CounterfactualConfig(copies=copies), seed)
    buf = io.StringIO()
    pl.stage_emit(cf, copies, seed, buf)
    buf.seek(0)
    return list(read_instances(buf))


@pytest.fixture(scope="module")
def separation_corpus():
    docs = make_corpus(500, seed=42, blocks=2, fillers=4)
    index = {e.id: e.surface for d in docs for e in d.entities}
    return docs, index


def test_criterion_1_dfs_oracle_equivalence():
    started = time.monotonic()
    cfg = ExtractorConfig(mode="all", max_hops=4)
    first_cfg = ExtractorConfig(mode="first", max_hops=4)
    rng = random.Random(20240)
    solvable = 0
    checked = 0
    for i in range(200):
        doc = random_micro_doc(rng, f"acc{i}")
        graph = build_entity_graph(doc)
        expected = oracle_document_solvable(doc, graph, cfg.max_hops)
        instances = extract_positive_instances(doc, graph, cfg)
        assert bool(instances) == expected, doc.id
        assert bool(extract_positive_instances(doc, graph, first_cfg)) == expected, doc.id
        for inst in instances:
            assert validate_instance(inst, doc, graph) == [], (doc.id, inst)
            checked += 1
        solvable += expected
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    report(
        "1 dfs-oracle-equivalence",
        f"200 corpora, {solvable} solvable, {checked} instances validated, {elapsed:.1f}s",
    )


def test_criterion_2_worked_example(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(json.dumps(document_to_record(film_cast_document())) + "\n")
    cfg = pl.PipelineConfig(input=str(corpus), output_dir=str(tmp_path / "out"), seed=1)
    manifest = pl.run_pipeline(cfg)
    assert manifest["stages"]["extract"]["instances"] == 1
    with open(tmp_path / "out" / "positives.jsonl", encoding="utf-8") as fp:
        instances = list(pl.read_positives(fp))
    assert len(instances) == 1
    inst = instances[0]
    doc = film_cast_document()
    entity = {e.id: e for e in doc.entities}
    surfaces = tuple(entity[e].surface for e in inst.pair)
    assert surfaces == ("Dave McKean", "Stephanie Leonidas")
    assert set(inst.context) == {1, 5}
    assert inst.answer == 3
    assert len(inst.path.entities) == 3
    report("2 worked-example", "pair/context/answer/path all exact")


def test_criterion_3_loss_constants():
    assert softmax_loss(1.25, [1.25, 1.25, 1.25]) == pytest.approx(LN4, abs=1e-9)
    vocab = build_vocab(["ctx ans c1 c2 c3 p q o1 o2 o3 o4"])
    params = zero_params(vocab, 6, 4)
    option = make_instance("option", "ctx", ["ans", "c1", "c2", "c3"], 0)
    context = make_instance("context", "ans", ["ctx", "c1", "c2", "c3"], 0)
    assert cl_term(params, option) == pytest.approx(LN4, abs=1e-9)
    assert cl_term(params, context) == pytest.approx(LN4, abs=1e-9)
    # A multiple-choice example: an option instance whose query is "passage [sep] question".
    mcqa = make_instance("option", "p [sep] q", ["o1", "o2", "o3", "o4"], 1)
    assert cl_term(params, mcqa) == pytest.approx(LN4, abs=1e-9)
    assert mlm_term(params, "ctx ans c1", 0.0, seed=0) == 0.0
    report("3 loss-constants", "cl/ocl/ccl/mcqa = ln4 within 1e-9; mlm(0) = 0 exactly")


def test_criterion_4_gradient_verification():
    started = time.monotonic()
    words = (
        "amber basalt cobalt dune ember flint garnet heath iris jasper "
        "kelp loam marl nectar ochre pumice quartz reef slate tufa"
    ).split()
    worst = 0.0
    for config in range(20):
        rng = random.Random(1000 + config)
        vocab = build_vocab([" ".join(words)])
        params = init_params(vocab, rng.randint(4, 8), rng.randint(4, 8), seed=config)
        k = rng.choice([2, 3])
        batch = [
            make_instance(
                rng.choice(["option", "context"]),
                " ".join(rng.sample(words, rng.randint(2, 4))),
                [" ".join(rng.sample(words, 2)) for _ in range(k + 1)],
                rng.randrange(k + 1),
            )
            for _ in range(rng.randint(3, 5))
        ]
        mlm_weight = rng.choice([0.0, 0.5, 1.0])
        mask_rate = rng.choice([0.15, 0.3])

        def producer(p):
            return total_loss_and_grads(
                p, batch, mlm_weight=mlm_weight, mask_rate=mask_rate, seed=config
            )

        err = grad_check(producer, params, h=1e-5, n_coords=200, seed=config)
        worst = max(worst, err)
        assert err < 1e-4, (config, err)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    report(
        "4 gradient-verification",
        f"20 configs x 200 coords, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_toy_separation(separation_corpus):
    started = time.monotonic()
    docs, _ = separation_corpus
    train_docs, held_docs = split_corpus(docs, 0.2, seed=1)
    train_insts = build_instances(train_docs, seed=7, mode="first", copies=1)
    held_insts = build_instances(held_docs, seed=7, mode="first", copies=1)
    assert len(train_docs) >= 400 and len(held_docs) >= 90

    cfg = TrainConfig(
        learning_rate=0.2, epochs=60, batch_size=8, seed=0,
        mlm_weight=1.0, mask_rate=0.15, dim=32, hidden=64,
    )
    assert cfg.epochs <= 200
    params, metrics = train(train_insts, cfg)
    accuracy = evaluate(params, held_insts)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    assert accuracy >= 0.90, f"held-out accuracy {accuracy:.3f}"
    report(
        "5 toy-separation",
        f"held-out accuracy {accuracy:.3f} vs 0.25 chance "
        f"({len(train_insts)} train / {len(held_insts)} held), {elapsed:.0f}s",
    )


def _present_surfaces(text: str, surfaces) -> tuple[str, ...]:
    found = []
    for surface in surfaces:
        if re.search(r"(?<!\w)" + re.escape(surface) + r"(?!\w)", text):
            found.append(surface)
    return tuple(sorted(found))


def test_criterion_6_shortcut_elimination(separation_corpus):
    docs, surface_index = separation_corpus
    instances = build_instances(docs[:260], seed=5, mode="all", copies=1)
    options = [i for i in instances if i.orientation == "option"]
    assert len(options) >= 1000, len(options)

    checked = 0
    hits = 0
    for inst in options:
        replacements = dict(inst.meta.replacements)
        targets = tuple(
            surface_index[replacements.get(eid, eid)] for eid in inst.meta.pair
        )
        positive = _present_surfaces(inst.candidates[inst.gold], targets)
        assert positive == tuple(sorted(targets)), (inst.meta.doc, positive, targets)
        for j, candidate in enumerate(inst.candidates):
            if j == inst.gold:
                continue
            negative = _present_surfaces(candidate, targets)
            assert negative == positive, (inst.meta.doc, candidate, negative, positive)
        checked += 1

        # Baseline reading only unordered entity identity: its argmax cannot
        # beat chance when every candidate carries the same surfaces.
        def multiset_score(text: str) -> int:
            key = json.dumps(_present_surfaces(text, targets))
            return int.from_bytes(hashlib.sha256(key.encode()).digest()[:4], "big")

        scores = [multiset_score(c) for c in inst.candidates]
        hits += max(range(len(scores)), key=lambda j: (scores[j], -j)) == inst.gold

    baseline_accuracy = hits / checked
    assert abs(baseline_accuracy - 0.25) < 0.05, baseline_accuracy
    report(
        "6 shortcut-elimination",
        f"{checked} option instances multiset-equal; baseline accuracy "
        f"{baseline_accuracy:.3f} within 0.05 of 0.25",
    )


def test_criterion_7_determinism(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(60, seed=17), fp)

    digests = []
    for run in ("r1", "r2"):
        cfg = pl.PipelineConfig(
            input=str(corpus),
            output_dir=str(tmp_path / run),
            seed=23,
            counterfactual=pl.CounterfactualConfig(copies=2),
        )
        pl.run_pipeline(cfg)
        per_file = {}
        for name in ["instances.jsonl", "manifest.json", "positives.jsonl",
                     "bundles.jsonl", "bundles_counterfactual.jsonl", "graph.tsv"]:
            per_file[name] = hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest()
        digests.append(per_file)
    assert digests[0] == digests[1]
    report("7 determinism", f"{len(digests[0])} files byte-identical across runs")


def test_criterion_8_ratio_fidelity(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(50, seed=29), fp)
    shares = {}
    for copies, expected in ((2, 2 / 3), (3, 3 / 4)):
        cfg = pl.PipelineConfig(
            input=str(corpus),
            output_dir=str(tmp_path / f"da{copies}"),
            seed=31,
            counterfactual=pl.CounterfactualConfig(copies=copies),
        )
        pl.run_pipeline(cfg)
        with open(tmp_path / f"da{copies}" / "instances.jsonl", encoding="utf-8") as fp:
            instances = list(read_instances(fp))
        flagged = sum(i.meta.counterfactual for i in instances)
        assert abs(flagged - expected * len(instances)) <= 1.0, (copies, flagged, len(instances))
        shares[f"1:{copies}"] = flagged / len(instances)
    report("8 ratio-fidelity", f"shares {shares} within one instance of 2/3 and 3/4")


def test_criterion_9_throughput(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(10_000, seed=99, blocks=2, fillers=8), fp)

    cfg = pl.PipelineConfig(
        input=str(corpus),
        output_dir=str(tmp_path / "out"),
        seed=5,
        jobs=4,
    )
    started = time.monotonic()
    manifest = pl.run_pipeline(cfg)
    elapsed = time.monotonic() - started
    assert manifest["stages"]["parse"]["documents"] == 10_000
    assert manifest["stages"]["emit"]["records"] >= 10_000
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    report(
        "9 throughput",
        f"10k documents -> {manifest['stages']['emit']['records']} records "
        f"in {elapsed:.1f}s with jobs=4",
    )
