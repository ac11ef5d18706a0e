import io
import json

from pathcl import pipeline as pl
from pathcl.corpus import write_corpus
from pathcl.emitter import read_instances
from pathcl.metapath import ExtractorConfig
from pathcl.synth import make_corpus

from corpora import build_document, film_cast_document


def run_stages(docs, seed=3, mode="first", negatives=None, cf=None):
    per_doc = pl.stage_extract(docs, ExtractorConfig(mode=mode))
    bundles, neg_counts = pl.stage_negatives(
        docs, per_doc, negatives or pl.NegativesConfig(), seed
    )
    cf = cf or pl.CounterfactualConfig(copies=0)
    out, cf_counts = pl.stage_counterfactual(docs, bundles, cf, seed)
    buf = io.StringIO()
    emit_counts = pl.stage_emit(out, cf.copies, pl.EmitConfig(), seed, buf)
    buf.seek(0)
    return list(read_instances(buf)), neg_counts, cf_counts, emit_counts


def test_positive_record_round_trip():
    docs = make_corpus(5, seed=2)
    per_doc = pl.stage_extract(docs, ExtractorConfig(mode="all"))
    flat = [i for doc in per_doc for i in doc]
    buf = io.StringIO()
    pl.write_positives(flat, buf)
    buf.seek(0)
    assert list(pl.read_positives(buf)) == flat


def test_skip_counter_for_donorless_instance():
    # a-c path exists through b, but no sentence outside the answers has
    # two entities, so no donor exists anywhere
    doc = build_document(
        "d",
        [
            [("a", "Ann"), " met ", ("b", "Ben"), "."],
            [("b", "Ben"), " met ", ("c", "Cal"), "."],
            [("a", "Ann"), " praised ", ("c", "Cal"), "."],
        ],
        {"a": "Ann", "b": "Ben", "c": "Cal"},
    )
    per_doc = pl.stage_extract([doc], ExtractorConfig(mode="first"))
    assert per_doc[0], "expected an extractable instance"
    inst = per_doc[0][0]
    assert inst.pair == ("a", "b")  # answers {0}; donors: only sentences 1, 2
    bundles, counts = pl.stage_negatives([doc], per_doc, pl.NegativesConfig(), 1)
    assert counts["bundles"] == len(bundles) == 1  # donors exist for this doc

    lonely = build_document(
        "lonely",
        [
            [("a", "Ann"), " met ", ("b", "Ben"), "."],
            [("a", "Ann"), " slept."],
            [("b", "Ben"), " left."],
            [("c", "Cal"), " waved at ", ("a", "Ann"), "."],
        ],
        {"a": "Ann", "b": "Ben", "c": "Cal"},
        relations=[("c", "b", "knows")],
    )
    per_doc = pl.stage_extract([lonely], ExtractorConfig(mode="first"))
    assert per_doc[0]
    bundles, counts = pl.stage_negatives(
        [lonely], per_doc, pl.NegativesConfig(swap_fallback=False), 1
    )
    assert counts["skipped_no_donor"] == 0  # sentence 3 still provides a donor


def test_shortfall_counted_not_dropped():
    doc = build_document(
        "d",
        [
            [("a", "Ann"), " met ", ("c", "Cal"), "."],
            [("a", "Ann"), " thanked ", ("b", "Ben"), "."],
            [("c", "Cal"), " hosted ", ("d", "Dee"), "."],
        ],
        {"a": "Ann", "b": "Ben", "c": "Cal", "d": "Dee"},
        relations=[("c", "b", "knows")],
    )
    per_doc = pl.stage_extract([doc], ExtractorConfig(mode="all"))
    cfg = pl.NegativesConfig(num_negatives=50, swap_fallback=False)
    bundles, counts = pl.stage_negatives([doc], per_doc, cfg, 1)
    assert counts["bundles"] == len(bundles) > 0
    assert counts["option_shortfalls"] == len(bundles)
    # emit drops the under-filled orientations and counts them
    buf = io.StringIO()
    emit_counts = pl.stage_emit(bundles, 0, pl.EmitConfig(), 1, buf)
    assert emit_counts["records"] == 0
    assert emit_counts["skipped_option"] == len(bundles)
    assert emit_counts["skipped_context"] == len(bundles)


def test_same_batch_documents_pool_strategy():
    docs = make_corpus(40, seed=8, blocks=1, fillers=2)
    cf = pl.CounterfactualConfig(copies=1, pool_strategy="same-batch-documents", window=6)
    instances, _, cf_counts, _ = run_stages(docs, seed=9, cf=cf)
    assert cf_counts["copies"] > 0
    position = {doc.id: i for i, doc in enumerate(docs)}
    entity_home = {e.id: doc.id for doc in docs for e in doc.entities}
    for inst in instances:
        if not inst.meta.counterfactual:
            continue
        center = position[inst.meta.doc]
        for alien_id in dict(inst.meta.replacements).values():
            delta = abs(position[entity_home[alien_id]] - center)
            assert delta <= 3, (inst.meta.doc, alien_id, delta)


def test_ready_negatives_used_for_shared_pairs():
    # two documents whose meta-paths link the same entity pair (x, y)
    def story(doc_id, mid, answer_verb, hop1, hop2, extra):
        mid_id = f"m_{mid}"
        return build_document(
            doc_id,
            [
                [("ax", "Xenia Moss"), f" {hop1} ", (mid_id, mid.title()), "."],
                [(mid_id, mid.title()), f" {hop2} ", ("ay", "Yann Pryce"), "."],
                [("ax", "Xenia Moss"), f" {answer_verb} ", ("ay", "Yann Pryce"), "."],
                [("zz", "Zora Quill"), f" {extra} ", (mid_id, mid.title()), "."],
            ],
            {"ax": "Xenia Moss", "ay": "Yann Pryce", mid_id: mid.title(), "zz": "Zora Quill"},
        )

    doc_a = story("da", "forge", "praised", "built", "supplied", "audited")
    doc_b = story("db", "mill", "thanked", "ran", "paid", "visited")
    docs = [doc_a, doc_b]
    per_doc = pl.stage_extract(docs, ExtractorConfig(mode="first"))
    assert all(instances and instances[0].pair == ("ax", "ay") for instances in per_doc)

    cfg = pl.NegativesConfig(num_negatives=3, ready_negatives=True, allow_cross_document=False)
    bundles, _ = pl.stage_negatives(docs, per_doc, cfg, 2)
    ready_used = [
        s
        for b in bundles
        for s in b.options
        if all(orig == repl for orig, repl in s.replaced)
    ]
    assert ready_used, "expected at least one ready negative"
    for synth in ready_used:
        mentioned = {m[0] for m in synth.mentions}
        assert {"ax", "ay"} <= mentioned

    plain_cfg = pl.NegativesConfig(num_negatives=3, ready_negatives=False, allow_cross_document=False)
    plain_bundles, _ = pl.stage_negatives(docs, per_doc, plain_cfg, 2)
    assert not [
        s
        for b in plain_bundles
        for s in b.options
        if all(orig == repl for orig, repl in s.replaced)
    ]


def test_fuzzed_micro_corpus_end_to_end():
    # Random micro documents share entity ids across documents, which
    # exercises cross-document donor eligibility, swap candidates, and
    # alien-pool exhaustion paths the clean template corpus never hits.
    import random

    from pathcl.graph import build_entity_graph
    from pathcl.metapath import validate_instance
    from corpora import random_micro_doc

    rng = random.Random(555)
    docs = [random_micro_doc(rng, f"fuzz{i}") for i in range(150)]
    per_doc = pl.stage_extract(docs, ExtractorConfig(mode="all"))
    bundles, neg_counts = pl.stage_negatives(docs, per_doc, pl.NegativesConfig(), 1)
    cf, cf_counts = pl.stage_counterfactual(docs, bundles, pl.CounterfactualConfig(copies=2), 1)
    buf = io.StringIO()
    emit_counts = pl.stage_emit(cf, 2, pl.EmitConfig(), 1, buf)
    buf.seek(0)
    instances = list(read_instances(buf))

    assert neg_counts["bundles"] + neg_counts["skipped_no_donor"] == sum(map(len, per_doc))
    assert cf_counts["originals"] == neg_counts["bundles"]
    assert len(instances) == emit_counts["records"] > 0
    assert emit_counts["counterfactual"] <= 2 * (emit_counts["records"] - emit_counts["counterfactual"]) + 1
    for doc, extracted in zip(docs, per_doc):
        graph = build_entity_graph(doc)
        for inst in extracted:
            assert validate_instance(inst, doc, graph) == []


def test_manifest_counts_consistent(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    docs = [film_cast_document()] + make_corpus(9, seed=1)
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(docs, fp)
    cfg = pl.PipelineConfig(
        input=str(corpus),
        output_dir=str(tmp_path / "out"),
        seed=6,
        counterfactual=pl.CounterfactualConfig(copies=1),
    )
    manifest = pl.run_pipeline(cfg)
    stages = manifest["stages"]
    assert stages["parse"]["documents"] == 10
    assert stages["extract"]["instances"] == stages["negatives"]["bundles"]
    assert stages["counterfactual"]["originals"] == stages["negatives"]["bundles"]
    emitted = stages["emit"]
    assert emitted["records"] == emitted["option"] + emitted["context"]
    with open(tmp_path / "out" / "instances.jsonl", encoding="utf-8") as fp:
        assert len(fp.read().splitlines()) == emitted["records"]
    blob = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert blob["config_hash"] == cfg.hash()