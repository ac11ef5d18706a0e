import gc
import hashlib
import io
import json
import multiprocessing
import multiprocessing.connection
import os
import pickle
import random
import tracemalloc

import pytest

from pathcl import pipeline as pl
from pathcl.bundle import bundle_from_record, bundle_to_record, write_bundles
from pathcl.corpus import document_to_record, write_corpus
from pathcl.counterfactual import build_entity_pool, merged_aliens
from pathcl.emitter import read_instances
from pathcl.graph import build_entity_graph, write_edge_list
from pathcl.jsonl import RecordError, record_line
from pathcl.metapath import ExtractorConfig
from pathcl.synth import make_corpus
from pathcl.trainer import TrainConfig

from corpora import build_document, film_cast_document, random_micro_doc


def test_default_config_hash_pinned():
    # manifest.json carries this hash, so moving it changes every run's bytes.
    cfg = pl.PipelineConfig(input="a", output_dir="b", seed=0)
    assert cfg.hash() == "42ed3cf2552e1badd89b7d55278818302b16249d85d9b8032dfac879f5951446"


def test_config_values_typed_when_built_in_python():
    # An int for a float field configures and hashes like the float.
    spellings = [
        pl.PipelineConfig(input="a", output_dir="b", seed=1,
                          counterfactual=pl.CounterfactualConfig(include_prob=prob))
        for prob in (1, 1.0)
    ]
    assert spellings[0].counterfactual.include_prob == 1.0
    assert type(spellings[0].counterfactual.include_prob) is float
    assert spellings[0].hash() == spellings[1].hash()
    for build, message in (
        (lambda: pl.NegativesConfig(num_negatives="3"),
         "negatives.num_negatives: expected int, got string"),
        (lambda: pl.NegativesConfig(num_negatives=True),
         "negatives.num_negatives: expected int, got bool"),
        (lambda: ExtractorConfig(max_hops=2.5), "extractor.max_hops: expected int, got float"),
        (lambda: ExtractorConfig(max_hops=1), "extractor.max_hops: expected int >= 2, got 1"),
        (lambda: ExtractorConfig(mode="some"),
         "extractor.mode: expected one of 'first', 'all', got 'some'"),
        (lambda: pl.CounterfactualConfig(include_prob=1.5),
         "counterfactual.include_prob: expected float in [0.0, 1.0], got 1.5"),
        (lambda: pl.PipelineConfig(input="a", output_dir="b", seed="1"),
         "seed: expected int, got string"),
        (lambda: pl.PipelineConfig(input="a", output_dir="b", seed=1.0),
         "seed: expected int, got float"),
        (lambda: pl.PipelineConfig(input="a", output_dir="b", seed=True),
         "seed: expected int, got bool"),
        (lambda: pl.PipelineConfig(input="a", output_dir="b", seed=1, jobs=0),
         "jobs: expected int >= 1, got 0"),
        (lambda: pl.PipelineConfig(input="a", output_dir="b", seed=1, jobs=-1),
         "jobs: expected int >= 1, got -1"),
        (lambda: pl.PipelineConfig(input="a", output_dir="b", seed=1, jobs="2"),
         "jobs: expected int, got string"),
        (lambda: pl.PipelineConfig(input="a", output_dir="b", seed=1, jobs=2.0),
         "jobs: expected int, got float"),
        (lambda: pl.PipelineConfig(input="a", output_dir="b", seed=1, jobs=True),
         "jobs: expected int, got bool"),
        (lambda: TrainConfig(batch_size=0), "train.batch_size: expected int >= 1, got 0"),
        (lambda: pl.CounterfactualConfig(include_prob=float("nan")),
         "counterfactual.include_prob: expected finite float, got nan"),
        (lambda: TrainConfig(mask_rate=float("nan")),
         "train.mask_rate: expected finite float, got nan"),
        (lambda: TrainConfig(learning_rate=float("inf")),
         "train.learning_rate: expected finite float, got inf"),
        (lambda: TrainConfig(learning_rate=-1.0),
         "train.learning_rate: expected float >= 0.0, got -1.0"),
        (lambda: TrainConfig(mlm_weight=-5.0), "train.mlm_weight: expected float >= 0.0, got -5.0"),
    ):
        with pytest.raises(ValueError) as exc:
            build()
        assert str(exc.value) == message


def test_positive_record_round_trip():
    docs = make_corpus(5, seed=2)
    flat = list(pl.stage_extract(docs, ExtractorConfig(mode="all")))
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
    positives = list(pl.stage_extract([doc], ExtractorConfig(mode="first")))
    assert positives, "expected an extractable instance"
    inst = positives[0]
    assert inst.pair == ("a", "b")  # answers {0}; donors: only sentences 1, 2
    bundles, counts = pl.stage_negatives([doc], positives, pl.NegativesConfig(), 1)
    bundles = list(bundles)
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
    positives = list(pl.stage_extract([lonely], ExtractorConfig(mode="first")))
    assert positives
    bundles, counts = pl.stage_negatives(
        [lonely], positives, pl.NegativesConfig(), 1
    )
    bundles = list(bundles)
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
    cfg = pl.NegativesConfig(num_negatives=50)
    bundles, counts = pl.stage_negatives([doc], per_doc, cfg, 1)
    bundles = list(bundles)
    assert counts["bundles"] == len(bundles) > 0
    assert counts["option_shortfalls"] == len(bundles)
    # emit drops the under-filled orientations and counts them
    buf = io.StringIO()
    emit_counts = pl.stage_emit(bundles, 0, 1, buf)
    assert emit_counts["records"] == 0
    assert emit_counts["skipped_option"] == len(bundles)
    assert emit_counts["skipped_context"] == len(bundles)


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
    positives = list(pl.stage_extract(docs, ExtractorConfig(mode="all")))
    bundles, neg_counts = pl.stage_negatives(docs, positives, pl.NegativesConfig(), 1)
    cf, cf_counts = pl.stage_counterfactual(docs, bundles, pl.CounterfactualConfig(copies=2), 1)
    buf = io.StringIO()
    emit_counts = pl.stage_emit(cf, 2, 1, buf)
    buf.seek(0)
    instances = list(read_instances(buf))

    assert neg_counts["bundles"] + neg_counts["skipped_no_donor"] == len(positives)
    assert cf_counts["originals"] == neg_counts["bundles"]
    assert len(instances) == emit_counts["records"] > 0
    assert emit_counts["counterfactual"] <= 2 * (emit_counts["records"] - emit_counts["counterfactual"]) + 1
    by_id = {doc.id: doc for doc in docs}
    for inst in positives:
        doc = by_id[inst.doc_id]
        assert validate_instance(inst, doc, build_entity_graph(doc)) == []


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


@pytest.mark.parametrize("mark", ["\x1c", "\x85", "\u2028"])
def test_graph_rows_split_only_at_newlines(tmp_path, mark):
    # `str.splitlines` also breaks at these characters; a label may hold them.
    label = f"knows{mark}well"
    doc = build_document(
        "d1",
        [[("a", "A"), " met ", ("b", "B"), "."], [("b", "B"), " met ", ("c", "C"), "."],
         [("a", "A"), " saw ", ("c", "C"), "."]],
        {"a": "A", "b": "B", "c": "C"},
        relations=[("a", "b", label)],
    )
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus([doc], fp)
    edges = write_edge_list(build_entity_graph(doc), io.StringIO())
    manifest = pl.run_pipeline(
        pl.PipelineConfig(input=str(corpus), output_dir=str(tmp_path / "out"), seed=0)
    )
    exported = io.StringIO()
    assert pl.stage_graph_export([doc], exported) == edges == 4
    for text in ((tmp_path / "out" / "graph.tsv").read_bytes().decode(), exported.getvalue()):
        rows = text.split("\n")[:-1]
        assert len(rows) == edges == manifest["stages"]["graph"]["edges"]
        assert f"d1\ta|b\tkg\t{label}" in rows


def test_run_pipeline_streams_bundles(tmp_path):
    # Bundles, counterfactual copies and instances flow to their files one
    # at a time, so what the run holds is the documents, positives and
    # pools: more and larger bundles through the same documents leave the
    # allocation peak nearly where it was.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, seed=5, blocks=2, fillers=8), fp)

    def traced_run(name, copies, num_negatives):
        cfg = pl.PipelineConfig(
            input=str(corpus),
            output_dir=str(tmp_path / name),
            seed=5,
            extractor=ExtractorConfig(mode="all"),
            negatives=pl.NegativesConfig(num_negatives=num_negatives),
            counterfactual=pl.CounterfactualConfig(copies=copies),
        )
        tracemalloc.start()
        try:
            pl.run_pipeline(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, (tmp_path / name / "bundles_counterfactual.jsonl").stat().st_size

    light_peak, light_bytes = traced_run("light", copies=1, num_negatives=3)
    heavy_peak, heavy_bytes = traced_run("heavy", copies=2, num_negatives=9)
    assert heavy_bytes > 3 * light_bytes
    assert heavy_peak < 1.5 * light_peak, (light_peak, heavy_peak)


# sha256 of (bundles.jsonl, instances.jsonl) for the runs below, recorded
# before the six test-only switches were deleted (there with ready negatives
# off). A change to the donor paths that is meant to keep outputs must keep
# these.
DONOR_PATH_DIGESTS = {
    "default": (
        "8a68a63fd715ad89cc683d9f7e2cbe8e6e02695435d545c2dafca7510bbc42ee",
        "4a1b599355ff099c2a315ad503de571440401788b1e8cfa3fbc88d814a5a26c6",
    ),
    "k8-pool5": (
        "0dc5ccf3e614f84456eaf1680ae15b72a2f3550419fe8a28b8c92dcf6ee8ad83",
        "84ab0ac6185c9c72ba532dc3e9073eaed467042f0c420d5fb19af0cacade5826",
    ),
}


def sha256s(out, fnames):
    return tuple(hashlib.sha256((out / fname).read_bytes()).hexdigest() for fname in fnames)


def donor_path_runs(tmp_path, jobs=1):
    """Run the settings of DONOR_PATH_DIGESTS; returns each run's output directory."""
    rng = random.Random(555)
    corpus = tmp_path / "fuzz.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus([random_micro_doc(rng, f"fuzz{i}") for i in range(150)], fp)
    runs = {
        "default": pl.NegativesConfig(),
        "k8-pool5": pl.NegativesConfig(num_negatives=8, pool_size=5),
    }
    outs = {}
    for name, negatives in runs.items():
        outs[name] = tmp_path / name
        pl.run_pipeline(
            pl.PipelineConfig(
                input=str(corpus),
                output_dir=str(outs[name]),
                seed=1,
                jobs=jobs,
                extractor=ExtractorConfig(mode="all"),
                negatives=negatives,
            )
        )
    return outs


def test_ready_swap_and_pool_donors_byte_stable(tmp_path):
    # Micro documents share entity ids, so swapped targets and donors from
    # other documents' sentences occur; the template corpora of the benchmark
    # give every document its own ids and never reach these paths. Swaps need
    # the host and the pool to run dry, hence K=8 from a 5-sentence pool.
    tags = []
    for name, out in donor_path_runs(tmp_path).items():
        digests = sha256s(out, ("bundles.jsonl", "instances.jsonl"))
        assert digests == DONOR_PATH_DIGESTS[name], name
        with open(out / "instances.jsonl", encoding="utf-8") as fp:
            for inst in read_instances(fp):
                donors = inst.meta.strategy.removeprefix("donors=").split(",")
                tags += [(inst.meta.doc, tag) for tag in donors]
    assert any("+swap" in tag for _, tag in tags)
    assert any(
        tag.split(":")[0] != doc for doc, tag in tags
    ), "no relation-edited donor from another document"


# sha256 of (bundles_counterfactual.jsonl, instances.jsonl) for the runs
# below: "k8" recorded before the test-only switches were deleted, "copies2"
# before the windowed alien pool was. Settings the benchmark never runs: two
# copies per original, and K=8 from a 10-sentence pool. Micro documents share entity ids, so the K=8 run reaches
# swapped targets, donors from other documents and skipped orientations; the
# template corpora give every document its own ids and never reach these.
UNBENCHED_SETTINGS_DIGESTS = {
    "copies2": (
        "dec5f473ed04a2af2ae3a36fd223b369119e35da0338b59495eefb1400108cdb",
        "d5dc6b47ce2bbceb4be4de472cd1ee36ac6149adc00d1f369e025ff0e3cdf3cd",
    ),
    "k8": (
        "1f7abeaaf005c569a330191bd89e29aaaebadd4a32ef0385916560a110bc957b",
        "0624fcfabae00bdf0421dfe3daadf5168067ec6944165838d990cb7d7a346208",
    ),
}


def unbenched_runs(tmp_path, jobs=1):
    """Run the settings of UNBENCHED_SETTINGS_DIGESTS; returns (output directory, manifest)."""
    corpora = {
        "template": make_corpus(12, seed=11, blocks=2, fillers=8),
        "micro": [random_micro_doc(random.Random(31 + i), f"m{i}") for i in range(40)],
    }
    runs = {
        "copies2": ("template", dict(counterfactual=pl.CounterfactualConfig(copies=2))),
        "k8": ("micro", dict(negatives=pl.NegativesConfig(num_negatives=8, pool_size=10))),
    }
    outs = {}
    for name, (corpus_name, settings) in runs.items():
        corpus = tmp_path / f"{corpus_name}.jsonl"
        with open(corpus, "w", encoding="utf-8") as fp:
            write_corpus(corpora[corpus_name], fp)
        out = tmp_path / name
        manifest = pl.run_pipeline(
            pl.PipelineConfig(
                input=str(corpus),
                output_dir=str(out),
                seed=3,
                jobs=jobs,
                extractor=ExtractorConfig(mode="all"),
                **settings,
            )
        )
        outs[name] = out, manifest
    return outs


def test_unbenched_emit_and_counterfactual_settings_byte_stable(tmp_path):
    for name, (out, manifest) in unbenched_runs(tmp_path).items():
        digests = sha256s(out, ("bundles_counterfactual.jsonl", "instances.jsonl"))
        assert digests == UNBENCHED_SETTINGS_DIGESTS[name], name
        emitted = manifest["stages"]["emit"]
        if name == "copies2":
            assert emitted["counterfactual"] == 2 * (emitted["records"] - emitted["counterfactual"])
            continue
        assert emitted["skipped_option"] + emitted["skipped_context"] > 0
        tags = []
        with open(out / "instances.jsonl", encoding="utf-8") as fp:
            for inst in read_instances(fp):
                donors = inst.meta.strategy.removeprefix("donors=").split(",")
                tags += [(inst.meta.doc, tag) for tag in donors]
        assert any("+swap" in tag for _, tag in tags)
        assert any(
            tag.split(":")[0] != doc for doc, tag in tags
        ), "no relation-edited donor from another document"


# sha256 of every output of `run_pipeline` on two corpora of the benchmark's
# generator, `make_corpus(n, seed=99, blocks=2, fillers=8)` at seed 99: the
# `all` workload's corpus and a 300-document `first` corpus. Recorded before
# the standalone stages were rebuilt on the run's per-document steps; a
# refactor that is meant to keep outputs must keep these.
BENCH_CORPUS_DIGESTS = {
    "all": (
        150,
        {
            "bundles.jsonl": "199f773e320cf92e124dd5253facd9af821c68fda8b9b47ebd62e3153afea372",
            "bundles_counterfactual.jsonl": "0ab34c230cf2dd76840fa15e19e2f3e9805dfce663f6c755a2145ab488ebc9be",
            "graph.tsv": "2c86ad5313b9ea6648d804d16143657fd3440a8445349fd8c773adc3bf30430c",
            "instances.jsonl": "53877eee5285612f086a330438170012bd330c216fb3e512efad85de8094817d",
            "manifest.json": "edd7108a99375bc6ab2b052e543af41be40f5c0744222880e707a4f404d5aea3",
            "positives.jsonl": "02116068bb5beabd48b84cc5adf68ee4446036049a00bc2bb5dd52870f273d04",
        },
    ),
    "first": (
        300,
        {
            "bundles.jsonl": "e1356cc006f654701f8697839037e7f823169615d537a806b6a7bf2766373ed1",
            "bundles_counterfactual.jsonl": "6b17561b7220e7f623d1c3a4b1b77a0616d397135d79f9b80fabbf8daf0ed9f7",
            "graph.tsv": "6e819b09018384ebd7865351f4c3ab5a347eea8be4df46d2d27136422a8a210c",
            "instances.jsonl": "2d12cd0e27bfad644bccac218cda9acefa6eac99feed6aedcf9d8324925c8917",
            "manifest.json": "b29d452c06c2e6c904ea26171458c31f372f3c7cdcefea18facb0902ad23b55f",
            "positives.jsonl": "077a0dd0b2629e301b7d3b4a0298201aef6be24cd7f85dc8c2e83dafcd7afef4",
        },
    ),
}


def test_bench_corpora_byte_stable(tmp_path):
    for mode, (n_docs, digests) in BENCH_CORPUS_DIGESTS.items():
        corpus = tmp_path / f"{mode}.jsonl"
        with open(corpus, "w", encoding="utf-8") as fp:
            write_corpus(make_corpus(n_docs, seed=99, blocks=2, fillers=8), fp)
        out = tmp_path / mode
        pl.run_pipeline(
            pl.PipelineConfig(
                input=str(corpus),
                output_dir=str(out),
                seed=99,
                extractor=ExtractorConfig(mode=mode),
            )
        )
        fnames = sorted(pl.OUTPUT_FILES.values())
        assert dict(zip(fnames, sha256s(out, fnames))) == digests, mode


def test_bench_all_bundles_round_trip():
    # Every text's document and sentence ordinal included: the record keeps
    # them as `doc`, `context_sentences`, `answer_sentence` and each
    # negative's `donor_doc` and `donor_sentence`.
    docs = make_corpus(150, seed=99, blocks=2, fillers=8)
    positives = pl.stage_extract(docs, ExtractorConfig(mode="all"))
    bundles, _ = pl.stage_negatives(docs, positives, pl.NegativesConfig(), 99)
    out, counts = pl.stage_counterfactual(docs, bundles, pl.CounterfactualConfig(), 99)
    for bundle in out:
        line = record_line(bundle_to_record(bundle))
        assert bundle_from_record(json.loads(line), 1) == bundle
    assert counts["originals"] > 0 and counts["copies"] > 0


def cpus(monkeypatch, n):
    """Let `worker_count` see `n` usable CPUs, whatever the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def test_outputs_do_not_depend_on_jobs(tmp_path, monkeypatch):
    # The runs of the two pinned-digest tests above: swaps, foreign donors,
    # skipped orientations and two copies.
    cpus(monkeypatch, 3)
    assert pl.worker_count(3, 12) == 3
    files = {}
    for jobs in (1, 2, 3):
        root = tmp_path / f"jobs{jobs}"
        root.mkdir()
        outs = donor_path_runs(root, jobs)
        outs.update((name, out) for name, (out, _) in unbenched_runs(root, jobs).items())
        files[jobs] = {
            (name, fname): (out / fname).read_bytes()
            for name, out in outs.items()
            for fname in pl.OUTPUT_FILES.values()
        }
    assert files[2] == files[1]
    assert files[3] == files[1]
    jobs2 = tmp_path / "jobs2"
    for name, digests in DONOR_PATH_DIGESTS.items():
        assert sha256s(jobs2 / name, ("bundles.jsonl", "instances.jsonl")) == digests, name
    for name, digests in UNBENCHED_SETTINGS_DIGESTS.items():
        got = sha256s(jobs2 / name, ("bundles_counterfactual.jsonl", "instances.jsonl"))
        assert got == digests, name


def test_failing_document_stops_workers_and_leaves_no_output(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    docs = make_corpus(40, seed=4)
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(docs, fp)
    real = pl._negative_worker

    def failing(doc, *args):
        if doc.id == docs[2].id:
            raise RecordError(7, f"no donors for {doc.id}", "doc")
        return real(doc, *args)

    monkeypatch.setattr(pl, "_negative_worker", failing)
    cpus(monkeypatch, 2)
    raised = {}
    for jobs in (1, 2):
        out = tmp_path / f"out{jobs}"
        with pytest.raises(Exception) as exc:
            pl.run_pipeline(pl.PipelineConfig(input=str(corpus), output_dir=str(out), seed=1, jobs=jobs))
        raised[jobs] = (type(exc.value), str(exc.value), exc.value.line, exc.value.field)
        assert list(out.iterdir()) == [], jobs
        assert multiprocessing.active_children() == [], jobs
    assert raised[1] == (RecordError, f"line 7: no donors for {docs[2].id}", 7, "doc")
    assert raised[2] == raised[1]


def test_run_leaves_no_per_document_cycles(tmp_path):
    # The run pauses the cyclic collector, so what it leaves for
    # `gc.collect()` must not grow with the corpus.
    left = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        for n in (4, 40):
            corpus = tmp_path / f"corpus{n}.jsonl"
            with open(corpus, "w", encoding="utf-8") as fp:
                write_corpus(make_corpus(n, seed=5, blocks=2, fillers=8), fp)
            cfg = pl.PipelineConfig(
                input=str(corpus),
                output_dir=str(tmp_path / f"out{n}"),
                seed=1,
                extractor=ExtractorConfig(mode="all"),
                counterfactual=pl.CounterfactualConfig(copies=2),
            )
            gc.collect()
            pl.run_pipeline(cfg)
            left[n] = gc.collect()
    finally:
        if enabled:
            gc.enable()
    assert left[4] == left[40]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_caches_no_index_on_the_parsed_documents(tmp_path, monkeypatch, jobs):
    # A stripe keeps its documents until their chains have run, and each
    # standalone stage keeps the corpus, so none may hold anything beyond
    # its records: a document without a `__dict__` has nowhere to cache an
    # index. Each chain logs its document once it has run, from whichever
    # process runs it.
    log = tmp_path / "chained.tsv"
    real = pl._DocumentChain.__call__

    def logging(chain, doc):
        yield from real(chain, doc)
        with open(log, "a", encoding="utf-8") as fp:
            fp.write(f"{doc.id}\t{hasattr(doc, '__dict__')}\n")

    monkeypatch.setattr(pl._DocumentChain, "__call__", logging)
    cpus(monkeypatch, 2)
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, seed=5, blocks=2, fillers=8), fp)
    cfg = pl.PipelineConfig(
        input=str(corpus),
        output_dir=str(tmp_path / "out"),
        seed=1,
        jobs=jobs,
        extractor=ExtractorConfig(mode="all"),
        counterfactual=pl.CounterfactualConfig(copies=2),
    )
    pl.run_pipeline(cfg)
    docs = pl.load_documents(corpus)
    pl.stage_graph_export(docs, io.StringIO())
    per_doc = pl.stage_extract(docs, cfg.extractor)
    bundles, _ = pl.stage_negatives(docs, per_doc, cfg.negatives, cfg.seed)
    copies, counts = pl.stage_counterfactual(docs, bundles, cfg.counterfactual, cfg.seed)
    assert sum(1 for _ in copies) == counts["originals"] + counts["copies"] > 0
    chained = [row.split("\t") for row in log.read_text(encoding="utf-8").splitlines()]
    assert sorted(doc_id for doc_id, _ in chained) == sorted(doc.id for doc in docs)
    assert len(chained) + len(docs) == 80
    for doc_id, has_dict in chained:
        assert has_dict == "False", doc_id
    for doc in docs:
        assert not hasattr(doc, "__dict__"), doc.id


def striped_corpus(path) -> None:
    """A corpus that every way of striping it cuts between workers.

    With four lines to a chunk, line 6 repeats line 1's id, from another
    stripe at two and three jobs; it carries line 8's entities, which the
    alien pool must take from line 8, after line 7's. Line 2 is blank,
    line 4 no JSON and line 9 no valid record.
    """
    records = [document_to_record(doc) for doc in make_corpus(24, seed=6)]
    lines = [json.dumps(record) for record in records]
    repeated = dict(records[6], id=records[0]["id"])
    bad = dict(records[7], sentences=3)
    lines[1:1] = [""]
    lines[3] = "{not json"
    lines[5] = json.dumps(repeated)
    lines[8] = json.dumps(bad)
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def test_stripes_merge_to_the_one_process_run(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    striped_corpus(corpus)
    monkeypatch.setattr(pl, "CHUNK_DOCS", 4)
    cpus(monkeypatch, 3)
    runs = {}
    for jobs in (1, 2, 3):
        out = tmp_path / f"jobs{jobs}"
        skipped = []
        cfg = pl.PipelineConfig(input=str(corpus), output_dir=str(out), seed=3, jobs=jobs)
        manifest = pl.run_pipeline(cfg, skipped)
        files = {fname: (out / fname).read_bytes() for fname in pl.OUTPUT_FILES.values()}
        lines = [(type(err), str(err), err.line, err.field) for err in skipped]
        runs[jobs] = (files, lines)
    assert runs[2] == runs[1]
    assert runs[3] == runs[1]
    assert [line for _, _, line, _ in runs[1][1]] == [4, 6, 9]
    assert manifest["stages"]["parse"] == {"documents": 21, "errors": 3}

    # The standalone stages, on the corpus as `load_documents` reads it,
    # draw the same pools.
    errors = []
    docs = pl.load_documents(corpus, errors)
    assert [(type(e), str(e), e.line, e.field) for e in errors] == runs[1][1]
    positives = pl.stage_extract(docs, cfg.extractor)
    bundles, _ = pl.stage_negatives(docs, positives, cfg.negatives, cfg.seed)
    copies, counts = pl.stage_counterfactual(docs, bundles, cfg.counterfactual, cfg.seed)
    buf = io.StringIO()
    write_bundles(copies, buf)
    assert counts["copies"] > 0
    assert buf.getvalue().encode("utf-8") == runs[1][0]["bundles_counterfactual.jsonl"]


def test_stripes_share_the_one_alien_pool(tmp_path, monkeypatch):
    # Each stripe's share of the alien pool, as a worker sends it, merges
    # to the pool the standalone stage builds.
    corpus = tmp_path / "corpus.jsonl"
    striped_corpus(corpus)
    monkeypatch.setattr(pl, "CHUNK_DOCS", 4)
    cfg = pl.PipelineConfig(input=str(corpus), output_dir=str(tmp_path / "out"), seed=3)
    whole = build_entity_pool(pl.load_documents(corpus, []))
    for workers in (1, 2, 3):
        stripes = [pl._Stripe(cfg, w, workers) for w in range(workers)]
        _, _, request = pl._merged_summaries(cfg, [stripe.summary() for stripe in stripes])
        shares = [stripe.pools(*request)[1] for stripe in stripes]
        assert all(ids for _, ids, _ in shares), workers
        sent = [pickle.loads(pickle.dumps(share)) for share in shares]
        assert merged_aliens(sent) == whole, workers


class NoPickle(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.hook = lambda: None  # a lambda does not pickle


class NoUnpickle(Exception):
    def __init__(self, a, b):  # pickled with one argument, so unpickling fails
        super().__init__(f"{a} {b}")


# What the parse of line 20 raises (None: its process exits), and the
# error a caller of forked workers gets for it.
WORKER_ERRORS = {
    "pickles": (ZeroDivisionError("no parse of line 20"), ZeroDivisionError,
                "no parse of line 20"),
    "no-pickle": (NoPickle("np"), RuntimeError, "NoPickle: np"),
    "no-unpickle": (NoUnpickle("nu", "x"), RuntimeError, "NoUnpickle: nu x"),
    "exit": (None, RuntimeError, "a pipeline worker exited without finishing"),
}


@pytest.mark.parametrize("case", WORKER_ERRORS)
def test_an_error_while_a_worker_parses_reaches_the_caller(tmp_path, monkeypatch, case):
    error, kind, message = WORKER_ERRORS[case]
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, seed=4), fp)
    real = pl.parse_record

    def failing(obj, line):
        if line == 20:  # in the second stripe at every number of workers
            if error is None:
                os._exit(3)
            raise error
        return real(obj, line)

    monkeypatch.setattr(pl, "parse_record", failing)
    cpus(monkeypatch, 3)
    for jobs in (1, 2, 3) if error else (2, 3):  # at jobs 1 `os._exit` ends this process
        out = tmp_path / f"out{jobs}"
        cfg = pl.PipelineConfig(input=str(corpus), output_dir=str(out), seed=1, jobs=jobs)
        with pytest.raises(BaseException) as caught:
            pl.run_pipeline(cfg)
        if jobs == 1:  # passed by reference
            assert caught.value is error
        else:
            assert (type(caught.value), str(caught.value)) == (kind, message), jobs
        assert list(out.iterdir()) == [], jobs
        assert multiprocessing.active_children() == [], jobs


def test_a_worker_that_exits_mid_chain_stops_the_run(tmp_path, monkeypatch):
    # The parent reads each chunk from the worker that runs it, so it may be
    # waiting on another worker's pipe when this one dies.
    corpus = tmp_path / "corpus.jsonl"
    docs = make_corpus(40, seed=4)
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(docs, fp)
    real = pl._negative_worker

    def exiting(doc, *args):
        if doc.id == docs[19].id:  # line 20: the second stripe at every number of workers
            os._exit(3)
        return real(doc, *args)

    monkeypatch.setattr(pl, "_negative_worker", exiting)
    cpus(monkeypatch, 3)
    for jobs in (2, 3):
        out = tmp_path / f"out{jobs}"
        cfg = pl.PipelineConfig(input=str(corpus), output_dir=str(out), seed=1, jobs=jobs)
        with pytest.raises(RuntimeError, match="^a pipeline worker exited without finishing$"):
            pl.run_pipeline(cfg)
        assert list(out.iterdir()) == [], jobs
        assert multiprocessing.active_children() == [], jobs


def holds_bytes(obj) -> bool:
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return True
    if isinstance(obj, dict):
        return any(holds_bytes(k) or holds_bytes(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return any(holds_bytes(item) for item in obj)
    return False


def test_parent_of_forked_workers_relays_shares_unpickled(tmp_path, monkeypatch):
    # Each stripe's share of the pools is already pickled: the parent passes
    # the bytes on as they came, and pickles no message that holds them.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, seed=4), fp)
    parent = os.getpid()
    sent = []
    real = multiprocessing.connection.Connection.send

    def recorded(conn, obj):
        if os.getpid() == parent:
            sent.append(obj)
        return real(conn, obj)

    monkeypatch.setattr(multiprocessing.connection.Connection, "send", recorded)
    cpus(monkeypatch, 2)
    cfg = pl.PipelineConfig(input=str(corpus), output_dir=str(tmp_path / "out"), seed=1, jobs=2)
    pl.run_pipeline(cfg)
    assert not any(holds_bytes(obj) for obj in sent)
    assert len(sent) == 2  # one round-2 request to each worker


def test_parent_of_forked_workers_parses_nothing(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, seed=4), fp)
    parent = os.getpid()
    parsed = []
    real = pl.parse_record

    def counted(obj, line):
        if os.getpid() == parent:
            parsed.append(line)
        return real(obj, line)

    monkeypatch.setattr(pl, "parse_record", counted)
    cpus(monkeypatch, 2)
    for jobs in (2, 1):
        cfg = pl.PipelineConfig(
            input=str(corpus), output_dir=str(tmp_path / f"out{jobs}"), seed=1, jobs=jobs
        )
        manifest = pl.run_pipeline(cfg)
        assert manifest["stages"]["parse"]["documents"] == 40
        assert len(parsed) == (40 if jobs == 1 else 0), jobs


@pytest.mark.parametrize("enabled", [True, False])
def test_run_pauses_collector_and_restores_it(tmp_path, monkeypatch, enabled):
    corpus = tmp_path / "corpus.jsonl"
    docs = make_corpus(6, seed=4)
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(docs, fp)
    real = pl._negative_worker

    def failing(doc, *args):
        # Raised in a forked worker at jobs=2: the message carries its state.
        if doc.id == docs[2].id:
            raise RecordError(7, f"collector enabled: {gc.isenabled()}", "doc")
        return real(doc, *args)

    cpus(monkeypatch, 2)
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for jobs in (1, 2):
            cfg = pl.PipelineConfig(
                input=str(corpus), output_dir=str(tmp_path / f"ok{jobs}"), seed=1, jobs=jobs
            )
            pl.run_pipeline(cfg)
            assert gc.isenabled() is enabled, jobs
        monkeypatch.setattr(pl, "_negative_worker", failing)
        for jobs in (1, 2):
            cfg = pl.PipelineConfig(
                input=str(corpus), output_dir=str(tmp_path / f"bad{jobs}"), seed=1, jobs=jobs
            )
            with pytest.raises(RecordError, match="collector enabled: False"):
                pl.run_pipeline(cfg)
            assert gc.isenabled() is enabled, jobs
    finally:
        (gc.enable if before else gc.disable)()


def test_one_worker_never_forks(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(5, seed=4), fp)
    lone = tmp_path / "lone.jsonl"
    with open(lone, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(1, seed=4), fp)

    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)
    cpus(monkeypatch, 4)
    # One job asked for, or one document to run: no worker either way.
    for path, jobs in ((corpus, 1), (lone, 4)):
        manifest = pl.run_pipeline(
            pl.PipelineConfig(input=str(path), output_dir=str(tmp_path / f"out{jobs}"), seed=2, jobs=jobs)
        )
        assert manifest["stages"]["emit"]["records"] > 0


def test_worker_count_bounded_by_cpus_and_documents(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)
    usable = len(os.sched_getaffinity(0))
    assert pl.worker_count(10_000, 10_000) == usable
    assert pl.worker_count(10_000, 1) == 1
    assert pl.worker_count(10_000, 0) == 1
    assert pl.worker_count(1, 10_000) == 1
    cpus(monkeypatch, 3)
    assert pl.worker_count(10_000, 10_000) == 3
    assert pl.worker_count(2, 10_000) == 2
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert pl.worker_count(10_000, 10_000) == 1
