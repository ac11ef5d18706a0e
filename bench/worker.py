"""Everything that imports pathcl, run in a fresh interpreter by `run.py`.

Usage: python worker.py '<task json>'

Task modes:
- "calibrate": time a fixed workload that runs no pathcl code.
- "prepare": generate a workload's input files from its seed.
- "setup": import numpy and pathcl from the checkout's `src/` (and, for
  the trainer workload, read the instance files), print `ready`, exit.
- "sample": set up as above, print `ready`, run the timed work once, then
  print one JSON line with its measurements and the digests of the
  outputs; with "check", also the problems the output checks found. With
  "trace", the layer functions are wrapped in spans before set-up, the
  per-layer figures are added and the spans are written to "spans".

The harness itself never imports pathcl or numpy and so stays small: a
forked child starts with its parent's peak RSS as its own, which would
otherwise leak into `peak_rss_mb`. Peak RSS is read right after the timed
work, before any check or read-back runs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

from tracer import Tracer, maxrss_mb

STAGES = (
    ("load_documents", "load_documents"),
    ("stage_graph_export", "graph_export"),
    ("stage_extract", "extract"),
    ("write_positives", "write_positives"),
    ("stage_negatives", "negatives"),
    ("stage_counterfactual", "counterfactual"),
    ("stage_emit", "emit"),
)

LAYER_SPANS = (
    ("pathcl.corpus", "parse_corpus", "corpus.parse"),
    ("pathcl.graph", "build_entity_graph", "graph.build"),
    ("pathcl.graph", "write_edge_list", "graph.export"),
    ("pathcl.negatives", "build_donor_pool", "negatives.pool"),
    ("pathcl.negatives", "make_negative_options", "negatives.options"),
    ("pathcl.negatives", "make_negative_contexts", "negatives.contexts"),
    ("pathcl.counterfactual", "select_replacements", "counterfactual.select"),
    ("pathcl.counterfactual", "apply_counterfactual", "counterfactual.apply"),
    ("pathcl.bundle", "assemble_bundle", "bundle.assemble"),
    ("pathcl.bundle", "write_bundles", "bundle.write"),
    ("pathcl.bundle", "read_bundles", "bundle.read"),
    ("pathcl.emitter", "bundle_to_instances", "emitter.build"),
    ("pathcl.emitter", "emit_instances", "emitter.write"),
    ("pathcl.emitter", "read_instances", "emitter.read"),
    ("pathcl.trainer", "build_vocab", "trainer.vocab"),
    # Pool task entry points: a forked worker flushes its totals after each.
    ("pathcl.pipeline", "_extract_worker", "pipeline.extract_worker"),
    ("pathcl.pipeline", "_negative_worker", "pipeline.negative_worker"),
    ("pathcl.pipeline", "run_pipeline", "pipeline.run"),
)


def calibrate(rounds: int = 3, size: int = 30_000) -> float:
    """Seconds for a fixed pure-Python workload shaped like the pipeline's.

    It builds, serializes, sorts and indexes records of a few tens of MB,
    runs no pathcl code and has the collector off, so its time follows only
    the machine's current speed. It runs in a process of its own so that
    its memory never counts in a sample's peak RSS.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(rounds):
            rows = [
                {"id": f"e{i:07d}", "doc": i % 997, "text": f"sentence {i} names entity {i % 131}"}
                for i in range(size)
            ]
            rows = json.loads(json.dumps(rows))
            rows.sort(key=lambda row: (row["doc"], row["id"]))
            index = {row["id"]: row for row in rows}
            sum(len(index[row["id"]]["text"].split()) for row in rows)
        return time.perf_counter() - started
    finally:
        gc.enable()


def cpu_seconds() -> tuple[float, float]:
    """(own, reaped children) user plus system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def install_tracer(trace_dir: Path) -> Tracer:
    tracer = Tracer(trace_dir)
    for module, attr, name in LAYER_SPANS:
        tracer.wrap(module, attr, name)
    tracer.wrap(
        "pathcl.metapath",
        "extract_positive_instances",
        "metapath.extract",
        observe=lambda found: {
            "metapath.docs_with_positive": int(bool(found)),
            "metapath.positives": len(found),
        },
    )
    for attr, stage in STAGES:
        tracer.wrap("pathcl.pipeline", attr, f"pipeline.{stage}", rss=True)
    return tracer


def pipeline_layers(tracer, manifest: dict, out: Path, spec: dict) -> dict:
    s, t, c = tracer.self_s, tracer.total_s, tracer.counts
    stages = manifest["stages"]
    neg, cf = stages["negatives"], stages["counterfactual"]
    layer = {
        "corpus.parse_s": s["corpus.parse"],
        "graph.build_s": s["graph.build"],
        "graph.builds": c["graph.build"],
        "graph.export_s": s["graph.export"],
        "metapath.extract_s": s["metapath.extract"],
        "metapath.positives": c["metapath.positives"],
        "metapath.yield": c["metapath.docs_with_positive"] / max(c["metapath.extract"], 1),
        "negatives.pool_s": s["negatives.pool"],
        "negatives.options_s": s["negatives.options"],
        "negatives.contexts_s": s["negatives.contexts"],
        "negatives.keep_ratio": neg["bundles"] / max(neg["bundles"] + neg["skipped_no_donor"], 1),
        "counterfactual.select_s": s["counterfactual.select"],
        "counterfactual.apply_s": s["counterfactual.apply"],
        "counterfactual.copy_ratio": cf["copies"] / max(cf["originals"] * spec["copies"], 1),
        "bundle.assemble_s": s["bundle.assemble"],
        "bundle.write_s": s["bundle.write"],
        "bundle.bytes": sum(
            (out / name).stat().st_size
            for name in ("bundles.jsonl", "bundles_counterfactual.jsonl")
        ),
        "bundle.read_s": s["bundle.read"],
        "emitter.build_s": s["emitter.build"],
        "emitter.write_s": s["emitter.write"],
        "emitter.records": stages["emit"]["records"],
        "emitter.read_s": s["emitter.read"],
    }
    stage_total = 0.0
    for _, stage in STAGES:
        layer[f"pipeline.{stage}_s"] = t[f"pipeline.{stage}"]
        layer[f"pipeline.rss_growth_mb.{stage}"] = tracer.rss_growth_mb[f"pipeline.{stage}"]
        stage_total += t[f"pipeline.{stage}"]
    layer["pipeline.other_s"] = t["pipeline.run"] - stage_total
    return layer


# -- inputs and checks --

VALIDATE_SAMPLE = 50


def prepare_inputs(task: dict) -> dict:
    """Write the workload's input files into task["inputs"] (atomically)."""
    from pathcl import pipeline as pl
    from pathcl.corpus import write_corpus
    from pathcl.synth import make_corpus, split_corpus

    spec = task["spec"]
    inputs = Path(task["inputs"])
    tmp = inputs.with_name(inputs.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    docs = make_corpus(spec["docs"], task["seed"], blocks=spec["blocks"], fillers=spec["fillers"])
    if spec["kind"] == "pipeline":
        with open(tmp / "corpus.jsonl", "w", encoding="utf-8") as fp:
            write_corpus(docs, fp)
        meta = {"docs": len(docs)}
    else:
        parts = split_corpus(docs, spec["holdout"], seed=spec["split_seed"])
        for part, split in zip(parts, ("train", "heldout")):
            with open(tmp / f"{split}_corpus.jsonl", "w", encoding="utf-8") as fp:
                write_corpus(part, fp)
            pl.run_pipeline(
                pl.PipelineConfig(
                    input=str(tmp / f"{split}_corpus.jsonl"),
                    output_dir=str(tmp / split),
                    seed=spec["pipeline_seed"],
                )
            )
            os.replace(tmp / split / "instances.jsonl", tmp / f"{split}.jsonl")
            shutil.rmtree(tmp / split)
        meta = {"train_docs": len(parts[0]), "heldout_docs": len(parts[1])}
    (tmp / "meta.json").write_text(json.dumps(meta))
    shutil.rmtree(inputs, ignore_errors=True)
    os.replace(tmp, inputs)
    return meta


def digests(out: Path) -> dict[str, str]:
    from pathcl.pipeline import OUTPUT_FILES

    found = {}
    for name in sorted(OUTPUT_FILES.values()):
        h = hashlib.sha256()
        with open(out / name, "rb") as fp:
            for block in iter(lambda: fp.read(1 << 20), b""):
                h.update(block)
        found[name] = h.hexdigest()
    return found


def count_lines(path: Path) -> int:
    with open(path, "rb") as fp:
        return sum(1 for line in fp if line.strip())


def check_pipeline_outputs(out: Path, inputs: Path, seed: int) -> list[str]:
    """Manifest counts, instance parsing and meta-path validity of one run."""
    from pathcl import pipeline as pl
    from pathcl.emitter import read_instances
    from pathcl.graph import build_entity_graph
    from pathcl.metapath import validate_instance

    problems = []
    stages = json.loads((out / "manifest.json").read_text())["stages"]
    cf = stages["counterfactual"]
    expected = {
        "graph.tsv": stages["graph"]["edges"],
        "positives.jsonl": stages["extract"]["instances"],
        "bundles.jsonl": stages["negatives"]["bundles"],
        "bundles_counterfactual.jsonl": cf["originals"] + cf["copies"],
        "instances.jsonl": stages["emit"]["records"],
    }
    for name, count in expected.items():
        lines = count_lines(out / name)
        if lines != count:
            problems.append(f"{name}: {lines} lines, manifest says {count}")
    meta = json.loads((inputs / "meta.json").read_text())
    if stages["parse"] != {"documents": meta["docs"], "errors": 0}:
        problems.append(f"parse: {stages['parse']} for {meta['docs']} documents")
    if stages["emit"]["records"] == 0:
        problems.append("no instances emitted")
    with open(out / "instances.jsonl", encoding="utf-8") as fp:
        parsed = sum(1 for _ in read_instances(fp))
    if parsed != stages["emit"]["records"]:
        problems.append(f"instances.jsonl: {parsed} records parse, manifest says {stages['emit']['records']}")
    with open(out / "positives.jsonl", encoding="utf-8") as fp:
        positives = list(pl.read_positives(fp))
    chosen = random.Random(seed).sample(positives, min(VALIDATE_SAMPLE, len(positives)))
    wanted = {inst.doc_id for inst in chosen}
    docs = {doc.id: doc for doc in pl.load_documents(inputs / "corpus.jsonl") if doc.id in wanted}
    for inst in chosen:
        doc = docs[inst.doc_id]
        found = validate_instance(inst, doc, build_entity_graph(doc))
        if found:
            problems.append(f"positive {inst.doc_id} {inst.pair}: {found}")
    return problems


# -- samples --


def setup_pipeline(task: dict):
    from pathcl import pipeline as pl
    from pathcl.metapath import ExtractorConfig

    spec = task["spec"]
    return pl.PipelineConfig(
        input=str(Path(task["inputs"]) / "corpus.jsonl"),
        output_dir=task["out"],
        seed=task["seed"],
        jobs=task.get("jobs", spec["jobs"]),
        extractor=ExtractorConfig(mode=spec["mode"]),
        counterfactual=pl.CounterfactualConfig(copies=spec["copies"]),
    )


def run_pipeline_sample(task: dict, cfg, tracer) -> dict:
    from pathcl import pipeline as pl

    spec = task["spec"]
    out = Path(task["out"])
    own0, kids0 = cpu_seconds()
    started = time.perf_counter()
    manifest = pl.run_pipeline(cfg)
    run_s = time.perf_counter() - started
    own1, kids1 = cpu_seconds()
    result = {
        "run_s": run_s,
        "cpu_s": (own1 - own0) + (kids1 - kids0),
        "peak_rss_mb": maxrss_mb(),
        "docs": manifest["stages"]["parse"]["documents"],
        "instances": manifest["stages"]["emit"]["records"],
        "digests": digests(out),
    }
    if task.get("check"):
        result["problems"] = check_pipeline_outputs(out, Path(task["inputs"]), task["seed"])
    if tracer is not None:
        # Read the outputs back the way the standalone `emit` and `train`
        # subcommands do, so a faster writer that slows reading shows.
        from pathcl.emitter import read_instances

        pl.read_bundle_file(out / "bundles_counterfactual.jsonl")
        with open(out / "instances.jsonl", encoding="utf-8") as fp:
            for _ in read_instances(fp):
                pass
        tracer.merge_worker_totals()
        result["layer"] = dict(
            pipeline_layers(tracer, manifest, out, spec),
            **{
                "pipeline.worker_cpu_s": kids1 - kids0,
                "pipeline.worker_peak_rss_mb": maxrss_mb(resource.RUSAGE_CHILDREN),
            },
        )
    return result


def setup_train(task: dict):
    from pathcl.emitter import read_instances

    inputs = Path(task["inputs"])
    with open(inputs / "train.jsonl", encoding="utf-8") as fp:
        train_set = list(read_instances(fp))
    with open(inputs / "heldout.jsonl", encoding="utf-8") as fp:
        held_set = list(read_instances(fp))
    meta = json.loads((inputs / "meta.json").read_text())
    return train_set, held_set, meta


def run_train_sample(task: dict, prepared, tracer) -> dict:
    from pathcl.trainer import TrainConfig, evaluate, total_loss_and_grads, train

    spec = task["spec"]
    train_set, held_set, meta = prepared
    cfg = TrainConfig(epochs=spec["epochs"], **spec["train_config"])
    own0, kids0 = cpu_seconds()
    started = time.perf_counter()
    params, metrics = train(train_set, cfg)
    train_s = time.perf_counter() - started
    accuracy = evaluate(params, held_set)
    run_s = time.perf_counter() - started
    own1, kids1 = cpu_seconds()
    result = {
        "run_s": run_s,
        "train_s": train_s,
        "cpu_s": (own1 - own0) + (kids1 - kids0),
        "peak_rss_mb": maxrss_mb(),
        # Each epoch passes over every training document's instances once.
        "docs": meta["train_docs"] * cfg.epochs,
        "instances": len(train_set) * cfg.epochs,
        "heldout_acc": accuracy,
        "final_loss": metrics[-1]["loss"],
    }
    if tracer is not None:
        with tracer.span("trainer.grad"):
            for start in range(0, len(train_set), cfg.batch_size):
                total_loss_and_grads(
                    params,
                    train_set[start : start + cfg.batch_size],
                    mlm_weight=cfg.mlm_weight,
                    mask_rate=cfg.mask_rate,
                    seed=cfg.seed,
                )
        with tracer.span("trainer.eval"):
            evaluate(params, train_set)
        s = tracer.self_s
        result["layer"] = {
            "emitter.read_s": s["emitter.read"],
            "trainer.vocab_s": s["trainer.vocab"],
            "trainer.grad_s": s["trainer.grad"],
            "trainer.eval_s": s["trainer.eval"],
            "trainer.final_loss": result["final_loss"],
            "trainer.heldout_acc": accuracy,
        }
    return result


def main() -> int:
    task = json.loads(sys.argv[1])
    if task["mode"] == "calibrate":
        print(json.dumps({"cal_s": calibrate()}), flush=True)
        return 0
    src = Path(task["root"]) / "src"
    sys.path.insert(0, str(src))
    import numpy
    import pathcl
    from pathcl import pipeline, trainer  # noqa: F401  (part of the measured set-up)

    if Path(pathcl.__file__).resolve().parent != (src / "pathcl").resolve():
        raise SystemExit(f"imported pathcl from {pathcl.__file__}, not from {src}")
    if task["mode"] == "prepare":
        print(json.dumps(prepare_inputs(task)), flush=True)
        return 0
    tracer = install_tracer(Path(task["trace_dir"])) if task.get("trace") else None
    if task["spec"]["kind"] == "train":
        setup, runner = setup_train, run_train_sample
    else:
        setup, runner = setup_pipeline, run_pipeline_sample
    prepared = setup(task)
    print("ready", flush=True)
    if task["mode"] == "setup":
        return 0
    result = runner(task, prepared, tracer)
    result["numpy"] = numpy.__version__
    if tracer is not None:
        tracer.write_spans(Path(task["spans"]))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
