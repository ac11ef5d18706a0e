"""Command-line interface.

Every stage reads the previous stage's file, so any prefix of the
pipeline can be rerun or inspected in isolation; `run` executes the whole
chain and writes a manifest with per-stage counts and a configuration
hash. All randomness flows from --seed. Defaults may be supplied by a
JSON config file (--config or the PATHCL_CONFIG environment variable);
explicit flags win over the file.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 validation
failure.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import pipeline as pl
from .bundle import BundleError, write_bundles
from .corpus import CorpusError, parse_corpus
from .emitter import DatasetError, read_instances, stats
from .metapath import ExtractorConfig
from .synth import make_corpus
from .trainer import (
    TrainConfig,
    build_vocab,
    evaluate,
    grad_check,
    init_params,
    load_params,
    save_params,
    total_loss_and_grads,
    train,
)

CONFIG_ENV = "PATHCL_CONFIG"

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_VALIDATION = 3


def parse_ratio(text: str) -> int:
    """Counterfactual mix as '1:N' (or '0' to disable); returns N."""
    if text.strip() == "0":
        return 0
    parts = text.split(":")
    if len(parts) != 2 or parts[0] != "1":
        raise argparse.ArgumentTypeError(f"expected '1:N' or '0', got {text!r}")
    try:
        n = int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ratio {text!r}") from exc
    if n < 0:
        raise argparse.ArgumentTypeError("ratio component must be >= 0")
    return n


def _load_config_file(path: str | None) -> dict:
    resolved = path or os.environ.get(CONFIG_ENV)
    if not resolved:
        return {}
    with open(resolved, "r", encoding="utf-8") as fp:
        data = json.load(fp)
    if not isinstance(data, dict):
        raise ValueError("config file must hold a JSON object")
    return data


def _section(cls, file_cfg: dict, name: str, args=None, **fixed):
    """`cls` from the file's `name` section; a flag whose dest is a field name wins."""
    merged = dict(file_cfg.get(name, {}))
    unknown = set(merged) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {name} config keys: {sorted(unknown)}")
    for f in fields(cls):
        value = getattr(args, f.name, None)
        if value is not None:
            merged[f.name] = value
    merged.update(fixed)
    return cls(**merged)


def _resolve_seed(args, file_cfg: dict, *, required: bool) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = file_cfg.get("seed")
    if seed is None:
        if required:
            raise SystemExit2("--seed is required (flag or config file)")
        seed = 0
    return int(seed)


class SystemExit2(Exception):
    """Usage-level error raised after argparse has run."""


def _load_documents_lenient(path: str):
    errors: list[CorpusError] = []
    with open(path, "r", encoding="utf-8") as fp:
        docs = list(parse_corpus(fp, errors))
    for err in errors:
        print(f"warning: skipped {err}", file=sys.stderr)
    return docs


# -- subcommands --


def cmd_validate(args) -> int:
    errors: list[CorpusError] = []
    with open(args.input, "r", encoding="utf-8") as fp:
        n = sum(1 for _ in parse_corpus(fp, errors))
    for err in errors:
        print(str(err), file=sys.stderr)
    print(f"{n} documents ok, {len(errors)} problems")
    return EXIT_VALIDATION if errors else EXIT_OK


def cmd_build_graph(args) -> int:
    docs = _load_documents_lenient(args.input)
    with open(args.output, "w", encoding="utf-8") as fp:
        rows = pl.stage_graph_export(docs, fp)
    print(f"{rows} edge rows for {len(docs)} documents -> {args.output}")
    return EXIT_OK


def cmd_extract(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _section(ExtractorConfig, file_cfg, "extractor", args)
    docs = _load_documents_lenient(args.input)
    per_doc = pl.stage_extract(docs, cfg)
    with open(args.output, "w", encoding="utf-8") as fp:
        n = pl.write_positives((i for doc in per_doc for i in doc), fp)
    print(f"{n} positive instances -> {args.output}")
    return EXIT_OK


def _positives_by_doc(docs, path):
    index = {doc.id: i for i, doc in enumerate(docs)}
    per_doc = [[] for _ in docs]
    with open(path, "r", encoding="utf-8") as fp:
        for inst in pl.read_positives(fp):
            if inst.doc_id not in index:
                raise ValueError(f"instance references unknown document {inst.doc_id!r}")
            per_doc[index[inst.doc_id]].append(inst)
    return per_doc


def cmd_negatives(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=False)
    cfg = _section(pl.NegativesConfig, file_cfg, "negatives", args)
    docs = _load_documents_lenient(args.corpus)
    per_doc = _positives_by_doc(docs, args.input)
    bundles, counts = pl.stage_negatives(docs, per_doc, cfg, seed)
    with open(args.output, "w", encoding="utf-8") as fp:
        write_bundles(bundles, fp)
    print(json.dumps(counts))
    return EXIT_OK


def cmd_counterfactual(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=False)
    cfg = _section(pl.CounterfactualConfig, file_cfg, "counterfactual", args)
    docs = _load_documents_lenient(args.corpus)
    bundles = pl.read_bundle_file(args.input)
    out, counts = pl.stage_counterfactual(docs, bundles, cfg, seed)
    with open(args.output, "w", encoding="utf-8") as fp:
        write_bundles(out, fp)
    print(json.dumps(counts))
    return EXIT_OK


def cmd_emit(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=False)
    emit_cfg = _section(pl.EmitConfig, file_cfg, "emitter", args)
    copies = args.copies
    if copies is None:
        copies = file_cfg.get("counterfactual", {}).get("copies", 1)
    bundles = pl.read_bundle_file(args.input)
    with open(args.output, "w", encoding="utf-8") as fp:
        counts = pl.stage_emit(bundles, copies, emit_cfg, seed, fp)
    print(json.dumps(counts))
    return EXIT_OK


def cmd_train(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=False)
    cfg = _section(TrainConfig, file_cfg, "train", args, seed=seed)
    with open(args.input, "r", encoding="utf-8") as fp:
        instances = list(read_instances(fp))
    params, metrics = train(instances, cfg)
    save_params(params, args.params_out)
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fp:
            for row in metrics:
                fp.write(json.dumps(row) + "\n")
    final = metrics[-1] if metrics else {"loss": None, "accuracy": None}
    print(json.dumps({"instances": len(instances), **final}))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    seed = args.seed if args.seed is not None else 0
    docs = make_corpus(3, seed=seed, blocks=1, fillers=2)
    per_doc = pl.stage_extract(docs, ExtractorConfig(mode="all"))
    bundles, _ = pl.stage_negatives(docs, per_doc, pl.NegativesConfig(), seed)
    buf = io.StringIO()
    pl.stage_emit(bundles, 0, pl.EmitConfig(), seed, buf)
    buf.seek(0)
    instances = list(read_instances(buf))[: args.batch]
    if not instances:
        print("no instances for the check", file=sys.stderr)
        return EXIT_RUNTIME
    texts = [i.query for i in instances] + [c for i in instances for c in i.candidates]
    params = init_params(build_vocab(texts), args.dim, args.hidden, seed)

    def producer(p):
        return total_loss_and_grads(
            p, instances, mlm_weight=1.0, mask_rate=0.15, seed=seed
        )

    err = grad_check(producer, params, h=args.step, n_coords=args.coords, seed=seed)
    print(f"max relative error: {err:.3e} (threshold {args.threshold:.1e})")
    return EXIT_OK if err < args.threshold else EXIT_RUNTIME


def cmd_eval(args) -> int:
    params = load_params(args.params)
    with open(args.input, "r", encoding="utf-8") as fp:
        instances = list(read_instances(fp))
    acc = evaluate(params, instances)
    print(json.dumps({"instances": len(instances), "accuracy": acc}))
    return EXIT_OK


def cmd_stats(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fp:
        print(json.dumps(stats(fp).to_dict(), indent=2))
    return EXIT_OK


def cmd_run(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=True)
    cfg = pl.PipelineConfig(
        input=args.input,
        output_dir=args.output_dir,
        seed=seed,
        extractor=_section(ExtractorConfig, file_cfg, "extractor", args),
        negatives=_section(pl.NegativesConfig, file_cfg, "negatives", args),
        counterfactual=_section(pl.CounterfactualConfig, file_cfg, "counterfactual", args),
        emitter=_section(pl.EmitConfig, file_cfg, "emitter", args),
        # From the file alone: the `run` parser's --seed must not become TrainConfig.seed.
        train=_section(TrainConfig, file_cfg, "train"),
    )
    if not Path(cfg.input).exists():
        raise FileNotFoundError(f"input corpus not found: {cfg.input}")
    manifest = pl.run_pipeline(cfg)
    print(json.dumps(manifest["stages"]))
    print(f"manifest -> {Path(cfg.output_dir) / pl.OUTPUT_FILES['manifest']}")
    return EXIT_OK


# -- parser wiring --


def _add_common(p: argparse.ArgumentParser, *, seed=True, config=True, jobs=False):
    if seed:
        p.add_argument("--seed", type=int, default=None, help="root random seed")
    if config:
        p.add_argument(
            "--config",
            default=None,
            help=f"JSON config file (default from ${CONFIG_ENV})",
        )
    if jobs:
        p.add_argument(
            "--jobs", type=int, default=None, help="accepted and ignored; work runs serially"
        )


def _add_extractor_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-hops", type=int, default=None, help="max entities on a path")
    p.add_argument("--mode", choices=["first", "all"], default=None, help="pair iteration mode")
    p.add_argument(
        "--greedy",
        dest="backtracking",
        action="store_const",
        const=False,
        default=None,
        help="commit to the first viable hop instead of backtracking",
    )
    p.add_argument(
        "--allow-empty-context",
        dest="require_context",
        action="store_const",
        const=False,
        default=None,
        help="accept paths whose hops consume no sentence",
    )


def _add_negative_flags(p: argparse.ArgumentParser):
    p.add_argument("--num-negatives", type=int, default=None, help="negatives per instance (K)")
    p.add_argument("--pool-size", type=int, default=None, help="cross-document donor pool cap")
    p.add_argument(
        "--no-cross-document",
        dest="allow_cross_document",
        action="store_const",
        const=False,
        default=None,
    )
    p.add_argument(
        "--no-swap-fallback",
        dest="swap_fallback",
        action="store_const",
        const=False,
        default=None,
    )
    p.add_argument(
        "--ready-negatives",
        action="store_const",
        const=True,
        default=None,
        help="reuse other documents' answers for the same pair as negatives",
    )


def _add_counterfactual_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--cf-ratio",
        dest="copies",
        type=parse_ratio,
        default=None,
        metavar="1:N",
        help="original:counterfactual mix ('0' disables)",
    )
    p.add_argument("--include-prob", type=float, default=None, help="replacement probability for non-target path entities")
    p.add_argument(
        "--pool-strategy",
        choices=["uniform", "same-batch-documents"],
        default=None,
    )
    p.add_argument("--window", type=int, default=None, help="document window for same-batch-documents")


def _add_emit_flags(p: argparse.ArgumentParser):
    p.add_argument(
        "--no-shuffle-gold",
        dest="shuffle_gold",
        action="store_const",
        const=False,
        default=None,
        help="keep the gold candidate at index 0",
    )


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--mlm-weight", type=float, default=None)
    p.add_argument("--mask-rate", type=float, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathcl",
        description="Meta-path guided contrastive pre-training data builder and trainer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a corpus file against the schema")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("build-graph", help="export per-document entity graphs")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_build_graph)

    p = sub.add_parser("extract", help="extract positive instances")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    _add_common(p, seed=False, jobs=True)
    _add_extractor_flags(p)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("negatives", help="generate relation-edited negatives")
    p.add_argument("--corpus", required=True)
    p.add_argument("--input", required=True, help="positives file")
    p.add_argument("--output", required=True, help="bundles file")
    _add_common(p, jobs=True)
    _add_negative_flags(p)
    p.set_defaults(func=cmd_negatives)

    p = sub.add_parser("counterfactual", help="add counterfactual copies")
    p.add_argument("--corpus", required=True)
    p.add_argument("--input", required=True, help="bundles file")
    p.add_argument("--output", required=True)
    _add_common(p)
    _add_counterfactual_flags(p)
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("emit", help="serialize contrastive instances")
    p.add_argument("--input", required=True, help="bundles file")
    p.add_argument("--output", required=True)
    _add_common(p)
    _add_counterfactual_flags(p)
    _add_emit_flags(p)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("train", help="train the toy scorer")
    p.add_argument("--input", required=True, help="instances file")
    p.add_argument("--params-out", required=True)
    p.add_argument("--metrics-out", default=None)
    _add_common(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grad-check", help="verify analytic gradients numerically")
    _add_common(p, config=False)
    p.add_argument("--threshold", type=float, default=1e-4)
    p.add_argument("--coords", type=int, default=200)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--batch", type=int, default=4)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--hidden", type=int, default=6)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("eval", help="accuracy of saved params on an instance file")
    p.add_argument("--params", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("stats", help="summarize an instance file")
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("run", help="run the whole pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--output-dir", required=True)
    _add_common(p, jobs=True)
    _add_extractor_flags(p)
    _add_negative_flags(p)
    _add_counterfactual_flags(p)
    _add_emit_flags(p)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, BundleError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
