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
import json
import os
import sys
from contextlib import ExitStack
from dataclasses import fields
from pathlib import Path

from . import pipeline as pl
from .bundle import read_bundles, write_bundles
from .emitter import bundle_to_instances, read_instances, stats
from .jsonl import FIELD_TYPES, RecordError, open_output, typed
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
# Top-level keys of a config file; one file serves every subcommand.
CONFIG_KEYS = ("seed", "extractor", "negatives", "counterfactual", "train")

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
    blob = Path(resolved).read_bytes()
    try:
        data = typed(json.loads(blob.decode("utf-8")), dict, resolved)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{resolved}: invalid UTF-8: {exc.reason} at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{resolved}: invalid JSON: {exc}") from exc
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ValueError(
            f"{', '.join(unknown)}: unknown config key, expected one of {', '.join(CONFIG_KEYS)}"
        )
    return data


def _section(cls, file_cfg: dict, name: str, args=None, **fixed):
    """`cls` from the file's `name` section; a flag whose dest is a field name wins.

    The config class checks every value itself, naming `name.key`.
    """
    merged = dict(typed(file_cfg.get(name, {}), dict, name))
    names = [f.name for f in fields(cls)]
    unknown = sorted(set(merged) - set(names))
    if unknown:
        raise ValueError(f"{name}.{unknown[0]}: unknown config key")
    for key in names:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return cls(**{**merged, **fixed})


def _resolve_seed(args, file_cfg: dict, *, required: bool) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = file_cfg.get("seed")
    if seed is None:
        if required:
            raise SystemExit2("--seed is required (flag or config file)")
        seed = 0
    return typed(seed, int, "seed")


class SystemExit2(Exception):
    """Usage-level error raised after argparse has run."""


def _warn_skipped(errors: list[RecordError]) -> None:
    for err in errors:
        print(f"warning: skipped {err}", file=sys.stderr)


def _load_documents_lenient(path: str):
    errors: list[RecordError] = []
    docs = pl.load_documents(path, errors)
    _warn_skipped(errors)
    return docs


# -- subcommands --


@pl.collector_paused()
def cmd_validate(args) -> int:
    errors: list[RecordError] = []
    docs = pl.load_documents(args.input, errors)
    for err in errors:
        print(str(err), file=sys.stderr)
    print(f"{len(docs)} documents ok, {len(errors)} problems")
    return EXIT_VALIDATION if errors else EXIT_OK


@pl.collector_paused()
def cmd_build_graph(args) -> int:
    docs = _load_documents_lenient(args.input)
    with open_output(args.output) as fp:
        rows = pl.stage_graph_export(docs, fp)
    print(f"{rows} edge rows for {len(docs)} documents -> {args.output}")
    return EXIT_OK


@pl.collector_paused()
def cmd_extract(args) -> int:
    file_cfg = _load_config_file(args.config)
    cfg = _section(ExtractorConfig, file_cfg, "extractor", args)
    docs = _load_documents_lenient(args.input)
    with open_output(args.output) as fp:
        n = pl.write_positives(pl.stage_extract(docs, cfg), fp)
    print(f"{n} positive instances -> {args.output}")
    return EXIT_OK


@pl.collector_paused()
def cmd_negatives(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=False)
    cfg = _section(pl.NegativesConfig, file_cfg, "negatives", args)
    docs = _load_documents_lenient(args.corpus)
    with open(args.input, "rb") as src, open_output(args.output) as fp:
        positives = pl.read_corpus_positives(docs, src)
        bundles, counts = pl.stage_negatives(docs, positives, cfg, seed)
        write_bundles(bundles, fp)
    print(json.dumps(counts))
    return EXIT_OK


@pl.collector_paused()
def cmd_counterfactual(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=False)
    cfg = _section(pl.CounterfactualConfig, file_cfg, "counterfactual", args)
    docs = _load_documents_lenient(args.corpus)
    with open(args.input, "rb") as src, open_output(args.output) as fp:
        bundles = pl.read_corpus_bundles(docs, src)
        out, counts = pl.stage_counterfactual(docs, bundles, cfg, seed)
        write_bundles(out, fp)
    print(json.dumps(counts))
    return EXIT_OK


def cmd_emit(args) -> int:
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=False)
    copies = _section(pl.CounterfactualConfig, file_cfg, "counterfactual", args).copies
    with open(args.input, "rb") as src, open_output(args.output) as fp:
        counts = pl.stage_emit(read_bundles(src), copies, seed, fp)
    print(json.dumps(counts))
    return EXIT_OK


def cmd_train(args) -> int:
    # One file for both has one temporary name: its second move would fail.
    if args.metrics_out and Path(args.metrics_out).resolve() == Path(args.params_out).resolve():
        raise SystemExit2(f"--params-out and --metrics-out name the same file: {args.params_out}")
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=False)
    cfg = _section(TrainConfig, file_cfg, "train", args, seed=seed)
    with open(args.input, "rb") as fp:
        instances = list(read_instances(fp))
    params, metrics = train(instances, cfg)
    # The metrics file is moved into place only after the params file is,
    # so a failure to write either leaves both as they were.
    with ExitStack() as outputs:
        if args.metrics_out:
            fp = outputs.enter_context(open_output(args.metrics_out))
            fp.writelines(json.dumps(row) + "\n" for row in metrics)
        save_params(params, args.params_out)
    final = metrics[-1] if metrics else {"loss": None, "accuracy": None}
    print(json.dumps({"instances": len(instances), **final}))
    return EXIT_OK


def cmd_grad_check(args) -> int:
    seed = args.seed if args.seed is not None else 0
    docs = make_corpus(3, seed=seed, blocks=1, fillers=2)
    positives = pl.stage_extract(docs, ExtractorConfig(mode="all"))
    bundles, _ = pl.stage_negatives(docs, positives, pl.NegativesConfig(), seed)
    instances = [i for b in bundles for i in bundle_to_instances(b, seed)][:4]
    if not instances:
        print("no instances for the check", file=sys.stderr)
        return EXIT_RUNTIME
    texts = [i.query for i in instances] + [c for i in instances for c in i.candidates]
    params = init_params(build_vocab(texts), dim=8, hidden=6, seed=seed)

    def producer(p):
        return total_loss_and_grads(
            p, instances, mlm_weight=1.0, mask_rate=0.15, seed=seed
        )

    err = grad_check(producer, params, h=1e-5, n_coords=200, seed=seed)
    threshold = 1e-4
    print(f"max relative error: {err:.3e} (threshold {threshold:.1e})")
    return EXIT_OK if err < threshold else EXIT_RUNTIME


def cmd_eval(args) -> int:
    params = load_params(args.params)
    with open(args.input, "rb") as fp:
        instances = list(read_instances(fp))
    acc = evaluate(params, instances)
    print(json.dumps({"instances": len(instances), "accuracy": acc}))
    return EXIT_OK


def cmd_stats(args) -> int:
    with open(args.input, "rb") as fp:
        print(json.dumps(stats(fp), indent=2))
    return EXIT_OK


def cmd_run(args) -> int:
    # A "train" section in the file is left to `pathcl train`: run never trains.
    file_cfg = _load_config_file(args.config)
    seed = _resolve_seed(args, file_cfg, required=True)
    cfg = pl.PipelineConfig(
        input=args.input,
        output_dir=args.output_dir,
        seed=seed,
        extractor=_section(ExtractorConfig, file_cfg, "extractor", args),
        negatives=_section(pl.NegativesConfig, file_cfg, "negatives", args),
        counterfactual=_section(pl.CounterfactualConfig, file_cfg, "counterfactual", args),
    )
    if not Path(cfg.input).exists():
        raise FileNotFoundError(f"input corpus not found: {cfg.input}")
    skipped: list[RecordError] = []
    try:
        manifest = pl.run_pipeline(cfg, skipped)
    finally:  # the corpus is parsed before the run can fail on a document
        _warn_skipped(skipped)
    print(json.dumps(manifest["stages"]))
    print(f"manifest -> {Path(cfg.output_dir) / pl.OUTPUT_FILES['manifest']}")
    return EXIT_OK


# -- parser wiring --


def _add_common(p: argparse.ArgumentParser, *, seed=True, config=True):
    if seed:
        p.add_argument("--seed", type=int, default=None, help="root random seed")
    if config:
        p.add_argument(
            "--config",
            default=None,
            help=f"JSON config file (default from ${CONFIG_ENV})",
        )


def _add_config_flags(p: argparse.ArgumentParser, cls, only: tuple[str, ...] | None = None):
    """One flag per field of config class `cls` (or of its fields in `only`).

    A field's flag is "--" and its name with "-" for "_"; its type, choices
    and help are those the field declares. `copies` is spelled
    `--cf-ratio 1:N`, and `seed` is left to `_add_common`.
    """
    for f in fields(cls):
        if f.name == "seed" or (only is not None and f.name not in only):
            continue
        if f.name == "copies":
            flag, kind = "--cf-ratio", {"type": parse_ratio, "metavar": "1:N"}
        else:
            flag = "--" + f.name.replace("_", "-")
            kind = {"type": FIELD_TYPES[f.type], "choices": list(f.metadata["choices"]) or None}
        p.add_argument(flag, dest=f.name, default=None, help=f.metadata["help"], **kind)


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
    _add_common(p, seed=False)
    _add_config_flags(p, ExtractorConfig)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("negatives", help="generate relation-edited negatives")
    p.add_argument("--corpus", required=True)
    p.add_argument("--input", required=True, help="positives file")
    p.add_argument("--output", required=True, help="bundles file")
    _add_common(p)
    _add_config_flags(p, pl.NegativesConfig)
    p.set_defaults(func=cmd_negatives)

    p = sub.add_parser("counterfactual", help="add counterfactual copies")
    p.add_argument("--corpus", required=True)
    p.add_argument("--input", required=True, help="bundles file")
    p.add_argument("--output", required=True)
    _add_common(p)
    _add_config_flags(p, pl.CounterfactualConfig)
    p.set_defaults(func=cmd_counterfactual)

    p = sub.add_parser("emit", help="serialize contrastive instances")
    p.add_argument("--input", required=True, help="bundles file")
    p.add_argument("--output", required=True)
    _add_common(p)
    _add_config_flags(p, pl.CounterfactualConfig, only=("copies",))  # emit reads only the mix
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("train", help="train the toy scorer")
    p.add_argument("--input", required=True, help="instances file")
    p.add_argument("--params-out", required=True)
    p.add_argument("--metrics-out", default=None)
    _add_common(p)
    _add_config_flags(p, TrainConfig)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grad-check", help="verify analytic gradients numerically")
    _add_common(p, config=False)
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
    _add_common(p)
    for cls in (ExtractorConfig, pl.NegativesConfig, pl.CounterfactualConfig):
        _add_config_flags(p, cls)
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
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
