"""Stage orchestration shared by the CLI subcommands.

Every stage boundary is a file, so each stage can run standalone and the
full run is the byte-exact composition of the stages. Randomness is
derived per instance from the root seed and the instance's stable key.
Documents are processed one at a time, in input order.

The stages after extraction are lazy. `stage_negatives` and
`stage_counterfactual` return an iterator of bundles together with a
counters dict that is final once the iterator is drained, and
`stage_emit` consumes bundles one at a time. `run_pipeline` chains them
in one pass, so each bundle reaches its files as soon as it is built:
only the documents, the positives and the two sampling pools (donor
sentences and alien entities) stay resident. Every output file is written
under a temporary name and moved into place only when its stage succeeds.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Sequence

from .bundle import InstanceBundle, assemble_bundle, bundle_to_record, read_bundles
from .corpus import Document, parse_corpus
from .counterfactual import AlienEntity, apply_counterfactual, build_entity_pool, select_replacements
from .emitter import ContrastiveInstance, bundle_to_instances, emit_instances
from .graph import EntityGraph, build_entity_graph, write_edge_list
from .jsonl import (
    RecordError,
    bounded,
    check_config,
    read_records,
    record_line,
    require,
    require_list,
    typed,
    write_records,
)
from .metapath import (
    ExtractorConfig,
    PathHop,
    PositiveInstance,
    extract_positive_instances,
    path_from_record,
    path_to_record,
)
from .negatives import (
    DonorSentence,
    DonorSource,
    build_donor_pool,
    make_negative_contexts,
    make_negative_options,
)
from .seeding import derive_rng


@dataclass
class NegativesConfig:
    num_negatives: int = bounded(3, low=0)
    pool_size: int = 1000

    def __post_init__(self):
        check_config(self, "negatives")


@dataclass
class CounterfactualConfig:
    copies: int = bounded(1, low=0)  # counterfactual copies per original (the N of a 1:N mix)
    include_prob: float = bounded(0.5, low=0.0, high=1.0)
    pool_strategy: str = bounded("uniform", choices=("uniform", "same-batch-documents"))
    window: int = bounded(64, low=1)  # document window for same-batch-documents

    def __post_init__(self):
        check_config(self, "counterfactual")


@dataclass
class PipelineConfig:
    input: str
    output_dir: str
    seed: int
    # Ignored: the pipeline always runs serially. Kept only because the
    # benchmark harness and acceptance criterion 9 still pass it.
    jobs: int = 1
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    negatives: NegativesConfig = field(default_factory=NegativesConfig)
    counterfactual: CounterfactualConfig = field(default_factory=CounterfactualConfig)

    def __post_init__(self):
        typed(self.seed, int, "seed")

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        """Digest of the semantic configuration.

        Paths and the ignored worker count are excluded: neither changes
        what is produced.
        """
        payload = self.to_dict()
        for key in ("input", "output_dir", "jobs"):
            payload.pop(key, None)
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


# -- positive instance records --


def positive_to_record(inst: PositiveInstance) -> dict:
    return {
        "doc": inst.doc_id,
        "pair": list(inst.pair),
        "path": path_to_record(inst.path),
        "context": list(inst.context),
        "answers": sorted(inst.answers),
    }


def positive_from_record(obj, line: int = 0) -> PositiveInstance:
    answers = require_list(obj, "answers", int, line)
    if not answers:
        raise RecordError(line, "answers: expected at least one entry, got 0", "answers")
    return PositiveInstance(
        doc_id=require(obj, "doc", str, line),
        pair=require_list(obj, "pair", str, line, length=2),
        path=path_from_record(require(obj, "path", dict, line), line),
        context=require_list(obj, "context", int, line),
        answers=frozenset(answers),
    )


def write_positives(instances: Iterable[PositiveInstance], fp: IO[str]) -> int:
    return write_records(instances, positive_to_record, fp)


def read_positives(lines: Iterable[str]) -> Iterator[PositiveInstance]:
    yield from read_records(lines, positive_from_record)


# -- stages --


@contextmanager
def open_output(path) -> Iterator[IO[str]]:
    """Write `path` through a temporary file beside it, moved into place on success.

    A failed stage leaves no half-written output: the temporary file is
    removed and any earlier file at `path` stays as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_documents(path, errors: list[RecordError] | None = None) -> list[Document]:
    with open(path, "r", encoding="utf-8") as fp:
        return list(parse_corpus(fp, errors))


def _write_graph_rows(doc: Document, graph: EntityGraph, fp: IO[str]) -> int:
    buf = io.StringIO()
    write_edge_list(graph, buf)
    rows = buf.getvalue().splitlines()
    for line in rows:
        fp.write(f"{doc.id}\t{line}\n")
    return len(rows)


def stage_graph_export(docs: Sequence[Document], fp: IO[str]) -> int:
    return sum(_write_graph_rows(doc, build_entity_graph(doc), fp) for doc in docs)


# bench/worker.py traces `_extract_worker` and `_negative_worker` by name; keep both.
def _extract_worker(
    doc: Document, cfg: ExtractorConfig, graph: EntityGraph | None = None
) -> list[PositiveInstance]:
    if graph is None:
        graph = build_entity_graph(doc)
    return extract_positive_instances(doc, graph, cfg)


def stage_extract(docs: Sequence[Document], cfg: ExtractorConfig) -> list[list[PositiveInstance]]:
    """Per-document positive instances, in input order."""
    return [_extract_worker(doc, cfg) for doc in docs]


def _check_sentences(
    doc: Document, indices: Iterable[int], hops: Iterable[PathHop], what: str
) -> None:
    """Raise ValueError unless every sentence index (hops' included) lies in `doc`."""
    hop_sentences = [h.via_sentence for h in hops if h.via_sentence is not None]
    outside = [k for k in (*indices, *hop_sentences) if not 0 <= k < len(doc.sentences)]
    if outside:
        raise ValueError(
            f"{what} in document {doc.id!r} names sentence {outside[0]}, "
            f"outside its {len(doc.sentences)} sentences"
        )


def _negative_worker(
    doc: Document,
    instances: Sequence[PositiveInstance],
    pool: Sequence[DonorSentence],
    cfg: NegativesConfig,
    seed: int,
) -> list[InstanceBundle]:
    source = DonorSource(doc, pool)
    bundles = []
    for inst in instances:
        _check_sentences(doc, (*inst.context, *inst.answers), inst.path.hops, "positive")
        rng = derive_rng(seed, "negatives", inst.doc_id, *inst.pair, inst.answer)
        options = make_negative_options(inst, source, cfg.num_negatives, rng)
        contexts = make_negative_contexts(inst, source, cfg.num_negatives, rng)
        bundles.append(assemble_bundle(inst, doc, options, contexts, cfg.num_negatives))
    return bundles


def stage_negatives(
    docs: Sequence[Document],
    per_doc_instances: Sequence[Sequence[PositiveInstance]],
    cfg: NegativesConfig,
    seed: int,
) -> tuple[Iterator[InstanceBundle], dict]:
    """Lazily, the bundle of every positive that found a donor, in input order.

    The donor pool is built before this returns; the counters fill in as
    the iterator is drained.
    """
    pool = build_donor_pool(docs, cfg.pool_size, derive_rng(seed, "donor-pool"))
    counters = {"bundles": 0, "skipped_no_donor": 0, "option_shortfalls": 0, "context_shortfalls": 0}

    def kept() -> Iterator[InstanceBundle]:
        for doc, instances in zip(docs, per_doc_instances, strict=True):
            for b in _negative_worker(doc, instances, pool, cfg, seed):
                if cfg.num_negatives > 0 and not b.options and not b.context_variants:
                    counters["skipped_no_donor"] += 1
                    continue
                counters["bundles"] += 1
                counters["option_shortfalls"] += len(b.options) < cfg.num_negatives
                counters["context_shortfalls"] += len(b.context_variants) < cfg.num_negatives
                yield b

    return kept(), counters


def stage_counterfactual(
    docs: Sequence[Document],
    bundles: Iterable[InstanceBundle],
    cfg: CounterfactualConfig,
    seed: int,
) -> tuple[Iterator[InstanceBundle], dict]:
    """Lazily, each original followed by its cfg.copies augmented copies.

    Every original is checked against its document, also when no copies
    are made. The alien-entity pool is built before this returns, and only
    when copies are made; the counters fill in as the iterator is drained.
    """
    counters = {"originals": 0, "copies": 0, "skipped_small_pool": 0}
    doc_position = {doc.id: i for i, doc in enumerate(docs)}
    by_doc = {doc.id: doc for doc in docs}
    pool = build_entity_pool(docs) if cfg.copies else []
    per_doc_entities: list[list[AlienEntity]] | None = None
    if cfg.pool_strategy == "same-batch-documents":
        per_doc_entities = [[] for _ in docs]
        for alien in pool:
            per_doc_entities[doc_position[alien.source_doc]].append(alien)

    def augmented() -> Iterator[InstanceBundle]:
        for bundle in bundles:
            doc = by_doc.get(bundle.doc_id)
            if doc is None:
                raise ValueError(f"bundle references unknown document {bundle.doc_id!r}")
            indices = (*bundle.context_sentences, bundle.answer_sentence)
            _check_sentences(doc, indices, bundle.path.hops, "bundle")
            counters["originals"] += 1
            yield bundle
            if not cfg.copies:
                continue
            if per_doc_entities is None:
                candidates = pool
            else:
                center = doc_position[bundle.doc_id]
                lo = max(0, center - cfg.window // 2)
                hi = min(len(docs), center + cfg.window // 2 + 1)
                candidates = [a for chunk in per_doc_entities[lo:hi] for a in chunk]
            for copy in range(1, cfg.copies + 1):
                rng = derive_rng(seed, "counterfactual", *bundle.key(), copy)
                try:
                    rmap = select_replacements(
                        bundle, doc, candidates, rng, include_prob=cfg.include_prob
                    )
                except ValueError:
                    counters["skipped_small_pool"] += 1
                    continue
                counters["copies"] += 1
                yield apply_counterfactual(bundle, rmap, variant=copy)

    return augmented(), counters


def stage_emit(
    bundles: Iterable[InstanceBundle],
    copies: int,
    seed: int,
    fp: IO[str],
) -> dict:
    """Write each bundle's instances as it arrives, interleaved 1:copies.

    The instance counts are those written: with copies == 0 the
    counterfactual instances of copies in the input are dropped, and not
    counted.
    """
    counters = {
        "records": 0,
        "option": 0,
        "context": 0,
        "counterfactual": 0,
        "skipped_option": 0,
        "skipped_context": 0,
    }

    def built() -> Iterator[ContrastiveInstance]:
        for bundle in bundles:
            instances = bundle_to_instances(bundle, seed)
            got = {ci.orientation for ci in instances}
            counters["skipped_option"] += "option" not in got
            counters["skipped_context"] += "context" not in got
            yield from instances

    counters["records"] = emit_instances(built(), (1, copies), fp, tally=counters)
    return counters


def _written(
    bundles: Iterable[InstanceBundle], fp: IO[str], line: Callable[[InstanceBundle], str]
) -> Iterator[InstanceBundle]:
    """Pass bundles through, writing each one's JSON line to `fp` on the way."""
    for bundle in bundles:
        fp.write(line(bundle))
        yield bundle


OUTPUT_FILES = {
    "graph": "graph.tsv",
    "positives": "positives.jsonl",
    "bundles": "bundles.jsonl",
    "bundles_counterfactual": "bundles_counterfactual.jsonl",
    "instances": "instances.jsonl",
    "manifest": "manifest.json",
}


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Ingest, graph, extract, negatives, counterfactual, emit; write manifest.

    Each intermediate file matches what the corresponding standalone
    subcommand would produce with the same configuration. Each document's
    graph is built once, for both the export and the extraction. The
    negatives, counterfactual and emit stages run as one stream that
    writes `bundles.jsonl`, `bundles_counterfactual.jsonl` and
    `instances.jsonl` side by side; an original bundle is serialized once
    for both bundle files.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / fname for name, fname in OUTPUT_FILES.items()}

    parse_errors: list[RecordError] = []
    docs = load_documents(cfg.input, parse_errors)

    graph_rows = 0
    per_doc: list[list[PositiveInstance]] = []
    with open_output(paths["graph"]) as fp:
        for doc in docs:
            graph = build_entity_graph(doc)
            graph_rows += _write_graph_rows(doc, graph, fp)
            per_doc.append(_extract_worker(doc, cfg.extractor, graph))
    with open_output(paths["positives"]) as fp:
        n_positives = write_positives((i for doc in per_doc for i in doc), fp)

    # An original passes both bundle writers back to back: keep its line.
    last_bundle, last_line = None, ""

    def line(bundle: InstanceBundle) -> str:
        nonlocal last_bundle, last_line
        if bundle is not last_bundle:
            last_bundle, last_line = bundle, record_line(bundle_to_record(bundle))
        return last_line

    with ExitStack() as stack:
        bundles_fp, cf_fp, instances_fp = (
            stack.enter_context(open_output(paths[name]))
            for name in ("bundles", "bundles_counterfactual", "instances")
        )
        bundles, neg_counts = stage_negatives(docs, per_doc, cfg.negatives, cfg.seed)
        cf_bundles, cf_counts = stage_counterfactual(
            docs, _written(bundles, bundles_fp, line), cfg.counterfactual, cfg.seed
        )
        emit_counts = stage_emit(
            _written(cf_bundles, cf_fp, line), cfg.counterfactual.copies, cfg.seed, instances_fp
        )

    manifest = {
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "stages": {
            "parse": {"documents": len(docs), "errors": len(parse_errors)},
            "graph": {"edges": graph_rows},
            "extract": {"instances": n_positives},
            "negatives": neg_counts,
            "counterfactual": cf_counts,
            "emit": emit_counts,
        },
        # File names are relative to the manifest's directory, keeping the
        # manifest byte-identical across runs into different locations.
        "outputs": {name: fname for name, fname in OUTPUT_FILES.items() if name != "manifest"},
    }
    with open_output(paths["manifest"]) as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return manifest


def read_bundle_file(path) -> list[InstanceBundle]:
    with open(path, "r", encoding="utf-8") as fp:
        return list(read_bundles(fp))
