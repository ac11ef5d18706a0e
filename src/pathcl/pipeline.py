"""Stage orchestration shared by the CLI subcommands.

Every stage boundary is a file, so each stage can run standalone and the
full run is the byte-exact composition of the stages. Randomness is
derived per instance from the root seed and the instance's stable key.
Documents are processed one at a time, in input order.
"""

from __future__ import annotations

import hashlib
import io
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .bundle import InstanceBundle, assemble_bundle, positive_instance, read_bundles, write_bundles
from .corpus import CorpusError, Document, parse_corpus
from .counterfactual import (
    AlienEntity,
    apply_counterfactual,
    build_entity_pool,
    cross_document_ready_negatives,
    select_replacements,
)
from .emitter import ContrastiveInstance, bundle_to_instances, emit_instances
from .graph import build_entity_graph, write_edge_list
from .metapath import (
    ExtractorConfig,
    MetaPath,
    PositiveInstance,
    extract_positive_instances,
    hop_from_record,
    hop_to_record,
)
from .negatives import (
    DonorSentence,
    build_donor_pool,
    donor_from_document,
    make_negative_contexts,
    make_negative_options,
)
from .seeding import derive_rng
from .trainer import TrainConfig


@dataclass
class NegativesConfig:
    num_negatives: int = 3
    pool_size: int = 1000
    allow_cross_document: bool = True
    swap_fallback: bool = True
    ready_negatives: bool = False


@dataclass
class CounterfactualConfig:
    copies: int = 1  # counterfactual copies per original (the N of a 1:N mix)
    include_prob: float = 0.5
    pool_strategy: str = "uniform"  # "uniform" | "same-batch-documents"
    window: int = 64  # document window for same-batch-documents

    def __post_init__(self):
        if self.copies < 0:
            raise ValueError("copies must be >= 0")
        if self.pool_strategy not in ("uniform", "same-batch-documents"):
            raise ValueError(f"unknown pool strategy {self.pool_strategy!r}")


@dataclass
class EmitConfig:
    shuffle_gold: bool = True


@dataclass
class PipelineConfig:
    input: str
    output_dir: str
    seed: int
    jobs: int = 1  # accepted for compatibility; the pipeline always runs serially
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    negatives: NegativesConfig = field(default_factory=NegativesConfig)
    counterfactual: CounterfactualConfig = field(default_factory=CounterfactualConfig)
    emitter: EmitConfig = field(default_factory=EmitConfig)
    train: TrainConfig = field(default_factory=TrainConfig)

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
        "path": {
            "entities": list(inst.path.entities),
            "hops": [hop_to_record(h) for h in inst.path.hops],
        },
        "context": list(inst.context),
        "answers": sorted(inst.answers),
    }


def positive_from_record(obj: dict) -> PositiveInstance:
    return PositiveInstance(
        doc_id=obj["doc"],
        pair=(obj["pair"][0], obj["pair"][1]),
        path=MetaPath(
            entities=tuple(obj["path"]["entities"]),
            hops=tuple(hop_from_record(h) for h in obj["path"]["hops"]),
        ),
        context=tuple(obj["context"]),
        answers=frozenset(obj["answers"]),
    )


def write_positives(instances: Iterable[PositiveInstance], fp: IO[str]) -> int:
    n = 0
    for inst in instances:
        fp.write(json.dumps(positive_to_record(inst), ensure_ascii=False) + "\n")
        n += 1
    return n


def read_positives(lines: Iterable[str]) -> Iterator[PositiveInstance]:
    """Positive instances from JSONL; a bad record raises ValueError naming its line."""
    for line_no, raw in enumerate(lines, start=1):
        if not raw.strip():
            continue
        try:
            inst = positive_from_record(json.loads(raw))
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {line_no}: invalid JSON: {exc.msg}") from exc
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise ValueError(f"line {line_no}: malformed positive record: {exc!r}") from exc
        yield inst


# -- stages --


def load_documents(path, errors: list[CorpusError] | None = None) -> list[Document]:
    with open(path, "r", encoding="utf-8") as fp:
        return list(parse_corpus(fp, errors))


def stage_graph_export(docs: Sequence[Document], fp: IO[str]) -> int:
    rows = 0
    for doc in docs:
        buf = io.StringIO()
        write_edge_list(build_entity_graph(doc), buf)
        for line in buf.getvalue().splitlines():
            fp.write(f"{doc.id}\t{line}\n")
            rows += 1
    return rows


# bench/worker.py traces `_extract_worker` and `_negative_worker` by name; keep both.
def _extract_worker(doc: Document, cfg: ExtractorConfig) -> list[PositiveInstance]:
    return extract_positive_instances(doc, build_entity_graph(doc), cfg)


def stage_extract(docs: Sequence[Document], cfg: ExtractorConfig) -> list[list[PositiveInstance]]:
    """Per-document positive instances, in input order."""
    return [_extract_worker(doc, cfg) for doc in docs]


def _negative_worker(
    doc: Document,
    instances: Sequence[PositiveInstance],
    docs: Sequence[Document],
    pool: Sequence[DonorSentence],
    cfg: NegativesConfig,
    seed: int,
    ready_index: dict | None,
) -> list[InstanceBundle]:
    host_donors = [
        donor_from_document(doc, k)
        for k in range(len(doc.sentences))
        if len(doc.sentence_entity_sets[k]) >= 2
    ]
    bundles = []
    for inst in instances:
        rng = derive_rng(seed, "negatives", inst.doc_id, *inst.pair, inst.answer)
        ready = ()
        if ready_index is not None:
            donors = [
                (docs[d], answers)
                for d, answers in ready_index.get(inst.pair, ())
                if docs[d].id != doc.id
            ]
            ready = tuple(cross_document_ready_negatives(doc, inst.pair, donors))
        options = make_negative_options(
            inst,
            doc,
            pool,
            cfg.num_negatives,
            rng,
            swap_fallback=cfg.swap_fallback,
            allow_cross_document=cfg.allow_cross_document,
            ready=ready,
            host_donors=host_donors,
        )
        contexts = make_negative_contexts(
            inst,
            doc,
            pool,
            cfg.num_negatives,
            rng,
            swap_fallback=cfg.swap_fallback,
            allow_cross_document=cfg.allow_cross_document,
            host_donors=host_donors,
        )
        bundles.append(assemble_bundle(inst, doc, options, contexts))
    return bundles


def stage_negatives(
    docs: Sequence[Document],
    per_doc_instances: Sequence[Sequence[PositiveInstance]],
    cfg: NegativesConfig,
    seed: int,
) -> tuple[list[InstanceBundle], dict]:
    pool = build_donor_pool(docs, cfg.pool_size, derive_rng(seed, "donor-pool"))
    ready_index: dict | None = None
    if cfg.ready_negatives:
        ready_index = {}
        for d, instances in enumerate(per_doc_instances):
            for inst in instances:
                answers = sorted(inst.answers)
                ready_index.setdefault(inst.pair, []).append((d, answers))
    counters = {"bundles": 0, "skipped_no_donor": 0, "option_shortfalls": 0, "context_shortfalls": 0}
    kept: list[InstanceBundle] = []
    for doc, instances in zip(docs, per_doc_instances, strict=True):
        for b in _negative_worker(doc, instances, docs, pool, cfg, seed, ready_index):
            if cfg.num_negatives > 0 and not b.options and not b.context_variants:
                counters["skipped_no_donor"] += 1
                continue
            counters["bundles"] += 1
            counters["option_shortfalls"] += b.option_shortfall > 0
            counters["context_shortfalls"] += b.context_shortfall > 0
            kept.append(b)
    return kept, counters


def stage_counterfactual(
    docs: Sequence[Document],
    bundles: Iterable[InstanceBundle],
    cfg: CounterfactualConfig,
    seed: int,
) -> tuple[list[InstanceBundle], dict]:
    """Originals plus cfg.copies augmented copies each, interleaved per original."""
    counters = {"originals": 0, "copies": 0, "skipped_small_pool": 0}
    out: list[InstanceBundle] = []
    if cfg.copies == 0:
        out = list(bundles)
        counters["originals"] = len(out)
        return out, counters

    pool = build_entity_pool(docs)
    doc_position = {doc.id: i for i, doc in enumerate(docs)}
    by_doc = {doc.id: doc for doc in docs}
    per_doc_entities: list[list[AlienEntity]] | None = None
    if cfg.pool_strategy == "same-batch-documents":
        per_doc_entities = [[] for _ in docs]
        for alien in pool:
            per_doc_entities[doc_position[alien.source_doc]].append(alien)

    for bundle in bundles:
        out.append(bundle)
        counters["originals"] += 1
        doc = by_doc[bundle.doc_id]
        inst = positive_instance(bundle)
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
                    inst, doc, candidates, rng, include_prob=cfg.include_prob
                )
            except ValueError:
                counters["skipped_small_pool"] += 1
                continue
            out.append(apply_counterfactual(bundle, rmap, variant=copy))
            counters["copies"] += 1
    return out, counters


def stage_emit(
    bundles: Iterable[InstanceBundle],
    copies: int,
    cfg: EmitConfig,
    seed: int,
    fp: IO[str],
) -> dict:
    instances: list[ContrastiveInstance] = []
    counters = {
        "records": 0,
        "option": 0,
        "context": 0,
        "counterfactual": 0,
        "skipped_option": 0,
        "skipped_context": 0,
    }
    for bundle in bundles:
        built = bundle_to_instances(bundle, seed, shuffle_gold=cfg.shuffle_gold)
        got = {ci.orientation for ci in built}
        if "option" not in got:
            counters["skipped_option"] += 1
        if "context" not in got:
            counters["skipped_context"] += 1
        instances.extend(built)
    counters["records"] = emit_instances(instances, (1, copies), fp)
    for ci in instances:
        counters[ci.orientation] += 1
        counters["counterfactual"] += ci.meta.counterfactual
    return counters


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
    subcommand would produce with the same configuration.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / fname for name, fname in OUTPUT_FILES.items()}

    parse_errors: list[CorpusError] = []
    docs = load_documents(cfg.input, parse_errors)

    with open(paths["graph"], "w", encoding="utf-8") as fp:
        graph_rows = stage_graph_export(docs, fp)

    per_doc = stage_extract(docs, cfg.extractor)
    with open(paths["positives"], "w", encoding="utf-8") as fp:
        n_positives = write_positives((i for doc in per_doc for i in doc), fp)

    bundles, neg_counts = stage_negatives(docs, per_doc, cfg.negatives, cfg.seed)
    with open(paths["bundles"], "w", encoding="utf-8") as fp:
        write_bundles(bundles, fp)

    cf_bundles, cf_counts = stage_counterfactual(docs, bundles, cfg.counterfactual, cfg.seed)
    with open(paths["bundles_counterfactual"], "w", encoding="utf-8") as fp:
        write_bundles(cf_bundles, fp)

    with open(paths["instances"], "w", encoding="utf-8") as fp:
        emit_counts = stage_emit(cf_bundles, cfg.counterfactual.copies, cfg.emitter, cfg.seed, fp)

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
    with open(paths["manifest"], "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return manifest


def read_bundle_file(path) -> list[InstanceBundle]:
    with open(path, "r", encoding="utf-8") as fp:
        return list(read_bundles(fp))
