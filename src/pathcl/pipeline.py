"""Stage orchestration shared by the CLI subcommands.

Every stage boundary is a file, so each stage can run standalone and the
full run is the byte-exact composition of the stages. Randomness is
derived per instance from the root seed and the instance's stable key.

The stages are lazy. `stage_extract` yields positives one document at a
time, `stage_negatives` and `stage_counterfactual` return an iterator of
bundles together with a counters dict that is final once the iterator is
drained, and `stage_emit` consumes bundles one at a time.

`run_pipeline` cuts the corpus into chunks of `CHUNK_DOCS` lines and runs
it in stripes: with W stripes, stripe w holds the chunks c with c % W ==
w. With W above 1, each stripe runs in a worker process forked before
anything is parsed; with one, it runs in the calling process and its
objects pass by reference. Either way the run takes three rounds:

1. Each stripe parses its own lines and returns its skipped lines and, per
   document, its line, id and donor count. The parent merges them in line
   order: a repeated id is a skipped line (`corpus.claim_id`), and the
   donor pool's draw is made over all the counts (`negatives.draw_donors`).
2. Every stripe gets one request, the same for all: the lines to drop
   and every document's donor picks. It annotates the donors picked from
   its own documents and lists their first-seen entities
   (`counterfactual.alien_share`). Every stripe receives every stripe's
   share and merges them into the same two sampling pools: the donors in
   draw order, the aliens in line order (`counterfactual.merged_aliens`).
3. Each stripe runs each document's whole chain (graph, extraction,
   negatives, counterfactual copies, instances) and returns its output one
   chunk at a time. The parent reads each chunk, in line order, from the
   worker that ran it and writes it, so it holds one chunk at a time; a
   worker further ahead waits on its full pipe.

So no parsed document crosses a process boundary and the parent of forked
workers holds none; the standalone stages share the chain's per-document
and per-bundle loop bodies and the three merge rules. Every output file is
written under a temporary name and moved into place only when its stage
succeeds. Nothing is cached on a document. Its one index is its entity
graph (`graph.EntityGraph`), which a stage builds with `build_entity_graph`
and passes down: a chain's graph serves its extraction, then its
`_negative_worker` call's `DonorSource`, and is freed when the call's
bundles are drained.

`run_pipeline` and the CLI commands that parse a whole corpus run inside
`collector_paused`: the per-document work creates no reference cycle, so
reference counting alone frees it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import io
import json
import os
import pickle
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from .bundle import (
    InstanceBundle,
    assemble_bundle,
    bundle_from_record,
    bundle_to_record,
    read_bundles,
    standalone_problems,
)
from .corpus import Document, claim_id, parse_corpus, parse_record
from .counterfactual import (
    AlienPool,
    AlienShare,
    alien_share,
    apply_counterfactual,
    build_entity_pool,
    merged_aliens,
    select_replacements,
)
from .emitter import TaggedLine, bundle_to_instances, emit_instances, tagged_line
from .graph import EntityGraph, build_entity_graph, write_edge_list
from .jsonl import (
    RecordError,
    bounded,
    check_config,
    open_output,
    read_records,
    record_line,
    require,
    require_list,
    typed,
    write_records,
)
from .metapath import (
    ExtractorConfig,
    PositiveInstance,
    extract_positive_instances,
    path_from_record,
    path_to_record,
    validate_instance,
)
from .negatives import (
    DonorSource,
    build_donor_pool,
    draw_donors,
    make_negative_contexts,
    make_negative_options,
    picked_donors,
)
from .seeding import derive_rng
from .spans import AnnotatedSentence


@dataclass
class NegativesConfig:
    num_negatives: int = bounded(3, low=0, help="negatives per instance (K)")
    pool_size: int = bounded(1000, low=0, help="cross-document donor pool cap")

    def __post_init__(self):
        check_config(self, "negatives")


@dataclass
class CounterfactualConfig:
    copies: int = bounded(1, low=0, help="original:counterfactual mix ('0' disables)")
    include_prob: float = bounded(
        0.5, low=0.0, high=1.0, help="replacement probability for non-target path entities"
    )

    def __post_init__(self):
        check_config(self, "counterfactual")


@dataclass
class PipelineConfig:
    input: str
    output_dir: str
    seed: int
    jobs: int = 1  # processes for the per-document chains; see `worker_count`
    extractor: ExtractorConfig = field(default_factory=ExtractorConfig)
    negatives: NegativesConfig = field(default_factory=NegativesConfig)
    counterfactual: CounterfactualConfig = field(default_factory=CounterfactualConfig)

    def __post_init__(self):
        typed(self.seed, int, "seed")
        if typed(self.jobs, int, "jobs") < 1:
            raise ValueError(f"jobs: expected int >= 1, got {self.jobs!r}")

    def hash(self) -> str:
        """Digest of the semantic configuration.

        Paths and the worker count are excluded: neither changes what is
        produced.
        """
        payload = asdict(self)
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
        "answers": [inst.answer],
    }


def positive_from_record(obj, line: int = 0) -> PositiveInstance:
    (answer,) = require_list(obj, "answers", int, line, length=1)
    return PositiveInstance(
        doc_id=require(obj, "doc", str, line),
        pair=require_list(obj, "pair", str, line, length=2),
        path=path_from_record(require(obj, "path", dict, line), line),
        context=require_list(obj, "context", int, line),
        answer=answer,
    )


def write_positives(instances: Iterable[PositiveInstance], fp: IO[str]) -> int:
    return write_records(instances, positive_to_record, fp)


def read_positives(lines: Iterable[str]) -> Iterator[PositiveInstance]:
    yield from read_records(lines, positive_from_record)


def _corpus_records(
    docs: Sequence[Document], lines: Iterable[str], from_record, what: str, named, problems
):
    """The records of `lines`, each checked against its document in `docs` as it is read.

    A record of a document not in `docs`, or naming a sentence outside its
    document, is a bad record of its line. `named(record)` lists the
    (field path, sentence index) pairs a record names besides its path's.
    `problems(record, doc, graph)` lists what else is wrong with a record
    whose sentences are in range; the first of them makes it a bad record.
    `graph` is the document's one index, built once per run of its records.
    """
    by_id = {doc.id: doc for doc in docs}
    graph = lru_cache(maxsize=1)(build_entity_graph)

    def checked(obj, line: int):
        record = from_record(obj, line)
        doc = by_id.get(record.doc_id)
        if doc is None:
            message = f"doc: {what} references unknown document {record.doc_id!r}"
            raise RecordError(line, message, "doc")
        hops = enumerate(record.path.hops)
        named_hops = [(f"path.hops[{i}].sentence", h.via_sentence) for i, h in hops]
        n = len(doc.sentences)
        for at, k in named(record) + named_hops:
            if k is not None and not 0 <= k < n:
                message = (
                    f"{at}: {what} in document {doc.id!r} names sentence {k}, "
                    f"outside its {n} sentences"
                )
                raise RecordError(line, message, at)
        found = problems(record, doc, graph(doc))
        if found:
            raise RecordError(line, f"{what} in document {doc.id!r}: {found[0]}")
        return record

    return read_records(lines, checked)


def read_corpus_positives(
    docs: Sequence[Document], lines: Iterable[str]
) -> Iterator[PositiveInstance]:
    """`read_positives`, checking each positive against its document in `docs`.

    A positive whose sentences are in range must also pass `validate_instance`
    on its document's graph.
    """

    def named(p: PositiveInstance) -> list[tuple[str, int]]:
        context = [(f"context[{i}]", k) for i, k in enumerate(p.context)]
        return context + [("answers", p.answer)]

    return _corpus_records(docs, lines, positive_from_record, "positive", named, validate_instance)


def read_corpus_bundles(docs: Sequence[Document], lines: Iterable[str]) -> Iterator[InstanceBundle]:
    """`read_bundles`, checking each bundle against its document in `docs`.

    A bundle whose sentences are in range must also hold a positive (its
    pair, path, context sentences and answer sentence) that passes
    `validate_instance`, an original bundle's context and answer must be
    its document's sentences (as its graph annotates them), text and mention spans
    alike, and it must pass `read_bundles`' check (`standalone_problems`).
    Last, it must be an original: `counterfactual` makes copies of originals.
    """

    def named(b: InstanceBundle) -> list[tuple[str, int]]:
        context = [(f"context_sentences[{i}]", t.sentence) for i, t in enumerate(b.context)]
        return context + [("answer_sentence", b.answer.sentence)]

    def problems(b: InstanceBundle, doc: Document, graph: EntityGraph) -> list[str]:
        context = tuple(t.sentence for t in b.context)
        positive = PositiveInstance(b.doc_id, b.pair, b.path, context, b.answer.sentence)
        found = validate_instance(positive, doc, graph)
        if not b.counterfactual:
            texts = [(f"context[{i}]", t) for i, t in enumerate(b.context)]
            found += [
                f"{at} differs from sentence {t.sentence} of the document in text or mentions"
                for at, t in texts + [("answer", b.answer)]
                if t != graph[t.sentence]
            ]
        found += [f"{at}: {problem}" for at, problem in standalone_problems(b)]
        if b.counterfactual:
            found.append("counterfactual: true; the counterfactual command reads originals only")
        return found

    return _corpus_records(docs, lines, bundle_from_record, "bundle", named, problems)


# -- stages --

# The manifest counts of the stages that run per document.
STAGE_COUNTS = {
    "graph": ("edges",),
    "extract": ("instances",),
    "negatives": ("bundles", "skipped_no_donor", "option_shortfalls", "context_shortfalls"),
    "counterfactual": ("originals", "copies", "skipped_small_pool"),
    "emit": ("records", "option", "context", "counterfactual", "skipped_option", "skipped_context"),
}


def _zeroed(stage: str) -> dict[str, int]:
    return dict.fromkeys(STAGE_COUNTS[stage], 0)


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the block with Python's cyclic garbage collector disabled.

    A parsed corpus is hundreds of thousands of live objects and holds no
    reference cycle, so every full collection walks all of it and frees
    nothing; without the collector, memory is freed by reference counting
    alone. The caller's collector state is restored on exit, also on an
    error. The collector is process-wide: other threads run without it
    while the block runs. Also usable as a decorator.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def load_documents(path, errors: list[RecordError] | None = None) -> list[Document]:
    with open(path, "rb") as fp:
        return list(parse_corpus(fp, errors))


def _graph_rows(doc: Document, graph: EntityGraph) -> list[str]:
    buf = io.StringIO()
    write_edge_list(graph, buf)
    # Split at "\n" only: `str.splitlines` also splits at characters such
    # as "\x1c" or "\u2028", which an id or a label may hold.
    return [f"{doc.id}\t{line}\n" for line in buf.getvalue().split("\n")[:-1]]


def stage_graph_export(docs: Sequence[Document], fp: IO[str]) -> int:
    rows = 0
    for doc in docs:
        lines = _graph_rows(doc, build_entity_graph(doc))
        fp.writelines(lines)
        rows += len(lines)
    return rows


# bench/worker.py traces `_extract_worker` and `_negative_worker` by name; keep both.
def _extract_worker(
    doc: Document, cfg: ExtractorConfig, graph: EntityGraph
) -> list[PositiveInstance]:
    return extract_positive_instances(doc, graph, cfg)


def stage_extract(docs: Iterable[Document], cfg: ExtractorConfig) -> Iterator[PositiveInstance]:
    """Lazily, every document's positive instances, in input order."""
    for doc in docs:
        yield from _extract_worker(doc, cfg, build_entity_graph(doc))


def _negative_worker(
    doc: Document,
    instances: Iterable[PositiveInstance],
    pool: Sequence[AnnotatedSentence],
    cfg: NegativesConfig,
    seed: int,
    counts: dict[str, int],
    graph: EntityGraph,
) -> Iterator[InstanceBundle]:
    """Lazily, the bundle of every positive of `doc` that found a donor.

    Counts into `counts`, final once the iterator is drained. `graph` is
    the document's, built by the caller.
    """
    source = DonorSource(doc, graph, pool)
    k = cfg.num_negatives
    for inst in instances:
        rng = derive_rng(seed, "negatives", inst.doc_id, *inst.pair, inst.answer)
        options = make_negative_options(inst, source, k, rng)
        contexts = make_negative_contexts(inst, source, k, rng)
        if k > 0 and not options and not contexts:
            counts["skipped_no_donor"] += 1
            continue
        counts["bundles"] += 1
        counts["option_shortfalls"] += len(options) < k
        counts["context_shortfalls"] += len(contexts) < k
        yield assemble_bundle(inst, graph, options, contexts, k)


def stage_negatives(
    docs: Sequence[Document],
    positives: Iterable[PositiveInstance],
    cfg: NegativesConfig,
    seed: int,
) -> tuple[Iterator[InstanceBundle], dict]:
    """Lazily, the bundle of every positive that found a donor, in the order of `positives`.

    Every positive must be of a document in `docs`; `read_corpus_positives`
    checks that of a positives file. Each run of one document's positives
    goes to one `_negative_worker` call, with the document's graph built for
    it. The donor pool is built before this returns; the counters fill in
    as the iterator is drained.
    """
    pool = build_donor_pool(docs, cfg.pool_size, derive_rng(seed, "donor-pool"))
    counters = _zeroed("negatives")
    by_doc = {doc.id: doc for doc in docs}

    def kept() -> Iterator[InstanceBundle]:
        for doc_id, run in groupby(positives, key=attrgetter("doc_id")):
            doc = by_doc[doc_id]
            graph = build_entity_graph(doc)
            yield from _negative_worker(doc, run, pool, cfg, seed, counters, graph)

    return kept(), counters


def _copies(
    bundle: InstanceBundle,
    doc: Document,
    aliens: AlienPool,
    cfg: CounterfactualConfig,
    seed: int,
    counts: dict[str, int],
) -> Iterator[InstanceBundle]:
    """`bundle`, then its counterfactual copies drawn from `aliens`; counts into `counts`."""
    counts["originals"] += 1
    yield bundle
    for copy in range(1, cfg.copies + 1):
        rng = derive_rng(seed, "counterfactual", *bundle.key(), copy)
        try:
            rmap = select_replacements(bundle, doc, aliens, rng, include_prob=cfg.include_prob)
        except ValueError:
            counts["skipped_small_pool"] += 1
            continue
        counts["copies"] += 1
        yield apply_counterfactual(bundle, rmap, variant=copy)


def stage_counterfactual(
    docs: Sequence[Document],
    bundles: Iterable[InstanceBundle],
    cfg: CounterfactualConfig,
    seed: int,
) -> tuple[Iterator[InstanceBundle], dict]:
    """Lazily, each original followed by its cfg.copies augmented copies.

    Every bundle must be of a document in `docs`; `read_corpus_bundles`
    checks that of a bundles file. The alien-entity pool is built before
    this returns, and only when copies are made; the counters fill in as
    the iterator is drained.
    """
    counters = _zeroed("counterfactual")
    by_doc = {doc.id: doc for doc in docs}
    aliens = build_entity_pool(docs if cfg.copies else ())
    augmented = (
        b
        for bundle in bundles
        for b in _copies(bundle, by_doc[bundle.doc_id], aliens, cfg, seed, counters)
    )
    return augmented, counters


def _instance_lines(bundle: InstanceBundle, seed: int, counts: dict[str, int]) -> list[TaggedLine]:
    """The tagged lines of one bundle's instances; counts skipped orientations."""
    instances = bundle_to_instances(bundle, seed)
    got = {ci.orientation for ci in instances}
    counts["skipped_option"] += "option" not in got
    counts["skipped_context"] += "context" not in got
    return [tagged_line(ci) for ci in instances]


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
    counters = _zeroed("emit")
    lines = (line for bundle in bundles for line in _instance_lines(bundle, seed, counters))
    counters["records"] = emit_instances(lines, copies, fp, tally=counters)
    return counters


# -- the whole run --


# One piece of a document's output: (file name, text) for the four stage
# files, ("instances", tagged line) or, last, ("counts", per-stage counts).
Piece = tuple[str, object]


class _DocumentChain:
    """Graph, extraction, negatives, copies and instances of one document at a time.

    Each stripe builds one over the run's two sampling pools, once they are
    merged (round 2), and calls it on its documents in line order. A call
    reads its document and caches nothing on it: it builds the document's
    one index, its graph, which serves its graph rows, extraction,
    negatives and bundle texts, and what the chain builds for the document
    is freed when its lines are written.
    """

    def __init__(
        self, cfg: PipelineConfig, donors: Sequence[AnnotatedSentence], aliens: AlienPool
    ):
        self.cfg = cfg
        self.donors = donors
        self.aliens = aliens

    def __call__(self, doc: Document) -> Iterator[Piece]:
        """Lazily, the document's output pieces, one bundle's at a time."""
        cfg, seed = self.cfg, self.cfg.seed
        counts = {stage: _zeroed(stage) for stage in STAGE_COUNTS}
        graph = build_entity_graph(doc)
        rows = _graph_rows(doc, graph)
        positives = _extract_worker(doc, cfg.extractor, graph)
        counts["graph"]["edges"] = len(rows)
        counts["extract"]["instances"] = len(positives)
        yield "graph", "".join(rows)
        yield "positives", "".join(record_line(positive_to_record(p)) for p in positives)
        for original in _negative_worker(
            doc, positives, self.donors, cfg.negatives, seed, counts["negatives"], graph
        ):
            line = record_line(bundle_to_record(original))
            yield "bundles", line
            copies = _copies(
                original, doc, self.aliens, cfg.counterfactual, seed, counts["counterfactual"]
            )
            for bundle in copies:
                if bundle is not original:
                    line = record_line(bundle_to_record(bundle))
                yield "bundles_counterfactual", line
                for tagged in _instance_lines(bundle, seed, counts["emit"]):
                    yield "instances", tagged
        yield "counts", counts


def worker_count(jobs: int) -> int:
    """Processes to run the document chains on when `jobs` are asked for.

    Never more than the usable CPUs, and 1 where the fork start method is
    unavailable. A corpus of fewer documents leaves some stripes empty.
    """
    if jobs <= 1:
        return 1
    import multiprocessing  # here, so that a run without workers never loads it

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(jobs, cpus)


# Corpus lines per chunk, the unit of a stripe and of a message from a
# worker. A `first` document's chain takes about a millisecond: smaller
# chunks cost the parent more CPU in messages, larger ones lengthen the
# uneven tail of a run.
CHUNK_DOCS = 16


def _chunk(line: int) -> int:
    return (line - 1) // CHUNK_DOCS


def _parsed(obj, line: int) -> tuple[int, Document]:
    return line, parse_record(obj, line)


# A stripe's answer to round 1: its skipped lines, and each parsed
# document's (line, id, donor count) in line order.
Summary = tuple[list[RecordError], list[tuple[int, str, int]]]
# A stripe's answer to round 2: (line, picked donors) of each document with
# a pick, in line order, and its share of the alien pool.
Pools = tuple[list[tuple[int, list[AnnotatedSentence]]], AlienShare]
# The parent's round-2 request, the same to every stripe: the lines to drop,
# and the positions of the donors picked from each document, by line.
Request = tuple[set[int], dict[int, list[int]]]


class _Stripe:
    """One worker's documents: those on the lines of chunks c with c % workers == index.

    Its three methods are the worker's side of the run's three rounds, in
    order. It keeps its documents until their chains have run.
    """

    def __init__(self, cfg: PipelineConfig, index: int, workers: int):
        self.cfg = cfg
        self.index = index
        self.workers = workers
        self.docs: list[tuple[int, Document]] = []  # (line, document), in line order

    def summary(self) -> Summary:
        """Parse the stripe's lines with `corpus.parse_record`."""
        errors: list[RecordError] = []
        with open(self.cfg.input, "rb") as fp:
            # A line of another stripe reads as blank: skipped, but still numbered.
            mine = (
                raw if _chunk(line) % self.workers == self.index else b""
                for line, raw in enumerate(fp, start=1)
            )
            self.docs = list(read_records(mine, _parsed, errors))
        return errors, [
            (line, doc.id, len(build_entity_graph(doc).donors)) for line, doc in self.docs
        ]

    def pools(self, dropped: set[int], picks: dict[int, list[int]]) -> Pools:
        """Drop the documents on `dropped` lines; return the others' shares of the pools.

        `picks` maps a line of any stripe to the positions of its picked
        donors, as `negatives.draw_donors` gives them.
        """
        self.docs = [(line, doc) for line, doc in self.docs if line not in dropped]
        donors = [(line, picked_donors(doc, picks[line])) for line, doc in self.docs if line in picks]
        # A run without copies draws no aliens.
        return donors, alien_share(self.docs if self.cfg.counterfactual.copies else ())

    def chains(
        self, donors: Sequence[AnnotatedSentence], aliens: AlienPool
    ) -> Iterator[Iterator[Piece]]:
        """Lazily, each chunk's output pieces, in line order; each document is let go once run."""
        chain = _DocumentChain(self.cfg, donors, aliens)
        docs, self.docs = self.docs[::-1], []

        def taken() -> Iterator[tuple[int, Document]]:
            while docs:
                yield docs.pop()

        for _, run in groupby(taken(), key=lambda item: _chunk(item[0])):
            yield (piece for _, doc in run for piece in chain(doc))


def _merged_summaries(
    cfg: PipelineConfig, summaries: list[Summary]
) -> tuple[list[RecordError], list[int], Request]:
    """Round 1 in this process: the stripes' summaries merged in line order.

    Returns the skipped lines' errors in line order, the lines of the kept
    documents, and the round-2 request: the lines to drop, whose ids an
    earlier line has (`corpus.claim_id`), and the donors picked from each
    document (`negatives.draw_donors`).
    """
    errors = [err for skipped, _ in summaries for err in skipped]
    dropped: set[int] = set()
    first_lines: dict[str, int] = {}
    kept: list[tuple[int, int]] = []  # (line, donor count)
    for line, doc_id, donors in heapq.merge(*(docs for _, docs in summaries)):
        try:
            claim_id(first_lines, doc_id, line)
        except RecordError as err:
            errors.append(err)
            dropped.add(line)
        else:
            kept.append((line, donors))
    errors.sort(key=attrgetter("line"))
    rng = derive_rng(cfg.seed, "donor-pool")
    draws = draw_donors([n for _, n in kept], cfg.negatives.pool_size, rng)
    picks = {kept[d][0]: positions for d, positions in draws}
    return errors, [line for line, _ in kept], (dropped, picks)


def _merged_pools(parts: list[Pools]) -> tuple[list[AnnotatedSentence], AlienPool]:
    """Round 2 in each stripe: the donor and alien pools, from every stripe's share.

    Both are merged in line order: the donors as `negatives.draw_donors`
    ordered them, the aliens by `counterfactual.merged_aliens`.
    """
    donors = [
        donor
        for _, picked in heapq.merge(*(share for share, _ in parts), key=itemgetter(0))
        for donor in picked
    ]
    return donors, merged_aliens([share for _, share in parts])


def _serve(conn, inherited, cfg: PipelineConfig, index: int, workers: int) -> None:
    """A forked worker: run stripe `index`'s three rounds over `conn`.

    An exception is sent in place of the next message, and ends the worker;
    one that does not survive a pickle round trip is sent as a RuntimeError
    naming its type and message.
    """
    for other in inherited:  # the parent's ends of earlier workers' pipes
        other.close()
    try:
        stripe = _Stripe(cfg, index, workers)
        conn.send(stripe.summary())
        conn.send(pickle.dumps(stripe.pools(*conn.recv()), pickle.HIGHEST_PROTOCOL))
        pools = _merged_pools([pickle.loads(conn.recv_bytes()) for _ in range(workers)])
        for pieces in stripe.chains(*pools):
            conn.send(list(pieces))
    except BaseException as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = RuntimeError(f"{type(exc).__name__}: {exc}")
        conn.send(exc)
    finally:
        conn.close()


def _received(conn):
    """The next message of a worker; an exception it sent is raised here."""
    try:
        message = conn.recv()
    except EOFError:
        raise RuntimeError("a pipeline worker exited without finishing") from None
    if isinstance(message, BaseException):
        raise message
    return message


@contextmanager
def _stripes(
    cfg: PipelineConfig, workers: int
) -> Iterator[tuple[list[RecordError], int, Iterator[Iterable[Piece]]]]:
    """Run the corpus in `workers` stripes: (skipped lines, documents, chunk outputs).

    The chunk outputs come lazily and in line order. One stripe runs here,
    its objects passed by reference. More run in worker processes forked
    before anything is parsed; this process then holds no document, only
    the stripes' summaries, their shares of the pools as bytes, and one
    chunk of output. No deadlock: a worker waits only on its own pipe, and
    this process reads each pipe in the order its worker writes it. On an
    error the workers are stopped and joined before it propagates.
    """
    if workers == 1:
        stripe = _Stripe(cfg, 0, 1)
        errors, kept, request = _merged_summaries(cfg, [stripe.summary()])
        pools = _merged_pools([stripe.pools(*request)])
        yield errors, len(kept), stripe.chains(*pools)
        return
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conns: list = []
    procs: list = []
    try:
        for index in range(workers):
            conn, child = context.Pipe()
            args = (child, list(conns), cfg, index, workers)
            proc = context.Process(target=_serve, args=args, daemon=True)
            proc.start()
            child.close()
            conns.append(conn)
            procs.append(proc)
        errors, kept, request = _merged_summaries(cfg, [_received(conn) for conn in conns])
        for conn in conns:
            conn.send(request)
        shares = [_received(conn) for conn in conns]
        for conn in conns:
            for blob in shares:
                conn.send_bytes(blob)
        del shares
        order = sorted({_chunk(line) for line in kept})
        yield errors, len(kept), (_received(conns[c % workers]) for c in order)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


OUTPUT_FILES = {
    "graph": "graph.tsv",
    "positives": "positives.jsonl",
    "bundles": "bundles.jsonl",
    "bundles_counterfactual": "bundles_counterfactual.jsonl",
    "instances": "instances.jsonl",
    "manifest": "manifest.json",
}


@collector_paused()
def run_pipeline(cfg: PipelineConfig, skipped: list[RecordError] | None = None) -> dict:
    """Ingest, graph, extract, negatives, counterfactual, emit; write manifest.

    Each intermediate file matches what the corresponding standalone
    subcommand would produce with the same configuration. The corpus runs
    in `worker_count(cfg.jobs)` stripes (`_stripes`), which parse their own
    lines; each document's whole chain runs in its stripe, its graph built
    once for both the export and the extraction, and an original bundle
    serialized once for both bundle files. This process writes the pieces
    to the five files in input order and interleaves the instance lines
    1:copies; with one stripe it holds one bundle's output at a time. The
    outputs do not depend on `cfg.jobs`. The error of each skipped corpus
    line is appended to `skipped`, in line order, once the corpus is parsed.

    The run holds the cyclic garbage collector paused (`collector_paused`),
    and forked workers inherit the pause. This relies on an invariant: a
    document's work creates no reference cycle (see `metapath.dfs_metapath`
    for the search), so its graph, search state and bundles are freed by
    reference counting as soon as its lines are written. A cycle added
    anywhere in the chain would keep every document's objects alive to the
    end of the run.
    """
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {name: out_dir / fname for name, fname in OUTPUT_FILES.items()}
    workers = worker_count(cfg.jobs)
    stages = {stage: _zeroed(stage) for stage in STAGE_COUNTS}

    with ExitStack() as stack:
        files = {
            name: stack.enter_context(open_output(paths[name]))
            for name in ("graph", "positives", "bundles", "bundles_counterfactual", "instances")
        }
        parse_errors, n_docs, chunks = stack.enter_context(_stripes(cfg, workers))
        if skipped is not None:
            skipped.extend(parse_errors)

        def instance_lines() -> Iterator[TaggedLine]:
            for pieces in chunks:
                for name, piece in pieces:
                    if name == "instances":
                        yield piece
                    elif name == "counts":
                        for stage, counts in piece.items():
                            for key, n in counts.items():
                                stages[stage][key] += n
                    else:
                        files[name].write(piece)

        stages["emit"]["records"] = emit_instances(
            instance_lines(), cfg.counterfactual.copies, files["instances"],
            tally=stages["emit"],
        )

    manifest = {
        "config_hash": cfg.hash(),
        "seed": cfg.seed,
        "stages": {"parse": {"documents": n_docs, "errors": len(parse_errors)}, **stages},
        # File names are relative to the manifest's directory, keeping the
        # manifest byte-identical across runs into different locations.
        "outputs": {name: fname for name, fname in OUTPUT_FILES.items() if name != "manifest"},
    }
    with open_output(paths["manifest"]) as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return manifest


def read_bundle_file(path) -> list[InstanceBundle]:
    with open(path, "rb") as fp:
        return list(read_bundles(fp))
