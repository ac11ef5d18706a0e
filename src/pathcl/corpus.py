"""Corpus data model: documents with entity mention spans and relation triples.

Input corpora are UTF-8 files with one JSON object per line:

    {"id": str,
     "sentences": [{"text": str}],
     "entities": [{"id": str, "name": str,
                   "mentions": [{"sent": int, "start": int, "end": int}]}],
     "relations": [{"head": str, "tail": str, "type": str}]}

Mention spans are half-open character ranges into the sentence text.
Entity ids are opaque strings; the same id appearing in two documents
denotes the same entity. Relation type labels are carried as opaque
metadata. Document ids are unique within a corpus. Document ids, entity
ids and relation types hold no tab, "\\n" or "\\r", and entity ids no "|":
`graph.tsv` writes them unescaped. Documents are immutable after parsing;
a parsed sentence is its text, and its ordinal is its position in
`Document.sentences`.

A parsed document shares what repeats across the corpus, since a run holds
its documents until their chains have run: entity surfaces and relation
labels are interned strings; equal mention spans are one `Mention`, in any
documents, through a least-recently-used cache of `MENTION_CACHE_SIZE`
spans; and a relation's head and tail are the string objects of its
document's entity ids.

Which sentence names which entity is answered by one index, a document's
`SentenceTable`: the graph's co-mention edges, the answer sentences of a
pair, the relation donors and every annotated text come from it.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import IO, Iterable, Iterator

from .jsonl import RecordError, read_records, require, write_records
from .spans import AnnotatedSentence, MentionSpan


@dataclass(frozen=True, slots=True)
class Mention:
    """One occurrence of an entity: sentence ordinal plus half-open char span."""

    sent: int
    start: int
    end: int


@dataclass(frozen=True, slots=True)
class Entity:
    id: str
    surface: str
    mentions: tuple[Mention, ...]


@dataclass(frozen=True, slots=True)
class RelationTriple:
    head: str
    tail: str
    relation: str


@dataclass(frozen=True, slots=True)
class Document:
    """One parsed document: its records and nothing else.

    No index is cached on it: a lookup by sentence goes through a
    `SentenceTable`, built per use and freed when that use ends.
    """

    id: str
    sentences: tuple[str, ...]  # the texts, in order: a sentence's ordinal is its index
    entities: tuple[Entity, ...]
    relations: tuple[RelationTriple, ...]


# The distinct spans of a corpus follow its documents' shape, not their
# number (2,235 of the 48,000 mentions of a 2,000-document `make_corpus`),
# so a fixed bound holds nearly all of them.
MENTION_CACHE_SIZE = 4096
_mention = lru_cache(maxsize=MENTION_CACHE_SIZE)(Mention)

_by_start = itemgetter(1, 2)  # a mention span's (start, end)


class SentenceTable:
    """One validated document's mentions grouped by sentence, in one walk.

    The walk keeps each sentence's spans, in entity order, and the set of
    ids they name. `table[k]` is sentence k as an `AnnotatedSentence`, its
    spans sorted by (start, end), annotated the first time it is asked for;
    `entities(k)`, `donors` and `shared(a, b)` say which sentences name
    which entities. A table is made per use and is never kept on the
    document: a document chain's one table serves its graph, then lives as
    long as its `negatives.DonorSource`, and the donor pool keeps only the
    sentences it picked. It refers to nothing that refers back to it.
    """

    __slots__ = ("_doc", "_spans", "_named", "_built", "donors")

    def __init__(self, doc: Document):
        spans: list[list[MentionSpan]] = [[] for _ in doc.sentences]
        named: list[set[str]] = [set() for _ in doc.sentences]
        for entity in doc.entities:
            eid = entity.id
            for m in entity.mentions:
                spans[m.sent].append((eid, m.start, m.end))
                named[m.sent].add(eid)
        self._doc = doc
        self._spans = spans
        self._named = named
        self._built: list[AnnotatedSentence | None] = [None] * len(spans)
        # Ordinals of the sentences naming two or more distinct entities, ascending.
        self.donors = [k for k, ids in enumerate(named) if len(ids) >= 2]

    def __getitem__(self, k: int) -> AnnotatedSentence:
        built = self._built[k]
        if built is None:
            mentions = tuple(sorted(self._spans[k], key=_by_start))
            built = AnnotatedSentence(self._doc.id, k, self._doc.sentences[k], mentions)
            self._built[k] = built
        return built

    def entities(self, k: int) -> frozenset[str]:
        """Ids of the entities with at least one mention in sentence k."""
        if not 0 <= k < len(self._named):
            raise IndexError(f"sentence index {k} out of range for document {self._doc.id!r}")
        return frozenset(self._named[k])

    def shared(self, a: str, b: str) -> frozenset[int]:
        """Ordinals of the sentences naming both `a` and `b`."""
        pair = {a, b}
        return frozenset(k for k, named in enumerate(self._named) if pair <= named)


# `graph.tsv` writes ids and labels unescaped: a tab separates its fields,
# a line break its rows, and "|" the two entity ids of a pair.
_ROW_SEPARATOR = re.compile("[\t\n\r]")
_ENTITY_ID_SEPARATOR = re.compile("[|\t\n\r]")


def _separator_problem(what: str, text: str, separator: re.Pattern) -> str | None:
    held = separator.search(text)
    if held is None:
        return None
    return f"{what} {text!r} holds {held[0]!r}, a graph.tsv separator"


def _problems(doc: Document) -> list[tuple[str, str]]:
    """Each violated invariant as (field path, description)."""
    problems: list[tuple[str, str]] = []
    sentences = doc.sentences
    n_sent = len(sentences)

    if problem := _separator_problem("document id", doc.id, _ROW_SEPARATOR):
        problems.append(("id", problem))
    seen_ids: set[str] = set()
    # The valid mention spans of each sentence, for the overlap check below.
    by_sentence: dict[int, list[tuple[int, int, str]]] = {}
    for i, entity in enumerate(doc.entities):
        if entity.id in seen_ids:
            problems.append((f"entities[{i}].id", f"duplicate entity id {entity.id!r}"))
        seen_ids.add(entity.id)
        if problem := _separator_problem("entity id", entity.id, _ENTITY_ID_SEPARATOR):
            problems.append((f"entities[{i}].id", problem))
        if not entity.surface:
            problems.append((f"entities[{i}].name", f"entity {entity.id!r} has empty surface"))
        if not entity.mentions:
            problems.append((f"entities[{i}].mentions", f"entity {entity.id!r} has no mentions"))
        for j, m in enumerate(entity.mentions):
            # The field path is built only for a violation: most records have none.
            sent, start, end = m.sent, m.start, m.end
            if not 0 <= sent < n_sent:
                problems.append((
                    f"entities[{i}].mentions[{j}]",
                    f"entity {entity.id!r} mention sentence {sent} out of range",
                ))
                continue
            length = len(sentences[sent])
            if start < 0 or end > length or start >= end:
                problems.append((
                    f"entities[{i}].mentions[{j}]",
                    f"entity {entity.id!r} span [{start}, {end}) invalid "
                    f"for sentence {sent} of length {length}",
                ))
            else:
                by_sentence.setdefault(sent, []).append((start, end, entity.id))

    # Overlap check between distinct mentions sharing a sentence.
    for k, spans in sorted(by_sentence.items()):
        spans.sort()
        for (s1, e1, id1), (s2, e2, id2) in zip(spans, spans[1:]):
            if s2 < e1:
                problems.append((
                    f"sentences[{k}]",
                    f"mention [{s1}, {e1}) of {id1!r} overlaps [{s2}, {e2}) of {id2!r}",
                ))

    for i, rel in enumerate(doc.relations):
        if problem := _separator_problem("relation type", rel.relation, _ROW_SEPARATOR):
            problems.append((f"relations[{i}].type", problem))
        if rel.head == rel.tail:
            problems.append((f"relations[{i}]", f"self-relation on entity {rel.head!r}"))
        for role, eid in (("head", rel.head), ("tail", rel.tail)):
            if eid not in seen_ids:
                problems.append((f"relations[{i}].{role}", f"unknown entity id {eid!r}"))

    return problems


def parse_record(obj: dict, line: int = 0) -> Document:
    """Build a Document from one decoded record, enforcing all invariants.

    One walk over the record checks each value's exact JSON type inline.
    An item with a value that fails is read again field by field through
    `require`, which raises the error a field-by-field read would (or
    takes a subclass, as `typed` does), so a record with several bad
    fields reports the first of them, in the order written here.
    """
    doc_id = require(obj, "id", str, line)
    sentences = []
    for i, s in enumerate(require(obj, "sentences", list, line)):
        if not (type(s) is dict and type(text := s.get("text")) is str):
            text = require(s, "text", str, line, f"sentences[{i}]")
        sentences.append(text)
    entities = []
    ids: dict[str, str] = {}  # each entity id, to itself: a relation end reuses the object
    for i, e in enumerate(require(obj, "entities", list, line)):
        if not (type(e) is dict and type(raw := e.get("mentions")) is list):
            raw = require(e, "mentions", list, line, f"entities[{i}]")
        mentions = []
        for j, m in enumerate(raw):
            if not (
                type(m) is dict
                and type(sent := m.get("sent")) is int
                and type(start := m.get("start")) is int
                and type(end := m.get("end")) is int
            ):
                at = f"entities[{i}].mentions[{j}]"
                sent = require(m, "sent", int, line, at)
                start = require(m, "start", int, line, at)
                end = require(m, "end", int, line, at)
            mentions.append(_mention(sent, start, end))
        if not (
            type(e) is dict
            and type(entity_id := e.get("id")) is str
            and type(name := e.get("name")) is str
        ):
            entity_id = require(e, "id", str, line, f"entities[{i}]")
            name = require(e, "name", str, line, f"entities[{i}]")
        entities.append(Entity(entity_id, sys.intern(name), tuple(mentions)))
        ids[entity_id] = entity_id
    relations = []
    for i, r in enumerate(require(obj, "relations", list, line)):
        if not (
            type(r) is dict
            and type(head := r.get("head")) is str
            and type(tail := r.get("tail")) is str
            and type(relation := r.get("type")) is str
        ):
            at = f"relations[{i}]"
            head = require(r, "head", str, line, at)
            tail = require(r, "tail", str, line, at)
            relation = require(r, "type", str, line, at)
        relations.append(
            RelationTriple(ids.get(head, head), ids.get(tail, tail), sys.intern(relation))
        )

    doc = Document(doc_id, tuple(sentences), tuple(entities), tuple(relations))
    problems = _problems(doc)
    if problems:
        message = "; ".join(f"{where}: {problem}" for where, problem in problems)
        raise RecordError(line, message, problems[0][0])
    return doc


def parse_corpus(
    lines: Iterable[str], errors: list[RecordError] | None = None
) -> Iterator[Document]:
    """Lazily parse a corpus stream; `errors` as in `read_records`.

    A document whose id an earlier document of the stream already has is
    a bad record: later stages find a document by its id.
    """
    first_lines: dict[str, int] = {}

    def parse(obj, line: int) -> Document:
        doc = parse_record(obj, line)
        claim_id(first_lines, doc.id, line)
        return doc

    yield from read_records(lines, parse, errors)


def claim_id(first_lines: dict[str, int], doc_id: str, line: int) -> None:
    """Record that the document on `line` has `doc_id`, unless an earlier line's has.

    `first_lines` maps each id claimed so far to its line; lines are
    claimed in input order. A repeated id raises the RecordError of the
    later line, naming the first.
    """
    first = first_lines.setdefault(doc_id, line)
    if first != line:
        message = f"id: duplicate document id {doc_id!r}, first on line {first}"
        raise RecordError(line, message, "id")


def document_to_record(doc: Document) -> dict:
    """Serialize back to the input schema; inverse of parse_record."""
    return {
        "id": doc.id,
        "sentences": [{"text": text} for text in doc.sentences],
        "entities": [
            {
                "id": e.id,
                "name": e.surface,
                "mentions": [{"sent": m.sent, "start": m.start, "end": m.end} for m in e.mentions],
            }
            for e in doc.entities
        ],
        "relations": [
            {"head": r.head, "tail": r.tail, "type": r.relation} for r in doc.relations
        ],
    }


def write_corpus(docs: Iterable[Document], fp: IO[str]) -> int:
    return write_records(docs, document_to_record, fp)
