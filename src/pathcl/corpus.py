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
`graph.tsv` writes them unescaped. `parse_record` reads, type-checks,
validates and builds a record in one walk over it. Documents are immutable
after parsing; a parsed sentence is its text, and its ordinal is its
position in `Document.sentences`.

A run holds its documents until their chains have run, so a parsed
document is small: its sentence texts are one string with each sentence's
end offset (`Sentences`, read as a tuple of plain strings); entity
surfaces and relation labels are interned strings; equal mention spans are
one `Mention`, in any documents, through a least-recently-used cache of
`MENTION_CACHE_SIZE` spans; and a relation's head and tail are the string
objects of its document's entity ids.

A document has one index, its entity graph (`graph.build_entity_graph`):
which sentence names which entity, the co-mention edges, the answer
sentences of a pair, the relation donors and every annotated text come
from it.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import IO, Iterable, Iterator

from .jsonl import RecordError, read_records, require, write_records


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


class Sentences(Sequence[str]):
    """A document's sentence texts, in order, stored as one string.

    It reads as the tuple of texts it is built from: `len`, indexing
    (negative indexes too), iteration, `==` and `hash`, and each item is a
    plain `str`, sliced out when it is read. The texts are held joined,
    with each one's start and end offset, because a run holds its parsed
    documents until their chains have run: one string in place of one per
    sentence saves a string header per sentence, about 1 KB of a
    20-sentence document.
    """

    __slots__ = ("_text", "_bounds")

    def __init__(self, texts: Iterable[str]):
        # Imported here, so that a process that builds no document (the
        # parent of forked workers, `train`) never loads the extension
        # module: 0.1-0.3 MB of RSS.
        from array import array

        texts = list(texts)
        self._text = "".join(texts)
        # _bounds[k] and _bounds[k + 1] are the start and end of sentence k;
        # built from a list, the array takes no room to grow.
        self._bounds = array("I", list(accumulate(map(len, texts), initial=0)))

    def __len__(self) -> int:
        return len(self._bounds) - 1

    def __getitem__(self, k: int) -> str:
        bounds = self._bounds
        if k < 0:
            k += len(bounds) - 1
            if k < 0:
                raise IndexError("sentence index out of range")
        # Past the last sentence, bounds[k + 1] raises the IndexError.
        return self._text[bounds[k]:bounds[k + 1]]

    def __iter__(self) -> Iterator[str]:
        text, bounds = self._text, self._bounds
        return (text[start:end] for start, end in zip(bounds, bounds[1:]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sentences):
            return NotImplemented
        return self._text == other._text and self._bounds == other._bounds

    def __hash__(self) -> int:
        return hash((self._text, self._bounds.tobytes()))

    def __repr__(self) -> str:
        return f"Sentences({tuple(self)!r})"


@dataclass(frozen=True, slots=True)
class Document:
    """One parsed document: its records and nothing else.

    No index is cached on it: a lookup by sentence goes through its one
    index, a `graph.EntityGraph`, built per use and freed when that use
    ends. The sentences may be given as any sequence of texts, a tuple
    say; they are held as `Sentences`.
    """

    id: str
    sentences: Sentences  # the texts, in order: a sentence's ordinal is its index
    entities: tuple[Entity, ...]
    relations: tuple[RelationTriple, ...]

    def __post_init__(self):
        if type(self.sentences) is not Sentences:
            object.__setattr__(self, "sentences", Sentences(self.sentences))


# The distinct spans of a corpus follow its documents' shape, not their
# number (2,235 of the 48,000 mentions of a 2,000-document `make_corpus`),
# so a fixed bound holds nearly all of them.
MENTION_CACHE_SIZE = 4096
_mention = lru_cache(maxsize=MENTION_CACHE_SIZE)(Mention)

# `graph.tsv` writes ids and labels unescaped: a tab separates its fields,
# a line break its rows, and "|" the two entity ids of a pair.
_ROW_SEPARATOR = re.compile("[\t\n\r]")
_ENTITY_ID_SEPARATOR = re.compile("[|\t\n\r]")


def _separator_problem(what: str, text: str, separator: re.Pattern) -> str | None:
    held = separator.search(text)
    if held is None:
        return None
    return f"{what} {text!r} holds {held[0]!r}, a graph.tsv separator"


def parse_record(obj: dict, line: int = 0) -> Document:
    """Build a Document from one decoded record, enforcing all invariants.

    One walk reads, type-checks, validates and builds the record. Each
    value's exact JSON type is checked inline; an item with a value that
    fails is read again field by field through `require`, which raises the
    error a field-by-field read would (or takes a subclass, as `typed`
    does). So a type error anywhere raises first, naming the first bad
    field in the order written here. Broken invariants are collected as
    the walk reaches them and raised together, joined by "; ", under the
    field path of the first.
    """
    problems: list[tuple[str, str]] = []  # (field path, description)
    doc_id = require(obj, "id", str, line)
    if problem := _separator_problem("document id", doc_id, _ROW_SEPARATOR):
        problems.append(("id", problem))
    sentences = []
    for i, s in enumerate(require(obj, "sentences", list, line)):
        if not (type(s) is dict and type(text := s.get("text")) is str):
            text = require(s, "text", str, line, f"sentences[{i}]")
        sentences.append(text)
    n_sent = len(sentences)
    # The valid mention spans of each sentence, for the overlap check.
    by_sentence: dict[int, list[tuple[int, int, str]]] = {}
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
        # The field paths are built only for a violation: most records have none.
        if entity_id in ids:
            problems.append((f"entities[{i}].id", f"duplicate entity id {entity_id!r}"))
        if problem := _separator_problem("entity id", entity_id, _ENTITY_ID_SEPARATOR):
            problems.append((f"entities[{i}].id", problem))
        if not name:
            problems.append((f"entities[{i}].name", f"entity {entity_id!r} has empty surface"))
        if not mentions:
            problems.append((f"entities[{i}].mentions", f"entity {entity_id!r} has no mentions"))
        for j, m in enumerate(mentions):
            sent, start, end = m.sent, m.start, m.end
            if not 0 <= sent < n_sent:
                problem = f"entity {entity_id!r} mention sentence {sent} out of range"
            elif not 0 <= start < end <= len(sentences[sent]):
                problem = (
                    f"entity {entity_id!r} span [{start}, {end}) invalid "
                    f"for sentence {sent} of length {len(sentences[sent])}"
                )
            else:
                by_sentence.setdefault(sent, []).append((start, end, entity_id))
                continue
            problems.append((f"entities[{i}].mentions[{j}]", problem))
        entities.append(Entity(entity_id, sys.intern(name), tuple(mentions)))
        ids[entity_id] = entity_id
    # Overlaps between distinct mentions sharing a sentence.
    for k, spans in sorted(by_sentence.items()):
        spans.sort()
        for (s1, e1, id1), (s2, e2, id2) in zip(spans, spans[1:]):
            if s2 < e1:
                problems.append((
                    f"sentences[{k}]",
                    f"mention [{s1}, {e1}) of {id1!r} overlaps [{s2}, {e2}) of {id2!r}",
                ))
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
        if problem := _separator_problem("relation type", relation, _ROW_SEPARATOR):
            problems.append((f"relations[{i}].type", problem))
        if head == tail:
            problems.append((f"relations[{i}]", f"self-relation on entity {head!r}"))
        for role, eid in (("head", head), ("tail", tail)):
            if eid not in ids:
                problems.append((f"relations[{i}].{role}", f"unknown entity id {eid!r}"))
        relations.append(
            RelationTriple(ids.get(head, head), ids.get(tail, tail), sys.intern(relation))
        )

    if problems:
        message = "; ".join(f"{where}: {problem}" for where, problem in problems)
        raise RecordError(line, message, problems[0][0])
    return Document(doc_id, Sentences(sentences), tuple(entities), tuple(relations))


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
