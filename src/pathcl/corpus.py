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
metadata. Documents are immutable after parsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

from .jsonl import RecordError, read_records, write_records


class CorpusError(RecordError):
    """Schema or invariant violation tied to one input line."""

    def __init__(self, line: int, field: str, message: str):
        super().__init__(line, f"{field}: {message}" if field else message)
        self.field = field
        self.message = message


@dataclass(frozen=True)
class Mention:
    """One occurrence of an entity: sentence ordinal plus half-open char span."""

    sent: int
    start: int
    end: int


@dataclass(frozen=True)
class Sentence:
    index: int
    text: str


@dataclass(frozen=True)
class Entity:
    id: str
    surface: str
    mentions: tuple[Mention, ...]


@dataclass(frozen=True)
class RelationTriple:
    head: str
    tail: str
    relation: str


@dataclass(frozen=True)
class Document:
    id: str
    sentences: tuple[Sentence, ...]
    entities: tuple[Entity, ...]
    relations: tuple[RelationTriple, ...]

    @cached_property
    def entity_index(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}

    @cached_property
    def sentence_entity_sets(self) -> tuple[frozenset[str], ...]:
        sets: list[set[str]] = [set() for _ in self.sentences]
        for entity in self.entities:
            for m in entity.mentions:
                if 0 <= m.sent < len(sets):
                    sets[m.sent].add(entity.id)
        return tuple(frozenset(s) for s in sets)

    @cached_property
    def _sentence_mentions(self) -> dict[int, tuple[tuple[str, int, int], ...]]:
        by_sentence: dict[int, list[tuple[str, int, int]]] = {}
        for e in self.entities:
            for m in e.mentions:
                by_sentence.setdefault(m.sent, []).append((e.id, m.start, m.end))
        return {
            k: tuple(sorted(spans, key=lambda t: (t[1], t[2])))
            for k, spans in by_sentence.items()
        }

    def mentions_in_sentence(self, k: int) -> list[tuple[str, int, int]]:
        """All mention spans in sentence k as (entity id, start, end), sorted by start."""
        return list(self._sentence_mentions.get(k, ()))


def sentence_entities(doc: Document, k: int) -> frozenset[str]:
    """Ids of entities with at least one mention in sentence k."""
    if not 0 <= k < len(doc.sentences):
        raise IndexError(f"sentence index {k} out of range for document {doc.id!r}")
    return doc.sentence_entity_sets[k]


def validate_document(doc: Document) -> list[str]:
    """Check every document invariant; return one description per violation.

    An empty list means the document is well-formed. Violations are data,
    not exceptions: callers decide whether to skip, report, or abort.
    """
    problems: list[str] = []
    n_sent = len(doc.sentences)

    for i, sent in enumerate(doc.sentences):
        if sent.index != i:
            problems.append(f"sentences[{i}].index: is {sent.index}, expected {i}")

    seen_ids: set[str] = set()
    for i, entity in enumerate(doc.entities):
        if entity.id in seen_ids:
            problems.append(f"entities[{i}].id: duplicate entity id {entity.id!r}")
        seen_ids.add(entity.id)
        if not entity.surface:
            problems.append(f"entities[{i}].name: entity {entity.id!r} has empty surface")
        if not entity.mentions:
            problems.append(f"entities[{i}].mentions: entity {entity.id!r} has no mentions")
        for j, m in enumerate(entity.mentions):
            where = f"entities[{i}].mentions[{j}]"
            if not 0 <= m.sent < n_sent:
                problems.append(
                    f"{where}: entity {entity.id!r} mention sentence {m.sent} out of range"
                )
                continue
            length = len(doc.sentences[m.sent].text)
            if m.start < 0 or m.end > length or m.start >= m.end:
                problems.append(
                    f"{where}: entity {entity.id!r} span [{m.start}, {m.end}) invalid "
                    f"for sentence {m.sent} of length {length}"
                )

    # Overlap check between distinct mentions sharing a sentence.
    by_sentence: dict[int, list[tuple[int, int, str]]] = {}
    for entity in doc.entities:
        for m in entity.mentions:
            if 0 <= m.sent < n_sent and 0 <= m.start < m.end <= len(doc.sentences[m.sent].text):
                by_sentence.setdefault(m.sent, []).append((m.start, m.end, entity.id))
    for k, spans in sorted(by_sentence.items()):
        spans.sort()
        for (s1, e1, id1), (s2, e2, id2) in zip(spans, spans[1:]):
            if s2 < e1:
                problems.append(
                    f"sentence {k}: mention [{s1}, {e1}) of {id1!r} overlaps "
                    f"[{s2}, {e2}) of {id2!r}"
                )

    for i, rel in enumerate(doc.relations):
        if rel.head == rel.tail:
            problems.append(f"relations[{i}]: self-relation on entity {rel.head!r}")
        for role, eid in (("head", rel.head), ("tail", rel.tail)):
            if eid not in seen_ids:
                problems.append(f"relations[{i}].{role}: unknown entity id {eid!r}")

    return problems


def _expect(obj: dict, key: str, kind: type, path: str, line: int):
    if key not in obj:
        raise CorpusError(line, f"{path}.{key}" if path else key, "missing field")
    value = obj[key]
    if kind is int and isinstance(value, bool) or not isinstance(value, kind):
        raise CorpusError(
            line,
            f"{path}.{key}" if path else key,
            f"expected {kind.__name__}, got {type(value).__name__}",
        )
    return value


def parse_record(obj: dict, line: int = 0) -> Document:
    """Build a Document from one decoded record, enforcing all invariants."""
    if not isinstance(obj, dict):
        raise CorpusError(line, "", f"expected object, got {type(obj).__name__}")
    doc_id = _expect(obj, "id", str, "", line)

    sentences = []
    for i, s in enumerate(_expect(obj, "sentences", list, "", line)):
        if not isinstance(s, dict):
            raise CorpusError(line, f"sentences[{i}]", "expected object")
        sentences.append(Sentence(index=i, text=_expect(s, "text", str, f"sentences[{i}]", line)))

    entities = []
    for i, e in enumerate(_expect(obj, "entities", list, "", line)):
        if not isinstance(e, dict):
            raise CorpusError(line, f"entities[{i}]", "expected object")
        path = f"entities[{i}]"
        mentions = []
        for j, m in enumerate(_expect(e, "mentions", list, path, line)):
            if not isinstance(m, dict):
                raise CorpusError(line, f"{path}.mentions[{j}]", "expected object")
            mpath = f"{path}.mentions[{j}]"
            mentions.append(
                Mention(
                    sent=_expect(m, "sent", int, mpath, line),
                    start=_expect(m, "start", int, mpath, line),
                    end=_expect(m, "end", int, mpath, line),
                )
            )
        entities.append(
            Entity(
                id=_expect(e, "id", str, path, line),
                surface=_expect(e, "name", str, path, line),
                mentions=tuple(mentions),
            )
        )

    relations = []
    for i, r in enumerate(_expect(obj, "relations", list, "", line)):
        if not isinstance(r, dict):
            raise CorpusError(line, f"relations[{i}]", "expected object")
        path = f"relations[{i}]"
        relations.append(
            RelationTriple(
                head=_expect(r, "head", str, path, line),
                tail=_expect(r, "tail", str, path, line),
                relation=_expect(r, "type", str, path, line),
            )
        )

    doc = Document(
        id=doc_id,
        sentences=tuple(sentences),
        entities=tuple(entities),
        relations=tuple(relations),
    )
    problems = validate_document(doc)
    if problems:
        head = problems[0]
        field = head.split(":", 1)[0] if ":" in head else ""
        raise CorpusError(line, field, "; ".join(problems))
    return doc


def parse_corpus(
    lines: Iterable[str], errors: list[RecordError] | None = None
) -> Iterator[Document]:
    """Lazily parse a corpus stream; `errors` as in `read_records`."""
    yield from read_records(lines, parse_record, errors)


def document_to_record(doc: Document) -> dict:
    """Serialize back to the input schema; inverse of parse_record."""
    return {
        "id": doc.id,
        "sentences": [{"text": s.text} for s in doc.sentences],
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
