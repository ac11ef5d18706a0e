import copy
import dataclasses
import io
import json
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pathcl.corpus import (
    MENTION_CACHE_SIZE,
    Document,
    Entity,
    Mention,
    RelationTriple,
    Sentences,
    document_to_record,
    parse_corpus,
    parse_record,
    write_corpus,
)
from pathcl.counterfactual import build_entity_pool
from pathcl.graph import build_entity_graph
from pathcl.jsonl import RecordError
from pathcl.synth import make_corpus

from corpora import film_cast_document, random_micro_doc
from oracles import field_by_field_parse_record

MINIMAL = {
    "id": "d0",
    "sentences": [{"text": "A met B."}],
    "entities": [
        {"id": "a", "name": "A", "mentions": [{"sent": 0, "start": 0, "end": 1}]},
        {"id": "b", "name": "B", "mentions": [{"sent": 0, "start": 6, "end": 7}]},
    ],
    "relations": [],
}


def record_line(obj) -> str:
    return json.dumps(obj) + "\n"


def test_parse_minimal_record():
    docs = list(parse_corpus([record_line(MINIMAL)]))
    assert len(docs) == 1
    doc = docs[0]
    assert len(doc.entities) == 2
    assert len(doc.sentences) == 1
    assert doc.sentences[0] == "A met B."


def test_parse_empty_stream():
    assert list(parse_corpus([])) == []
    assert list(parse_corpus(["", "   \n"])) == []


def test_parse_bad_span_names_mention():
    bad = json.loads(json.dumps(MINIMAL))
    bad["entities"][1]["mentions"][0]["end"] = 99
    errors: list[RecordError] = []
    docs = list(parse_corpus([record_line(bad)], errors))
    assert docs == []
    assert len(errors) == 1
    assert errors[0].line == 1
    assert "mentions[0]" in str(errors[0])
    assert "'b'" in str(errors[0])


def test_parse_recovers_per_line():
    lines = [record_line(MINIMAL), "not json\n", record_line({**MINIMAL, "id": "d1"})]
    errors: list[RecordError] = []
    docs = list(parse_corpus(lines, errors))
    assert [d.id for d in docs] == ["d0", "d1"]
    assert [e.line for e in errors] == [2]


def test_parse_strict_raises():
    with pytest.raises(RecordError) as exc:
        list(parse_corpus(["{}"]))
    assert exc.value.line == 1
    assert "id" in str(exc.value)


def test_missing_field_path():
    bad = json.loads(json.dumps(MINIMAL))
    del bad["entities"][0]["mentions"]
    with pytest.raises(RecordError) as exc:
        parse_record(bad, 7)
    assert exc.value.line == 7
    assert exc.value.field == "entities[0].mentions"


def record_problems(doc: Document) -> list[str]:
    """What `parse_record` rejects in `doc`'s record, in order; [] if it parses back equal."""
    try:
        parsed = parse_record(document_to_record(doc))
    except RecordError as err:
        return err.message.split("; ")
    assert parsed == doc
    return []


def test_validate_well_formed():
    assert record_problems(film_cast_document()) == []


def test_validate_unknown_relation_entity():
    doc = film_cast_document()
    bad = Document(
        id=doc.id,
        sentences=doc.sentences,
        entities=doc.entities,
        relations=doc.relations + (RelationTriple("e1", "zzz", "x"),),
    )
    problems = record_problems(bad)
    assert len(problems) == 1
    assert "zzz" in problems[0]


def test_validate_duplicate_entity_id():
    doc = film_cast_document()
    dup = doc.entities[0]
    bad = Document(
        id=doc.id,
        sentences=doc.sentences,
        entities=doc.entities + (dup,),
        relations=doc.relations,
    )
    problems = record_problems(bad)
    assert any("duplicate" in p for p in problems)


def test_validate_overlapping_mentions():
    sent = "Alpha Beta"
    bad = Document(
        id="d",
        sentences=(sent,),
        entities=(
            Entity("a", "Alpha", (Mention(0, 0, 7),)),
            Entity("b", "Beta", (Mention(0, 6, 10),)),
        ),
        relations=(),
    )
    problems = record_problems(bad)
    assert any("overlaps" in p for p in problems)


def test_validate_reports_problems_in_a_fixed_order():
    # Mention problems in entity and mention order, then overlaps by
    # sentence: the overlap in sentence 2 belongs to the first entity.
    doc = Document(
        id="bad",
        sentences=("Ann met Ben.", "Cal left.", "Dee saw Cal."),
        entities=(
            Entity("d", "Dee", (Mention(2, 0, 3), Mention(2, 1, 5))),
            Entity("a", "Ann", (Mention(0, 0, 3), Mention(5, 0, 3))),
            Entity("b", "Ben", (Mention(0, 8, 11), Mention(1, 4, 20))),
            Entity("c", "Cal", (Mention(0, 2, 6), Mention(1, 0, 3), Mention(2, 8, 11))),
        ),
        relations=(RelationTriple("a", "b", "knows"),),
    )
    assert record_problems(doc) == [
        "entities[1].mentions[1]: entity 'a' mention sentence 5 out of range",
        "entities[2].mentions[1]: entity 'b' span [4, 20) invalid for sentence 1 of length 9",
        "sentences[0]: mention [0, 3) of 'a' overlaps [2, 6) of 'c'",
        "sentences[2]: mention [0, 3) of 'd' overlaps [1, 5) of 'd'",
    ]


def test_validate_self_relation():
    doc = Document(
        id="d",
        sentences=("A",),
        entities=(Entity("a", "A", (Mention(0, 0, 1),)),),
        relations=(RelationTriple("a", "a", "loop"),),
    )
    assert any("self-relation" in p for p in record_problems(doc))


def test_sentence_entities():
    graph = build_entity_graph(film_cast_document())
    assert graph.entities(1) == {"e1", "e3"}
    assert graph.entities(4) == frozenset()
    assert graph.entities(3) == {"e1", "e2"}
    for k in (6, -1):
        with pytest.raises(IndexError):
            graph.entities(k)


def test_sentence_entities_deduplicates():
    doc = Document(
        id="d",
        sentences=("A and A met B.",),
        entities=(
            Entity("a", "A", (Mention(0, 0, 1), Mention(0, 6, 7))),
            Entity("b", "B", (Mention(0, 12, 13),)),
        ),
        relations=(),
    )
    assert record_problems(doc) == []
    assert build_entity_graph(doc).entities(0) == {"a", "b"}


def test_round_trip_identity():
    rng = random.Random(11)
    docs = [film_cast_document()] + [random_micro_doc(rng, f"m{i}") for i in range(25)]
    buf = io.StringIO()
    assert write_corpus(docs, buf) == len(docs)
    buf.seek(0)
    parsed = list(parse_corpus(buf))
    assert parsed == docs


def test_parsed_documents_validate():
    rng = random.Random(3)
    docs = [random_micro_doc(rng, f"m{i}") for i in range(30)]
    for doc in docs:
        assert record_problems(doc) == []
        round_tripped = parse_record(document_to_record(doc))
        assert record_problems(round_tripped) == []
        graph = build_entity_graph(doc)
        for k in range(len(doc.sentences)):
            assert graph.entities(k) <= {e.id for e in doc.entities}


def test_resident_records_are_slotted_frozen_and_interned():
    # The parsed records and the alien pool stay in memory for a whole run,
    # so none carries a per-instance `__dict__`, and repeated names are shared.
    doc = parse_record(document_to_record(film_cast_document()))
    # A sentence is its text, and the alien pool holds the document's own strings.
    assert all(type(text) is str for text in doc.sentences)
    pool = build_entity_pool([doc])
    for eid, surface, entity in zip(pool.ids, pool.surfaces, doc.entities, strict=True):
        assert eid is entity.id and surface is entity.surface
    records = [doc.entities[0], doc.entities[0].mentions[0], doc.relations[0]]
    for record in records:
        assert not hasattr(record, "__dict__"), type(record).__name__
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))
    twin = parse_record(json.loads(json.dumps(document_to_record(doc))))
    assert twin == doc
    assert pickle.loads(pickle.dumps(doc)) == doc
    # Surfaces and relation labels are interned: one string per distinct name.
    assert twin.entities[0].surface is doc.entities[0].surface
    assert twin.relations[0].relation is doc.relations[0].relation
    # A mention span that two parsed documents share is one object.
    assert twin.entities[0].mentions[0] is doc.entities[0].mentions[0]
    parsed = [
        parse_record(json.loads(json.dumps(document_to_record(d))))
        for d in make_corpus(20, seed=8)
    ]
    spans = [m for d in parsed for e in d.entities for m in e.mentions]
    shared: dict[Mention, Mention] = {}
    assert all(shared.setdefault(m, m) is m for m in spans)
    assert len(shared) < len(spans)
    # Each relation's head and tail are its document's entity id objects.
    for d in [twin, *parsed]:
        ids = {e.id: e.id for e in d.entities}
        assert d.relations
        for r in d.relations:
            assert r.head is ids[r.head] and r.tail is ids[r.tail]


def test_sentences_read_as_the_tuple_they_replace():
    texts = ("Ann met Ben.", "", "Cal left é.")
    sentences = Sentences(texts)
    assert len(sentences) == 3 and len(Sentences(())) == 0
    assert [sentences[k] for k in range(3)] == list(texts)
    assert [sentences[k] for k in (-1, -2, -3)] == [texts[-1], texts[-2], texts[-3]]
    for k in (3, -4):
        with pytest.raises(IndexError):
            sentences[k]
    with pytest.raises(IndexError):
        Sentences(())[0]
    assert tuple(sentences) == texts
    assert all(type(text) is str for text in sentences)
    assert sentences == Sentences(list(texts)) and sentences != Sentences(texts[:2])
    # The same joined text split elsewhere is another sequence.
    assert Sentences(("ab", "c")) != Sentences(("a", "bc"))
    assert hash(sentences) == hash(Sentences(list(texts)))
    assert repr(sentences) == f"Sentences({texts!r})"
    assert pickle.loads(pickle.dumps(sentences)) == sentences


def test_parsed_and_tuple_built_documents_are_equal():
    doc = film_cast_document()
    built = Document(doc.id, tuple(doc.sentences), doc.entities, doc.relations)
    parsed = parse_record(json.loads(json.dumps(document_to_record(doc))))
    assert type(parsed.sentences) is Sentences and type(built.sentences) is Sentences
    assert parsed == built and hash(parsed) == hash(built)
    assert all(type(text) is str for text in parsed.sentences)
    assert parsed.sentences[-1] == doc.sentences[len(doc.sentences) - 1]
    for d in make_corpus(30, seed=5, blocks=2, fillers=4):
        assert parse_record(document_to_record(d)) == d


class Text(str):
    """A str subclass: `typed` takes it, an exact-type check alone would not."""


VALID_RECORDS = [document_to_record(d) for d in (film_cast_document(), *make_corpus(2, seed=8))]
OTHER_VALUES = (None, True, 0, 1.5, "", "x", [], [0], {}, {"k": 1})


def value_paths(obj, prefix=()):
    """(key or index path, value) of every value in a decoded record, the root included."""
    yield prefix, obj
    items = obj.items() if type(obj) is dict else enumerate(obj) if type(obj) is list else ()
    for key, value in items:
        yield from value_paths(value, prefix + (key,))


def set_at(record, path, value):
    if not path:
        return value
    parent = record
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return record


DROP = object()


@st.composite
def mutated_records(draw):
    """A valid corpus record with up to three edits: a key or item dropped, a
    value of another JSON type, a bool or float for an int, a non-object
    item, a str subclass, another string (a separator, a duplicate or
    unknown id) or another mention span."""
    record = copy.deepcopy(draw(st.sampled_from(VALID_RECORDS)))
    texts = ["", "a\tb", "x|y", "e\n", *(e["id"] for e in record["entities"][:3])]
    for _ in range(draw(st.integers(0, 3))):
        paths = list(value_paths(record))
        kind = draw(st.sampled_from(["drop", "retype", "int", "item", "subclass", "text", "span"]))
        suits = {
            "drop": lambda p, v: bool(p),
            "retype": lambda p, v: True,
            "int": lambda p, v: type(v) is int,
            "item": lambda p, v: bool(p) and type(p[-1]) is int,
            "subclass": lambda p, v: type(v) is str,
            "text": lambda p, v: type(v) is str,
            "span": lambda p, v: type(v) is dict and "start" in v,
        }[kind]
        candidates = [(p, v) for p, v in paths if suits(p, v)]
        if not candidates:
            continue
        path, value = draw(st.sampled_from(candidates))
        if kind == "drop":
            new = DROP
        elif kind == "retype":
            new = draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(value)]))
        elif kind == "int":
            new = draw(st.sampled_from([True, False, float(value)]))
        elif kind == "item":
            new = draw(st.sampled_from([None, "x", 3, [], [{}]]))
        elif kind == "subclass":
            new = Text(value)
        elif kind == "text":
            new = draw(st.sampled_from(texts))
        else:
            span = st.integers(-2, 60)
            new = {"sent": draw(st.integers(-1, 22)), "start": draw(span), "end": draw(span)}
        record = set_at(record, path, new)
    return record


def read_outcome(parse, record):
    try:
        return parse(record, 9)
    except RecordError as err:
        return "RecordError", err.line, err.message, err.field
    except TypeError as err:  # `sys.intern` takes no str subclass
        return "TypeError", str(err)


def duplicate_id_then_bad_start():
    """entities[0] takes entities[1]'s id, and entities[1]'s first mention a
    string `start`: the type error of entities[1].mentions[0].start must
    raise, not the duplicate id that a read of entities[1].id would find."""
    record = copy.deepcopy(VALID_RECORDS[0])
    first, second = record["entities"][:2]
    first["id"] = second["id"]
    second["mentions"][0]["start"] = "0"
    return record


@settings(derandomize=True, deadline=None, max_examples=600, database=None)
@given(mutated_records())
@example(duplicate_id_then_bad_start())
def test_reader_matches_the_field_by_field_reference(record):
    # The one-walk reader checks exact types inline and builds a field path
    # only for a violation; its documents and first errors must be those of
    # reading every value through `require`.
    assert read_outcome(parse_record, record) == read_outcome(field_by_field_parse_record, record)


def test_reader_past_the_mention_cache_bound_matches_the_reference():
    # Parsed spans are shared through a bounded cache: a record with more
    # distinct spans than the bound evicts its own first spans, and reading
    # it again still gives the reference's document.
    n = MENTION_CACHE_SIZE // 2 + 50

    def mentions(start, end):
        return [{"sent": k, "start": start, "end": end} for k in range(n)]

    record = {
        "id": "long",
        "sentences": [{"text": "Ann met Bo."}] * n,
        "entities": [
            {"id": "a", "name": "Ann", "mentions": mentions(0, 3)},
            {"id": "b", "name": "Bo", "mentions": mentions(8, 10)},
        ],
        "relations": [{"head": "a", "tail": "b", "type": "met"}],
    }
    expected = field_by_field_parse_record(record, 3)
    assert 2 * n > MENTION_CACHE_SIZE
    for _ in range(2):
        assert parse_record(record, 3) == expected
