import dataclasses
import random

import pytest

from pathcl.graph import build_entity_graph
from pathcl.metapath import ExtractorConfig, extract_positive_instances
from pathcl.negatives import (
    DonorSource,
    build_donor_pool,
    make_negative_contexts,
    make_negative_options,
    relation_replace,
)
from pathcl.spans import AnnotatedSentence, OverlappingSpans
from pathcl.synth import make_corpus

from corpora import build_document, film_cast_document, random_micro_doc
from oracles import (
    collect_answer_candidates,
    diff_outside_spans,
    donor_sentences,
    mentions_in_sentence,
    sentence_entities,
    surface_occurrences,
)


def sample_relation_provider(inst, doc, pool, rng):
    """First eligible (donor, pair, is_swap) for the instance, or None."""
    source = DonorSource(doc, build_entity_graph(doc), pool)
    for donor, pair in source.candidates(inst.pair, source.graph.intra_sentences(*inst.pair), rng):
        return donor, pair, set(pair) == set(inst.pair)
    return None


def film_cast_instance():
    doc = film_cast_document()
    graph = build_entity_graph(doc)
    inst = extract_positive_instances(doc, graph, ExtractorConfig())[0]
    return doc, inst


def test_relation_replace_simple():
    donor = AnnotatedSentence(
        doc_id="d",
        sentence=0,
        text="Carol founded Dune Corp.",
        mentions=(("carol", 0, 5), ("dune", 14, 23)),
    )
    synth = relation_replace(
        donor,
        ("carol", "dune"),
        (("e1", "McKean"), ("e2", "Stephanie Leonidas")),
    )
    assert synth.text == "McKean founded Stephanie Leonidas."
    assert synth.replaced == (("carol", "e1"), ("dune", "e2"))
    assert not synth.swap
    assert synth.mentions == (("e1", 0, 6), ("e2", 15, 33))


def test_relation_replace_swap():
    donor = AnnotatedSentence(
        doc_id="d",
        sentence=0,
        text="McKean cast Stephanie Leonidas.",
        mentions=(("e1", 0, 6), ("e2", 12, 30)),
    )
    synth = relation_replace(
        donor,
        ("e2", "e1"),
        (("e1", "McKean"), ("e2", "Stephanie Leonidas")),
    )
    assert synth.text == "Stephanie Leonidas cast McKean."
    assert synth.swap


def test_relation_replace_all_mentions():
    donor = AnnotatedSentence(
        doc_id="d",
        sentence=0,
        text="Ada met Ada and Bob.",
        mentions=(("ada", 0, 3), ("ada", 8, 11), ("bob", 16, 19)),
    )
    synth = relation_replace(donor, ("ada", "bob"), (("x", "Xu"), ("y", "Yi")))
    assert synth.text == "Xu met Xu and Yi."


def test_relation_replace_errors():
    donor = AnnotatedSentence(
        doc_id="d", sentence=0, text="Solo.", mentions=(("a", 0, 4),)
    )
    with pytest.raises(ValueError):
        relation_replace(donor, ("a", "b"), (("x", "X"), ("y", "Y")))
    overlapping = AnnotatedSentence(
        doc_id="d",
        sentence=0,
        text="Alpha Beta",
        mentions=(("a", 0, 7), ("b", 6, 10)),
    )
    with pytest.raises(OverlappingSpans):
        relation_replace(overlapping, ("a", "b"), (("x", "X"), ("y", "Y")))


def test_diff_confined_to_spans():
    donor = AnnotatedSentence(
        doc_id="d",
        sentence=0,
        text="Carol founded Dune Corp.",
        mentions=(("carol", 0, 5), ("dune", 14, 23)),
    )
    synth = relation_replace(donor, ("carol", "dune"), (("x", "A"), ("y", "B")))
    spans = [m for m in donor.mentions]
    assert diff_outside_spans(donor.text, synth.text, spans)
    assert not diff_outside_spans(donor.text, synth.text + "!", spans)


def test_provider_prefers_in_document():
    doc, inst = film_cast_instance()
    pool = [
        AnnotatedSentence(
            doc_id="other",
            sentence=0,
            text="X met Y.",
            mentions=(("x", 0, 1), ("y", 6, 7)),
        )
    ]
    for seed in range(10):
        found = sample_relation_provider(inst, doc, pool, random.Random(seed))
        assert found is not None
        donor, pair, swap = found
        assert donor.doc_id == "filmcast"
        assert donor.sentence != 3  # answers are never donors
        assert not swap


def test_provider_swap_fallback():
    # In-document sentences mentioning both targets are answers, hence never
    # donors; the only usable donor is a pool sentence about the same pair.
    doc = build_document(
        "d",
        [
            [("a", "Ann"), " met ", ("b", "Ben"), "."],
            [("c", "Cal"), " slept."],
        ],
        {"a": "Ann", "b": "Ben", "c": "Cal"},
    )
    pool = [
        AnnotatedSentence(
            doc_id="other",
            sentence=4,
            text="Ann hired Ben.",
            mentions=(("a", 0, 3), ("b", 10, 13)),
        )
    ]
    from pathcl.metapath import PositiveInstance, MetaPath, PathHop

    inst = PositiveInstance(
        doc_id="d",
        pair=("a", "b"),
        path=MetaPath(("a", "b"), (PathHop(via_sentence=0),)),
        context=(0,),
        answer=0,
    )
    found = sample_relation_provider(inst, doc, pool, random.Random(0))
    assert found is not None
    got_donor, pair, swap = found
    assert got_donor.doc_id == "other"
    assert swap
    assert pair == ("b", "a")


def test_provider_no_donor_anywhere():
    doc = build_document(
        "d",
        [[("a", "Ann"), " met ", ("b", "Ben"), "."], [("c", "Cal"), " left."]],
        {"a": "Ann", "b": "Ben", "c": "Cal"},
    )
    from pathcl.metapath import PositiveInstance, MetaPath, PathHop

    inst = PositiveInstance(
        doc_id="d",
        pair=("a", "b"),
        path=MetaPath(("a", "b"), (PathHop(via_sentence=0),)),
        context=(0,),
        answer=0,
    )
    assert sample_relation_provider(inst, doc, [], random.Random(1)) is None


def test_negative_options_worked_example():
    doc, inst = film_cast_instance()
    rng = random.Random(42)
    negs = make_negative_options(inst, DonorSource(doc, build_entity_graph(doc)), 3, rng)
    assert len(negs) == 3
    answer_text = doc.sentences[3]
    seen = set()
    for synth in negs:
        assert synth.text != answer_text
        assert synth.text not in seen
        seen.add(synth.text)
        # entity identity matches the positive: both target surfaces present
        assert surface_occurrences(synth.text, "Dave McKean") >= 1 or surface_occurrences(
            synth.text, "McKean"
        ) >= 1
        mentioned = {m[0] for m in synth.mentions}
        assert {"e1", "e2"} <= mentioned


def test_negative_options_k_zero_and_seeded_reproducibility():
    doc, inst = film_cast_instance()
    assert make_negative_options(inst, DonorSource(doc, build_entity_graph(doc)), 0, random.Random(1)) == ()
    a = make_negative_options(inst, DonorSource(doc, build_entity_graph(doc)), 3, random.Random(7))
    b = make_negative_options(inst, DonorSource(doc, build_entity_graph(doc)), 3, random.Random(7))
    assert a == b
    c = make_negative_options(inst, DonorSource(doc, build_entity_graph(doc)), 3, random.Random(8))
    assert a != c  # different seed reshuffles donor order


def test_negative_options_shortfall():
    # Only one eligible donor sentence with exactly one usable pair.
    doc = build_document(
        "d",
        [
            [("a", "Ann"), " met ", ("b", "Ben"), "."],
            [("a", "Ann"), " likes ", ("c", "Cal"), "."],
            [("c", "Cal"), " joined ", ("b", "Ben"), "."],
        ],
        {"a": "Ann", "b": "Ben", "c": "Cal"},
    )
    graph = build_entity_graph(doc)
    inst = extract_positive_instances(doc, graph, ExtractorConfig())[0]
    assert inst.pair == ("a", "b")
    negs = make_negative_options(inst, DonorSource(doc, graph), 8, random.Random(0))
    assert 0 < len(negs) < 8


def test_negative_contexts_worked_example():
    doc, inst = film_cast_instance()
    negs = make_negative_contexts(inst, DonorSource(doc, build_entity_graph(doc)), 3, random.Random(5))
    assert len(negs) == 3
    for variant in negs:
        assert variant.replaced_sentence in inst.context
        original = doc.sentences[variant.replaced_sentence]
        assert variant.replacement.text != original
        # the rewritten pair lies on the meta-path
        targets = {b for _, b in variant.replacement.replaced}
        assert targets <= set(inst.path.entities)


def test_negative_contexts_rotation_runs_until_k():
    # Document fuzz47 of the donor-path corpus: the ('e0', 'e2') context is
    # sentences 1 and 8. Two rounds of the rotation take four variants; in
    # the third, sentence 8's tries are spent and sentence 1 gives the fifth.
    rng = random.Random(555)
    doc = [random_micro_doc(rng, f"fuzz{i}") for i in range(48)][47]
    graph = build_entity_graph(doc)
    instances = extract_positive_instances(doc, graph, ExtractorConfig(mode="all"))
    inst = next(i for i in instances if i.pair == ("e0", "e2"))
    negs = make_negative_contexts(inst, DonorSource(doc, graph), 5, random.Random(1))
    assert [v.replaced_sentence for v in negs] == [8, 1, 8, 1, 1]
    assert [v.replacement.text for v in negs] == [
        "Node1 praised Node0.",
        "Node2 mentioned Node1.",
        "Node1 mentioned Node0.",
        "Node1 mentioned Node2.",
        "Node2 praised Node1.",
    ]


def test_negatives_spell_targets_as_the_text_they_imitate():
    # An alias: entity e1 is named "D. McKean", and every mention reads
    # "Dave McKean". A negative spelling the name would differ from the
    # gold answer and the context in that spelling alone.
    doc = film_cast_document()
    entities = tuple(
        dataclasses.replace(e, surface="D. McKean") if e.id == "e1" else e
        for e in doc.entities
    )
    doc = dataclasses.replace(doc, entities=entities)
    inst = extract_positive_instances(doc, build_entity_graph(doc), ExtractorConfig())[0]
    assert inst.pair == ("e1", "e2")
    rng = random.Random(0)
    source = DonorSource(doc, build_entity_graph(doc))
    options = make_negative_options(inst, source, 3, rng)
    variants = make_negative_contexts(inst, source, 3, rng)
    assert len(options) == len(variants) == 3
    spelled = {"e1": "Dave McKean", "e2": "Stephanie Leonidas", "e3": "MirrorMask"}
    negatives = [*options, *(v.replacement for v in variants)]
    for synth in negatives:
        assert "D. McKean" not in synth.text
        targets = {target for _, target in synth.replaced}
        for eid, start, end in synth.mentions:
            if eid in targets:
                assert synth.text[start:end] == spelled[eid], synth.text
    assert sum("Dave McKean" in synth.text for synth in negatives) == 5


def test_negative_contexts_single_sentence_context():
    # One sentence-supported hop plus a KG hop: the context is one sentence.
    doc = build_document(
        "d",
        [
            [("a", "Ann"), " met ", ("c", "Cal"), "."],
            [("a", "Ann"), " thanked ", ("b", "Ben"), "."],
            [("c", "Cal"), " hosted ", ("d", "Dee"), "."],
        ],
        {"a": "Ann", "b": "Ben", "c": "Cal", "d": "Dee"},
        relations=[("c", "b", "knows")],
    )
    graph = build_entity_graph(doc)
    instances = extract_positive_instances(doc, graph, ExtractorConfig(mode="all"))
    inst = next(i for i in instances if i.pair == ("a", "b"))
    assert len(inst.context) == 1
    negs = make_negative_contexts(inst, DonorSource(doc, graph), 2, random.Random(3))
    assert len(negs) == 2
    assert {v.replaced_sentence for v in negs} == set(inst.context)
    texts = [v.replacement.text for v in negs]
    assert len(set(texts)) == 2


def test_pool_used_after_in_document_exhaustion():
    doc = build_document(
        "d",
        [
            [("a", "Ann"), " met ", ("b", "Ben"), "."],
            [("a", "Ann"), " saw ", ("c", "Cal"), "."],
            [("c", "Cal"), " saw ", ("b", "Ben"), "."],
        ],
        {"a": "Ann", "b": "Ben", "c": "Cal"},
    )
    graph = build_entity_graph(doc)
    inst = extract_positive_instances(doc, graph, ExtractorConfig())[0]
    other = build_document(
        "other",
        [[("x", "Xu"), " trained ", ("y", "Yi"), "."]],
        {"x": "Xu", "y": "Yi"},
    )
    pool = build_donor_pool([doc, other], 100, random.Random(0))
    assert any(p.doc_id == "other" for p in pool)
    negs = make_negative_options(inst, DonorSource(doc, graph, pool), 8, random.Random(0))
    assert any(s.doc_id == "other" for s in negs)
    in_doc = [s for s in negs if s.doc_id == "d"]
    assert in_doc  # host donors appear despite pool access


def test_donor_pool_deterministic_and_capped():
    docs = [film_cast_document()]
    pool_a = build_donor_pool(docs, 2, random.Random(9))
    pool_b = build_donor_pool(docs, 2, random.Random(9))
    assert pool_a == pool_b
    assert len(pool_a) == 2
    assert [p.sentence for p in pool_a] == sorted(p.sentence for p in pool_a)


def test_sentence_table_equals_a_per_sentence_scan():
    # The graph groups a document's mentions in one pass; each sentence must
    # equal the one annotated by scanning every mention for it. Here entity
    # "a" is spelled three ways, and sentence 0 names it after "b".
    aliased = build_document(
        "aliased",
        [
            [("b", "Ben"), " met ", ("a", "Annie"), " and ", ("a", "Ann"), "."],
            ["No one else came."],
            [("a", "A."), " left with ", ("b", "Benjamin"), "."],
        ],
        {"a": "Ann", "b": "Ben"},
    )
    rng = random.Random(17)
    docs = [aliased, film_cast_document(), *make_corpus(12, seed=3)]
    docs += [random_micro_doc(rng, f"m{i}") for i in range(30)]
    for doc in docs:
        graph = build_entity_graph(doc)
        scans = [mentions_in_sentence(doc, k) for k in range(len(doc.sentences))]
        for k, (text, scan) in enumerate(zip(doc.sentences, scans)):
            assert graph[k] == AnnotatedSentence(doc.id, k, text, scan), (doc.id, k)
            assert graph[k] is graph[k]  # annotated once
            assert graph.entities(k) == sentence_entities(doc, k), (doc.id, k)
        # Its other questions answer as the scans of every mention do: the
        # donors are the sentences naming two entities or more.
        assert graph.donors == donor_sentences(doc)
        assert graph.donors == [k for k, scan in enumerate(scans) if len({m[0] for m in scan}) > 1]
        ids = [e.id for e in doc.entities]
        for a in ids:
            for b in ids:
                if a != b:
                    assert graph.intra_sentences(a, b) == collect_answer_candidates(doc, (a, b)), (a, b)
        # A document's donors, spellings and bundle texts share one graph.
        source = DonorSource(doc, graph)
        for donor, _ in source.candidates(("x", "y"), frozenset(), random.Random(0)):
            assert donor is source.graph[donor.sentence]
