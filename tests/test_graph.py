import io
import random

import pytest

from pathcl.graph import build_entity_graph, pair_key, write_edge_list

from corpora import build_document, film_cast_document, random_micro_doc
from oracles import sentence_entities


def triangle_document():
    """Three pairwise co-mentions across three sentences, no relations."""
    surfaces = {"mckean": "McKean", "mirrormask": "MirrorMask", "leonidas": "Stephanie Leonidas"}
    parts = [
        [("mckean", "McKean"), " made ", ("mirrormask", "MirrorMask"), "."],
        ["Filler sentence."],
        [("mckean", "McKean"), " cast ", ("leonidas", "Stephanie Leonidas"), "."],
        ["Another filler."],
        [("leonidas", "Stephanie Leonidas"), " appears in ", ("mirrormask", "MirrorMask"), "."],
    ]
    return build_document("tri", parts, surfaces)


def test_single_sentence_pair():
    doc = build_document(
        "d",
        [[("a", "A"), " met ", ("b", "B"), "."]],
        {"a": "A", "b": "B"},
    )
    g = build_entity_graph(doc)
    assert g.nodes == {"a", "b"}
    assert g.sentences == {("a", "b"): frozenset({0})}
    assert g.labels == {}


def test_triangle():
    g = build_entity_graph(triangle_document())
    assert set(g.sentences) == {
        pair_key("mckean", "mirrormask"),
        pair_key("mckean", "leonidas"),
        pair_key("leonidas", "mirrormask"),
    }
    assert g.labels == {}
    assert g.intra_sentences("mckean", "mirrormask") == {0}
    assert g.intra_sentences("mckean", "leonidas") == {2}
    assert g.intra_sentences("leonidas", "mirrormask") == {4}


def test_no_cooccurrence_no_edges():
    doc = build_document(
        "d",
        [[("a", "A"), " was here."], [("b", "B"), " was there."]],
        {"a": "A", "b": "B"},
    )
    g = build_entity_graph(doc)
    assert g.nodes == {"a", "b"}
    assert g.sentences == {} and g.labels == {}


def test_kg_and_intra_merge_into_one_slot():
    doc = build_document(
        "d",
        [[("a", "A"), " met ", ("b", "B"), "."]],
        {"a": "A", "b": "B"},
        relations=[("a", "b", "knows"), ("b", "a", "likes")],
    )
    g = build_entity_graph(doc)
    assert g.intra_sentences("a", "b") == {0}
    assert g.kg_labels("b", "a") == ("knows", "likes")
    assert set(g.sentences) == set(g.labels) == {("a", "b")}
    assert g.adjacency == {"a": ("b",), "b": ("a",)}


def test_neighbors_triangle():
    g = build_entity_graph(triangle_document())
    assert g.adjacency["mirrormask"] == ("leonidas", "mckean")


def test_neighbors_isolated_and_kg_only():
    doc = build_document(
        "d",
        [[("a", "A"), " rested."], [("b", "B"), " slept."], [("c", "C"), " left."]],
        {"a": "A", "b": "B", "c": "C"},
        relations=[("a", "b", "knows")],
    )
    g = build_entity_graph(doc)
    assert g.adjacency["c"] == ()
    assert g.adjacency["a"] == ("b",)
    assert g.kg_labels("a", "b") == ("knows",)
    assert g.intra_sentences("a", "b") == frozenset()
    with pytest.raises(KeyError):
        g.adjacency["nope"]


def test_neighbors_symmetric():
    rng = random.Random(5)
    for i in range(20):
        doc = random_micro_doc(rng, f"m{i}")
        g = build_entity_graph(doc)
        for node in g.nodes:
            for other in g.adjacency[node]:
                assert node in g.adjacency[other]


def test_intra_sentence_edges_match_brute_force():
    rng = random.Random(7)
    for i in range(40):
        doc = random_micro_doc(rng, f"m{i}")
        g = build_entity_graph(doc)
        ids = sorted(e.id for e in doc.entities)
        for x, a in enumerate(ids):
            for b in ids[x + 1 :]:
                expected = frozenset(
                    k
                    for k in range(len(doc.sentences))
                    if {a, b} <= sentence_entities(doc, k)
                )
                assert g.intra_sentences(a, b) == expected
        assert g.nodes == set(ids)
        for a, b in [*g.sentences, *g.labels]:
            assert a in g.nodes and b in g.nodes and a != b


def test_deterministic_build():
    rng = random.Random(9)
    for i in range(10):
        doc = random_micro_doc(rng, f"m{i}")
        assert build_entity_graph(doc) == build_entity_graph(doc)


def test_edge_list_export():
    g = build_entity_graph(film_cast_document())
    buf = io.StringIO()
    n = write_edge_list(g, buf)
    lines = buf.getvalue().splitlines()
    assert len(lines) == n
    assert lines == sorted(lines)
    assert "e1|e3\tkg\tdirector" in lines
    assert "e1|e3\tsent\t1" in lines
