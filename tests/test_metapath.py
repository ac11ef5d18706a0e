import gc
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from pathcl.graph import build_entity_graph
from pathcl.metapath import (
    ExtractorConfig,
    MetaPath,
    PathHop,
    PositiveInstance,
    dfs_metapath,
    extract_positive_instances,
    validate_instance,
)
from pathcl.synth import make_corpus

from corpora import build_document, film_cast_document, random_micro_doc
from oracles import (
    collect_answer_candidates,
    oracle_document_solvable,
    oracle_pair_solvable,
    ordered_pair_positives,
)


def test_answer_candidates_worked_example():
    graph = build_entity_graph(film_cast_document())
    assert graph.intra_sentences("e1", "e2") == {3}
    assert graph.intra_sentences("e2", "e4") == frozenset()
    # An entity the document lacks shares no sentence; the positive readers
    # check a pair against the document's graph before asking.
    assert graph.intra_sentences("e1", "missing") == frozenset()


def test_answer_candidates_two_sentences():
    doc = build_document(
        "d",
        [
            [("a", "A"), " met ", ("b", "B"), "."],
            ["Filler."],
            [("b", "B"), " visited ", ("a", "A"), "."],
        ],
        {"a": "A", "b": "B"},
    )
    graph = build_entity_graph(doc)
    assert graph.intra_sentences("a", "b") == graph.intra_sentences("b", "a") == {0, 2}


def test_dfs_worked_example():
    doc = film_cast_document()
    graph = build_entity_graph(doc)
    available = frozenset(range(6)) - {3}
    found = dfs_metapath(graph, available, "e1", "e2", ExtractorConfig())
    assert found is not None
    path, context = found
    assert path.entities == ("e1", "e3", "e2")
    assert context == {1, 5}
    assert path.hops == (PathHop(via_sentence=1), PathHop(via_sentence=5))


def test_dfs_blocked_when_support_excluded():
    doc = build_document(
        "d",
        [[("a", "A"), " met ", ("b", "B"), "."]],
        {"a": "A", "b": "B"},
    )
    graph = build_entity_graph(doc)
    found = dfs_metapath(graph, frozenset(), "a", "b", ExtractorConfig())
    assert found is None


def test_dfs_kg_only_path_rejected_without_context():
    doc = build_document(
        "d",
        [[("a", "A"), " rested."], [("b", "B"), " slept."]],
        {"a": "A", "b": "B"},
        relations=[("a", "b", "knows")],
    )
    graph = build_entity_graph(doc)
    cfg = ExtractorConfig()
    assert dfs_metapath(graph, frozenset({0, 1}), "a", "b", cfg) is None


def test_dfs_consumes_distinct_sentences():
    # One sentence supports both hops; it cannot be consumed twice.
    doc = build_document(
        "d",
        [[("a", "A"), " met ", ("b", "B"), " and ", ("c", "C"), "."]],
        {"a": "A", "b": "B", "c": "C"},
    )
    graph = build_entity_graph(doc)
    found = dfs_metapath(graph, frozenset({0}), "a", "c", ExtractorConfig())
    assert found is not None
    path, context = found
    assert path.entities == ("a", "c")  # direct hop, not through b
    assert context == {0}


def test_dfs_matches_oracle_on_random_graphs():
    rng = random.Random(101)
    cfg = ExtractorConfig(max_hops=4)
    for i in range(120):
        doc = random_micro_doc(rng, f"m{i}")
        graph = build_entity_graph(doc)
        ids = sorted(e.id for e in doc.entities)
        all_sentences = frozenset(range(len(doc.sentences)))
        for a in ids:
            for b in ids:
                if a == b:
                    continue
                answers = collect_answer_candidates(doc, (a, b))
                available = all_sentences - answers
                got = dfs_metapath(graph, available, a, b, cfg)
                expected = oracle_pair_solvable(graph, doc, a, b, available, cfg.max_hops)
                assert (got is not None) == expected, (doc.id, a, b)


def test_extract_worked_example():
    doc = film_cast_document()
    graph = build_entity_graph(doc)
    instances = extract_positive_instances(doc, graph, ExtractorConfig(mode="first"))
    assert len(instances) == 1
    inst = instances[0]
    assert inst.pair == ("e1", "e2")
    assert inst.context == (1, 5)
    assert inst.answer == 3
    assert len(inst.path.entities) == 3
    assert validate_instance(inst, doc, graph) == []


def test_extract_no_path_yields_nothing():
    doc = build_document(
        "d",
        [[("a", "A"), " met ", ("b", "B"), "."]],
        {"a": "A", "b": "B"},
    )
    graph = build_entity_graph(doc)
    assert extract_positive_instances(doc, graph, ExtractorConfig(mode="all")) == []


def test_extract_two_answers_two_instances():
    doc = build_document(
        "d",
        [
            [("a", "A"), " met ", ("b", "B"), "."],
            [("a", "A"), " joined ", ("c", "C"), "."],
            [("c", "C"), " praised ", ("b", "B"), "."],
            [("b", "B"), " thanked ", ("a", "A"), "."],
        ],
        {"a": "A", "b": "B", "c": "C"},
    )
    graph = build_entity_graph(doc)
    instances = extract_positive_instances(doc, graph, ExtractorConfig(mode="first"))
    assert len(instances) == 2
    assert instances[0].path == instances[1].path
    assert instances[0].context == instances[1].context
    assert instances[0].answer == 0
    assert instances[1].answer == 3


def test_extract_all_mode_and_determinism():
    rng = random.Random(55)
    cfg = ExtractorConfig(mode="all")
    for i in range(30):
        doc = random_micro_doc(rng, f"m{i}")
        graph = build_entity_graph(doc)
        first = extract_positive_instances(doc, graph, cfg)
        second = extract_positive_instances(doc, graph, cfg)
        assert first == second
        for inst in first:
            assert validate_instance(inst, doc, graph) == []
            assert 1 <= len(inst.context) <= len(inst.path.hops)


def test_search_leaves_no_reference_cycle():
    # `run_pipeline` pauses the cyclic collector, so a cycle left by each
    # search would keep every document's graph alive to the end of a run.
    docs = make_corpus(40, seed=5, blocks=2, fillers=8)
    cfg = ExtractorConfig(mode="all")
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        found = 0
        for doc in docs:
            found += len(extract_positive_instances(doc, build_entity_graph(doc), cfg))
        assert found > 0
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


micro_docs = st.builds(lambda seed: random_micro_doc(random.Random(seed)), st.integers(0, 2**32))
search_configs = st.builds(lambda hops: dict(max_hops=hops), st.integers(2, 5))


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(micro_docs, search_configs)
def test_all_mode_visits_each_unordered_pair_once(doc, search):
    graph = build_entity_graph(doc)
    cfg = ExtractorConfig(mode="all", **search)
    got = extract_positive_instances(doc, graph, cfg)
    oracle = ordered_pair_positives(doc, graph, cfg)
    assert all(a < b for a, b in (inst.pair for inst in got))
    keys = [(inst.pair, inst.answer) for inst in got]
    assert len(set(keys)) == len(keys)
    # success is symmetric, so folding the ordered pairs loses nothing
    folded = {(tuple(sorted(inst.pair)), inst.answer) for inst in oracle}
    assert set(keys) == folded
    # each instance is the one the ordered loop finds for (a, b) itself
    assert got == [inst for inst in oracle if inst.pair[0] < inst.pair[1]]


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(micro_docs, search_configs)
def test_first_mode_matches_ordered_pair_loop(doc, search):
    # The first successful ordered pair is always the canonical one: its
    # reverse succeeds too and sorts after it.
    graph = build_entity_graph(doc)
    cfg = ExtractorConfig(mode="first", **search)
    assert extract_positive_instances(doc, graph, cfg) == ordered_pair_positives(doc, graph, cfg)


def test_extract_existence_matches_document_oracle():
    rng = random.Random(77)
    cfg = ExtractorConfig(mode="first")
    hits = 0
    for i in range(60):
        doc = random_micro_doc(rng, f"m{i}")
        graph = build_entity_graph(doc)
        got = bool(extract_positive_instances(doc, graph, cfg))
        expected = oracle_document_solvable(doc, graph, cfg.max_hops)
        assert got == expected
        hits += got
    assert hits > 0  # the generator must produce solvable documents


def test_max_hops_bound():
    doc = build_document(
        "d",
        [
            [("a", "A"), " met ", ("b", "B"), "."],
            [("b", "B"), " met ", ("c", "C"), "."],
            [("c", "C"), " met ", ("d", "D"), "."],
            [("a", "A"), " saw ", ("d", "D"), "."],
        ],
        {"a": "A", "b": "B", "c": "C", "d": "D"},
    )
    graph = build_entity_graph(doc)
    available = frozenset({0, 1, 2})
    assert dfs_metapath(graph, available, "a", "d", ExtractorConfig(max_hops=4)) is not None
    assert dfs_metapath(graph, available, "a", "d", ExtractorConfig(max_hops=3)) is None


def test_validate_instance_flags_violations():
    doc = film_cast_document()
    graph = build_entity_graph(doc)
    inst = extract_positive_instances(doc, graph, ExtractorConfig())[0]

    tampered = PositiveInstance(
        doc_id=inst.doc_id,
        pair=inst.pair,
        path=inst.path,
        context=(1, 3),
        answer=inst.answer,
    )
    problems = validate_instance(tampered, doc, graph)
    assert any("overlap" in p for p in problems)

    skipping = PositiveInstance(
        doc_id=inst.doc_id,
        pair=("e1", "e4"),
        path=MetaPath(entities=("e1", "e4"), hops=(PathHop(via_sentence=2),)),
        context=(2,),
        answer=3,
    )
    problems = validate_instance(skipping, doc, graph)
    assert any("missing intra-sentence edge" in p for p in problems)
    assert any("does not mention" in p for p in problems)
