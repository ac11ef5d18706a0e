import dataclasses
import io
import json
import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcl.bundle import assemble_bundle
from pathcl.counterfactual import apply_counterfactual, select_replacements
from pathcl.emitter import (
    ContrastiveInstance,
    InstanceMeta,
    bundle_to_instances,
    emit_instances,
    instance_to_record,
    read_instances,
    stats,
    tagged_line,
)
from pathcl.graph import build_entity_graph
from pathcl.jsonl import RecordError
from pathcl.metapath import ExtractorConfig, extract_positive_instances
from pathcl.negatives import (
    DonorSource,
    make_negative_contexts,
    make_negative_options,
)

from corpora import film_cast_document
from oracles import batch_emit_instances
from test_counterfactual import ALIENS


def film_cast_instances(root_seed=7):
    doc = film_cast_document()
    graph = build_entity_graph(doc)
    inst = extract_positive_instances(doc, graph, ExtractorConfig())[0]
    rng = random.Random(root_seed)
    options = make_negative_options(inst, DonorSource(doc, graph), 3, rng)
    contexts = make_negative_contexts(inst, DonorSource(doc, graph), 3, rng)
    bundle = assemble_bundle(inst, graph, options, contexts, 3)
    return doc, inst, bundle, bundle_to_instances(bundle, root_seed)


def random_instance(rng: random.Random, counterfactual=False) -> ContrastiveInstance:
    k = rng.randint(1, 4)
    gold = rng.randrange(k + 1)
    return ContrastiveInstance(
        orientation=rng.choice(["option", "context"]),
        query=f"query {rng.random():.6f} é",
        candidates=tuple(f"cand {i} {rng.random():.4f}" for i in range(k + 1)),
        gold=gold,
        meta=InstanceMeta(
            doc=f"d{rng.randrange(100)}",
            pair=("a", "b"),
            path=("a", "m", "b")[: rng.randint(2, 3)],
            counterfactual=counterfactual,
            replacements=(("a", "z1"),) if counterfactual else (),
            strategy="donors=d0:1,d0:2",
            context_texts=("s one", "s two"),
        ),
    )


def test_bundle_to_instances_shapes():
    doc, inst, bundle, instances = film_cast_instances()
    assert {i.orientation for i in instances} == {"option", "context"}
    for ci in instances:
        assert len(ci.candidates) == 4
        assert 0 <= ci.gold < 4
        assert ci.meta.doc == "filmcast"
        assert ci.meta.pair == ("e1", "e2")
        assert len(ci.meta.context_texts) == 2
    option = next(i for i in instances if i.orientation == "option")
    assert option.query == " ".join(t.text for t in bundle.context)
    assert option.candidates[option.gold] == bundle.answer.text
    context = next(i for i in instances if i.orientation == "context")
    assert context.query == bundle.answer.text
    assert context.candidates[context.gold] == option.query


def test_round_trip_fuzzed():
    rng = random.Random(31)
    originals = [random_instance(rng, counterfactual=rng.random() < 0.5) for _ in range(100)]
    buf = io.StringIO()
    emit_instances(map(tagged_line, originals), 1, buf, Counter())
    buf.seek(0)
    parsed = list(read_instances(buf))
    assert sorted(map(repr, parsed)) == sorted(map(repr, originals))
    # field-for-field equality for a direct record round trip
    for inst in originals:
        line = json.dumps(instance_to_record(inst))
        back = next(iter(read_instances([line])))
        assert back == inst


def test_read_rejects_truncated_line():
    rng = random.Random(5)
    good = json.dumps(instance_to_record(random_instance(rng)))
    with pytest.raises(RecordError) as exc:
        list(read_instances([good, good[: len(good) // 2]]))
    assert exc.value.line == 2


def test_read_rejects_bad_gold():
    rng = random.Random(6)
    rec = instance_to_record(random_instance(rng))
    rec["gold"] = 99
    with pytest.raises(RecordError):
        list(read_instances([json.dumps(rec)]))
    # Nor does it take a meta list holding anything but strings.
    rec = instance_to_record(random_instance(rng))
    rec["meta"]["path"][1] = 7
    rec["meta"]["context_texts"] = ["s one", None]
    with pytest.raises(RecordError, match=r"^line 1: meta\.path\[1\]: expected string, got int$"):
        list(read_instances([json.dumps(rec)]))
    rec["meta"]["path"][1] = "m"
    with pytest.raises(
        RecordError, match=r"^line 1: meta\.context_texts\[1\]: expected string, got null$"
    ):
        list(read_instances([json.dumps(rec)]))


def test_read_empty_file():
    assert list(read_instances([])) == []


def test_ratio_interleave_counts():
    rng = random.Random(8)
    originals = [random_instance(rng) for _ in range(10)]
    copies = [random_instance(rng, counterfactual=True) for _ in range(20)]
    buf = io.StringIO()
    tally = Counter()
    n = emit_instances(map(tagged_line, originals + copies), 2, buf, tally)
    assert n == 30
    # Each written line counts once for its orientation, a copy once more.
    assert tally["option"] + tally["context"] == 30 and tally["counterfactual"] == 20
    buf.seek(0)
    recs = [json.loads(line) for line in buf]
    flags = [r["meta"]["counterfactual"] for r in recs]
    assert sum(flags) == 20
    # interleaved, not appended: pattern restarts every 3 records
    assert flags[:6] == [False, True, True, False, True, True]


def test_ratio_one_to_zero_drops_counterfactuals():
    rng = random.Random(9)
    mixed = [random_instance(rng) for _ in range(4)] + [
        random_instance(rng, counterfactual=True) for _ in range(4)
    ]
    buf = io.StringIO()
    assert emit_instances(map(tagged_line, mixed), 0, buf, Counter()) == 4
    buf.seek(0)
    assert all(not json.loads(line)["meta"]["counterfactual"] for line in buf)


def test_emit_empty_and_bad_ratio():
    buf = io.StringIO()
    assert emit_instances([], 2, buf, Counter()) == 0
    assert buf.getvalue() == ""
    with pytest.raises(ValueError):
        emit_instances([], -1, buf, Counter())


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(
    copies=st.sampled_from([0, 1, 3]),
    # Runs of one kind let either queue drift far ahead of the other.
    runs=st.lists(st.tuples(st.booleans(), st.integers(1, 25)), max_size=12),
    seed=st.integers(0, 2**16),
)
def test_streaming_interleave_matches_batch_oracle(copies, runs, seed):
    rng = random.Random(seed)
    instances = [
        random_instance(rng, counterfactual=flag) for flag, length in runs for _ in range(length)
    ]
    streamed, batched = io.StringIO(), io.StringIO()
    n = emit_instances(map(tagged_line, instances), copies, streamed, Counter())
    assert n == batch_emit_instances(instances, copies, batched)
    assert streamed.getvalue() == batched.getvalue()


def test_emit_writes_full_rounds_before_input_ends():
    rng = random.Random(12)
    buf = io.StringIO()

    def arriving():
        yield random_instance(rng)
        yield random_instance(rng, counterfactual=True)
        assert buf.getvalue().count("\n") == 0  # a (1, 2) round needs two copies
        yield random_instance(rng, counterfactual=True)
        assert buf.getvalue().count("\n") == 3  # the full round went out at once
        yield random_instance(rng)

    assert emit_instances(map(tagged_line, arriving()), 2, buf, Counter()) == 4


def test_emit_deterministic_bytes():
    def build():
        rng = random.Random(77)
        return [random_instance(rng, counterfactual=rng.random() < 0.4) for _ in range(50)]

    buf_a, buf_b = io.StringIO(), io.StringIO()
    emit_instances(map(tagged_line, build()), 1, buf_a, Counter())
    emit_instances(map(tagged_line, build()), 1, buf_b, Counter())
    assert buf_a.getvalue() == buf_b.getvalue()


def test_stats_counts():
    doc, inst, bundle, instances = film_cast_instances()
    rmap = select_replacements(inst, doc, ALIENS, random.Random(3))
    cf_bundle = apply_counterfactual(bundle, rmap)
    cf_instances = bundle_to_instances(cf_bundle, 7)
    buf = io.StringIO()
    emit_instances(map(tagged_line, instances + cf_instances + cf_instances), 2, buf, Counter())
    buf.seek(0)
    got = stats(buf)
    assert got["total"] == 6
    assert got["by_orientation"] == {"option": 3, "context": 3}
    assert got["counterfactual_share"] == pytest.approx(2 / 3)
    assert got["mean_candidates"] == 4.0
    assert got["mean_path_length"] == 3.0
    assert got["mean_context_size"] == 2.0
    assert sum(got["gold_histogram"].values()) == 6


def test_gold_histogram_uniform_under_shuffle():
    # 1200 bundles with distinct keys; the seeded permutation should place
    # the gold index uniformly within binomial noise.
    doc = film_cast_document()
    graph = build_entity_graph(doc)
    inst = extract_positive_instances(doc, graph, ExtractorConfig())[0]
    rng = random.Random(1)
    options = make_negative_options(inst, DonorSource(doc, graph), 3, rng)
    contexts = make_negative_contexts(inst, DonorSource(doc, graph), 3, rng)
    bundle = assemble_bundle(inst, graph, options, contexts, 3)

    from dataclasses import replace

    counts = {0: 0, 1: 0, 2: 0, 3: 0}
    n = 1200
    for i in range(n):
        variant = replace(bundle, doc_id=f"doc{i}")
        for ci in bundle_to_instances(variant, 99):
            counts[ci.gold] += 1
    total = sum(counts.values())
    assert total == 2 * n
    for index, count in counts.items():
        assert abs(count / total - 0.25) < 0.035, counts


def test_read_instances_are_slotted_frozen_and_interned():
    # `train` holds every instance it reads, so no record carries a
    # per-instance `__dict__`, and the ids a bundle's records repeat are shared.
    doc, inst, bundle, _ = film_cast_instances()
    rmap = select_replacements(inst, doc, ALIENS, random.Random(3))
    copy = apply_counterfactual(bundle, rmap)
    buf = io.StringIO()
    emit_instances(map(tagged_line, bundle_to_instances(copy, 7)), 1, buf, Counter())
    option, context = read_instances(io.StringIO(buf.getvalue()))
    assert (option.orientation, context.orientation) == ("option", "context")
    for record in (option, context, option.meta, context.meta):
        assert not hasattr(record, "__dict__"), type(record).__name__
        field = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, getattr(record, field))
    a, b = option.meta, context.meta
    assert a.doc is b.doc
    assert all(x is y for x, y in zip(a.pair, b.pair, strict=True))
    assert all(x is y for x, y in zip(a.path, b.path, strict=True))
    assert a.replacements and all(
        x is y for pa, pb in zip(a.replacements, b.replacements, strict=True)
        for x, y in zip(pa, pb, strict=True)
    )
    # The orientation and the ids are interned, so records of different bundles share them too.
    assert option.orientation is sys.intern("option")
    ids = {eid: eid for eid in a.path}
    assert all(ids[eid] is eid for eid in a.pair)
    assert all(ids[eid] is eid for eid, _ in a.replacements)
