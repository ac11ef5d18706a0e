import dataclasses
import random

import pytest

from pathcl.bundle import assemble_bundle
from pathcl.corpus import Entity, Mention
from pathcl.counterfactual import (
    AlienPool,
    alien_share,
    apply_counterfactual,
    build_entity_pool,
    merged_aliens,
    select_replacements,
)
from pathcl.graph import build_entity_graph
from pathcl.metapath import ExtractorConfig, extract_positive_instances
from pathcl.negatives import (
    DonorSource,
    make_negative_contexts,
    make_negative_options,
)

from corpora import build_document, film_cast_document
from oracles import diff_outside_spans, surface_occurrences

ALIENS = AlienPool(
    ["q1", "q2", "q3", "q4", "q5"],
    ["Nadia Petrov", "Lumen Pictures", "Oskar Finch", "Tessa Wilde", "Harbor Lane Press"],
)


def film_cast_bundle():
    doc = film_cast_document()
    graph = build_entity_graph(doc)
    inst = extract_positive_instances(doc, graph, ExtractorConfig())[0]
    rng = random.Random(13)
    options = make_negative_options(inst, DonorSource(doc, graph), 3, rng)
    contexts = make_negative_contexts(inst, DonorSource(doc, graph), 3, rng)
    return doc, inst, assemble_bundle(inst, graph, options, contexts, 3)


def test_select_always_keys_target_pair():
    doc, inst, _ = film_cast_bundle()
    for seed in range(20):
        rmap = select_replacements(inst, doc, ALIENS, random.Random(seed))
        keys = list(rmap)
        assert keys[0] == "e1" and keys[1] == "e2"
        values = [alien for alien, _ in rmap.values()]
        assert len(set(values)) == len(values)  # injective
        assert all(v not in {e.id for e in doc.entities} for v in values)


def test_select_inclusion_probability_bounds():
    doc, inst, _ = film_cast_bundle()
    never = select_replacements(inst, doc, ALIENS, random.Random(1), include_prob=0.0)
    assert list(never) == ["e1", "e2"]
    always = select_replacements(inst, doc, ALIENS, random.Random(1), include_prob=1.0)
    assert set(always) == set(inst.path.entities)


def test_select_pool_too_small():
    doc, inst, _ = film_cast_bundle()
    lone = AlienPool(ALIENS.ids[:1], ALIENS.surfaces[:1])
    with pytest.raises(ValueError, match="pool too small"):
        select_replacements(inst, doc, lone, random.Random(0))
    host_like = AlienPool(["e1", "q1"], ["Dave McKean", "Nadia Petrov"])
    with pytest.raises(ValueError, match="pool too small"):
        # the host-document entity does not count toward the pool
        select_replacements(inst, doc, host_like, random.Random(0))
    # An empty pool is still a (truthy) pair of lists.
    for empty in (AlienPool([], []), merged_aliens([]), build_entity_pool([])):
        with pytest.raises(ValueError, match="^alien pool too small: need 2, have 0 usable"):
            select_replacements(inst, doc, empty, random.Random(0))


def test_select_falls_back_to_every_usable_entity():
    # 2,000 host entities and 2 foreign ones: 80 rejection tries rarely find
    # both, so the exhaustive filter does. Only the host's entity ids matter.
    doc, inst, _ = film_cast_bundle()
    hosts = tuple(Entity(f"h{i}", "The", (Mention(4, 0, 3),)) for i in range(2000))
    host = dataclasses.replace(doc, entities=doc.entities + hosts)
    ids = [e.id for e in hosts]

    class Counted(random.Random):
        samples = 0

        def sample(self, *args, **kwargs):  # drawn only by the exhaustive filter
            self.samples += 1
            return super().sample(*args, **kwargs)

    pool = AlienPool([*ids, "q1", "q2"], ["The"] * len(ids) + ALIENS.surfaces[:2])
    rng = Counted(0)
    rmap = select_replacements(inst, host, pool, rng, include_prob=0)
    assert rng.samples == 1
    assert sorted(alien for alien, _ in rmap.values()) == ["q1", "q2"]
    assert list(rmap) == ["e1", "e2"]
    assert select_replacements(inst, host, pool, Counted(0), include_prob=0) == rmap
    lone = AlienPool([*ids, "q1"], ["The"] * len(ids) + ALIENS.surfaces[:1])
    with pytest.raises(ValueError, match="^alien pool too small: need 2, have 1 usable entities$"):
        select_replacements(inst, host, lone, Counted(0), include_prob=0)


def all_bundle_texts(bundle):
    texts = [t.text for t in bundle.context] + [bundle.answer.text]
    texts += [s.text for s in bundle.options]
    texts += [v.replacement.text for v in bundle.context_variants]
    return texts


def test_apply_rewrites_every_text_consistently():
    doc, inst, bundle = film_cast_bundle()
    rmap = select_replacements(inst, doc, ALIENS, random.Random(2), include_prob=1.0)
    out = apply_counterfactual(bundle, rmap)
    assert out.counterfactual
    assert out.variant == 1
    assert dict(out.replacements) == {orig: alien for orig, (alien, _) in rmap.items()}

    entity = {e.id: e for e in doc.entities}
    originals = {orig: entity[orig].surface for orig in rmap}
    for text in all_bundle_texts(out):
        # brute-force consistency scan: no residual original surfaces
        for orig, surface in originals.items():
            assert surface_occurrences(text, surface) == 0, (text, surface)
    # every former mention now carries the replacement surface
    for old_t, new_t in zip(all_bundle_texts(bundle), all_bundle_texts(out)):
        for orig, (alien, alien_surface) in rmap.items():
            if surface_occurrences(old_t, originals[orig]):
                assert surface_occurrences(new_t, alien_surface) >= 1


def test_apply_keeps_each_text_field_and_recomputes_entity_ids():
    # Every text is rebuilt by its own class: the document, ordinal and donor
    # fields stay, and no `entity_ids` read before the rewrite carries over.
    doc, inst, bundle = film_cast_bundle()
    before = [*bundle.context, bundle.answer, *bundle.options]
    before += [v.replacement for v in bundle.context_variants]
    for text in before:
        assert text.entity_ids  # cached on the original
    rmap = select_replacements(inst, doc, ALIENS, random.Random(2), include_prob=1.0)
    out = apply_counterfactual(bundle, rmap)
    after = [*out.context, out.answer, *out.options]
    after += [v.replacement for v in out.context_variants]
    assert [v.replaced_sentence for v in out.context_variants] == [
        v.replaced_sentence for v in bundle.context_variants
    ]
    for old, new in zip(before, after, strict=True):
        assert type(new) is type(old)
        fields = [f.name for f in dataclasses.fields(old) if f.name not in ("text", "mentions")]
        assert [getattr(new, f) for f in fields] == [getattr(old, f) for f in fields]
        assert new.entity_ids == {eid for eid, _, _ in new.mentions}
        assert new.entity_ids == {rmap.get(eid, (eid,))[0] for eid in old.entity_ids}


def test_apply_identity_on_empty_map():
    _, _, bundle = film_cast_bundle()
    assert apply_counterfactual(bundle, {}) == bundle
    assert not bundle.counterfactual


def test_apply_leaves_unmentioned_negative_unchanged():
    doc, inst, bundle = film_cast_bundle()
    # key only the producer entity e4, absent from most texts
    rmap = {"e4": ("q5", "Harbor Lane Press")}
    out = apply_counterfactual(bundle, rmap)
    for old_t, new_t in zip(all_bundle_texts(bundle), all_bundle_texts(out)):
        if surface_occurrences(old_t, "Jim Henson Company") == 0:
            assert old_t == new_t
        else:
            assert "Harbor Lane Press" in new_t
            assert surface_occurrences(new_t, "Jim Henson Company") == 0


def test_apply_preserves_structure_outside_spans():
    doc, inst, bundle = film_cast_bundle()
    rmap = select_replacements(inst, doc, ALIENS, random.Random(4), include_prob=0.5)
    out = apply_counterfactual(bundle, rmap)
    for old, new in zip(bundle.context, out.context):
        assert diff_outside_spans(old.text, new.text, list(old.mentions))


def test_entity_pool_from_corpus():
    doc_a = film_cast_document()
    doc_b = build_document(
        "z", [[("x", "Xu"), " met ", ("y", "Yi"), "."]], {"x": "Xu", "y": "Yi"}
    )
    # A later document that names an earlier entity id, under another surface.
    doc_c = build_document(
        "w", [[("w", "Wu"), " saw ", ("x", "Xavier"), "."]], {"w": "Wu", "x": "Xavier"}
    )
    pool = build_entity_pool([doc_a, doc_b, doc_c])
    assert pool.ids == ["e1", "e2", "e3", "e4", "x", "y", "w"]
    assert pool.surfaces[4:] == ["Xu", "Yi", "Wu"]
    # The pool holds the documents' own strings, not copies.
    firsts = [*doc_a.entities, *doc_b.entities, doc_c.entities[0]]
    for eid, surface, entity in zip(pool.ids, pool.surfaces, firsts, strict=True):
        assert eid is entity.id and surface is entity.surface


def test_alien_shares_merge_in_line_order():
    # Lines 1 and 3 in one share, line 2 in another: an id that two of
    # them name keeps its earliest line's surface, in either share order.
    def pair_doc(doc_id, a, b):
        return build_document(doc_id, [[a, " met ", b, "."]], dict([a, b]))

    doc_1 = pair_doc("a", ("p", "Pat"), ("q", "Quin"))
    doc_2 = pair_doc("b", ("x", "Xu"), ("q", "Quinn"))
    doc_3 = pair_doc("c", ("x", "Xavier"), ("z", "Zed"))
    odd = alien_share([(1, doc_1), (3, doc_3)])
    even = alien_share([(2, doc_2)])
    assert odd == ([1, 1, 3, 3], ["p", "q", "x", "z"], ["Pat", "Quin", "Xavier", "Zed"])
    pool = AlienPool(["p", "q", "x", "z"], ["Pat", "Quin", "Xu", "Zed"])
    assert merged_aliens([odd, even]) == merged_aliens([even, odd]) == pool
    assert build_entity_pool([doc_1, doc_2, doc_3]) == pool
