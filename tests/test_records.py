"""Corrupted stage-boundary files end in a line-numbered error, never a traceback.

Each JSONL reader gets a valid record from the film-cast run on line 1
and a mutated copy of it on line 2: a key dropped, a value replaced by
one of another JSON type, or the line cut short. Reading must either
succeed or raise RecordError naming line 2.
"""

import copy
import json
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcl.bundle import read_bundles
from pathcl.cli import main
from pathcl.corpus import parse_corpus, write_corpus
from pathcl.emitter import read_instances
from pathcl.jsonl import RecordError, record_line
from pathcl.pipeline import read_positives
from pathcl.synth import make_corpus
from pathcl.trainer import build_vocab, init_params, save_params

from test_cli import film_cast_corpus

READERS = {
    "corpus.jsonl": parse_corpus,
    "positives.jsonl": read_positives,
    "bundles.jsonl": read_bundles,
    "instances.jsonl": read_instances,
}

OTHER_VALUES = (None, True, 0, 1.5, "", "x", [], [0], ["x", "y"], {}, {"k": 1})


@pytest.fixture(scope="module")
def film_cast_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("film_cast")
    film_cast_corpus(root / "corpus.jsonl")
    rc = main(["run", "--input", str(root / "corpus.jsonl"), "--output-dir", str(root),
               "--seed", "3"])
    assert rc == 0
    return root


def set_field(record, key, value):
    """Set `record[key]`; a new context of the same length keeps each variant
    on the sentence at its position, since a variant must replace one of the
    context sentences."""
    old = record[key]
    if key == "context_sentences" and isinstance(value, list) and len(value) == len(old):
        moved = dict(zip(old, value))
        for variant in record["context_variants"]:
            variant["replaced_sentence"] = moved[variant["replaced_sentence"]]
    record[key] = value


def json_paths(obj, prefix=()):
    """Every key or index path into a decoded JSON value, the root included."""
    yield prefix
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield from json_paths(value, prefix + (key,))


def lookup(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@st.composite
def mutated_lines(draw, record):
    line = json.dumps(record, ensure_ascii=False)
    paths = list(json_paths(record))
    kind = draw(st.sampled_from(["drop", "retype", "truncate"]))
    if kind == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))]
    obj = copy.deepcopy(record)
    if kind == "drop":
        path = draw(st.sampled_from(paths[1:]))
        del lookup(obj, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(paths))
        old = lookup(obj, path)
        new = draw(st.sampled_from([v for v in OTHER_VALUES if type(v) is not type(old)]))
        if not path:
            obj = new
        else:
            lookup(obj, path[:-1])[path[-1]] = new
    return json.dumps(obj, ensure_ascii=False)


@pytest.mark.parametrize("name", sorted(READERS))
def test_corrupted_record_raises_record_error_for_its_line(film_cast_run, name):
    valid = (film_cast_run / name).read_text(encoding="utf-8").splitlines()[0]
    reader = READERS[name]

    @settings(derandomize=True, deadline=None, max_examples=300, database=None)
    @given(mutated_lines(json.loads(valid)))
    def check(line):
        try:
            list(reader([valid, line]))
        except RecordError as err:
            assert err.line == 2, str(err)

    check()


@st.composite
def same_typed_edits(draw, record, doc):
    """`record` with one value replaced by another of its kind from `doc`: an
    entity id, sentence index or KG label, a mention offset moved to another
    boundary or end of its text, another small count, or a flipped flag."""
    pools = {
        "entity": sorted(e.id for e in doc.entities),
        "sentence": list(range(len(doc.sentences))),
        "label": sorted({r.relation for r in doc.relations}),
        "count": list(range(4)),
    }
    sentence_keys = ("sentence", "answer_sentence", "donor_sentence", "replaced_sentence")

    def kind(path, old):
        if path[-3:-2] == ("mentions",):  # a bundle text's [entity id, start, end]
            return "entity" if path[-1] == 0 else "offset"
        if isinstance(old, bool):
            return "flag"
        if path[:1] == ("pair",) or path[:2] == ("path", "entities") or old in pools["entity"]:
            return "entity"
        if path[-1:] == ("kg",):
            return "label"
        if path[-1] in sentence_keys or (
            path[:1] in (("context",), ("answers",), ("context_sentences",))
            and isinstance(old, int)
        ):
            return "sentence"
        if path[-1] in ("requested_negatives", "variant"):
            return "count"
        return None

    def values(path, old):
        found = kind(path, old)
        if found == "offset":  # another mention boundary or end of the text
            text = lookup(record, path[:-3])
            return sorted({0, len(text["text"]), *(k for m in text["mentions"] for k in m[1:])})
        if found == "flag":
            return [not old]
        return pools.get(found, ())

    edits = []
    for path in json_paths(record):
        old = lookup(record, path)
        if not isinstance(old, (list, dict)):
            edits += [(path, new) for new in values(path, old) if new != old]
    path, new = draw(st.sampled_from(edits))
    obj = copy.deepcopy(record)
    lookup(obj, path[:-1])[path[-1]] = new
    return json.dumps(obj)


def test_same_typed_positive_edits_exit_0_or_name_their_line(film_cast_run, tmp_path, capsys):
    # Each edit keeps every value well-typed and in range, so only a check of
    # the positive against its document's graph can tell a bad one.
    corpus = film_cast_run / "corpus.jsonl"
    with open(corpus, encoding="utf-8") as fp:
        (doc,) = parse_corpus(fp)
    valid = (film_cast_run / "positives.jsonl").read_text(encoding="utf-8").splitlines()[0]
    positives = tmp_path / "positives.jsonl"

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(same_typed_edits(json.loads(valid), doc))
    def check(line):
        positives.write_text(f"{valid}\n{line}\n", encoding="utf-8")
        capsys.readouterr()
        rc = main(["negatives", "--corpus", str(corpus), "--input", str(positives),
                   "--output", str(tmp_path / "bundles.jsonl"), "--seed", "3"])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert rc == 0 or (rc == 1 and err.startswith("error: line 2: ")), (rc, err, line)

    check()


def test_same_typed_bundle_edits_exit_0_or_name_their_line(film_cast_run, tmp_path, capsys):
    # Each edit keeps the line well-typed, so only a check of the bundle
    # against itself (`emit`), or against its document too
    # (`counterfactual`), can tell a bad one.
    corpus = film_cast_run / "corpus.jsonl"
    with open(corpus, encoding="utf-8") as fp:
        (doc,) = parse_corpus(fp)
    valid = (film_cast_run / "bundles.jsonl").read_text(encoding="utf-8").splitlines()[0]
    bundles = tmp_path / "bundles.jsonl"

    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(same_typed_edits(json.loads(valid), doc))
    def check(line):
        bundles.write_text(f"{valid}\n{line}\n", encoding="utf-8")
        rcs = {}
        for args in stage_commands(film_cast_run, bundles, tmp_path / "out.jsonl"):
            capsys.readouterr()
            rc = main(args)
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert rc == 0 or (rc == 1 and err.startswith("error: line 2: ")), (rc, err, line)
            rcs[args[0]] = rc
        # `counterfactual` accepts no bundle that `emit` would reject.
        assert not (rcs["counterfactual"] == 0 and rcs["emit"] == 1), line

    check()


def test_eval_truncated_params_exit_1_naming_line(film_cast_run, tmp_path, capsys):
    params = tmp_path / "scorer.txt"
    save_params(init_params(build_vocab(["alpha beta"]), 2, 2, seed=0), params)
    text = params.read_text(encoding="utf-8")
    instances = str(film_cast_run / "instances.jsonl")
    assert main(["eval", "--params", str(params), "--input", instances]) == 0
    capsys.readouterr()
    for cut in range(len(text)):
        params.write_text(text[:cut], encoding="utf-8")
        assert main(["eval", "--params", str(params), "--input", instances]) == 1, cut
        err = capsys.readouterr().err
        assert err.startswith("error: line "), (cut, err)


@pytest.mark.parametrize(
    "entry, edited, message",
    [
        (b"gamma\t4", b"gamma\t9", "line 8: vocab index 9 outside 0..4"),
        (b"gamma\t4", b"gamma\t3", "line 8: vocab index 3 given twice"),
        (b"[unk]\t0", b"delta\t0", "line 8: vocab lacks the reserved token '[unk]'"),
        (b"gamma\t4", b"beta\t4", "line 8: vocab token 'beta' given twice"),
        (b"[sep]\t1", b"[s\xffp]\t1", "line 5: invalid UTF-8: invalid start byte at byte 2"),
    ],
    ids=["index-outside", "index-twice", "no-unk", "token-twice", "not-utf-8"],
)
def test_eval_bad_params_vocab_exit_1_naming_line(
    film_cast_run, tmp_path, capsys, entry, edited, message
):
    # An index outside the embedding rows, or one shared by two tokens, would
    # pool the wrong row; the reserved tokens are what unknown words map to.
    # A byte that is not UTF-8 is named by its line, as in a JSONL input.
    params = tmp_path / "scorer.txt"
    save_params(init_params(build_vocab(["alpha beta gamma"]), 2, 2, seed=0), params)
    blob = params.read_bytes()
    assert b"\n" + entry + b"\n" in blob
    params.write_bytes(blob.replace(b"\n" + entry + b"\n", b"\n" + edited + b"\n"))
    instances = str(film_cast_run / "instances.jsonl")
    assert main(["eval", "--params", str(params), "--input", instances]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "block, message",
    [
        ("array foo 1 1\n0.5\n", "line 24: unknown array 'foo'"),
        ("array w2 1 2\n0 0\n", "line 24: array 'w2' given twice"),
    ],
    ids=["unknown", "twice"],
)
def test_eval_bad_params_array_exit_1_naming_line(
    film_cast_run, tmp_path, capsys, block, message
):
    # A block the scorer has no slot for, or a second copy of one, is a
    # hand edit gone wrong: neither is dropped nor lets its last copy win.
    params = tmp_path / "scorer.txt"
    save_params(init_params(build_vocab(["alpha beta gamma"]), 2, 2, seed=0), params)
    text = params.read_text(encoding="utf-8")
    assert text.count("\n") == 23
    params.write_text(text + block, encoding="utf-8")
    instances = str(film_cast_run / "instances.jsonl")
    assert main(["eval", "--params", str(params), "--input", instances]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"query": "   "}, "query: expected at least one token, got '   '"),
        ({"query": ""}, "query: expected at least one token, got ''"),
        ({"query": "\t\n"}, "query: expected at least one token, got '\\t\\n'"),
        ({"candidates": ["only"], "gold": 0}, "candidates: expected at least 2 entries, got 1"),
    ],
    ids=["   ", "", "\t\n", "one-candidate"],
)
def test_instance_with_blank_query_exit_1(film_cast_run, tmp_path, capsys, edit, message):
    # The trainer's masked-token objective masks the query's tokens, so a
    # query without one is a bad record, not a failure halfway into training;
    # likewise a candidate set without a negative.
    lines = (film_cast_run / "instances.jsonl").read_text(encoding="utf-8").splitlines()[:3]
    record = json.loads(lines[1])
    record.update(edit)
    lines[1] = json.dumps(record)
    instances = tmp_path / "instances.jsonl"
    instances.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    message = f"line 2: {message}"
    with pytest.raises(RecordError, match=re.escape(message)):
        list(read_instances(lines))
    params = tmp_path / "scorer.txt"
    for args in (["train", "--params-out", str(params), "--epochs", "1"], ["stats"]):
        assert main([*args, "--input", str(instances)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n", args[0]
    assert not params.exists()


def test_counterfactual_unknown_document_exit_1(film_cast_run, tmp_path, capsys):
    record = json.loads((film_cast_run / "bundles.jsonl").read_text(encoding="utf-8"))
    record["doc"] = "nope"
    bundles = tmp_path / "bundles.jsonl"
    bundles.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["counterfactual", "--corpus", str(film_cast_run / "corpus.jsonl"),
               "--input", str(bundles), "--output", str(tmp_path / "out.jsonl"), "--seed", "3"])
    assert rc == 1
    assert capsys.readouterr().err == "error: line 1: doc: bundle references unknown document 'nope'\n"


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("doc", "nope", "error: line 1: doc: bundle references unknown document 'nope'\n"),
        ("context_sentences", [1, 999],
         "error: line 1: context_sentences[1]: bundle in document 'filmcast' names sentence 999, "
         "outside its 6 sentences\n"),
    ],
)
def test_counterfactual_checks_bundles_without_copies(
    film_cast_run, tmp_path, capsys, key, value, message
):
    # The bundles file is checked against the corpus as it is read, so a
    # ratio of 0, which makes no copies, runs these checks too.
    record = json.loads((film_cast_run / "bundles.jsonl").read_text(encoding="utf-8"))
    set_field(record, key, value)
    bundles = tmp_path / "bundles.jsonl"
    bundles.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["counterfactual", "--corpus", str(film_cast_run / "corpus.jsonl"),
               "--input", str(bundles), "--output", str(tmp_path / "out.jsonl"), "--seed", "3",
               "--cf-ratio", "0"])
    assert rc == 1
    assert capsys.readouterr().err == message
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("replacements", [[], None, "x"])
def test_bundle_with_non_object_replacements_exit_1(film_cast_run, tmp_path, capsys, replacements):
    record = json.loads((film_cast_run / "bundles.jsonl").read_text(encoding="utf-8"))
    record["replacements"] = replacements
    bundles = tmp_path / "bundles.jsonl"
    bundles.write_text(json.dumps(record) + "\n", encoding="utf-8")
    corpus = str(film_cast_run / "corpus.jsonl")
    got = {list: "array", type(None): "null", str: "string"}[type(replacements)]
    for args in (["counterfactual", "--corpus", corpus], ["emit"]):
        rc = main([*args, "--input", str(bundles), "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: line 1: replacements: expected object, got {got}\n"
        )


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("context_sentences", "12", "line 1: context_sentences: expected array, got string"),
        ("answer_sentence", "3", "line 1: answer_sentence: expected int, got string"),
        ("pair", ["a"], "line 1: pair: expected 2 entries, got 1"),
        ("context_sentences", [1, 999], "names sentence 999, outside its"),
        # one text per context sentence: a dropped index would leave the gold
        # context longer than its corrupted variants
        ("context_sentences", [1], "line 1: context: expected 1 entries, got 2"),
    ],
)
def test_bundle_mistyped_or_out_of_range_exit_1(
    film_cast_run, tmp_path, capsys, key, value, message
):
    record = json.loads((film_cast_run / "bundles.jsonl").read_text(encoding="utf-8"))
    set_field(record, key, value)
    bundles = tmp_path / "bundles.jsonl"
    bundles.write_text(json.dumps(record) + "\n", encoding="utf-8")
    rc = main(["counterfactual", "--corpus", str(film_cast_run / "corpus.jsonl"),
               "--input", str(bundles), "--output", str(tmp_path / "out.jsonl"), "--seed", "3"])
    assert rc == 1
    assert message in capsys.readouterr().err


def test_variant_outside_context_exit_1(tmp_path, capsys):
    # A context variant that replaces no context sentence leaves the gold
    # context as it is: emitted, two of the four candidates would be the gold.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(4, seed=2), fp)
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path), "--seed", "1"]) == 0
    lines = (tmp_path / "bundles.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[0])
    assert record["context_sentences"] == [0, 16]
    assert record["context_variants"][0]["replaced_sentence"] == 16
    record["context_variants"][0]["replaced_sentence"] = 5  # in the document, not the context
    bundles = tmp_path / "edited.jsonl"
    bundles.write_text(json.dumps(record) + "\n", encoding="utf-8")
    message = ("error: line 1: context_variants[0].replaced_sentence: "
               "expected one of context_sentences [0, 16], got 5\n")
    for args in (["emit", "--cf-ratio", "0"], ["counterfactual", "--corpus", str(corpus)]):
        output = tmp_path / "out.jsonl"
        assert main([*args, "--input", str(bundles), "--output", str(output), "--seed", "1"]) == 1
        assert capsys.readouterr().err == message, args[0]
        assert not output.exists()


def test_record_line_equals_json_dumps():
    records = [
        {"text": "Zoë Müller met 北京 — “Ångström” at café №5", "ids": ["é", 1, 2.5, None, True]},
        {"nested": {"k": ["\u00a0", "\n\t\"", "😀"], "empty": {}}, "list": []},
        "bare ünïcode",
        [1, -0.0, 1e300, {"a": False}],
    ]
    for record in records:
        assert record_line(record) == json.dumps(record, ensure_ascii=False) + "\n"


def test_record_error_survives_pickle():
    # An error raised in a pool worker reaches the caller by pickle.
    err = pickle.loads(pickle.dumps(RecordError(3, "bad", "f")))
    assert type(err) is RecordError
    assert (str(err), err.line, err.field, err.message) == ("line 3: bad", 3, "f", "bad")


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda r: r.__setitem__("requested_negatives", 2.7),
         "line 1: requested_negatives: expected int, got float"),
        (lambda r: r.__setitem__("variant", 1.5), "line 1: variant: expected int, got float"),
        (lambda r: r.__setitem__("counterfactual", 0),
         "line 1: counterfactual: expected bool, got int"),
        (lambda r: r["options"][0].__setitem__("donor_sentence", 1.5),
         "line 1: options[0].donor_sentence: expected int, got float"),
        (lambda r: r["options"][0].__setitem__("swap", "no"),
         "line 1: options[0].swap: expected bool, got string"),
        (lambda r: r["context_variants"][0].__setitem__("replaced_sentence", 1.5),
         "line 1: context_variants[0].replaced_sentence: expected int, got float"),
        (lambda r: r["answer"]["mentions"][0].__setitem__(1, 0.5),
         "line 1: answer.mentions[0][1]: expected int, got float"),
        (lambda r: r["options"][0]["mentions"][0].__setitem__(0, 5),
         "line 1: options[0].mentions[0][0]: expected string, got int"),
        (lambda r: r["options"][0].__setitem__("donor_doc", 5),
         "line 1: options[0].donor_doc: expected string, got int"),
        (lambda r: r["options"][0]["replaced"][0].__setitem__(1, None),
         "line 1: options[0].replaced[0][1]: expected string, got null"),
        (lambda r: r.__setitem__("replacements", {"e1": 5}),
         "line 1: replacements.e1: expected string, got int"),
    ],
    ids=["requested_negatives", "variant", "counterfactual", "donor_sentence", "swap",
         "replaced_sentence", "mention_start", "mention_entity", "donor_doc", "replaced",
         "replacements"],
)
def test_bundle_numbers_and_flags_not_coerced(film_cast_run, tmp_path, capsys, edit, message):
    record = json.loads((film_cast_run / "bundles.jsonl").read_text(encoding="utf-8"))
    edit(record)
    bundles = tmp_path / "bundles.jsonl"
    bundles.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(RecordError, match=re.escape(message)):
        list(read_bundles([json.dumps(record)]))
    for args in stage_commands(film_cast_run, bundles, tmp_path / "out.jsonl"):
        assert main(args) == 1
        assert message in capsys.readouterr().err, args[0]


def stage_commands(film_cast_run, bundles, output):
    corpus = str(film_cast_run / "corpus.jsonl")
    common = ["--input", str(bundles), "--output", str(output), "--seed", "3"]
    return (["counterfactual", "--corpus", corpus, *common], ["emit", *common])


@pytest.mark.parametrize("earlier", [None, "earlier\n"])
def test_malformed_line_leaves_no_partial_output(film_cast_run, tmp_path, capsys, earlier):
    valid = (film_cast_run / "bundles.jsonl").read_text(encoding="utf-8").splitlines()[0]
    bundles = tmp_path / "bundles.jsonl"
    bundles.write_text(f"{valid}\n{valid}\n{valid[:40]}\n{valid}\n", encoding="utf-8")
    output = tmp_path / "out.jsonl"
    for args in stage_commands(film_cast_run, bundles, output):
        if earlier is not None:
            output.write_text(earlier, encoding="utf-8")
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: line 3: invalid JSON"), args[0]
        # no temporary file is left behind, and an earlier output is untouched
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == (["bundles.jsonl"] if earlier is None else ["bundles.jsonl", "out.jsonl"])
        if earlier is not None:
            assert output.read_text(encoding="utf-8") == earlier, args[0]


@pytest.mark.parametrize(
    "where, edit, message",
    [
        ("answer", lambda t: t["mentions"].append([t["mentions"][0][0], 1, 999]),
         "line 1: answer: mention of"),
        ("answer", lambda t: t["mentions"].__setitem__(0, ["x", -1, 3]),
         "outside text"),
        ("context", lambda t: t["mentions"].append([t["mentions"][0][0], 1, 3]),
         "line 1: context[0]: mention of"),
        ("options", lambda t: t["mentions"].append(["x", 0, len(t["text"]) + 1]),
         "line 1: options[0]: mention of"),
        ("context_variants", lambda t: t["mentions"].append(["x", 0, 2]),
         "line 1: context_variants[0]: mention of"),
    ],
)
def test_bad_mention_spans_rejected_at_read(film_cast_run, tmp_path, capsys, where, edit, message):
    record = json.loads((film_cast_run / "bundles.jsonl").read_text(encoding="utf-8"))
    text = record[where] if where == "answer" else record[where][0]
    edit(text)
    bundles = tmp_path / "bundles.jsonl"
    bundles.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(RecordError, match="outside text|overlaps"):
        list(read_bundles(bundles.read_text(encoding="utf-8").splitlines()))
    for args in stage_commands(film_cast_run, bundles, tmp_path / "out.jsonl"):
        assert main(args) == 1
        assert message in capsys.readouterr().err, args[0]
        assert not (tmp_path / "out.jsonl").exists()
