import argparse
import dataclasses
import gc
import hashlib
import json
from functools import cached_property

import pytest

from pathcl import corpus as corpus_module
from pathcl import pipeline as pl
from pathcl.cli import build_parser, main
from pathcl.corpus import document_to_record, write_corpus
from pathcl.graph import EntityGraph
from pathcl.metapath import ExtractorConfig
from pathcl.synth import make_corpus
from pathcl.trainer import TrainConfig

from corpora import build_document, film_cast_document


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def film_cast_corpus(path):
    write_lines(path, [json.dumps(document_to_record(film_cast_document()))])


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_validate_ok(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    film_cast_corpus(corpus)
    assert main(["validate", "--input", str(corpus)]) == 0
    assert "1 documents ok, 0 problems" in capsys.readouterr().out


def test_validate_reports_problems_exit_3(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    record = document_to_record(film_cast_document())
    record["entities"][0]["mentions"][0]["end"] = 9999
    write_lines(corpus, [json.dumps(record)])
    assert main(["validate", "--input", str(corpus)]) == 3
    err = capsys.readouterr().err
    assert "line 1" in err


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["validate"])  # missing --input
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
    for deleted in (["--greedy"], ["--pool-strategy", "uniform"], ["--window", "64"]):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", "c", "--output-dir", str(tmp_path / "o"), "--seed", "1",
                  *deleted])
        assert exc.value.code == 2, deleted
    with pytest.raises(SystemExit) as exc:  # emit reads only --cf-ratio
        main(["emit", "--input", "b", "--output", str(tmp_path / "i"), "--include-prob", "0.3"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def field_names(*sections) -> set[str]:
    return {f.name for cls in sections for f in dataclasses.fields(cls)}


# The config fields each subcommand reads from its flags and config file.
FLAG_FIELDS = {
    "extract": field_names(ExtractorConfig),
    "negatives": field_names(pl.NegativesConfig),
    "counterfactual": field_names(pl.CounterfactualConfig),
    "emit": {"copies"},
    "train": field_names(TrainConfig),
    "run": field_names(ExtractorConfig, pl.NegativesConfig, pl.CounterfactualConfig),
}
FIXED_DESTS = {"help", "input", "output", "output_dir", "corpus", "config", "seed",
               "params", "params_out", "metrics_out"}


def test_every_flag_sets_a_config_field_or_fixed_argument():
    # A flag whose dest is no field its subcommand reads is dropped without
    # a word, so a flag left behind by a deleted field, or one that a
    # subcommand parses but never reads, would silently do nothing.
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    stray = []
    for command, sub in subparsers.choices.items():
        known = FLAG_FIELDS.get(command, set()) | FIXED_DESTS
        stray += [f"{command} {a.option_strings[0]}" for a in sub._actions if a.dest not in known]
    assert stray == []


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_cf_ratio_and_missing_run_corpus(tmp_path, capsys):
    out = tmp_path / "out"
    for ratio, message in (("1:x", "bad ratio '1:x'"), ("1:-1", "ratio component must be >= 0")):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--input", "c", "--output-dir", str(out), "--seed", "1",
                  "--cf-ratio", ratio])
        assert exc.value.code == 2, ratio
        assert message in capsys.readouterr().err, ratio
    missing = tmp_path / "nope.jsonl"
    assert main(["run", "--input", str(missing), "--output-dir", str(out), "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: input corpus not found: {missing}\n"
    assert list(tmp_path.iterdir()) == []


def test_build_graph(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    film_cast_corpus(corpus)
    out = tmp_path / "graph.tsv"
    assert main(["build-graph", "--input", str(corpus), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert all(line.startswith("filmcast\t") for line in lines)
    assert "filmcast\te1|e3\tkg\tdirector" in lines


def test_extract_max_hops_too_small(tmp_path):
    # pair only connectable through a 3-hop path; --max-hops 2 bounds the
    # path to a direct edge, which the answer exclusion removes
    doc = build_document(
        "chain",
        [
            [("a", "Ann"), " met ", ("b", "Ben"), "."],
            [("b", "Ben"), " met ", ("c", "Cal"), "."],
            [("c", "Cal"), " met ", ("d", "Dee"), "."],
            [("a", "Ann"), " saw ", ("d", "Dee"), "."],
        ],
        {"a": "Ann", "b": "Ben", "c": "Cal", "d": "Dee"},
    )
    corpus = tmp_path / "corpus.jsonl"
    write_lines(corpus, [json.dumps(document_to_record(doc))])
    out = tmp_path / "positives.jsonl"
    assert main(
        ["extract", "--input", str(corpus), "--output", str(out), "--max-hops", "2"]
    ) == 0
    assert out.read_text() == ""
    assert main(
        ["extract", "--input", str(corpus), "--output", str(out), "--max-hops", "4", "--mode", "all"]
    ) == 0
    assert len(out.read_text().splitlines()) > 0



def test_negatives_bad_positives_line_numbered(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(6, seed=4), fp)
    positives = tmp_path / "positives.jsonl"
    assert main(["extract", "--input", str(corpus), "--output", str(positives)]) == 0
    good = positives.read_bytes().splitlines()
    assert len(good) >= 3
    missing_path = json.loads(good[2])
    del missing_path["path"]
    capsys.readouterr()
    bad_lines = {
        b'{"doc": "d0", "pair": ["a"': "invalid JSON",
        json.dumps(missing_path).encode(): "path: missing field",
        b"\xff" + good[2]: "invalid UTF-8: invalid start byte at byte 0",
    }
    for bad_line, message in bad_lines.items():
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(line + b"\n" for line in [*good[:2], bad_line, *good[3:]]))
        rc = main(["negatives", "--corpus", str(corpus), "--input", str(bad),
                   "--output", str(tmp_path / "bundles.jsonl"), "--seed", "1"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: line 3: {message}")


def test_negatives_follow_the_positives_file_order(tmp_path, capsys):
    # Each bundle depends only on its own positive, so reversing the
    # positives file reverses the bundles file; nothing is regrouped by
    # document.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(6, seed=4), fp)
    positives = tmp_path / "positives.jsonl"
    assert main(["extract", "--input", str(corpus), "--output", str(positives),
                 "--mode", "all"]) == 0
    lines = positives.read_text().splitlines()
    reversed_positives = tmp_path / "reversed.jsonl"
    write_lines(reversed_positives, lines[::-1])
    bundles = {}
    for name, path in (("forward", positives), ("reversed", reversed_positives)):
        out = tmp_path / f"{name}_bundles.jsonl"
        assert main(["negatives", "--corpus", str(corpus), "--input", str(path),
                     "--output", str(out), "--seed", "1"]) == 0
        bundles[name] = out.read_text().splitlines()
    assert len(bundles["forward"]) == len(lines) > 6
    assert bundles["reversed"] == bundles["forward"][::-1]


def test_positive_without_a_donor_is_skipped_and_counted(tmp_path, capsys):
    # Every entity is spelled "X", so every rewritten sentence reads "X r X",
    # the text of the answer and of its donor: no negative can be made.
    x = {eid: (eid, "X") for eid in ("a", "b", "m")}
    doc = build_document(
        "same", [[x["a"], " r ", x["b"]], [x["a"], " r ", x["m"]]],
        surfaces={eid: "X" for eid in x}, relations=[("m", "b", "k")],
    )
    corpus = tmp_path / "corpus.jsonl"
    write_lines(corpus, [json.dumps(document_to_record(doc))])
    counts = {"bundles": 0, "skipped_no_donor": 1, "option_shortfalls": 0, "context_shortfalls": 0}
    for jobs in (1, 2):
        cfg = pl.PipelineConfig(input=str(corpus), output_dir=str(tmp_path / f"run{jobs}"),
                                seed=3, jobs=jobs)
        stages = pl.run_pipeline(cfg)["stages"]
        assert stages["extract"] == {"instances": 1}, jobs
        assert stages["negatives"] == counts, jobs
    positives, bundles = tmp_path / "positives.jsonl", tmp_path / "bundles.jsonl"
    assert main(["extract", "--input", str(corpus), "--output", str(positives)]) == 0
    capsys.readouterr()
    assert main(["negatives", "--corpus", str(corpus), "--input", str(positives),
                 "--output", str(bundles), "--seed", "3"]) == 0
    assert json.loads(capsys.readouterr().out) == counts
    assert bundles.read_bytes() == b""


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("context", "12", "error: line 3: context: expected array, got string"),
        ("context", [999], "names sentence 999, outside its"),
        ("answers", [], "error: line 3: answers: expected 1 entries, got 0"),
        ("hops", {"sentence": "3", "kg": None},
         "error: line 3: path.hops[0].sentence: expected int, got string"),
        ("hops", {"sentence": 999, "kg": None}, "names sentence 999, outside its"),
        ("entities", "syn", "error: line 3: path.entities: expected array, got string"),
        ("doc", "nope", "error: line 3: doc: positive references unknown document 'nope'"),
        ("answers", [0],
         "error: line 3: positive in document 'syn000002': answer sentence 0 does not mention "
         "['syn000002.a0', 'syn000002.a1']"),
        ("pair", ["syn000002.a1", "syn000002.a0"],
         "error: line 3: positive in document 'syn000002': path endpoints "
         "'syn000002.a0'..'syn000002.a1' do not match target pair"),
        ("pair", ["syn000002.a0", "syn000002.m01"],
         "error: line 3: positive in document 'syn000002': path endpoints "
         "'syn000002.a0'..'syn000002.a1' do not match target pair"),
    ],
)
def test_negatives_bad_positive_values_exit_1(tmp_path, capsys, key, value, message):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(6, seed=4), fp)
    positives = tmp_path / "positives.jsonl"
    assert main(["extract", "--input", str(corpus), "--output", str(positives)]) == 0
    good = positives.read_text().splitlines()
    record = json.loads(good[2])
    if key == "hops":
        record["path"]["hops"] = [value] * len(record["path"]["hops"])
    elif key == "entities":
        record["path"]["entities"] = value
    else:
        record[key] = value
    bad = tmp_path / "bad.jsonl"
    write_lines(bad, [good[0], good[1], json.dumps(record), *good[3:]])
    capsys.readouterr()
    rc = main(["negatives", "--corpus", str(corpus), "--input", str(bad),
               "--output", str(tmp_path / "bundles.jsonl"), "--seed", "1"])
    assert rc == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    if "outside" in message:
        field = {"context": "context[0]", "hops": "path.hops[0].sentence"}[key]
        assert err == (
            f"error: line 3: {field}: positive in document {record['doc']!r} "
            "names sentence 999, outside its 18 sentences\n"
        )


def test_counterfactual_rejects_bundles_their_document_contradicts(tmp_path, capsys):
    # Each edit keeps the line well-typed and its sentences in range, so only
    # a check of the bundle against its document can tell it.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, 3, blocks=2, fillers=4), fp)
    positives, bundles = tmp_path / "positives.jsonl", tmp_path / "bundles.jsonl"
    assert main(["extract", "--input", str(corpus), "--output", str(positives)]) == 0
    assert main(["negatives", "--corpus", str(corpus), "--input", str(positives),
                 "--output", str(bundles), "--seed", "3"]) == 0
    good = bundles.read_text(encoding="utf-8").splitlines()
    moved, swapped = json.loads(good[1]), json.loads(good[1])
    assert moved["answer"]["mentions"][0][1] == 0
    moved["answer"]["mentions"][0][1] = 3  # still inside the text, and disjoint
    swapped["pair"].reverse()
    prefix = "error: line 2: bundle in document 'syn000001': "
    cases = [
        (good[1], None),
        (json.dumps(moved), "answer differs from sentence 12 of the document in text or mentions"),
        (json.dumps(swapped),
         "path endpoints 'syn000001.a0'..'syn000001.a1' do not match target pair"),
    ]
    edited, output = tmp_path / "edited.jsonl", tmp_path / "out.jsonl"
    for line, message in cases:
        write_lines(edited, [good[0], line, *good[2:]])
        capsys.readouterr()
        rc = main(["counterfactual", "--corpus", str(corpus), "--input", str(edited),
                   "--output", str(output), "--seed", "3"])
        err = capsys.readouterr().err
        if message is None:
            assert (rc, err) == (0, "")
        else:
            assert (rc, err) == (1, prefix + message + "\n")


def test_counterfactual_rejects_its_own_output(tmp_path, capsys):
    # Its output holds each original followed by its copy; a copy fed back
    # in would be copied again as if it were an original.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, 3, blocks=2, fillers=4), fp)
    positives, bundles = tmp_path / "positives.jsonl", tmp_path / "bundles.jsonl"
    copies, again = tmp_path / "copies.jsonl", tmp_path / "again.jsonl"
    assert main(["extract", "--input", str(corpus), "--output", str(positives)]) == 0
    assert main(["negatives", "--corpus", str(corpus), "--input", str(positives),
                 "--output", str(bundles), "--seed", "3"]) == 0
    assert main(["counterfactual", "--corpus", str(corpus), "--input", str(bundles),
                 "--output", str(copies), "--seed", "3"]) == 0
    first_copy = json.loads(copies.read_text(encoding="utf-8").splitlines()[1])
    assert first_copy["counterfactual"]
    capsys.readouterr()
    rc = main(["counterfactual", "--corpus", str(corpus), "--input", str(copies),
               "--output", str(again), "--seed", "3"])
    assert (rc, capsys.readouterr().err) == (
        1,
        f"error: line 2: bundle in document {first_copy['doc']!r}: counterfactual: true; "
        "the counterfactual command reads originals only\n",
    )
    assert not again.exists()


def test_each_command_builds_one_index_per_document_use(tmp_path, monkeypatch):
    # A document's one index is its graph. Each command builds it where a
    # stage needs it and passes it down, and only a stage that reads edges
    # computes them: the donor pool's count and picks need the walk alone.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, 3, blocks=2, fillers=4), fp)
    built = {"graphs": 0, "edge maps": 0}
    real_init, real_sentences = EntityGraph.__init__, EntityGraph.sentences.func

    def counted_init(graph, doc):
        built["graphs"] += 1
        real_init(graph, doc)

    def counted_sentences(graph):
        built["edge maps"] += 1
        return real_sentences(graph)

    sentences = cached_property(counted_sentences)
    sentences.__set_name__(EntityGraph, "sentences")
    monkeypatch.setattr(EntityGraph, "__init__", counted_init)
    monkeypatch.setattr(EntityGraph, "sentences", sentences)
    positives, bundles = tmp_path / "positives.jsonl", tmp_path / "bundles.jsonl"
    commands = {
        "extract": ["extract", "--input", str(corpus), "--output", str(positives)],
        "negatives": ["negatives", "--corpus", str(corpus), "--input", str(positives),
                      "--output", str(bundles), "--seed", "3"],
        "counterfactual": ["counterfactual", "--corpus", str(corpus), "--input", str(bundles),
                           "--output", str(tmp_path / "copies.jsonl"), "--seed", "3"],
        "run": ["run", "--input", str(corpus), "--output-dir", str(tmp_path / "out"),
                "--seed", "3"],
    }
    counts = {}
    for name, argv in commands.items():
        built.update(dict.fromkeys(built, 0))
        assert main(argv) == 0, name
        counts[name] = (built["graphs"], built["edge maps"])
    assert counts == {
        "extract": (40, 40),
        "negatives": (160, 80),  # reader, pool count, pool picks, negatives
        "counterfactual": (40, 40),
        "run": (120, 40),  # round-1 count, round-2 picks, chain
    }


def test_emit_rejects_bundles_that_contradict_themselves(tmp_path, capsys):
    # `emit` has no corpus. Each edit keeps the line well-typed and its
    # spans inside their texts, so only a check of what the bundle alone
    # shows can tell it: the path's ends, the pair mentions and a copy's map.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(40, 3, blocks=2, fillers=4), fp)
    positives, bundles = tmp_path / "positives.jsonl", tmp_path / "bundles.jsonl"
    copies = tmp_path / "copies.jsonl"
    assert main(["extract", "--input", str(corpus), "--output", str(positives)]) == 0
    assert main(["negatives", "--corpus", str(corpus), "--input", str(positives),
                 "--output", str(bundles), "--seed", "3"]) == 0
    assert main(["counterfactual", "--corpus", str(corpus), "--input", str(bundles),
                 "--output", str(copies), "--seed", "3"]) == 0
    good = copies.read_text(encoding="utf-8").splitlines()
    original, copy = json.loads(good[0]), json.loads(good[1])
    assert not original["counterfactual"] and copy["counterfactual"]
    a0, a1 = copy["pair"]
    alien = copy["replacements"][a1]

    def edited(record, edit):
        record = json.loads(json.dumps(record))
        edit(record)
        return json.dumps(record)

    def rename_mention(at, old, new):
        def edit(record):
            mentions = at(record)["mentions"]
            (i,) = [i for i, m in enumerate(mentions) if m[0] == old]
            mentions[i][0] = new
        return edit

    middle = original["path"]["entities"][1]
    cases = [
        (0, good[0], None),
        (1, good[1], None),
        (1, edited(copy, lambda r: r["pair"].reverse()),
         f"path.entities: runs from {a0!r} to {a1!r}, not {a1!r} to {a0!r}"),
        (1, edited(copy, lambda r: r["replacements"].pop(a1)),
         f"replacements: no replacement for pair entity {a1!r}"),
        (1, edited(copy, rename_mention(lambda r: r["answer"], alien, a1)),
         f"answer.mentions: no mention of {[alien]!r}"),
        (1, edited(copy, rename_mention(lambda r: r["options"][0], alien, a1)),
         f"options[0].mentions: no mention of {[alien]!r}"),
        (0, edited(original, rename_mention(lambda r: r["answer"], a0, middle)),
         f"answer.mentions: no mention of {[a0]!r}"),
    ]
    def set_fields(**fields):
        return lambda record: record.update(fields)

    # Fields the counts and seeds of `emit` rest on: `counterfactual` must
    # name the same line, after its own checks of the bundle's document.
    assert len(original["options"]) == len(original["context_variants"]) == 3
    field_cases = [
        (0, edited(original, set_fields(requested_negatives=2)),
         "requested_negatives: 2 is below the 3 options held"),
        (0, edited(original, set_fields(requested_negatives=0)),
         "requested_negatives: 0 is below the 3 options held"),
        (0, edited(original, set_fields(requested_negatives=1, options=original["options"][:1])),
         "requested_negatives: 1 is below the 3 context_variants held"),
        (0, edited(original, set_fields(variant=1)), "variant: 1 in an original, not 0"),
        (0, edited(original, set_fields(replacements={a1: alien})),
         f"replacements: {({a1: alien})!r} in an original, not {{}}"),
        (1, edited(copy, set_fields(variant=0)), "variant: 0 in a copy, not 1 or more"),
        (1, edited(copy, set_fields(variant=-1)), "variant: -1 in a copy, not 1 or more"),
    ]
    output = tmp_path / "out.jsonl"
    for at, line, message in cases + field_cases:
        lines = list(good)
        lines[at] = line
        write_lines(copies, lines)
        capsys.readouterr()
        rc = main(["emit", "--input", str(copies), "--output", str(output), "--seed", "3"])
        err = capsys.readouterr().err
        if message is None:
            assert (rc, err) == (0, "")
        else:
            assert (rc, err) == (1, f"error: line {at + 1}: {message}\n")
    for at, line, message in field_cases:
        lines = list(good)
        lines[at] = line
        write_lines(copies, lines)
        capsys.readouterr()
        rc = main(["counterfactual", "--corpus", str(corpus), "--input", str(copies),
                   "--output", str(output), "--seed", "3"])
        prefix = f"error: line {at + 1}: bundle in document {original['doc']!r}: "
        assert (rc, capsys.readouterr().err) == (1, prefix + message + "\n")


def test_grad_check_passes(capsys):
    assert main(["grad-check", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    err = float(out.split(":")[1].split("(")[0])
    assert err < 1e-4


def test_run_film_cast_manifest(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    film_cast_corpus(corpus)
    out_dir = tmp_path / "out"
    rc = main(
        [
            "run",
            "--input", str(corpus),
            "--output-dir", str(out_dir),
            "--seed", "3",
            "--cf-ratio", "0",
        ]
    )
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["stages"]["extract"]["instances"] == 1
    assert manifest["stages"]["negatives"]["bundles"] == 1
    assert manifest["stages"]["emit"] == {
        "records": 2,
        "option": 1,
        "context": 1,
        "counterfactual": 0,
        "skipped_option": 0,
        "skipped_context": 0,
    }
    instances = [json.loads(l) for l in (out_dir / "instances.jsonl").read_text().splitlines()]
    option = next(i for i in instances if i["orientation"] == "option")
    assert len(option["candidates"]) == 4  # K=3 negatives plus the answer
    assert option["meta"]["pair"] == ["e1", "e2"]


def test_run_requires_seed(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    film_cast_corpus(corpus)
    rc = main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "o")])
    assert rc == 2
    assert "--seed" in capsys.readouterr().err


def test_run_empty_corpus(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("")
    rc = main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "o"), "--seed", "1"])
    assert rc == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["stages"]["parse"]["documents"] == 0
    assert manifest["stages"]["emit"]["records"] == 0


def test_run_deterministic_and_equals_composition(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(12, seed=4), fp)

    args = ["--seed", "9", "--mode", "first", "--cf-ratio", "1:1"]
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "r1"), *args]) == 0
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "r2"), *args]) == 0

    names = ["graph.tsv", "positives.jsonl", "bundles.jsonl",
             "bundles_counterfactual.jsonl", "instances.jsonl"]
    for name in names:
        assert file_hash(tmp_path / "r1" / name) == file_hash(tmp_path / "r2" / name), name
    m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
    assert m1["config_hash"] == m2["config_hash"]
    assert m1["stages"] == m2["stages"]

    # stage-by-stage composition reproduces the run outputs byte for byte
    s = tmp_path / "stages"
    s.mkdir()
    assert main(["build-graph", "--input", str(corpus), "--output", str(s / "graph.tsv")]) == 0
    assert main(["extract", "--input", str(corpus), "--output", str(s / "positives.jsonl"),
                 "--mode", "first"]) == 0
    assert main(["negatives", "--corpus", str(corpus), "--input", str(s / "positives.jsonl"),
                 "--output", str(s / "bundles.jsonl"), "--seed", "9"]) == 0
    assert main(["counterfactual", "--corpus", str(corpus), "--input", str(s / "bundles.jsonl"),
                 "--output", str(s / "bundles_counterfactual.jsonl"), "--seed", "9",
                 "--cf-ratio", "1:1"]) == 0
    assert main(["emit", "--input", str(s / "bundles_counterfactual.jsonl"),
                 "--output", str(s / "instances.jsonl"), "--seed", "9",
                 "--cf-ratio", "1:1"]) == 0
    for name in names:
        assert file_hash(s / name) == file_hash(tmp_path / "r1" / name), name


def test_repeated_document_id_is_a_bad_record(tmp_path, capsys):
    # Later stages find a document by its id. Were a repeated id accepted,
    # the stage commands would read the positives of both documents against
    # the last one, and the composition would no longer equal the run.
    records = [document_to_record(doc) for doc in make_corpus(6, seed=3, blocks=2, fillers=8)]
    records[4]["id"] = records[2]["id"]
    corpus = tmp_path / "corpus.jsonl"
    write_lines(corpus, [json.dumps(record) for record in records])
    assert main(["validate", "--input", str(corpus)]) == 3
    captured = capsys.readouterr()
    assert captured.err == (
        f"line 5: id: duplicate document id {records[2]['id']!r}, first on line 3\n"
    )
    assert captured.out == "5 documents ok, 1 problems\n"

    args = ["--seed", "1", "--mode", "all"]
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "r"), *args]) == 0
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["stages"]["parse"] == {"documents": 5, "errors": 1}
    s = tmp_path / "stages"
    s.mkdir()
    c = str(corpus)
    assert main(["build-graph", "--input", c, "--output", str(s / "graph.tsv")]) == 0
    assert main(["extract", "--input", c, "--output", str(s / "positives.jsonl"),
                 "--mode", "all"]) == 0
    assert main(["negatives", "--corpus", c, "--input", str(s / "positives.jsonl"),
                 "--output", str(s / "bundles.jsonl"), "--seed", "1"]) == 0
    assert main(["counterfactual", "--corpus", c, "--input", str(s / "bundles.jsonl"),
                 "--output", str(s / "bundles_counterfactual.jsonl"), "--seed", "1"]) == 0
    assert main(["emit", "--input", str(s / "bundles_counterfactual.jsonl"),
                 "--output", str(s / "instances.jsonl"), "--seed", "1"]) == 0
    for name in ("graph.tsv", "positives.jsonl", "bundles.jsonl",
                 "bundles_counterfactual.jsonl", "instances.jsonl"):
        assert file_hash(s / name) == file_hash(tmp_path / "r" / name), name


SEPARATOR_FIELDS = [
    *(("id", "document id", mark) for mark in "\t\n\r"),
    *(("entities[0].id", "entity id", mark) for mark in "|\t\n\r"),
    *(("relations[0].type", "relation type", mark) for mark in "\t\n\r"),
]


@pytest.mark.parametrize(
    "field, what, mark",
    SEPARATOR_FIELDS,
    ids=[f"{field}-{mark!r}" for field, _, mark in SEPARATOR_FIELDS],
)
def test_graph_tsv_separator_in_id_or_label_is_a_bad_record(tmp_path, capsys, field, what, mark):
    # `graph.tsv` writes ids and labels unescaped: a tab would add a field,
    # a line break a row, and "|" inside an entity id would make a pair id
    # ambiguous.
    records = [document_to_record(doc) for doc in make_corpus(3, seed=3, blocks=2, fillers=8)]
    record = records[1]
    if field == "id":
        record["id"] = value = f"{record['id']}{mark}x"
    elif field == "entities[0].id":
        old = record["entities"][0]["id"]
        record["entities"][0]["id"] = value = f"{old}{mark}x"
        for relation in record["relations"]:
            for role in ("head", "tail"):
                if relation[role] == old:
                    relation[role] = value
    else:
        record["relations"][0]["type"] = value = f"knows{mark}well"
    corpus = tmp_path / "corpus.jsonl"
    write_lines(corpus, [json.dumps(record) for record in records])
    assert main(["validate", "--input", str(corpus)]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"line 2: {field}: {what} {value!r} holds {mark!r}, a graph.tsv separator\n"
    assert captured.out == "2 documents ok, 1 problems\n"
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "r"), "--seed", "1"]) == 0
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["stages"]["parse"] == {"documents": 2, "errors": 1}
    rows = (tmp_path / "r" / "graph.tsv").read_text(encoding="utf-8").split("\n")[:-1]
    assert rows and all(len(row.split("\t")) == 4 for row in rows)


def test_corpus_commands_parse_with_collector_paused(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(6, seed=4), fp)
    seen = []
    real = corpus_module.parse_record

    def parse(*args):
        seen.append(gc.isenabled())
        return real(*args)

    # `load_documents` parses each record through the corpus module, and
    # `run`'s stripes through the name the pipeline imported.
    monkeypatch.setattr(corpus_module, "parse_record", parse)
    monkeypatch.setattr(pl, "parse_record", parse)
    c, out = str(corpus), tmp_path
    commands = [
        (["validate", "--input", c], 0),
        (["build-graph", "--input", c, "--output", str(out / "graph.tsv")], 0),
        (["extract", "--input", c, "--output", str(out / "positives.jsonl")], 0),
        (["negatives", "--corpus", c, "--input", str(out / "positives.jsonl"),
          "--output", str(out / "bundles.jsonl")], 0),
        (["counterfactual", "--corpus", c, "--input", str(out / "bundles.jsonl"),
          "--output", str(out / "cf.jsonl")], 0),
        (["negatives", "--corpus", c, "--input", str(out / "missing.jsonl"),
          "--output", str(out / "none.jsonl")], 1),
        (["run", "--input", c, "--output-dir", str(out / "run"), "--seed", "1"], 0),
    ]
    assert gc.isenabled()
    for argv, code in commands:
        parsed = len(seen)
        assert main(argv) == code, argv
        assert gc.isenabled(), argv
        assert seen[parsed:] == [False] * 6, argv
    assert len(seen) == 6 * len(commands)


def test_run_names_the_lines_it_skips(tmp_path, capsys):
    records = [document_to_record(doc) for doc in make_corpus(6, seed=4)]
    records[3]["sentences"] = 7
    records[4]["id"] = records[0]["id"]
    lines = [json.dumps(record).encode() for record in records]
    lines[1] = lines[1][:2] + b"\xff" + lines[1][2:]  # not UTF-8
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"".join(line + b"\n" for line in lines))
    problems = (
        "line 2: invalid UTF-8: invalid start byte at byte 2\n"
        "line 4: sentences: expected array, got int\n"
        f"line 5: id: duplicate document id {records[0]['id']!r}, first on line 1\n"
    )
    warnings = "".join(f"warning: skipped {line}\n" for line in problems.splitlines())
    assert main(["validate", "--input", str(corpus)]) == 3
    assert capsys.readouterr() == ("3 documents ok, 3 problems\n", problems)
    assert main(["build-graph", "--input", str(corpus), "--output", str(tmp_path / "g.tsv")]) == 0
    assert capsys.readouterr().err == warnings
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "r"), "--seed", "1"]) == 0
    assert capsys.readouterr().err == warnings
    manifest = json.loads((tmp_path / "r" / "manifest.json").read_text())
    assert manifest["stages"]["parse"] == {"documents": 3, "errors": 3}


def test_emit_counts_the_instances_it_writes(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(4, seed=2), fp)
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "r"),
                 "--seed", "5", "--cf-ratio", "1:1"]) == 0
    capsys.readouterr()
    copies = tmp_path / "r" / "bundles_counterfactual.jsonl"
    for ratio, with_copies in (("0", False), ("1:1", True)):
        out = tmp_path / f"instances_{with_copies}.jsonl"
        assert main(["emit", "--input", str(copies), "--output", str(out), "--seed", "5",
                     "--cf-ratio", ratio]) == 0
        counts = json.loads(capsys.readouterr().out)
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert counts["records"] == len(records) == counts["option"] + counts["context"] > 0
        assert counts["option"] == sum(r["orientation"] == "option" for r in records)
        assert counts["counterfactual"] == sum(r["meta"]["counterfactual"] for r in records)
        assert (counts["counterfactual"] > 0) == with_copies


def test_stats_output(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    film_cast_corpus(corpus)
    out_dir = tmp_path / "out"
    main(["run", "--input", str(corpus), "--output-dir", str(out_dir), "--seed", "3",
          "--cf-ratio", "0"])
    capsys.readouterr()
    assert main(["stats", "--input", str(out_dir / "instances.jsonl")]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["by_orientation"] == {"context": 1, "option": 1}
    assert got["mean_candidates"] == 4.0


def test_train_and_eval_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(20, seed=6, blocks=1, fillers=2), fp)
    out_dir = tmp_path / "out"
    main(["run", "--input", str(corpus), "--output-dir", str(out_dir), "--seed", "2",
          "--cf-ratio", "0"])
    capsys.readouterr()
    params = tmp_path / "scorer.txt"
    metrics = tmp_path / "metrics.jsonl"
    rc = main(["train", "--input", str(out_dir / "instances.jsonl"),
               "--params-out", str(params), "--metrics-out", str(metrics),
               "--epochs", "3", "--seed", "1", "--dim", "8", "--hidden", "6"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["instances"] == 40
    rows = [json.loads(l) for l in metrics.read_text().splitlines()]
    assert [r["epoch"] for r in rows] == [0, 1, 2]
    assert main(["eval", "--params", str(params), "--input", str(out_dir / "instances.jsonl")]) == 0
    got = json.loads(capsys.readouterr().out)
    assert got["instances"] == 40
    assert 0.0 <= got["accuracy"] <= 1.0


def test_train_refuses_one_file_for_params_and_metrics(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(20, seed=3), fp)
    out_dir = tmp_path / "out"
    assert main(["run", "--input", str(corpus), "--output-dir", str(out_dir), "--seed", "3"]) == 0
    capsys.readouterr()
    same = tmp_path / "x.txt"
    same.write_text("earlier bytes\n")
    rc = main(["train", "--input", str(out_dir / "instances.jsonl"),
               "--params-out", str(same), "--metrics-out", str(tmp_path / "." / "x.txt"),
               "--seed", "3", "--epochs", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--params-out and --metrics-out name the same file" in err
    assert same.read_text() == "earlier bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl", "out", "x.txt"]


def test_failed_train_keeps_earlier_outputs(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(4, seed=6, blocks=1, fillers=2), fp)
    out_dir = tmp_path / "out"
    assert main(["run", "--input", str(corpus), "--output-dir", str(out_dir), "--seed", "2",
                 "--cf-ratio", "0"]) == 0
    params = tmp_path / "scorer.txt"
    metrics = tmp_path / "metrics.jsonl"
    params.write_text("earlier params\n")
    metrics.write_text("earlier metrics\n")
    missing = tmp_path / "missing"
    train = ["train", "--input", str(out_dir / "instances.jsonl"), "--epochs", "1",
             "--seed", "1", "--dim", "4", "--hidden", "3"]
    capsys.readouterr()
    for params_out, metrics_out in ((params, missing / "m.jsonl"), (missing / "p.txt", metrics)):
        rc = main([*train, "--params-out", str(params_out), "--metrics-out", str(metrics_out)])
        assert rc == 1
        assert "No such file or directory" in capsys.readouterr().err
    assert params.read_text() == "earlier params\n"
    assert metrics.read_text() == "earlier metrics\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "corpus.jsonl", "metrics.jsonl", "out", "scorer.txt"
    ]


def test_config_file_with_flag_override(tmp_path, capsys, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    film_cast_corpus(corpus)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 5,
        "extractor": {"mode": "all"},
        "negatives": {"num_negatives": 2},
        "counterfactual": {"copies": 0},
    }))
    out_dir = tmp_path / "out"
    rc = main(["run", "--input", str(corpus), "--output-dir", str(out_dir),
               "--config", str(config), "--mode", "first"])
    assert rc == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 5
    assert manifest["stages"]["extract"]["instances"] == 1  # flag override beat the file
    instances = [json.loads(l) for l in (out_dir / "instances.jsonl").read_text().splitlines()]
    assert all(len(i["candidates"]) == 3 for i in instances)  # config K=2 applied
    capsys.readouterr()

    # same config through the environment variable
    monkeypatch.setenv("PATHCL_CONFIG", str(config))
    out_dir2 = tmp_path / "out2"
    rc = main(["run", "--input", str(corpus), "--output-dir", str(out_dir2), "--mode", "first"])
    assert rc == 0
    m2 = json.loads((out_dir2 / "manifest.json").read_text())
    assert m2["seed"] == 5


def test_bad_ratio_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["emit", "--input", "x", "--output", "y", "--cf-ratio", "2:3"])
    assert exc.value.code == 2


def test_byte_identical_across_interpreter_hash_seeds(tmp_path):
    # set/dict hash randomization must never leak into any output file
    import os
    import subprocess
    import sys

    import pathcl

    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(10, seed=2), fp)
    # The child imports the same pathcl as this process, installed or not.
    src = os.path.dirname(os.path.dirname(pathcl.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    digests = []
    for hash_seed, out in (("1", "h1"), ("4242", "h2")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "pathcl.cli", "run",
             "--input", str(corpus), "--output-dir", str(tmp_path / out),
             "--seed", "11", "--cf-ratio", "1:2"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append({
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((tmp_path / out).iterdir())
        })
    assert digests[0] == digests[1]


def test_jobs_parallel_matches_serial(tmp_path):
    # The pipeline runs serially; the --jobs flag it accepted and ignored is
    # gone, so asking for workers is a usage error on every subcommand.
    corpus = str(tmp_path / "corpus.jsonl")
    for command in (
        ["run", "--input", corpus, "--output-dir", str(tmp_path / "o"), "--seed", "4"],
        ["extract", "--input", corpus, "--output", str(tmp_path / "p.jsonl")],
        ["negatives", "--corpus", corpus, "--input", "p", "--output", str(tmp_path / "b.jsonl")],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--jobs", "3"])
        assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


BAD_CONFIG_VALUES = [
    ("run", {"counterfactual": {"copies": "2"}}, [], "counterfactual.copies"),
    ("run", {"negatives": {"num_negatives": "3"}}, [], "negatives.num_negatives"),
    ("run", {"extractor": {"max_hops": "4"}}, [], "extractor.max_hops"),
    ("emit", {"counterfactual": {"copies": "2"}}, [], "counterfactual.copies"),
    ("run", {"seed": 3.7}, [], "seed"),
    ("run", {"negatives": {"pool_size": "no"}}, [], "negatives.pool_size"),
    ("run", {}, ["--num-negatives", "-1"], "negatives.num_negatives"),
    ("run", {"counterfactual": {"window": 64}}, [],
     "counterfactual.window: unknown config key"),
    ("run", {}, ["--include-prob", "5"], "counterfactual.include_prob"),
    ("emit", {"counterfactual": {"include_prob": -0.5}}, [], "counterfactual.include_prob"),
    ("run", {"negative": {"num_negatives": 0}}, [], "negative"),
    ("run", {"jobs": 2}, [], "jobs"),
    ("emit", {"emit": {"shuffle_gold": False}}, [], "emit"),
    ("run", {"extractor": {"backtracking": False}}, [],
     "extractor.backtracking: unknown config key"),
    ("run", {"emitter": {"shuffle_gold": True}}, [], "emitter"),
    ("run", {}, ["--pool-size", "-1"], "negatives.pool_size: expected int >= 0, got -1"),
    ("run", {}, ["--include-prob", "nan"],
     "counterfactual.include_prob: expected finite float, got nan"),
]


@pytest.mark.parametrize(
    "command, config, flags, key",
    BAD_CONFIG_VALUES,
    ids=[f"{command}-{i}-{key}" for i, (command, _, _, key) in enumerate(BAD_CONFIG_VALUES)],
)
def test_config_values_checked_at_boundary(tmp_path, capsys, command, config, flags, key):
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(4, seed=2), fp)
    config_file = tmp_path / "config.json"
    config_file.write_text(json.dumps({"seed": 1, **config}))
    out = tmp_path / "out"
    if command == "run":
        argv = ["run", "--input", str(corpus), "--output-dir", str(out)]
    else:
        assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "r"),
                     "--seed", "1"]) == 0
        argv = ["emit", "--input", str(tmp_path / "r" / "bundles_counterfactual.jsonl"),
                "--output", str(out)]
    capsys.readouterr()
    assert main([*argv, "--config", str(config_file), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key}") and "Traceback" not in err, err
    assert not out.exists()


def test_config_file_syntax_error_names_file(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    film_cast_corpus(corpus)
    config = tmp_path / "bad.json"
    config.write_text('{"seed": 1,}')
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "out"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: invalid JSON: Expecting property name enclosed in double quotes: "
        "line 1 column 12 (char 11)\n"
    )
    config.write_bytes(b'{"seed": "\xff"}')
    assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / "out"),
                 "--config", str(config)]) == 1
    assert capsys.readouterr().err == (
        f"error: {config}: invalid UTF-8: invalid start byte at byte 10\n"
    )
    assert not (tmp_path / "out").exists()


def test_train_section_leaves_config_hash_unchanged(tmp_path, capsys):
    # run never trains, so the train section (kept for `pathcl train`) is not hashed
    corpus = tmp_path / "corpus.jsonl"
    film_cast_corpus(corpus)
    hashes = []
    for name, train in (("a", {"epochs": 5}), ("b", {"epochs": 50, "learning_rate": 0.7})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"seed": 3, "train": train}))
        assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / name),
                     "--config", str(config)]) == 0
        hashes.append(json.loads((tmp_path / name / "manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1]


def test_int_for_float_field_hashes_like_float(tmp_path, capsys):
    # JSON 1 and 1.0 are the same number and configure the same run.
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(4, seed=2), fp)
    hashes, outputs = [], []
    for name, prob in (("int", 1), ("float", 1.0)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps({"seed": 1, "counterfactual": {"include_prob": prob}}))
        assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / name),
                     "--config", str(config)]) == 0
        hashes.append(json.loads((tmp_path / name / "manifest.json").read_text())["config_hash"])
        outputs.append(file_hash(tmp_path / name / "instances.jsonl"))
    assert outputs[0] == outputs[1]
    assert hashes[0] == hashes[1]
