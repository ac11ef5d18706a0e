import hashlib
import json

import pytest

from pathcl.cli import main
from pathcl.corpus import document_to_record, write_corpus
from pathcl.synth import make_corpus

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


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["validate", "--input", str(tmp_path / "nope.jsonl")]) == 1
    assert "error:" in capsys.readouterr().err


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
    good = positives.read_text().splitlines()
    assert len(good) >= 3
    missing_path = json.loads(good[2])
    del missing_path["path"]
    capsys.readouterr()
    for bad_line in ['{"doc": "d0", "pair": ["a"', json.dumps(missing_path)]:
        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [good[0], good[1], bad_line, *good[3:]])
        rc = main(["negatives", "--corpus", str(corpus), "--input", str(bad),
                   "--output", str(tmp_path / "bundles.jsonl"), "--seed", "1"])
        assert rc == 1
        assert "line 3" in capsys.readouterr().err

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

    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(10, seed=2), fp)
    digests = []
    for hash_seed, out in (("1", "h1"), ("4242", "h2")):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
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
    corpus = tmp_path / "corpus.jsonl"
    with open(corpus, "w", encoding="utf-8") as fp:
        write_corpus(make_corpus(16, seed=13), fp)
    for jobs, name in [("1", "serial"), ("3", "parallel")]:
        assert main(["run", "--input", str(corpus), "--output-dir", str(tmp_path / name),
                     "--seed", "4", "--jobs", jobs]) == 0
    for fname in ["positives.jsonl", "bundles.jsonl", "instances.jsonl"]:
        assert file_hash(tmp_path / "serial" / fname) == file_hash(tmp_path / "parallel" / fname)
