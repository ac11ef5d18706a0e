"""Workload definitions for the harness; samples receive them as JSON.

Every workload builds its input from `synth.make_corpus` at the seed the
harness is given; the program only ever sees the files written from it.

- `first`: one positive pair per document, so parsing, graph building and
  the JSONL writes dominate. The throughput case.
- `first-jobs2`: the same corpus and configuration with two pool workers,
  the only workload that forks. Its outputs must equal `first`'s.
- `all`: every co-mentioned pair in both directions, so meta-path search,
  negatives, counterfactual copies and bundle writes dominate; also the
  case whose memory grows fastest with corpus size.
- `train`: the toy-separation training set; only the trainer is timed.

The corpus sizes are chosen so that one sample takes a few seconds on a
two-core machine and several samples fit one measured run.
"""

from __future__ import annotations

PIPELINE = "pipeline"

WORKLOADS: dict[str, dict] = {
    "first": {
        "kind": PIPELINE,
        "docs": 2000,
        "blocks": 2,
        "fillers": 8,
        "mode": "first",
        "copies": 1,
        "jobs": 1,
        "default_seed": 99,
    },
    "first-jobs2": {
        "kind": PIPELINE,
        "docs": 2000,
        "blocks": 2,
        "fillers": 8,
        "mode": "first",
        "copies": 1,
        "jobs": 2,
        "default_seed": 99,
    },
    "all": {
        "kind": PIPELINE,
        "docs": 150,
        "blocks": 2,
        "fillers": 8,
        "mode": "all",
        "copies": 1,
        "jobs": 1,
        "default_seed": 99,
    },
    "train": {
        "kind": "train",
        "docs": 500,
        "blocks": 2,
        "fillers": 4,
        "holdout": 0.2,
        # Split, pipeline and trainer seeds of the toy-separation criterion;
        # only the corpus follows the harness seed.
        "split_seed": 1,
        "pipeline_seed": 7,
        "epochs": 10,
        "train_config": {
            "learning_rate": 0.2,
            "batch_size": 8,
            "seed": 0,
            "mlm_weight": 1.0,
            "mask_rate": 0.15,
            "dim": 32,
            "hidden": 64,
        },
        "default_seed": 42,
    },
}

# Tiny sizes for the smoke mode: every metric and check runs in seconds.
SMOKE_SIZES = {
    "first": {"docs": 60},
    "first-jobs2": {"docs": 60},
    "all": {"docs": 8},
    "train": {"docs": 60, "epochs": 2},
}


def workload_spec(name: str, smoke: bool = False) -> dict:
    spec = dict(WORKLOADS[name], name=name)
    if smoke:
        spec.update(SMOKE_SIZES[name])
    return spec
