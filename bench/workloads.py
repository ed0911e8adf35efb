"""The named benchmark workloads: shapes, generated inputs, CLI arguments
and the check of a report.

- ``replicate-core17``: ``replicate`` on 50 topics x 1000 docs with a
  baseline pair and three cutoffs. Ordering (tau-union, tau-intersection,
  cutoff sweep) dominates, so the ordering kernels show here.
- ``reproduce-robust04``: ``reproduce`` with a 250 x 1000 original side and a
  50 x 1000 re-created side. Parsing dominates and ordering is never called,
  so a change to the run representation shows here and an ordering-only
  change should move nothing.
- ``correlate-shallow``: ``correlate`` on 250 topics x 100 docs over 10
  candidates, each with a baseline (22 run files). Many small files, 120
  ``score_run`` calls and thousands of short ordering calls, so per-call
  overhead and repeated scoring show rather than asymptotic cost.

``tiny`` shrinks every shape so the harness self-test runs in seconds.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import gen
import verify

PHI, DEPTH = 0.8, 1000  # the CLI defaults, which the workloads keep
SIGNAL_ADVANCED, SIGNAL_BASELINE = 1.6, 1.0
SWAP_SD, REPLACE_SHARE = 0.5, 0.1  # re-created runs of replicate-core17

# name -> shape per size: (topics, depth) plus workload-specific counts
SHAPES = {
    "replicate-core17": {"full": (50, 1000), "tiny": (20, 100)},
    "reproduce-robust04": {"full": (250, 1000, 50), "tiny": (30, 100, 20)},
    "correlate-shallow": {"full": (250, 100, 10), "tiny": (20, 40, 3)},
}
NAMES = tuple(SHAPES)


@dataclass
class Workload:
    name: str
    argv: list[str]  # CLI arguments after ``python -m reprokit.cli``
    lines_by_path: dict[str, int]  # every run file the CLI reads
    check: Callable[[bytes], list[str]]  # problems found in a report

    @property
    def run_lines(self) -> int:
        """Run-file lines the CLI reads in one invocation."""
        return sum(self.lines_by_path.values())


def _lines(runs: dict[str, gen.GenRun], paths: dict[str, str]) -> dict[str, int]:
    return {paths[name]: run.lines for name, run in runs.items()}


def build(name: str, seed: int, workdir: str, size: str = "full") -> Workload:
    # seed sequences take non-negative entropy only
    entropy = [seed, NAMES.index(name)] if seed >= 0 else [-seed, NAMES.index(name), 1]
    rng = np.random.default_rng(entropy)
    shape = SHAPES[name][size]
    return {"replicate-core17": _replicate, "reproduce-robust04": _reproduce,
            "correlate-shallow": _correlate}[name](rng, shape, workdir)


def _replicate(rng, shape, workdir) -> Workload:
    n_topics, depth = shape
    coll = gen.make_collection(rng, n_topics, depth, first_topic=301)
    orig = gen.make_run(rng, coll, "orig", SIGNAL_ADVANCED)
    b_orig = gen.make_run(rng, coll, "b_orig", SIGNAL_BASELINE)
    runs = {
        "orig": orig,
        "rpl": gen.recreate(rng, orig, "rpl", SIGNAL_ADVANCED, SWAP_SD, REPLACE_SHARE),
        "b_orig": b_orig,
        "b_rpl": gen.recreate(rng, b_orig, "b_rpl", SIGNAL_BASELINE, SWAP_SD, REPLACE_SHARE),
    }
    paths = gen.write_all(runs, {"qrels": coll}, workdir)
    measures, cutoffs = ["P@10", "AP@1000", "nDCG@1000"], [10, 100, 1000]
    argv = ["replicate", "--run-orig", paths["orig"], "--run-rpl", paths["rpl"],
            "--run-b-orig", paths["b_orig"], "--run-b-rpl", paths["b_rpl"],
            "--qrels", paths["qrels"], "--measures", ",".join(measures),
            "--cutoffs", ",".join(map(str, cutoffs)), "--format", "json"]
    return Workload(
        "replicate-core17", argv, _lines(runs, paths),
        lambda text: verify.check_replicate(text, runs, measures, cutoffs, PHI, DEPTH),
    )


def _reproduce(rng, shape, workdir) -> Workload:
    n_orig, depth, n_rpd = shape
    c_orig = gen.make_collection(rng, n_orig, depth, first_topic=301)
    c_rpd = gen.make_collection(rng, n_rpd, depth, first_topic=1001)
    runs = {
        "a_orig": gen.make_run(rng, c_orig, "a_orig", SIGNAL_ADVANCED),
        "b_orig": gen.make_run(rng, c_orig, "b_orig", SIGNAL_BASELINE),
        "a_rpd": gen.make_run(rng, c_rpd, "a_rpd", SIGNAL_ADVANCED - 0.2),
        "b_rpd": gen.make_run(rng, c_rpd, "b_rpd", SIGNAL_BASELINE),
    }
    paths = gen.write_all(runs, {"qrels_orig": c_orig, "qrels_rpd": c_rpd}, workdir)
    measures = ["P@10", "AP@1000", "nDCG@1000"]
    argv = ["reproduce"]
    for key in ("run_a_orig", "run_b_orig", "qrels_orig", "run_a_rpd", "run_b_rpd", "qrels_rpd"):
        argv += ["--" + key.replace("_", "-"), paths[key.removeprefix("run_")]]
    argv += ["--measures", ",".join(measures), "--format", "json"]
    return Workload(
        "reproduce-robust04", argv, _lines(runs, paths),
        lambda text: verify.check_reproduce(text, runs, measures),
    )


def _correlate(rng, shape, workdir) -> Workload:
    n_topics, depth, n_cand = shape
    coll = gen.make_collection(rng, n_topics, depth, first_topic=301)
    orig = gen.make_run(rng, coll, "orig", SIGNAL_ADVANCED)
    b_orig = gen.make_run(rng, coll, "b_orig", SIGNAL_BASELINE)
    runs = {"orig": orig, "b_orig": b_orig}
    candidates = []
    for i in range(n_cand):
        swap_sd, share = 0.1 + 0.25 * i, 0.02 + 0.03 * i
        name, name_b = f"cand{i:02d}", f"cand{i:02d}_b"
        runs[name] = gen.recreate(rng, orig, name, SIGNAL_ADVANCED, swap_sd, share)
        runs[name_b] = gen.recreate(rng, b_orig, name_b, SIGNAL_BASELINE, swap_sd, share)
        candidates.append((name, name_b))
    paths = gen.write_all(runs, {"qrels": coll}, workdir)
    manifest = {
        "qrels": os.path.basename(paths["qrels"]),
        "run_orig": os.path.basename(paths["orig"]),
        "run_b_orig": os.path.basename(paths["b_orig"]),
        "candidates": [{"run": f"{n}.run", "run_b": f"{nb}.run"} for n, nb in candidates],
    }
    paths["manifest"] = os.path.join(workdir, "manifest.json")
    with open(paths["manifest"], "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2)
    measures = ["P@10", f"AP@{depth}", f"nDCG@{depth}"]
    argv = ["correlate", "--manifest", paths["manifest"], "--measures", ",".join(measures),
            "--format", "json"]
    return Workload(
        "correlate-shallow", argv, _lines(runs, paths),
        lambda text: verify.check_correlate(text, runs, candidates, measures, PHI, DEPTH),
    )
