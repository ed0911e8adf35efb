"""Report-level properties on small runs: what the report says depends on the
judged rankings, not on how the files list them or on which run is "orig"."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit.effectiveness import parse_measure_spec
from reprokit.report import build_replicate_report, emit
from reprokit.trec_io import parse_qrels, parse_run

from conftest import random_qrels, random_run, swap_noise

MEASURES = [parse_measure_spec(s) for s in ("P@5", "AP@20", "nDCG@20")]


def _run_lines(run) -> list[str]:
    return [f"{topic} Q0 {doc} {rank} {score} {run.tag}"
            for topic, ranking in run.topics.items()
            for rank, (doc, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1)]


def _qrels_lines(qrels) -> list[str]:
    return [f"{topic} 0 {doc} {grade}" for topic, docs in qrels.topics.items()
            for doc, grade in docs.items()]


def _replicate_json(orig: list[str], rpl: list[str], qrels: list[str]) -> str:
    rep = build_replicate_report(parse_run("\n".join(orig)), parse_run("\n".join(rpl)),
                                 parse_qrels("\n".join(qrels)), MEASURES, cutoffs=[5, 10])
    return emit(rep, "json")


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shuffler=st.randoms(use_true_random=False))
def test_shuffled_lines_give_the_same_report(seed, shuffler):
    rng = random.Random(seed)
    orig = random_run(rng, "orig", 4, 15)
    files = [_run_lines(orig), _run_lines(random_run(rng, "rpl", 4, 15)),
             _qrels_lines(random_qrels(rng, orig))]
    expected = _replicate_json(*files)
    for lines in files:
        shuffler.shuffle(lines)
    assert _replicate_json(*files) == expected


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_swaps=st.integers(0, 30))
def test_swapping_sides_negates_only_the_signed_delta(seed, n_swaps):
    # rpl permutes orig's documents: on different document sets the union
    # construction of tau-union is not symmetric
    rng = random.Random(seed)
    orig = random_run(rng, "orig", 4, 15)
    rpl = swap_noise(rng, orig, n_swaps, "rpl")
    qrels = random_qrels(rng, orig)
    forward = build_replicate_report(orig, rpl, qrels, MEASURES)
    backward = build_replicate_report(rpl, orig, qrels, MEASURES)
    assert backward["ordering"]["tau_union_mean"] == forward["ordering"]["tau_union_mean"]
    for label, block in forward["measures"].items():
        assert backward["measures"][label]["delta_arp_signed"] == -block["delta_arp_signed"]
        assert backward["measures"][label]["rmse"] == block["rmse"]
