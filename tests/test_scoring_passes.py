"""How often a replicate report scores and orders each run pair, counted with
wrappers (never timed): one ``score_run`` call per run for every measure and
cutoff, and tau-union and RBO once per topic on the full lists and again at a
cutoff only where the cutoff truncates a list."""

import pytest

from reprokit import ordering, report
from reprokit.effectiveness import parse_measure_spec
from reprokit.ordering import RboParams, full_depth, ordering_at_cutoffs
from reprokit.report import build_replicate_report
from reprokit.trec_io import topic_intersection

from conftest import random_qrels, random_run

MEASURES = [parse_measure_spec(s) for s in ("P@5", "AP@1000", "nDCG@10")]


def counting(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.fixture
def runs(rng):
    orig = random_run(rng, "orig", 5, 12)
    rpl = random_run(rng, "rpl", 5, 12)
    return orig, rpl, random_qrels(rng, orig), random_run(rng, "b", 5, 12), random_run(rng, "b2", 5, 12)


def test_replicate_scores_each_run_once(runs, monkeypatch):
    orig, rpl, qrels, b, b_prime = runs
    calls = counting(monkeypatch, report, "score_run")
    build_replicate_report(orig, rpl, qrels, MEASURES, cutoffs=[5, 10, 20],
                           baselines=(b, b_prime))
    assert [args[0].tag for args in calls] == ["orig", "rpl", "b", "b2"]
    assert all(type(args[3]) is tuple for args in calls)


def test_rbo_is_recomputed_only_where_a_list_is_truncated(runs, monkeypatch):
    orig, rpl, qrels, _, _ = runs
    calls = counting(monkeypatch, ordering, "rbo")
    rep = build_replicate_report(orig, rpl, qrels, MEASURES, cutoffs=[5, 10, 20])
    # the full 12-document lists, then cutoffs 5 and 10; 20 truncates no list
    assert rep["topics"] == 5
    assert [len(args[0]) for args in calls] == [12] * 5 + [5] * 5 + [10] * 5


def test_tau_union_is_reused_where_no_list_is_truncated(runs, monkeypatch):
    orig, rpl, qrels, _, _ = runs
    topics = topic_intersection(orig, qrels)
    full = full_depth(orig, rpl, topics, RboParams())
    calls = counting(monkeypatch, ordering, "tau_union")
    ordering_at_cutoffs(full, [12, 50])
    assert calls == []
    ordering_at_cutoffs(full, [5, 12, 50])
    assert [len(args[0]) for args in calls] == [5] * len(topics)


@pytest.mark.parametrize("phi, depth", [(0.8, 1000), (0.9, 7)])
def test_a_cutoff_beyond_both_lists_gives_the_full_depth_means(runs, phi, depth):
    orig, rpl, qrels, _, _ = runs
    params = RboParams(phi, depth)
    rep = build_replicate_report(orig, rpl, qrels, MEASURES, params, cutoffs=[12, 100])
    for k in (12, 100):
        assert rep["cutoffs"][k]["ordering"] == {"tau_union": rep["ordering"]["tau_union_mean"],
                                                 "rbo": rep["ordering"]["rbo_mean"]}
    topics = topic_intersection(orig, qrels)
    assert ordering_at_cutoffs(full_depth(orig, rpl, topics, params), [100])[100] == (
        rep["ordering"]["tau_union_mean"], rep["ordering"]["rbo_mean"])
