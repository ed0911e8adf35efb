"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and prints a PASS line
on success (visible with ``pytest -s`` or in the captured-output summary).
Criterion 7 needs the unpacked companion run archive plus NIST qrels and is
skipped unless REPROKIT_DATASET / REPROKIT_QRELS_CORE17 point at them;
criteria 1-6 and 8 stand alone.
"""

import math
import os
import random
import time

import numpy as np
import pytest

from reprokit.effectiveness import MeasureConfig, score_run
from reprokit.effects import effect_ratio, summarize_effect
from reprokit.meta import correlation_matrix, flag_equivalences, rank_runs
from reprokit.ordering import RboParams, kendall_tau, mean_over_topics, rbo, rbo_over_topics, tau_union, tau_union_over_topics
from reprokit.score_agreement import delta_arp, rmse
from reprokit.stats import paired_t_test, t_cdf, two_tailed_p
from reprokit.trec_io import load_qrels, load_run, topic_intersection

import oracles
from conftest import random_qrels, random_run, score_ranking, vector


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_tau_union_worked_examples():
    assert tau_union(["d1", "d2", "d3"], ["d1", "d2", "d4"]) == 1.0
    assert tau_union(["d1", "d2", "d3", "d4"], ["d2", "d5", "d3", "d6"]) == 2 / 3
    _report(1, "tau-union worked examples exact")


def test_criterion_2_er_swap_example():
    b = vector({"i": 0.0, "j": 0.0})
    assert effect_ratio(b, vector({"i": 0.2, "j": 0.8}), b, vector({"i": 0.8, "j": 0.2})) == 1.0
    assert rmse(vector({"i": 0.2, "j": 0.8}), vector({"i": 0.8, "j": 0.2})) > 0.0
    _report(2, "ER = 1 with strictly positive delta-vector RMSE")


def test_criterion_3_self_comparison_suite():
    start = time.monotonic()
    rng = random.Random(3)
    phi = 0.8
    for trial in range(100):
        n_topics = rng.randint(2, 50)
        n_docs = rng.randint(5, 100)
        run = random_run(rng, f"run{trial}", n_topics, n_docs)
        qrels = random_qrels(rng, run)
        topics = tuple(run.topics)
        depth = rng.randint(1, 1000)
        params = RboParams(phi, depth)
        d = min(depth, n_docs)

        tau_mean, _ = mean_over_topics(tau_union_over_topics(run, run, topics))
        assert tau_mean == 1.0
        rbo_mean, _ = mean_over_topics(rbo_over_topics(run, run, topics, params))
        assert rbo_mean == pytest.approx(1 - phi ** d, abs=1e-12)

        cfg = MeasureConfig("AP", 1000)
        v = score_run(run, qrels, topics, (cfg,))[0]
        assert rmse(v, v) == 0.0
        assert delta_arp(v, v) == 0.0
        assert paired_t_test(v, v).p_value == 1.0

        baseline = random_run(rng, "base", n_topics, n_docs)
        bv = score_run(baseline, qrels, topics, (cfg,))[0]
        if bv.mean > 0 and v.mean != bv.mean:
            summary = summarize_effect(bv, v, bv, v)
            assert summary.er == pytest.approx(1.0, abs=1e-12)
            assert summary.delta_ri == pytest.approx(0.0, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(3, f"100 self-comparisons all perfect ({elapsed:.2f}s)")


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(4)
    for _ in range(1000):
        pool = [f"d{i}" for i in range(40)]
        n = rng.randint(2, 20)
        ranking = rng.sample(pool, n)
        grades = {d: rng.randint(0, 3) for d in rng.sample(pool, rng.randint(1, 30))}
        if not any(g > 0 for g in grades.values()):
            grades[pool[0]] = 1
        k = rng.randint(1, 25)
        assert score_ranking(ranking, grades, "P", k) == pytest.approx(
            oracles.brute_precision_at_k(ranking, grades, k), abs=1e-12)
        assert score_ranking(ranking, grades, "AP", k) == pytest.approx(
            oracles.brute_average_precision(ranking, grades, cutoff=k), abs=1e-12)
        assert score_ranking(ranking, grades, "nDCG", k) == pytest.approx(
            oracles.brute_ndcg_at_k(ranking, grades, k), abs=1e-12)

        other = rng.sample(pool, rng.randint(2, 20))
        phi = rng.uniform(0.2, 0.95)
        depth = rng.randint(1, 30)
        assert rbo(ranking, other, RboParams(phi, depth)) == pytest.approx(
            oracles.brute_rbo(ranking, other, phi, depth), abs=1e-12)

        x = [rng.randint(1, 8) for _ in range(n)]
        y = [rng.randint(1, 8) for _ in range(n)]
        expected = oracles.brute_kendall_tau(x, y)
        if expected is not None:
            assert kendall_tau(x, y) == pytest.approx(expected, abs=1e-12)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(4, f"1000 random instances match brute force to 1e-12 ({elapsed:.2f}s)")


def test_criterion_5_statistical_kernel():
    start = time.monotonic()
    for t in (-3.0, -1.5, -0.3, 0.7, 2.2, 4.0):
        for dof in (1, 5, 49, 200):
            assert t_cdf(t, dof) + t_cdf(-t, dof) == pytest.approx(1.0, abs=1e-10)
    for t in range(-3, 4):
        normal = 0.5 * (1 + math.erf(t / math.sqrt(2)))
        assert t_cdf(float(t), 10 ** 6) == pytest.approx(normal, abs=1e-6)
    oracle_p = 2 * (1 - oracles.t_cdf_by_integration(2.0096, 49))
    assert two_tailed_p(2.0096, 49) == pytest.approx(oracle_p, abs=5e-4)
    assert two_tailed_p(2.0096, 49) == pytest.approx(0.0500, abs=5e-4)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(5, f"t-CDF symmetry, normal limit, and critical value ({elapsed:.2f}s)")


def _demote_relevant(run, qrels, shift, tag):
    """Push every relevant doc down by `shift` positions within its topic."""
    from conftest import make_run

    topic_docs = {}
    for topic in run.topics:
        ids = list(run.topics[topic].doc_ids)
        relevant = [d for d in ids if qrels.topics[topic].get(d, 0) > 0]
        for doc in reversed(relevant):
            pos = ids.index(doc)
            ids.pop(pos)
            ids.insert(min(pos + shift, len(ids)), doc)
        topic_docs[topic] = ids
    return make_run(tag, topic_docs)


def test_criterion_6_degradation_monotonicity():
    start = time.monotonic()
    rng = random.Random(6)
    orig = random_run(rng, "orig", 20, 60)
    qrels = random_qrels(rng, orig)
    topics = tuple(orig.topics)
    params = RboParams(0.8, 1000)
    cfg = MeasureConfig("nDCG", 1000)
    v_orig = score_run(orig, qrels, topics, (cfg,))[0]

    rbo_means = []
    rmses = []
    for level in range(1, 6):
        noisy = _demote_relevant(orig, qrels, shift=3 * level, tag=f"noise{level}")
        rbo_mean, _ = mean_over_topics(rbo_over_topics(orig, noisy, topics, params))
        rbo_means.append(rbo_mean)
        rmses.append(rmse(v_orig, score_run(noisy, qrels, topics, (cfg,))[0]))
    assert all(a >= b for a, b in zip(rbo_means, rbo_means[1:])), rbo_means
    assert all(a <= b for a, b in zip(rmses, rmses[1:])), rmses
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(6, f"RBO non-increasing {['%.3f' % v for v in rbo_means]}, "
               f"RMSE non-decreasing {['%.3f' % v for v in rmses]} ({elapsed:.2f}s)")


DATASET_URL = ("https://github.com/irgroup/sigir2020-measure-reproducibility/archive"
               "/refs/heads/master.tar.gz")
DATASET_DIR = os.environ.get("REPROKIT_DATASET", "")
QRELS_CORE17 = os.environ.get("REPROKIT_QRELS_CORE17", "")


def _find(pattern):
    for root, _dirs, files in os.walk(DATASET_DIR):
        for name in files:
            if name == pattern:
                return os.path.join(root, name)
    return None


@pytest.mark.skipif(
    not (DATASET_DIR and os.path.isdir(DATASET_DIR) and QRELS_CORE17
         and os.path.isfile(QRELS_CORE17)),
    reason=f"set REPROKIT_DATASET (the unpacked archive {DATASET_URL}) "
           "and REPROKIT_QRELS_CORE17 (NIST qrels)",
)
def test_criterion_7_dataset_fixtures():
    from reprokit.cli import build_replicate_report

    paths = {name: _find(name) for name in
             ("WCrobust04", "WCrobust0405", "rpl_wcr04_tf_1", "rpl_wcr0405_tf_1")}
    missing = [k for k, v in paths.items() if v is None]
    if missing:
        pytest.skip(f"dataset files not found: {missing}")
    qrels = load_qrels(QRELS_CORE17)
    orig = load_run(paths["WCrobust04"], strict=False)
    rpl = load_run(paths["rpl_wcr04_tf_1"], strict=False)
    rep = build_replicate_report(
        orig, rpl, qrels,
        [MeasureConfig("P", 10), MeasureConfig("AP", 1000), MeasureConfig("nDCG", 1000)],
        baselines=None,
    )
    assert rep["measures"]["P@10"]["arp_orig"] == pytest.approx(0.6460, abs=1e-4)
    assert rep["measures"]["AP@1000"]["arp_orig"] == pytest.approx(0.3711, abs=1e-4)
    assert rep["measures"]["P@10"]["arp_rpl"] == pytest.approx(0.6920, abs=1e-4)
    assert rep["measures"]["AP@1000"]["rmse"] == pytest.approx(0.0755, abs=1e-3)
    assert rep["measures"]["AP@1000"]["p_value"] == pytest.approx(0.551, rel=0.05)

    a = load_run(paths["WCrobust0405"], strict=False)
    a_rpl = load_run(paths["rpl_wcr0405_tf_1"], strict=False)
    topics = topic_intersection(a, qrels)
    cfg = MeasureConfig("AP", 1000)
    b, a, b_prime, a_prime = (score_run(run, qrels, topics, (cfg,))[0] for run in (orig, a, rpl, a_rpl))
    assert effect_ratio(b, a, b_prime, a_prime) == pytest.approx(1.0330, abs=1e-3)
    _report(7, "dataset fixtures within tolerance")


def test_criterion_8_correlation_machinery():
    runs = {f"r{i}": (i + 1) / 10 for i in range(10)}
    same_a = rank_runs("rmse_AP@1000", runs)
    same_b = rank_runs("delta_arp_AP@1000", {k: v * 0.5 for k, v in runs.items()})
    reverse = rank_runs("p_value_AP@1000", runs)  # p negated: order flips
    rankings = [same_a, same_b, reverse]
    mat = correlation_matrix(rankings)
    assert mat[0][1] == pytest.approx(1.0)
    assert mat[0][2] == pytest.approx(-1.0)
    assert mat[1][2] == pytest.approx(-1.0)
    assert np.allclose(np.diag(mat), 1.0)
    flags = {(a, b): label for a, b, _, label in
             flag_equivalences(mat, [r.measure_id for r in rankings])}
    assert flags[("rmse_AP@1000", "delta_arp_AP@1000")] == "equivalent"
    assert flags[("rmse_AP@1000", "p_value_AP@1000")] == "different"
    _report(8, "correlation matrix and equivalence flags as constructed")
