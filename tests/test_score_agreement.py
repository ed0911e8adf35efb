import math
import random

import pytest

from reprokit.effectiveness import MeasureConfig, score_run
from reprokit.errors import TopicMismatchError
from reprokit.score_agreement import delta_arp, rmse, rmse_at_cutoffs

import oracles
from conftest import make_qrels, make_run, random_qrels, random_run, vector


class TestDeltaArp:
    def test_identical_vectors(self):
        v = vector({"1": 0.4, "2": 0.6})
        assert delta_arp(v, v) == 0.0

    def test_table_style_means(self):
        orig = vector({str(i): 0.6460 for i in range(50)})
        rpl = vector({str(i): 0.6920 for i in range(50)})
        assert delta_arp(orig, rpl) == pytest.approx(-0.0460)

    def test_single_topic(self):
        assert delta_arp(vector({"1": 0.2}), vector({"1": 0.5})) == pytest.approx(-0.3)

    def test_misaligned_errors(self):
        with pytest.raises(TopicMismatchError):
            delta_arp(vector({"1": 0.2}), vector({"2": 0.2}))

    def test_signed_and_antisymmetric(self, rng):
        for _ in range(50):
            n = rng.randint(1, 20)
            a = vector({str(i): rng.random() for i in range(n)})
            b = vector({str(i): rng.random() for i in range(n)})
            assert delta_arp(a, b) == a.mean - b.mean == -delta_arp(b, a)


class TestRmse:
    def test_identical_vectors(self):
        v = vector({"1": 0.1, "2": 0.9})
        assert rmse(v, v) == 0.0

    def test_maximal_error(self):
        a = vector({"1": 1.0, "2": 1.0})
        b = vector({"1": 0.0, "2": 0.0})
        assert rmse(a, b) == 1.0

    def test_symmetric(self, rng):
        for _ in range(50):
            n = rng.randint(1, 20)
            a = vector({str(i): rng.random() for i in range(n)})
            b = vector({str(i): rng.random() for i in range(n)})
            assert rmse(a, b) == pytest.approx(rmse(b, a), abs=1e-15)

    def test_always_at_least_mean_difference(self, rng):
        # power-mean inequality: rmse >= |mean(a) - mean(b)|
        for _ in range(200):
            n = rng.randint(1, 20)
            a = vector({str(i): rng.random() for i in range(n)})
            b = vector({str(i): rng.random() for i in range(n)})
            assert rmse(a, b) >= abs(a.mean - b.mean) - 1e-12

    def test_zero_iff_identical(self, rng):
        a = vector({"1": 0.3, "2": 0.3})
        b = vector({"1": 0.3, "2": 0.3 + 1e-9})
        assert rmse(a, b) > 0
        assert rmse(a, a) < 1e-12


class TestRmseAtCutoffs:
    def test_identical_runs_zero_everywhere(self, rng):
        run = random_run(rng, "r", 4, 25)
        qrels = random_qrels(rng, run)
        topics = tuple(run.topics)
        cfgs = tuple(MeasureConfig("nDCG", k) for k in (5, 10, 25))
        vectors = dict(zip(cfgs, score_run(run, qrels, topics, cfgs)))
        out = rmse_at_cutoffs(vectors, vectors, "nDCG", [5, 10, 25])
        assert all(v == 0.0 for v in out.values())

    def test_matches_brute_force_toy_set(self):
        a = make_run("a", {"1": ["r1", "x", "r2"], "2": ["y", "r3"], "3": ["r4", "z"]})
        b = make_run("b", {"1": ["x", "r1", "r2"], "2": ["r3", "y"], "3": ["z", "r4"]})
        qrels = make_qrels({
            "1": {"r1": 1, "r2": 2},
            "2": {"r3": 1},
            "3": {"r4": 3},
        })
        topics = ("1", "2", "3")
        k = 5
        cfgs = (MeasureConfig("nDCG", k),)
        got = rmse_at_cutoffs(dict(zip(cfgs, score_run(a, qrels, topics, cfgs))),
                              dict(zip(cfgs, score_run(b, qrels, topics, cfgs))), "nDCG", [k])[k]
        diffs = []
        for topic in topics:
            na = oracles.brute_ndcg_at_k(a.topics[topic].doc_ids, qrels.topics[topic], k)
            nb = oracles.brute_ndcg_at_k(b.topics[topic].doc_ids, qrels.topics[topic], k)
            diffs.append(na - nb)
        expected = math.sqrt(sum(d * d for d in diffs) / len(diffs))
        assert got == pytest.approx(expected, abs=1e-12)
