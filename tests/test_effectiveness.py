import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit.effectiveness import MeasureConfig, parse_measure_spec, score_run
from reprokit.errors import ConfigError, TopicMismatchError

import oracles
from conftest import make_qrels, make_run, random_qrels, random_run, score_ranking


def grades_of(*pairs):
    return {f"d{i}": g for i, g in enumerate(pairs)}


class TestPrecision:
    def test_three_relevant_in_top_ten(self):
        ranking = [f"d{i}" for i in range(10)]
        grades = {"d0": 1, "d4": 2, "d9": 1}
        assert score_ranking(ranking, grades, "P", 10) == pytest.approx(0.3)

    def test_all_relevant(self):
        ranking = ["a", "b"]
        assert score_ranking(ranking, {"a": 1, "b": 1}, "P", 2) == 1.0

    def test_short_run_pads_as_nonrelevant(self):
        assert score_ranking(["a"], {"a": 1}, "P", 10) == pytest.approx(0.1)

    def test_empty_list_is_zero(self):
        assert score_ranking([], {"a": 1}, "P", 10) == 0.0


class TestAveragePrecision:
    def test_rel_non_rel(self):
        # [rel, non, rel] with R=2: (1/1 + 2/3) / 2 = 5/6
        ranking = ["a", "b", "c"]
        grades = {"a": 1, "c": 1}
        assert score_ranking(ranking, grades, "AP", 3) == pytest.approx(5 / 6)

    def test_perfect_run(self):
        ranking = ["a", "b", "c"]
        grades = {"a": 1, "b": 1, "c": 1}
        assert score_ranking(ranking, grades, "AP", 3) == 1.0

    def test_no_relevant_retrieved(self):
        assert score_ranking(["x", "y"], {"a": 1}, "AP", 2) == 0.0

    def test_zero_relevant_errors(self):
        with pytest.raises(ValueError):
            score_ranking(["a"], {"a": 0}, "AP", 1)


class TestNdcg:
    def test_ideal_order_is_one(self):
        ranking = ["a", "b", "c"]
        grades = {"a": 2, "b": 1, "c": 0}
        assert score_ranking(ranking, grades, "nDCG", 3) == pytest.approx(1.0)

    def test_no_relevant_retrieved_is_zero(self):
        assert score_ranking(["x", "y", "z"], {"a": 1}, "nDCG", 3) == 0.0

    def test_reversal_strictly_decreases(self):
        ranking = ["a", "b", "c"]
        grades = {"a": 3, "b": 2, "c": 1}
        reversal = score_ranking(list(reversed(ranking)), grades, "nDCG", 3)
        assert reversal < score_ranking(ranking, grades, "nDCG", 3)

    def test_zero_idcg_errors(self):
        with pytest.raises(ValueError):
            score_ranking(["a"], {"a": 0}, "nDCG", 10)


def test_good_swap_never_decreases_ap_or_ndcg(rng):
    # moving the higher-graded doc of an adjacent pair up cannot hurt
    for _ in range(200):
        n = rng.randint(3, 15)
        docs = [f"d{i}" for i in range(n)]
        grades = {d: rng.randint(0, 3) for d in docs}
        if not any(g >= 1 for g in grades.values()):
            grades[docs[0]] = 1
        i = rng.randrange(n - 1)
        if grades[docs[i]] >= grades[docs[i + 1]]:
            continue
        better = docs[:]
        better[i], better[i + 1] = better[i + 1], better[i]
        assert score_ranking(better, grades, "AP", n) >= score_ranking(docs, grades, "AP", n) - 1e-15
        assert score_ranking(better, grades, "nDCG", n) >= score_ranking(docs, grades, "nDCG", n) - 1e-15


def test_matches_brute_force_on_random_topics(rng):
    for _ in range(1000):
        n = rng.randint(1, 20)
        docs = [f"d{i}" for i in range(n + 5)]
        ranking = rng.sample(docs, n)
        grades = {d: rng.randint(0, 3) for d in rng.sample(docs, rng.randint(1, len(docs)))}
        if not any(g >= 1 for g in grades.values()):
            grades[docs[0]] = rng.randint(1, 3)
        k = rng.randint(1, 25)
        assert score_ranking(ranking, grades, "P", k) == pytest.approx(
            oracles.brute_precision_at_k(ranking, grades, k), abs=1e-12)
        assert score_ranking(ranking, grades, "AP", k) == pytest.approx(
            oracles.brute_average_precision(ranking, grades, cutoff=k), abs=1e-12)
        assert score_ranking(ranking, grades, "nDCG", k) == pytest.approx(
            oracles.brute_ndcg_at_k(ranking, grades, k), abs=1e-12)


class TestScoreRun:
    def test_deterministic(self, rng):
        run = random_run(rng, "r", 5, 20)
        qrels = random_qrels(rng, run)
        topics = tuple(run.topics)
        cfg = MeasureConfig("AP", 1000)
        v1 = score_run(run, qrels, topics, (cfg,))[0]
        v2 = score_run(run, qrels, topics, (cfg,))[0]
        assert v1.scores == v2.scores

    def test_mean_is_arp(self):
        run = make_run("r", {"1": ["a", "x"], "2": ["b", "y"]})
        qrels = make_qrels({"1": {"a": 1, "x": 1}, "2": {"b": 1}})
        # P@10: topic 1 -> 0.2, topic 2 -> 0.1
        v = score_run(run, qrels, ("1", "2"), (MeasureConfig("P", 10),))[0]
        assert v.mean == pytest.approx((0.2 + 0.1) / 2, abs=1e-12)

    def test_scores_in_unit_interval(self, rng):
        run = random_run(rng, "r", 10, 30)
        qrels = random_qrels(rng, run)
        topics = tuple(run.topics)
        for cfg in (MeasureConfig("P", 10), MeasureConfig("AP", 1000), MeasureConfig("nDCG", 1000)):
            for s in score_run(run, qrels, topics, (cfg,))[0].values():
                assert 0.0 <= s <= 1.0

    def test_missing_topic_lenient_vs_strict(self):
        run = make_run("r", {"1": ["a"]})
        qrels = make_qrels({"1": {"a": 1}, "2": {"b": 1}})
        topics = ("1", "2")
        warnings = []
        v = score_run(run, qrels, topics, (MeasureConfig("P", 10),), warnings=warnings)[0]
        assert v.scores["2"] == 0.0
        assert warnings
        with pytest.raises(TopicMismatchError):
            score_run(run, qrels, topics, (MeasureConfig("P", 10),), strict=True)


class TestMeasureSpec:
    def test_parse(self):
        assert parse_measure_spec("P@10").label == "P@10"
        assert parse_measure_spec("AP").label == "AP@1000"
        assert parse_measure_spec("ndcg@100").label == "nDCG@100"
        assert parse_measure_spec("map").label == "AP@1000"

    def test_bad_specs(self):
        with pytest.raises(ConfigError):
            parse_measure_spec("bogus")
        with pytest.raises(ConfigError):
            parse_measure_spec("P@x")
        with pytest.raises(ConfigError):
            MeasureConfig("P", 0)


MEASURE_CONFIGS = st.builds(MeasureConfig, st.sampled_from(["P", "AP", "nDCG"]), st.integers(1, 30))


@st.composite
def judged_topics(draw):
    """Topic -> (ranking, grades): rankings of 1..20 documents out of 25, grades
    0..3 on a random subset (so some documents are unjudged, some grade 0), and
    at least one relevant document per topic."""
    pool = [f"d{i}" for i in range(25)]
    topics = {}
    for t in range(draw(st.integers(1, 4))):
        ranking = draw(st.permutations(pool))[:draw(st.integers(1, 20))]
        grades = draw(st.dictionaries(st.sampled_from(pool), st.integers(0, 3), max_size=25))
        grades[draw(st.sampled_from(pool))] = draw(st.integers(1, 3))
        topics[str(t + 1)] = (ranking, grades)
    return topics


class TestOneWalk:
    @settings(max_examples=200, deadline=None)
    @given(topics=judged_topics(), cfgs=st.lists(MEASURE_CONFIGS, min_size=1, max_size=8))
    def test_each_vector_equals_the_per_measure_scorers(self, topics, cfgs):
        cfgs = tuple(cfgs + cfgs[:1])  # a duplicate config too
        run = make_run("r", {t: ranking for t, (ranking, _) in topics.items()})
        qrels = make_qrels({t: grades for t, (_, grades) in topics.items()})
        exact = {"P": oracles.exact_precision_at_k, "AP": oracles.exact_average_precision,
                 "nDCG": oracles.exact_ndcg_at_k}
        brute = {"P": oracles.brute_precision_at_k, "AP": oracles.brute_average_precision,
                 "nDCG": oracles.brute_ndcg_at_k}
        vectors = score_run(run, qrels, tuple(topics), cfgs)
        assert [v.measure for v in vectors] == [c.label for c in cfgs]
        for cfg, v in zip(cfgs, vectors):
            assert list(v.scores) == list(topics)
            for t, (ranking, grades) in topics.items():
                assert v.scores[t] == exact[cfg.measure](ranking, grades, cfg.cutoff)
                expected = brute[cfg.measure](ranking, grades, cfg.cutoff)
                assert v.scores[t] == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(topics=judged_topics(), cfgs=st.lists(MEASURE_CONFIGS, min_size=1, max_size=4))
    def test_a_missing_topic_scores_zero_and_warns_once(self, topics, cfgs):
        run = make_run("r", {t: ranking for t, (ranking, _) in topics.items()})
        qrels = make_qrels({t: grades for t, (_, grades) in topics.items()}
                           | {"98": {"x": 1}, "99": {"x": 1}})
        topic_set = ("98", *topics, "99")
        warnings = []
        vectors = score_run(run, qrels, topic_set, tuple(cfgs), warnings=warnings)
        assert [(v.scores["98"], v.scores["99"]) for v in vectors] == [(0.0, 0.0)] * len(cfgs)
        # one warning per topic, however many configs were scored
        assert warnings == [f"run 'r' missing topic {t}, scored 0" for t in ("98", "99")]
        with pytest.raises(TopicMismatchError, match="run 'r' is missing topic 98"):
            score_run(run, qrels, topic_set, tuple(cfgs), strict=True)

    def test_no_relevant_document_raises_for_ap_and_ndcg_only(self):
        run = make_run("r", {"1": ["a", "b"]})
        qrels = make_qrels({"1": {"a": 0}})
        topics = ("1",)
        assert score_run(run, qrels, topics, (MeasureConfig("P", 2),))[0].scores == {"1": 0.0}
        for measure in ("AP", "nDCG"):
            with pytest.raises(ValueError, match="no relevant documents"):
                score_run(run, qrels, topics, (MeasureConfig("P", 2), MeasureConfig(measure, 2)))

