import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit import ordering
from reprokit.errors import ConfigError
from reprokit.ordering import (
    RboParams,
    full_depth,
    kendall_tau,
    mean_over_topics,
    ordering_at_cutoffs,
    rbo,
    tau_intersection,
    tau_union,
    tau_union_over_topics,
)

import oracles
from conftest import make_run, random_run


class TestKendallTau:
    def test_identity(self):
        assert kendall_tau([1, 2, 3], [1, 2, 3]) == 1.0

    def test_full_reversal(self):
        assert kendall_tau([1, 2, 3], [3, 2, 1]) == -1.0

    def test_worked_example(self):
        assert kendall_tau([1, 2, 3, 4], [2, 5, 3, 6]) == pytest.approx(2 / 3)

    def test_all_tied_is_none(self):
        assert kendall_tau([1, 1, 1], [1, 2, 3]) is None

    @pytest.mark.parametrize("n", [0, 1])
    def test_below_two_items_is_none(self, n):
        assert kendall_tau([1.0] * n, [2.0] * n) is None

    def test_unequal_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="differ in length: 2 vs 1"):
            kendall_tau([1, 2], [1])

    def test_matches_brute_force_with_ties(self, rng):
        for _ in range(500):
            n = rng.randint(2, 15)
            x = [rng.randint(1, 6) for _ in range(n)]
            y = [rng.randint(1, 6) for _ in range(n)]
            expected = oracles.brute_kendall_tau(x, y)
            if expected is None:
                assert kendall_tau(x, y) is None
            else:
                assert kendall_tau(x, y) == pytest.approx(expected, abs=1e-12)

    @staticmethod
    def _assert_matches_oracle(x, y):
        assert kendall_tau(x, y) == oracles.brute_kendall_tau(x, y)

    @given(st.integers(2, 40).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, 3), min_size=n, max_size=n),
        st.lists(st.integers(0, 3), min_size=n, max_size=n))))
    def test_equals_oracle_exactly_with_many_ties(self, xy):
        self._assert_matches_oracle(*xy)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 600).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, n), min_size=n, max_size=n),
        st.lists(st.integers(0, n), min_size=n, max_size=n))))
    def test_equals_oracle_exactly_across_blocks(self, xy):
        self._assert_matches_oracle(*xy)

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            kendall_tau([1.0, float("nan"), 3.0], [1, 2, 3])

    def test_matches_scipy_tau_b(self, rng):
        stats = pytest.importorskip("scipy.stats")
        for _ in range(200):
            n = rng.randint(2, 700)
            hi = rng.choice([2, 5, n])
            x = [rng.randint(0, hi) for _ in range(n)]
            y = [rng.randint(0, hi) for _ in range(n)]
            ours = kendall_tau(x, y)
            if ours is None:
                continue
            assert ours == pytest.approx(stats.kendalltau(x, y).statistic, abs=1e-12)

    def test_memory_is_linear(self):
        n = 20000
        x = np.arange(n)
        y = np.random.default_rng(7).permutation(n)
        tracemalloc.start()
        try:
            kendall_tau(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a dense n x n sign matrix alone would take several GB
        assert peak < 16 * 2**20


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    st.lists(st.integers(0, 3000), unique=True, max_size=600),
    st.integers(0, 600).flatmap(lambda n: st.permutations(range(n)))))
def test_inversions_equal_brute_force_count(values):
    assert ordering._inversions(values) == oracles.brute_inversions(values)


def _union_positions(r_docs, s_docs):
    """The paired positions tau-union compares, built as in its definition."""
    pos = {doc: i for i, doc in enumerate(r_docs, start=1)}
    unseen = [doc for doc in dict.fromkeys(s_docs) if doc not in pos]
    pos.update((doc, len(r_docs) + i) for i, doc in enumerate(unseen, start=1))
    m = min(len(r_docs), len(s_docs))
    return [pos[d] for d in r_docs[:m]], [pos[d] for d in s_docs[:m]]


def _intersection_positions(r_docs, s_docs):
    shared = set(r_docs) & set(s_docs)
    r_order = [d for d in r_docs if d in shared]
    s_pos = {d: i for i, d in enumerate(s_docs, start=1) if d in shared}
    return list(range(1, len(r_order) + 1)), [s_pos[d] for d in r_order]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e)


_DOC_LISTS = st.lists(st.sampled_from("abcdefghijkl"), min_size=1, max_size=12, unique=True)


class TestPositionTauEqualsKendallTau:
    @settings(max_examples=300, deadline=None)
    @given(r_docs=_DOC_LISTS, s_docs=_DOC_LISTS)
    def test_tau_union(self, r_docs, s_docs):
        x, y = _union_positions(r_docs, s_docs)
        assert _outcome(tau_union, r_docs, s_docs) == _outcome(kendall_tau, x, y)

    @settings(max_examples=300, deadline=None)
    @given(r_docs=_DOC_LISTS, s_docs=_DOC_LISTS)
    def test_tau_intersection(self, r_docs, s_docs):
        x, y = _intersection_positions(r_docs, s_docs)
        assert _outcome(lambda r, s: tau_intersection(r, s)[0], r_docs, s_docs) \
            == _outcome(kendall_tau, x, y)

    def test_deep_rankings(self, rng):
        pool = [f"d{i}" for i in range(3000)]
        for n in (100, 1000, 2000):
            r_docs = rng.sample(pool, n)
            s_docs = rng.sample(r_docs, n // 2) + rng.sample(pool, n - n // 2)
            s_docs = list(dict.fromkeys(s_docs))
            assert tau_union(r_docs, s_docs) == kendall_tau(*_union_positions(r_docs, s_docs))
            assert tau_intersection(r_docs, s_docs)[0] \
                == kendall_tau(*_intersection_positions(r_docs, s_docs))


class TestRepeatedDocIds:
    CASES = [pytest.param(["a", "b", "c", "b"], ["c", "a", "b"], "b", id="in-r"),
             pytest.param(["a", "b", "c"], ["c", "d", "a", "d"], "d", id="in-s-only"),
             pytest.param(["a"], ["a", "c", "c"], "c", id="too-short-for-tau"),
             # a set walk over the two prefixes counts "a" twice: RBO 0.36, brute_rbo 0.28
             pytest.param(["a", "a"], ["a"], "a", id="counted-twice-by-rbo")]

    @pytest.mark.parametrize("r_docs, s_docs, doc", CASES)
    def test_each_kernel_rejects_it_by_name(self, r_docs, s_docs, doc):
        for kernel in (lambda: tau_union(r_docs, s_docs), lambda: tau_intersection(r_docs, s_docs),
                       lambda: rbo(r_docs, s_docs, RboParams(0.8, 10)),
                       lambda: full_depth(make_run("r", {"1": r_docs}), make_run("s", {"1": s_docs}),
                                          ("1",), RboParams())):
            with pytest.raises(ValueError, match=f"doc id '{doc}' repeated"):
                kernel()


class TestTauUnion:
    def test_shared_prefix_worked_example(self):
        assert tau_union(["d1", "d2", "d3"], ["d1", "d2", "d4"]) == 1.0

    def test_partial_overlap_worked_example(self):
        assert tau_union(["d1", "d2", "d3", "d4"], ["d2", "d5", "d3", "d6"]) == pytest.approx(2 / 3)

    def test_identity(self, rng):
        docs = [f"d{i}" for i in range(10)]
        assert tau_union(docs, docs) == 1.0

    def test_equals_plain_tau_on_same_doc_set(self, rng):
        for _ in range(1000):
            n = rng.randint(2, 20)
            docs = [f"d{i}" for i in range(n)]
            perm = docs[:]
            rng.shuffle(perm)
            expected = oracles.brute_kendall_tau(
                list(range(1, n + 1)), [docs.index(d) + 1 for d in perm]
            )
            assert tau_union(docs, perm) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("r_docs, s_docs", [(["a"], ["a", "b"]), (["a", "b"], ["b"]), ([], ["a"])])
    def test_below_two_paired_positions_is_none(self, r_docs, s_docs):
        assert tau_union(r_docs, s_docs) is None

    def test_unequal_lengths_pairs_common_prefix(self):
        # only the first 2 positions of each list are paired
        val = tau_union(["a", "b", "c"], ["a", "b"])
        assert val == 1.0


class TestTauIntersection:
    def test_same_relative_order(self):
        tau, overlap = tau_intersection(["a", "b", "c", "x"], ["a", "y", "b", "c"])
        assert tau == 1.0
        assert overlap == 3

    def test_opposite_order(self):
        tau, overlap = tau_intersection(["a", "b", "c"], ["c", "x", "a"])
        assert tau == -1.0
        assert overlap == 2

    @pytest.mark.parametrize("r_docs, s_docs, overlap", [
        pytest.param(["a", "b"], ["x", "y"], 0, id="disjoint"),
        pytest.param(["a", "b"], ["x", "a"], 1, id="one-shared")])
    def test_overlap_below_two_gives_none(self, r_docs, s_docs, overlap):
        assert tau_intersection(r_docs, s_docs) == (None, overlap)


class TestRbo:
    def test_identical_lists_closed_form(self):
        docs = [f"d{i}" for i in range(10)]
        for phi in (0.5, 0.8, 0.9):
            for d in (1, 5, 10):
                assert rbo(docs, docs, RboParams(phi, d)) == pytest.approx(
                    1 - phi ** d, abs=1e-12)

    def test_disjoint_lists(self):
        assert rbo(["a", "b"], ["x", "y"], RboParams(0.8, 10)) == 0.0

    def test_swapped_pair(self):
        assert rbo(["a", "b"], ["b", "a"], RboParams(0.8, 2)) == pytest.approx(0.16)

    def test_matches_direct_summation(self, rng):
        for _ in range(1000):
            pool = [f"d{i}" for i in range(60)]
            r = rng.sample(pool, rng.randint(1, 50))
            s = rng.sample(pool, rng.randint(1, 50))
            phi = rng.uniform(0.1, 0.95)
            depth = rng.randint(1, 60)
            assert rbo(r, s, RboParams(phi, depth)) == pytest.approx(
                oracles.brute_rbo(r, s, phi, depth), abs=1e-12)

    def test_monotone_in_depth(self, rng):
        pool = [f"d{i}" for i in range(40)]
        r = rng.sample(pool, 30)
        s = rng.sample(pool, 30)
        prev = 0.0
        for d in range(1, 31):
            cur = rbo(r, s, RboParams(0.8, d))
            assert cur >= prev - 1e-15
            prev = cur

    def test_range(self, rng):
        for _ in range(100):
            pool = [f"d{i}" for i in range(30)]
            r = rng.sample(pool, 20)
            s = rng.sample(pool, 20)
            val = rbo(r, s, RboParams(0.8, 20))
            assert 0.0 <= val < 1.0


_DISTINCT_DOCS = st.lists(st.sampled_from([f"d{i}" for i in range(40)]),
                          min_size=1, max_size=40, unique=True)


@settings(max_examples=300, deadline=None)
@given(r_docs=_DISTINCT_DOCS, s_docs=_DISTINCT_DOCS, depth=st.integers(1, 60),
       phi=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_rbo_sums_equal_the_set_walk_exactly(r_docs, s_docs, depth, phi):
    # at every depth from 1 to the drawn one, below and above both lengths, to the bit
    sums = oracles.running_rbo_sums(r_docs, s_docs, phi, depth)
    for d in range(1, depth + 1):
        assert rbo(r_docs, s_docs, RboParams(phi, d)) == (1 - phi) * sums[min(d, len(sums)) - 1]


class TestMeanOverTopics:
    def test_simple_mean(self):
        mean, excluded = mean_over_topics({"t1": 1.0, "t2": 0.0})
        assert mean == 0.5
        assert excluded == 0

    def test_single_topic(self):
        assert mean_over_topics({"t": 0.7}) == (0.7, 0)

    def test_degenerate_topics_excluded_with_count(self):
        mean, excluded = mean_over_topics({"t1": 1.0, "t2": None})
        assert mean == 1.0
        assert excluded == 1

    def test_all_none_gives_none(self):
        assert mean_over_topics({"t1": None}) == (None, 1)

    def test_no_topics_is_rejected(self):
        with pytest.raises(ValueError, match="no topics"):
            mean_over_topics({})


class TestOrderingAtCutoffs:
    def test_identical_runs_tau_one_everywhere(self, rng):
        run = random_run(rng, "r", 4, 30)
        topics = tuple(run.topics)
        params = RboParams(0.8, 1000)
        out = ordering_at_cutoffs(full_depth(run, run, topics, params), [5, 10, 30])
        for k, (tau_mean, rbo_mean) in out.items():
            assert tau_mean == 1.0
            assert rbo_mean == pytest.approx(1 - 0.8 ** k, abs=1e-12)

    def test_cutoff_one_same_top_doc(self):
        a = make_run("a", {"1": ["top", "x"]})
        b = make_run("b", {"1": ["top", "y"]})
        topics = ("1",)
        params = RboParams(0.8, 1000)
        out = ordering_at_cutoffs(full_depth(a, b, topics, params), [1])
        # tau degenerate at depth 1 is excluded upstream; RBO = (1-phi) * A_1
        assert out[1][1] == pytest.approx(0.2, abs=1e-12)

    def test_cutoff_rbo_equals_rbo_on_truncated_lists(self, rng):
        pool = [f"d{i}" for i in range(80)]
        topic_docs_a = {str(t): rng.sample(pool, rng.randint(1, 40)) for t in range(1, 7)}
        topic_docs_b = {str(t): rng.sample(pool, rng.randint(1, 40)) for t in range(1, 7)}
        a = make_run("a", topic_docs_a)
        b = make_run("b", topic_docs_b)
        topics = tuple(a.topics)
        cutoffs = [1, 2, 5, 13, 30, 60]
        for params in (RboParams(0.8, 1000), RboParams(0.9, 7), RboParams(0.5, 1)):
            out = ordering_at_cutoffs(full_depth(a, b, topics, params), cutoffs)
            for k in cutoffs:
                per_topic = {t: rbo(topic_docs_a[t][:k], topic_docs_b[t][:k], params)
                             for t in topics}
                assert out[k][1] == mean_over_topics(per_topic)[0]
                # tau leaves out a topic with fewer than two paired documents
                taus = {t: tau_union(topic_docs_a[t][:k], topic_docs_b[t][:k]) for t in topics
                        if min(k, len(topic_docs_a[t]), len(topic_docs_b[t])) >= 2}
                assert out[k][0] == (mean_over_topics(taus)[0] if taus else None)

    def test_cutoff_below_one_is_config_error(self, rng):
        run = random_run(rng, "r", 2, 10)
        topics = tuple(run.topics)
        params = RboParams(0.8, 1000)
        with pytest.raises(ConfigError):
            ordering_at_cutoffs(full_depth(run, run, topics, params), [0, 5])

    def test_cutoff_beyond_length_is_noop(self, rng):
        a = random_run(rng, "a", 3, 10)
        b = random_run(rng, "b", 3, 10)
        topics = tuple(a.topics)
        params = RboParams(0.8, 1000)
        full = ordering_at_cutoffs(full_depth(a, b, topics, params), [10])[10]
        huge = ordering_at_cutoffs(full_depth(a, b, topics, params), [999])[999]
        assert full == huge


class TestPerTopicUndefinedCases:
    def test_single_item_rankings_give_none(self):
        a = make_run("a", {"1": ["top", "x"], "2": ["p", "q", "r"]})
        b = make_run("b", {"1": ["top", "y"], "2": ["q", "p", "r"]})
        topics = ("1", "2")
        params = RboParams(0.8, 1000)
        out = ordering_at_cutoffs(full_depth(a, b, topics, params), [1])
        assert out[1][0] is None  # None on both topics, so no mean
        assert tau_union_over_topics(a, b, topics)["2"] == pytest.approx(1 / 3)

    def test_other_kernel_errors_propagate(self, monkeypatch):
        def broken(r_docs, s_docs):
            raise ValueError("kernel bug")

        monkeypatch.setattr(ordering, "tau_union", broken)
        a = make_run("a", {"1": ["p", "q", "r"]})
        topics = ("1",)
        with pytest.raises(ValueError, match="kernel bug"):
            tau_union_over_topics(a, a, topics)
