import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from reprokit.effects import (
    classify_region,
    effect_ratio,
    per_topic_improvements,
    relative_improvement,
    summarize_effect,
)
from reprokit.errors import TopicMismatchError
from reprokit.score_agreement import rmse

from conftest import vector
from oracles import brute_effect


def quad(b, a, bp, ap, measure="M", rpl_tag="run"):
    """The four vectors b, a, b', a' that the effect functions take."""
    return vector(b, measure), vector(a, measure), vector(bp, measure), vector(ap, measure, tag=rpl_tag)


class TestPerTopicImprovements:
    def test_zero_when_equal(self):
        v = vector({"1": 0.2, "2": 0.8})
        assert per_topic_improvements(v, v) == [0.0, 0.0]

    def test_antisymmetry(self):
        b = vector({"1": 0.2, "2": 0.8})
        a = vector({"1": 0.8, "2": 0.2})
        assert per_topic_improvements(b, a) == pytest.approx([0.6, -0.6])

    def test_negative_entries_preserved(self):
        b = vector({"1": 0.5})
        a = vector({"1": 0.3})
        assert per_topic_improvements(b, a) == [pytest.approx(-0.2)]

    def test_misaligned_errors(self):
        with pytest.raises(TopicMismatchError):
            per_topic_improvements(vector({"1": 0.1}), vector({"2": 0.1}))


class TestEffectRatio:
    def test_swap_example(self):
        # original deltas {0.2, 0.8}, re-created {0.8, 0.2}: ER is exactly 1
        inp = quad(
            b={"1": 0.0, "2": 0.0}, a={"1": 0.2, "2": 0.8},
            bp={"1": 0.0, "2": 0.0}, ap={"1": 0.8, "2": 0.2},
        )
        assert effect_ratio(*inp) == 1.0
        # but the per-topic delta vectors differ
        assert rmse(vector({"1": 0.2, "2": 0.8}), vector({"1": 0.8, "2": 0.2})) > 0

    def test_identity(self):
        inp = quad(b={"1": 0.1}, a={"1": 0.4}, bp={"1": 0.1}, ap={"1": 0.4})
        assert effect_ratio(*inp) == 1.0

    def test_zero_replicated_improvement(self):
        inp = quad(b={"1": 0.1}, a={"1": 0.4}, bp={"1": 0.2}, ap={"1": 0.2})
        assert effect_ratio(*inp) == 0.0

    def test_zero_original_improvement_is_none(self):
        inp = quad(b={"1": 0.3}, a={"1": 0.3}, bp={"1": 0.1}, ap={"1": 0.4})
        assert effect_ratio(*inp) is None

    def test_equal_original_means_are_none_whatever_the_rounding_of_the_differences(self):
        # P@20 scores 1/20, 6/20 against 3/20, 4/20: equal means, but the float
        # differences 0.1 and -0.1 do not cancel; dividing by their sum would give ER 7.2e15
        inp = quad(b={"1": 0.05, "2": 0.30}, a={"1": 0.15, "2": 0.20},
                   bp={"1": 0.05, "2": 0.05}, ap={"1": 0.10, "2": 0.10})
        assert math.fsum(per_topic_improvements(*inp[:2])) != 0
        assert effect_ratio(*inp) is None
        assert summarize_effect(*inp) == (None, 0.0, 1.0, -1.0, None, None)

    def test_pairs_on_different_topic_sets(self):
        inp = quad(
            b={"1": 0.2, "2": 0.2}, a={"1": 0.4, "2": 0.4},
            bp={"x": 0.1, "y": 0.1, "z": 0.1}, ap={"x": 0.2, "y": 0.2, "z": 0.2},
        )
        assert effect_ratio(*inp) == pytest.approx(0.5)
        # only each pair's means meet: a re-created pair with no improvement gives ER 0
        b, a = vector({"1": 0.1, "2": 0.2}), vector({"1": 0.3, "2": 0.5})
        other = vector({"1": 0.1, "3": 0.2})
        assert summarize_effect(b, a, other, other).er == 0.0

    @pytest.mark.parametrize("fn", [effect_ratio, summarize_effect])
    def test_takes_the_four_vectors_by_position_or_keyword(self, fn):
        b, a, bp, ap = quad(b={"1": 0.2, "2": 0.3}, a={"1": 0.4, "2": 0.4},
                            bp={"1": 0.1, "2": 0.2}, ap={"1": 0.2, "2": 0.4})
        assert fn(b=b, a=a, b_prime=bp, a_prime=ap) == fn(b, a, bp, ap)
        with pytest.raises(TypeError):
            fn(b, a, bp)
        with pytest.raises(TypeError):
            fn(b, a, bp, ap, "reproducibility")

    def test_scale_equivariance(self, rng):
        for _ in range(100):
            n = rng.randint(2, 20)
            b = {str(i): rng.random() * 0.5 for i in range(n)}
            a = {str(i): b[str(i)] + rng.uniform(-0.2, 0.4) for i in range(n)}
            c = rng.uniform(0.1, 3.0)
            bp = dict(b)
            ap = {str(i): b[str(i)] + c * (a[str(i)] - b[str(i)]) for i in range(n)}
            base = effect_ratio(*quad(b, a, b, a))
            scaled = effect_ratio(*quad(b, a, bp, ap))
            assert scaled == pytest.approx(c * base, rel=1e-9)

    def test_topic_permutation_invariance(self, rng):
        b = {str(i): rng.random() for i in range(10)}
        a = {str(i): rng.random() for i in range(10)}
        order = list(b)
        rng.shuffle(order)
        bp = {t: b[t] for t in order}
        ap = {t: a[t] for t in order}
        # permuted topic order, same scores: the means are untouched
        assert effect_ratio(*quad(b, a, bp, ap)) == pytest.approx(1.0)

    @pytest.mark.parametrize("args", [
        ({"1": 0.1, "2": 0.2}, {"1": 0.1, "3": 0.2}, {"1": 0.1, "2": 0.2}, {"1": 0.3, "2": 0.5}),
        ({"1": 0.1, "2": 0.2}, {"1": 0.3, "2": 0.5}, {"1": 0.1, "2": 0.2}, {"1": 0.1, "3": 0.2}),
        ({"1": 0.1, "2": 0.2}, {"1": 0.3, "2": 0.5}, {"2": 0.2, "1": 0.1}, {"1": 0.3, "2": 0.5}),
        # zero original improvement: the mismatch is raised before the division would fail
        ({"1": 0.1, "2": 0.2}, {"1": 0.1, "2": 0.2}, {"1": 0.1, "2": 0.2}, {"1": 0.1, "3": 0.2}),
    ], ids=["b-a", "b_prime-a_prime", "b_prime-a_prime-order", "before-division"])
    def test_each_pair_must_be_aligned(self, args):
        with pytest.raises(TopicMismatchError):
            summarize_effect(*map(vector, args))
        with pytest.raises(TopicMismatchError):
            effect_ratio(*map(vector, args))


class TestRelativeImprovement:
    def test_doubling(self):
        assert relative_improvement(vector({"1": 0.2}), vector({"1": 0.4})) == pytest.approx(1.0)

    def test_no_improvement(self):
        v = vector({"1": 0.3})
        assert relative_improvement(v, v) == 0.0

    def test_sign_handling(self):
        b = vector({"1": 0.6460})
        a = vector({"1": 0.3711})
        assert relative_improvement(b, a) == pytest.approx((0.3711 - 0.6460) / 0.6460)

    def test_zero_baseline_is_none(self):
        assert relative_improvement(vector({"1": 0.0}), vector({"1": 0.2})) is None


class TestDeltaRi:
    def test_identical_experiment(self):
        inp = quad(b={"1": 0.2}, a={"1": 0.4}, bp={"1": 0.2}, ap={"1": 0.4})
        assert summarize_effect(*inp).delta_ri == 0.0

    def test_sign_convention(self):
        # RI = 0.5, RI' = 0.2 -> delta 0.3 (re-created improvement smaller)
        inp = quad(b={"1": 0.2}, a={"1": 0.3}, bp={"1": 0.5}, ap={"1": 0.6})
        assert summarize_effect(*inp).delta_ri == pytest.approx(0.5 - 0.2)
        mirrored = quad(b={"1": 0.5}, a={"1": 0.6}, bp={"1": 0.2}, ap={"1": 0.3})
        assert summarize_effect(*mirrored).delta_ri == pytest.approx(0.2 - 0.5)


class TestClassifyRegion:
    @pytest.mark.parametrize("er,dri,region", [
        (1.0, -0.05, "4"),
        (-0.5, 0.5, "2"),
        (0.5, 0.5, "1"),
        (-0.5, -0.5, "3"),
    ])
    def test_quadrants(self, er, dri, region):
        assert classify_region(er, dri) == region

    def test_boundaries(self):
        assert classify_region(1.0, 0.0) == "boundary[1,4]"
        assert classify_region(-1.0, 0.0) == "boundary[2,3]"
        assert classify_region(0.0, 1.0) == "boundary[1,2]"
        assert classify_region(0.0, -1.0) == "boundary[3,4]"
        assert classify_region(0.0, 0.0) == "boundary[1,2,3,4]"

    def test_total_and_sign_consistent(self, rng):
        for _ in range(500):
            er = rng.uniform(-3, 3)
            dri = rng.uniform(-1, 1)
            region = classify_region(er, dri)
            if er > 0 and dri > 0:
                assert region == "1"
            elif er < 0 and dri > 0:
                assert region == "2"
            elif er < 0 and dri < 0:
                assert region == "3"
            elif er > 0 and dri < 0:
                assert region == "4"
            else:
                assert region.startswith("boundary")

    def test_a_rounding_size_delta_ri_is_filed_by_its_sign(self):
        # RI = RI' = 1/3 on the decimal scores; the float Delta RI is rounding
        # noise, and its sign, not a boundary, picks the region
        scores = ((0.65, 0.10), (0.40, 0.60), (0.45, 0.15), (0.75, 0.05))
        for scale, region in ((lambda x: x, "4"), (lambda x: round(x * 20) * 0.05, "1")):
            s = summarize_effect(*quad(*({"1": scale(x), "2": scale(y)} for x, y in scores)))
            assert s.er > 0 and 0 < abs(s.delta_ri) < 1e-15
            assert s.region == classify_region(s.er, s.delta_ri) == region


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(-3, 3),
       pairs=st.lists(st.tuples(st.floats(0, 1), st.floats(0.05, 1)), min_size=1, max_size=30))
@example(lam=0.0, pairs=[(0.6, 0.2), (0.3, 0.4)])
@example(lam=-1.0, pairs=[(0.6, 0.2), (0.3, 0.4)])
def test_effect_ladder(lam, pairs):
    # b' = b and a' = b + lam * (a - b): the re-created improvement is lam
    # times the original one, so ER = lam and RI' = lam * RI
    assume(abs(sum(a - b for a, b in pairs) / len(pairs)) >= 0.01)
    topics = [str(i) for i in range(len(pairs))]
    b = {t: bv for t, (_, bv) in zip(topics, pairs)}
    a = {t: av for t, (av, _) in zip(topics, pairs)}
    s = summarize_effect(*quad(b=b, a=a, bp=b, ap={t: b[t] + lam * (a[t] - b[t]) for t in topics}))
    assert abs(s.er - lam) <= 1e-12
    assert abs(s.delta_ri - (1 - lam) * s.ri) <= 1e-12
    if lam == 0:
        assert s.er == 0.0
        assert s.region.startswith("boundary[")


@st.composite
def effect_quads(draw):
    """b, a on n topics and b', a' on the same topic ids, or on other ids and another count."""
    n = draw(st.integers(2, 8))
    same_topics = draw(st.booleans())
    m = n if same_topics else draw(st.integers(2, 8).filter(lambda m: m != n))
    ids = [str(i) for i in range(n)]
    ids_prime = ids if same_topics else [f"x{i}" for i in range(m)]
    score = st.integers(0, 20).map(lambda k: k * 0.05)
    return [dict(zip(t, draw(st.lists(score, min_size=len(t), max_size=len(t)))))
            for t in (ids, ids, ids_prime, ids_prime)]


@settings(max_examples=300, deadline=None)
@given(quads=effect_quads())
@example(quads=[{"0": 0.05, "1": 0.30}, {"0": 0.15, "1": 0.20},
                {"0": 0.05, "1": 0.05}, {"0": 0.10, "1": 0.10}])
def test_effect_matches_the_oracle_on_both_settings(quads):
    want = brute_effect(*(list(q.values()) for q in quads))
    got = summarize_effect(*map(vector, quads))
    if got.ri == 0.0:
        # equal float means: the exact mean of the float differences may be rounding
        # noise, not zero, but there is no improvement to divide by
        assert got.er is None
        want.update(er=None, region=None, dist=None)
    for key in ("er", "ri", "ri_prime", "delta_ri", "dist"):
        if want[key] is None:  # a zero denominator, or a value computed from one
            assert getattr(got, key) is None, key
        else:
            assert getattr(got, key) == pytest.approx(float(want[key]), rel=1e-9, abs=1e-9), key
    if want["dist"] is None:
        assert got.region is None
    # ER's sign is exact; a Delta RI within rounding of zero (RI = RI' on the decimal
    # scores) has a sign of noise, and like an exact zero its region is left open
    elif want["region"] is not None and abs(want["delta_ri"]) > 1e-9:
        assert got.region == want["region"]


class TestSummaryAndPlotData:
    def test_perfect_replication_at_ideal_point(self):
        inp = quad(b={"1": 0.2, "2": 0.4}, a={"1": 0.4, "2": 0.6},
                   bp={"1": 0.2, "2": 0.4}, ap={"1": 0.4, "2": 0.6},
                   measure="AP@1000", rpl_tag="self")
        s = summarize_effect(*inp)
        assert s.er == 1.0
        assert s.delta_ri == 0.0
        assert s.dist == 0.0

    def test_distance(self):
        assert math.hypot(0.8 - 1.0, -0.1) == pytest.approx(0.2236, abs=1e-4)
        inp = quad(b={"1": 0.2}, a={"1": 0.4}, bp={"1": 0.2}, ap={"1": 0.4})
        assert summarize_effect(*inp).dist == 0.0
        # half the improvement: ER 0.5, RI 1.0, RI' 0.5, so Delta RI 0.5
        s = summarize_effect(*quad(b={"1": 0.2}, a={"1": 0.4}, bp={"1": 0.2}, ap={"1": 0.3}))
        assert s.dist == math.hypot(s.er - 1.0, s.delta_ri) == pytest.approx(math.hypot(0.5, 0.5))

    @pytest.mark.parametrize("b, a, bp, ap, want", [
        # no original improvement: ER, so region and dist
        ({"1": 0.3}, {"1": 0.3}, {"1": 0.1}, {"1": 0.4}, (None, 0.0, 3.0, -3.0, None, None)),
        # a zero baseline mean: that RI, so Delta RI, region and dist
        ({"1": 0.0}, {"1": 0.2}, {"1": 0.1}, {"1": 0.3}, (1.0, None, 2.0, None, None, None)),
        ({"1": 0.1}, {"1": 0.2}, {"1": 0.0}, {"1": 0.3}, (3.0, 1.0, None, None, None, None)),
    ], ids=["er", "ri", "ri_prime"])
    def test_an_undefined_value_is_none_as_is_each_value_computed_from_it(self, b, a, bp, ap, want):
        assert summarize_effect(*quad(b, a, bp, ap)) == pytest.approx(want)
