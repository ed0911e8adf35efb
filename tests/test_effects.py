import math
import random

import pytest

from reprokit.effects import (
    EffectInput,
    classify_region,
    delta_ri,
    effect_ratio,
    er_ri_plot_data,
    per_topic_improvements,
    relative_improvement,
    summarize_effect,
)
from reprokit.errors import TopicMismatchError, UndefinedEffectError
from reprokit.score_agreement import rmse

from conftest import vector


def quad(b, a, bp, ap, mode="replicability", measure="M", rpl_tag="run"):
    return EffectInput(b=vector(b, measure), a=vector(a, measure), b_prime=vector(bp, measure),
                       a_prime=vector(ap, measure, tag=rpl_tag), mode=mode)


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
        assert effect_ratio(inp) == 1.0
        # but the per-topic delta vectors differ
        assert rmse(vector({"1": 0.2, "2": 0.8}), vector({"1": 0.8, "2": 0.2})) > 0

    def test_identity(self):
        inp = quad(b={"1": 0.1}, a={"1": 0.4}, bp={"1": 0.1}, ap={"1": 0.4})
        assert effect_ratio(inp) == 1.0

    def test_zero_replicated_improvement(self):
        inp = quad(b={"1": 0.1}, a={"1": 0.4}, bp={"1": 0.2}, ap={"1": 0.2})
        assert effect_ratio(inp) == 0.0

    def test_zero_original_improvement_errors(self):
        inp = quad(b={"1": 0.3}, a={"1": 0.3}, bp={"1": 0.1}, ap={"1": 0.4})
        with pytest.raises(UndefinedEffectError):
            effect_ratio(inp)

    def test_different_topic_counts_in_reproducibility(self):
        inp = quad(
            b={"1": 0.2, "2": 0.2}, a={"1": 0.4, "2": 0.4},
            bp={"x": 0.1, "y": 0.1, "z": 0.1}, ap={"x": 0.2, "y": 0.2, "z": 0.2},
            mode="reproducibility",
        )
        assert effect_ratio(inp) == pytest.approx(0.5)

    def test_scale_equivariance(self, rng):
        for _ in range(100):
            n = rng.randint(2, 20)
            b = {str(i): rng.random() * 0.5 for i in range(n)}
            a = {str(i): b[str(i)] + rng.uniform(-0.2, 0.4) for i in range(n)}
            c = rng.uniform(0.1, 3.0)
            bp = dict(b)
            ap = {str(i): b[str(i)] + c * (a[str(i)] - b[str(i)]) for i in range(n)}
            base = effect_ratio(quad(b, a, b, a))
            scaled = effect_ratio(quad(b, a, bp, ap))
            assert scaled == pytest.approx(c * base, rel=1e-9)

    def test_topic_permutation_invariance(self, rng):
        b = {str(i): rng.random() for i in range(10)}
        a = {str(i): rng.random() for i in range(10)}
        order = list(b)
        rng.shuffle(order)
        bp = {t: b[t] for t in order}
        ap = {t: a[t] for t in order}
        # permuted topic order, same scores: the means are untouched
        assert effect_ratio(quad(b, a, bp, ap, mode="reproducibility")) == pytest.approx(1.0)


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

    def test_zero_baseline_errors(self):
        with pytest.raises(UndefinedEffectError):
            relative_improvement(vector({"1": 0.0}), vector({"1": 0.2}))


class TestDeltaRi:
    def test_identical_experiment(self):
        inp = quad(b={"1": 0.2}, a={"1": 0.4}, bp={"1": 0.2}, ap={"1": 0.4})
        assert delta_ri(inp) == 0.0

    def test_sign_convention(self):
        # RI = 0.5, RI' = 0.2 -> delta 0.3 (re-created improvement smaller)
        inp = quad(b={"1": 0.2}, a={"1": 0.3}, bp={"1": 0.5}, ap={"1": 0.6})
        assert delta_ri(inp) == pytest.approx(0.5 - 0.2)
        mirrored = quad(b={"1": 0.5}, a={"1": 0.6}, bp={"1": 0.2}, ap={"1": 0.3})
        assert delta_ri(mirrored) == pytest.approx(0.2 - 0.5)


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


class TestSummaryAndPlotData:
    def test_perfect_replication_at_ideal_point(self):
        inp = quad(b={"1": 0.2, "2": 0.4}, a={"1": 0.4, "2": 0.6},
                   bp={"1": 0.2, "2": 0.4}, ap={"1": 0.4, "2": 0.6},
                   measure="AP@1000", rpl_tag="self")
        s = summarize_effect(inp)
        assert s.er == 1.0
        assert s.delta_ri == 0.0
        assert s.distance_to_ideal == 0.0
        rows = er_ri_plot_data([s])
        assert rows[0] == "run,measure,er,delta_ri,region,dist"
        assert rows[1].startswith("self,AP@1000,1.000000,0.000000,")

    def test_distance(self):
        assert math.hypot(0.8 - 1.0, -0.1) == pytest.approx(0.2236, abs=1e-4)
        inp = quad(b={"1": 0.2}, a={"1": 0.4}, bp={"1": 0.2}, ap={"1": 0.4})
        s = summarize_effect(inp)
        assert s.distance_to_ideal == 0.0

    def test_two_summaries_preserve_order(self):
        s1, s2 = (summarize_effect(quad(b={"1": 0.2}, a={"1": 0.4}, bp={"1": 0.2},
                                        ap={"1": 0.4}, rpl_tag=tag))
                  for tag in ("first", "second"))
        rows = er_ri_plot_data([s1, s2])
        assert rows[1].startswith("first,")
        assert rows[2].startswith("second,")
