import math
import random
import re

import pytest

from reprokit.stats import (
    paired_t_test,
    regularized_incomplete_beta,
    t_cdf,
    two_tailed_p,
    unpaired_t_test,
)

import oracles
from conftest import vector


class TestTCdf:
    def test_center_is_half(self):
        for dof in (1, 2, 5, 49, 1000):
            assert t_cdf(0.0, dof) == t_cdf(-0.0, dof) == 0.5

    def test_beta_symmetry_identity(self):
        for a in (0.5, 1.0, 2.5, 10.0):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_two_tailed_critical_value(self):
        # standard two-tailed 5% point at 49 degrees of freedom
        assert two_tailed_p(2.0096, 49) == pytest.approx(0.0500, abs=5e-4)

    def test_symmetry(self, rng):
        for _ in range(200):
            t = rng.uniform(-6, 6)
            dof = rng.randint(1, 200)
            assert t_cdf(t, dof) + t_cdf(-t, dof) == pytest.approx(1.0, abs=1e-10)

    def test_normal_limit(self):
        for t in (-3, -2, -1, 0, 1, 2, 3):
            normal = 0.5 * (1 + math.erf(t / math.sqrt(2)))
            assert t_cdf(t, 10 ** 6) == pytest.approx(normal, abs=1e-6)

    def test_matches_numeric_integration(self, rng):
        for _ in range(20):
            t = rng.uniform(-4, 4)
            dof = rng.randint(2, 100)
            assert t_cdf(t, dof) == pytest.approx(
                oracles.t_cdf_by_integration(t, dof), abs=1e-7)

    def test_p_monotone_in_t(self):
        for dof in (2, 10, 49):
            ps = [two_tailed_p(t / 10, dof) for t in range(0, 60)]
            assert all(a >= b for a, b in zip(ps, ps[1:]))


class TestPairedTTest:
    def test_identical_vectors_p_one(self):
        v = vector({"1": 0.2, "2": 0.4, "3": 0.9})
        res = paired_t_test(v, v)
        assert res.p_value == 1.0
        assert res.t_stat == 0.0

    def test_known_differences(self):
        # d = {0.1, 0.2, 0.3}: t = mean/sd*sqrt(n) = 0.2/(0.1/sqrt(3))
        x = vector({"1": 0.1, "2": 0.2, "3": 0.3})
        y = vector({"1": 0.0, "2": 0.0, "3": 0.0})
        res = paired_t_test(x, y)
        assert res.t_stat == pytest.approx(3.4641, abs=1e-4)
        assert res.dof == 2
        expected_p = 2 * (1 - oracles.t_cdf_by_integration(3.464101615, 2))
        assert res.p_value == pytest.approx(expected_p, abs=1e-6)
        assert res.p_value == pytest.approx(0.0742, abs=5e-4)

    def test_constant_shift_degenerate(self):
        x = vector({"1": 0.25, "2": 0.5})
        y = vector({"1": 0.5, "2": 0.75})
        res = paired_t_test(x, y)
        assert res.p_value == 0.0
        assert res.warning

    def test_symmetry(self, rng):
        for _ in range(50):
            n = rng.randint(2, 30)
            x = vector({str(i): rng.random() for i in range(n)})
            y = vector({str(i): rng.random() for i in range(n)})
            fwd = paired_t_test(x, y)
            rev = paired_t_test(y, x)
            assert fwd.p_value == pytest.approx(rev.p_value, abs=1e-12)
            assert fwd.t_stat == pytest.approx(-rev.t_stat, abs=1e-12)

    def test_one_topic_is_undefined_with_a_warning(self):
        res = paired_t_test(vector({"1": 0.1}), vector({"1": 0.2}))
        assert res == (None, 0.0, None, "paired test needs n >= 2 topics, got 1")


class TestUnpairedTTest:
    def test_identical_samples(self):
        v = vector({"1": 0.2, "2": 0.4})
        assert unpaired_t_test(v, v).p_value == 1.0

    def test_degenerate_constant_samples(self):
        x = vector({"1": 0.0, "2": 0.0, "3": 0.0, "4": 0.0})
        y = vector({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
        res = unpaired_t_test(x, y)
        assert res.p_value == 0.0
        assert res.warning

    def test_different_sample_sizes(self, rng):
        x = vector({str(i): rng.random() for i in range(10)})
        y = vector({f"y{i}": rng.random() for i in range(25)})
        res = unpaired_t_test(x, y)
        assert res.dof == 33
        assert 0.0 <= res.p_value <= 1.0

    @pytest.mark.parametrize("nx, ny", [(1, 1), (1, 3), (3, 1)])
    def test_a_sample_of_one_topic_is_undefined_with_a_warning(self, nx, ny):
        x = vector({str(i): 0.1 * i for i in range(nx)})
        y = vector({f"y{i}": 0.2 * i for i in range(ny)})
        assert unpaired_t_test(x, y) == (None, float(nx + ny - 2), None,
                                         f"unpaired test needs n >= 2 per sample, got {nx} and {ny}")

    def test_pooled_statistic_value(self):
        # hand-computed pooled t for {0,1} vs {2,3}: t = -2 / sqrt(0.5 * 1) = -2.8284
        x = vector({"1": 0.0, "2": 1.0})
        y = vector({"a": 2.0, "b": 3.0})
        res = unpaired_t_test(x, y)
        assert res.t_stat == pytest.approx(-2.0 / math.sqrt(0.5), abs=1e-10)
        assert res.dof == 2


# (t, dof, repr of t_cdf, repr of two_tailed_p), as the two-step Lentz loop gave them
_PINNED_T_CDF = [
    (0.5, 1, "0.6475836176504332", "0.7048327646991337"),
    (-3.2, 1, "0.09641124797922945", "0.1928224959584588"),
    (40.0, 1, "0.9920439100879742", "0.015912179824051575"),
    (-40.0, 1, "0.007956089912025805", "0.015912179824051575"),
    (1.0, 2, "0.7886751345948126", "0.4226497308103747"),
    (-2.5, 2, "0.06480586011075538", "0.1296117202215108"),
    (17.0, 2, "0.9982788244964668", "0.0034423510070664687"),
    (-30.0, 2, "0.0005546313409798288", "0.0011092626819597662"),
    (-25.0, 3, "7.01656949787743e-05", "0.00014033138995750427"),
    (-1.1, 10, "0.14855341103405922", "0.29710682206811834"),
    (3.3, 30, "0.998750346280101", "0.002499307439798093"),
    (0.1, 49, "0.539623823707446", "0.920752352585108"),
    (2.01, 49, "0.9750232706971358", "0.04995345860572842"),
    (-4.7, 49, "1.0731570527530802e-05", "2.146314105511138e-05"),
    (8.0, 49, "0.9999999999044727", "1.9105450554945946e-10"),
    (40.0, 49, "1.0", "0.0"),
    (1.97, 249, "0.9750267171324402", "0.049946565735119686"),
    (-0.33, 249, "0.37083871130954704", "0.7416774226190941"),
    (6.5, 249, "0.9999999997824088", "4.3518233461270484e-10"),
    (-6.5, 249, "2.1759115763899944e-10", "4.3518233461270484e-10"),
    (-40.0, 249, "1.0633769301793175e-110", "0.0"),
    (1.645, 999, "0.9498578005132274", "0.10028439897354513"),
    (-2.58, 999, "0.005010937490830963", "0.010021874981661849"),
    (-12.0, 999, "2.1715519538585192e-31", "0.0"),
    (-39.5, 999, "1.3767728523593917e-206", "0.0"),
    # x = dof / (dof + t^2) is 0: the x == 0.0 return of regularized_incomplete_beta
    (math.inf, 5, "1.0", "0.0"),
    (-math.inf, 5, "0.0", "0.0"),
]


@pytest.mark.parametrize("t, dof, cdf, p", _PINNED_T_CDF)
def test_t_cdf_and_p_are_pinned_to_the_bit(t, dof, cdf, p):
    assert (repr(t_cdf(t, dof)), repr(two_tailed_p(t, dof))) == (cdf, p)


@pytest.mark.parametrize("t, dof, message", [
    (math.nan, 5, "x must be in [0,1], got nan"),  # NaN fails the x range check
    (1.0, 0.5, "dof must be >= 1, got 0.5"),
])
def test_t_cdf_rejects_nan_and_dof_below_one(t, dof, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        t_cdf(t, dof)


# (test, x, y, repr of t_stat, repr of p_value, dof, warning)
_PINNED_T_TESTS = [
    # ordinary paired, and unpaired on samples of unequal size
    (paired_t_test, {"1": 0.31, "2": 0.52, "3": 0.18, "4": 0.77},
     {"1": 0.25, "2": 0.40, "3": 0.22, "4": 0.61},
     "1.7244037467885316", "0.18310168529290127", 3.0, None),
    (unpaired_t_test, {"1": 0.31, "2": 0.52, "3": 0.18},
     {"a": 0.25, "b": 0.40, "c": 0.22, "d": 0.61, "e": 0.05},
     "0.2116484758744015", "0.8393874279745006", 6.0, None),
    # identical vectors
    (paired_t_test, {"1": 0.2, "2": 0.4, "3": 0.9}, {"1": 0.2, "2": 0.4, "3": 0.9},
     "0.0", "1.0", 2.0, None),
    (unpaired_t_test, {"1": 0.2, "2": 0.4, "3": 0.9}, {"1": 0.2, "2": 0.4, "3": 0.9},
     "0.0", "1.0", 4.0, None),
    # zero variance with a nonzero mean difference of each sign
    (paired_t_test, {"1": 0.5, "2": 0.75}, {"1": 0.25, "2": 0.5}, "inf", "0.0", 1.0,
     "zero variance with nonzero mean difference"),
    (paired_t_test, {"1": 0.25, "2": 0.5}, {"1": 0.5, "2": 0.75}, "-inf", "0.0", 1.0,
     "zero variance with nonzero mean difference"),
    (unpaired_t_test, {"1": 1.0, "2": 1.0}, {"a": 0.0, "b": 0.0, "c": 0.0}, "inf", "0.0", 3.0,
     "zero variance in both samples with unequal means"),
    (unpaired_t_test, {"1": 0.0, "2": 0.0, "3": 0.0}, {"a": 1.0, "b": 1.0}, "-inf", "0.0", 3.0,
     "zero variance in both samples with unequal means"),
    # t = 0 with nonzero variance: d = (0.1, -0.1), and means equal over spread samples
    (paired_t_test, {"1": 0.1, "2": 0.0}, {"1": 0.0, "2": 0.1}, "0.0", "1.0", 1.0, None),
    (unpaired_t_test, {"1": 0.1, "2": 0.3}, {"a": 0.3, "b": 0.1}, "0.0", "1.0", 2.0, None),
]


@pytest.mark.parametrize("test, x, y, t_stat, p_value, dof, warning", _PINNED_T_TESTS,
                         ids=[f"{case[0].__name__}-{i}" for i, case in enumerate(_PINNED_T_TESTS)])
def test_t_tests_are_pinned_to_the_bit(test, x, y, t_stat, p_value, dof, warning):
    res = test(vector(x), vector(y))
    assert (repr(res.t_stat), repr(res.p_value), res.dof, res.warning) == (t_stat, p_value, dof, warning)
