"""Two-tailed Student t-tests over per-topic score vectors.

The t CDF is computed in-house from the regularized incomplete beta
function, evaluated by a modified Lentz continued fraction (absolute error
below 1e-10 over the ranges used here). Paired tests compare two runs on
the same topic set; the unpaired test uses the pooled-variance Student form,
which tolerates different sample sizes better than Welch's variant when the
larger sample also has the larger variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .effectiveness import TopicScoreVector

_MAX_ITER = 300
_EPS = 3e-16
_FPMIN = 1e-300


@dataclass(frozen=True)
class TestResult:
    t_stat: float
    dof: float
    p_value: float
    warning: str | None = None


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta continued fraction did not converge (a={a}, b={b}, x={x})")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for 0 <= x <= 1, a > 0, b > 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0,1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    # use the fraction on whichever side converges fastest
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_cdf(t: float, dof: float) -> float:
    """Student-t cumulative probability P(T <= t) with dof degrees of freedom."""
    if dof < 1:
        raise ValueError(f"dof must be >= 1, got {dof}")
    if t == 0.0:
        return 0.5
    x = dof / (dof + t * t)
    tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def two_tailed_p(t: float, dof: float) -> float:
    return 2.0 * (1.0 - t_cdf(abs(t), dof))


def paired_t_test(x: TopicScoreVector, y: TopicScoreVector) -> TestResult:
    """Two-tailed paired test on per-topic differences x_j - y_j.

    Zero-variance differences get a defined outcome instead of an error so
    batch reports never abort: identical vectors -> p = 1, constant nonzero
    shift -> p = 0 with a warning.
    """
    x.require_aligned(y)
    n = len(x.scores)
    if n < 2:
        raise ValueError(f"paired test needs n >= 2 topics, got {n}")
    d = [a - b for a, b in zip(x.values(), y.values())]
    mean_d = sum(d) / n
    var_d = sum((v - mean_d) ** 2 for v in d) / (n - 1)
    dof = float(n - 1)
    if var_d == 0.0:
        if mean_d == 0.0:
            return TestResult(0.0, dof, 1.0)
        return TestResult(math.inf if mean_d > 0 else -math.inf, dof, 0.0,
                          warning="zero variance with nonzero mean difference")
    t = mean_d / math.sqrt(var_d / n)
    return TestResult(t, dof, two_tailed_p(t, dof))


def unpaired_t_test(x: TopicScoreVector, y: TopicScoreVector) -> TestResult:
    """Two-tailed pooled-variance Student test; samples may differ in size."""
    nx, ny = len(x.scores), len(y.scores)
    if nx < 2 or ny < 2:
        raise ValueError(f"unpaired test needs n >= 2 per sample, got {nx} and {ny}")
    xv, yv = x.values(), y.values()
    mx, my = sum(xv) / nx, sum(yv) / ny
    ssx = sum((v - mx) ** 2 for v in xv)
    ssy = sum((v - my) ** 2 for v in yv)
    dof = float(nx + ny - 2)
    pooled = (ssx + ssy) / dof
    if pooled == 0.0:
        if mx == my:
            return TestResult(0.0, dof, 1.0)
        return TestResult(math.inf if mx > my else -math.inf, dof, 0.0,
                          warning="zero variance in both samples with unequal means")
    t = (mx - my) / math.sqrt(pooled * (1.0 / nx + 1.0 / ny))
    return TestResult(t, dof, two_tailed_p(t, dof))
