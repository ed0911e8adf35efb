"""Two-tailed Student t-tests over per-topic score vectors.

The t CDF is computed in-house from the regularized incomplete beta
function, evaluated by a modified Lentz continued fraction (absolute error
below 1e-10 over the ranges used here). Paired tests compare two runs on
the same topic set; the unpaired test uses the pooled-variance Student form,
which tolerates different sample sizes better than Welch's variant when the
larger sample also has the larger variance. Both end in one Student-t step,
:func:`_student`, which states the zero-variance rule. Neither test raises:
below two topics (per sample) ``t_stat`` and ``p_value`` are None, with a
``warning``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .effectiveness import TopicScoreVector

_MAX_ITER = 300
_EPS = 3e-16
_FPMIN = 1e-300


class TestResult(NamedTuple):
    t_stat: float | None
    dof: float
    p_value: float | None
    warning: str | None = None


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        # the even then the odd step of the fraction; the odd one's factor tests convergence
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
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
    x = dof / (dof + t * t)
    tail = 0.5 * regularized_incomplete_beta(dof / 2.0, 0.5, x)
    return 1.0 - tail if t > 0 else tail


def two_tailed_p(t: float, dof: float) -> float:
    return 2.0 * (1.0 - t_cdf(abs(t), dof))


def _student(diff: float, var: float, dof: float, warning: str) -> TestResult:
    """t = diff / sqrt(var) with its two-tailed p. Zero variance: a zero
    ``diff`` gives t = 0 and p = 1; any other gives t = +-inf, p = 0 and ``warning``."""
    if var == 0.0:
        if diff == 0.0:
            return TestResult(0.0, dof, 1.0)
        return TestResult(math.copysign(math.inf, diff), dof, 0.0, warning=warning)
    t = diff / math.sqrt(var)
    return TestResult(t, dof, two_tailed_p(t, dof))


def paired_t_test(x: TopicScoreVector, y: TopicScoreVector) -> TestResult:
    """Two-tailed paired test on per-topic differences x_j - y_j."""
    x.require_aligned(y)
    n = len(x.scores)
    if n < 2:
        return TestResult(None, float(n - 1), None, warning=f"paired test needs n >= 2 topics, got {n}")
    d = [a - b for a, b in zip(x.values(), y.values())]
    mean_d = math.fsum(d) / n
    var_d = math.fsum((v - mean_d) ** 2 for v in d) / (n - 1)
    return _student(mean_d, var_d / n, float(n - 1), "zero variance with nonzero mean difference")


def unpaired_t_test(x: TopicScoreVector, y: TopicScoreVector) -> TestResult:
    """Two-tailed pooled-variance Student test; samples may differ in size but
    need two topics each, else the test is undefined."""
    nx, ny = len(x.scores), len(y.scores)
    if nx < 2 or ny < 2:
        return TestResult(None, float(nx + ny - 2), None,
                          warning=f"unpaired test needs n >= 2 per sample, got {nx} and {ny}")
    xv, yv = x.values(), y.values()
    mx, my = math.fsum(xv) / nx, math.fsum(yv) / ny
    ssx = math.fsum((v - mx) ** 2 for v in xv)
    ssy = math.fsum((v - my) ** 2 for v in yv)
    dof = float(nx + ny - 2)
    pooled = (ssx + ssy) / dof
    return _student(mx - my, pooled * (1.0 / nx + 1.0 / ny), dof,
                    "zero variance in both samples with unequal means")
