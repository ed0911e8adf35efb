"""Replication of the baseline-to-advanced improvement.

Given a baseline run b, an advanced run a, and their re-created counterparts
b' and a', the Effect Ratio (ER) is the ratio of mean per-topic improvements
mean(a' - b') / mean(a - b). The Relative Improvement delta
(Delta RI = RI - RI') complements it with an absolute-score view; plotting
ER against Delta RI places an ideal re-creation at (1, 0).

Each mean is taken over the topics of its own pair, so one formula serves
replicated runs (same collection and topics) and reproduced runs (another
collection, whose topic set may differ in identity and size).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .effectiveness import TopicScoreVector
from .errors import UndefinedEffectError

class EffectSummary(NamedTuple):
    """The effect block of one measure; ``dist`` is the Euclidean distance of
    (ER, Delta RI) to the perfect re-creation point (1, 0)."""

    er: float
    ri: float
    ri_prime: float
    delta_ri: float
    region: str
    dist: float


def per_topic_improvements(b: TopicScoreVector, a: TopicScoreVector) -> list[float]:
    """Signed advanced-minus-baseline score per topic; may be negative."""
    b.require_aligned(a)
    return [av - bv for av, bv in zip(a.values(), b.values())]


def effect_ratio(b: TopicScoreVector, a: TopicScoreVector,
                 b_prime: TopicScoreVector, a_prime: TopicScoreVector) -> float:
    """Mean re-created improvement over mean original improvement; only the
    two means are compared, so the pairs may hold different topics."""
    delta_orig = per_topic_improvements(b, a)
    delta_rep = per_topic_improvements(b_prime, a_prime)
    mean_orig = math.fsum(delta_orig) / len(delta_orig)
    if mean_orig == 0:
        raise UndefinedEffectError("mean original improvement is zero; ER undefined")
    return (math.fsum(delta_rep) / len(delta_rep)) / mean_orig


def relative_improvement(b: TopicScoreVector, a: TopicScoreVector) -> float:
    """(mean(a) - mean(b)) / mean(b); requires a nonzero baseline mean."""
    mb = b.mean
    if mb == 0:
        raise UndefinedEffectError(
            f"baseline run {b.run_tag!r} has zero mean score; remove it from "
            "the evaluation (as with topics holding no relevant document)"
        )
    return (a.mean - mb) / mb


def classify_region(er: float, dri: float) -> str:
    """Quadrant of the ER / Delta-RI plane; exact zeros are boundaries.

    Region 1: ER > 0, dRI > 0; 2: ER < 0, dRI > 0; 3: ER < 0, dRI < 0;
    4: ER > 0, dRI < 0 (the preferred one). Zeros list adjacent regions.
    """
    if er != 0 and dri != 0:
        if er > 0:
            return "1" if dri > 0 else "4"
        return "2" if dri > 0 else "3"
    if er == 0 and dri == 0:
        return "boundary[1,2,3,4]"
    if er == 0:
        return "boundary[1,2]" if dri > 0 else "boundary[3,4]"
    return "boundary[1,4]" if er > 0 else "boundary[2,3]"


def summarize_effect(b: TopicScoreVector, a: TopicScoreVector,
                     b_prime: TopicScoreVector, a_prime: TopicScoreVector) -> EffectSummary:
    """The effect block of the re-created pair ``b_prime``, ``a_prime``
    against the original pair ``b``, ``a``."""
    er = effect_ratio(b, a, b_prime, a_prime)
    ri = relative_improvement(b, a)
    ri_prime = relative_improvement(b_prime, a_prime)
    dri = ri - ri_prime
    return EffectSummary(er, ri, ri_prime, dri, classify_region(er, dri), math.hypot(er - 1.0, dri))
