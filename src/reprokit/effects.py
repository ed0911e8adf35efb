"""Replication of the baseline-to-advanced improvement.

Given a baseline run b, an advanced run a, and their re-created counterparts
b' and a', the Effect Ratio (ER) is the ratio of mean per-topic improvements
mean(a' - b') / mean(a - b). The Relative Improvement delta
(Delta RI = RI - RI') complements it with an absolute-score view; plotting
ER against Delta RI places an ideal re-creation at (1, 0).

Each mean is taken over the topics of its own pair, so one formula serves
replicated runs (same collection and topics) and reproduced runs (another
collection, whose topic set may differ in identity and size). A value with a
zero denominator is None, and so is each value computed from it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .effectiveness import TopicScoreVector

class EffectSummary(NamedTuple):
    """The effect block of one measure; ``dist`` is the Euclidean distance of
    (ER, Delta RI) to the perfect re-creation point (1, 0)."""

    er: float | None
    ri: float | None
    ri_prime: float | None
    delta_ri: float | None
    region: str | None
    dist: float | None


def per_topic_improvements(b: TopicScoreVector, a: TopicScoreVector) -> list[float]:
    """Signed advanced-minus-baseline score per topic; may be negative."""
    b.require_aligned(a)
    return [av - bv for av, bv in zip(a.values(), b.values())]


def effect_ratio(b: TopicScoreVector, a: TopicScoreVector,
                 b_prime: TopicScoreVector, a_prime: TopicScoreVector) -> float | None:
    """Mean re-created improvement over mean original improvement; only the
    two means are compared, so the pairs may hold different topics. None where
    a and b have equal means (RI = 0) or their per-topic differences sum to 0."""
    delta_orig = per_topic_improvements(b, a)
    delta_rep = per_topic_improvements(b_prime, a_prime)
    mean_orig = math.fsum(delta_orig) / len(delta_orig)
    if mean_orig == 0 or a.mean == b.mean:
        return None
    return (math.fsum(delta_rep) / len(delta_rep)) / mean_orig


def relative_improvement(b: TopicScoreVector, a: TopicScoreVector) -> float | None:
    """(mean(a) - mean(b)) / mean(b); None where the baseline mean is zero."""
    mb = b.mean
    return None if mb == 0 else (a.mean - mb) / mb


def classify_region(er: float, dri: float) -> str:
    """Quadrant of the ER / Delta-RI plane; exact zeros are boundaries.

    Region 1: ER > 0, dRI > 0; 2: ER < 0, dRI > 0; 3: ER < 0, dRI < 0;
    4: ER > 0, dRI < 0 (the preferred one). Zeros list adjacent regions.
    Only an exact float zero is a boundary: a Delta RI of rounding size, such
    as 1.1e-16 where RI = RI' on the decimal scores, is filed by its sign.
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
    against the original pair ``b``, ``a``; Delta RI is None where RI or RI'
    is, and region and dist where ER or Delta RI is."""
    er = effect_ratio(b, a, b_prime, a_prime)
    ri = relative_improvement(b, a)
    ri_prime = relative_improvement(b_prime, a_prime)
    dri = None if ri is None or ri_prime is None else ri - ri_prime
    if er is None or dri is None:
        return EffectSummary(er, ri, ri_prime, dri, None, None)
    return EffectSummary(er, ri, ri_prime, dri, classify_region(er, dri), math.hypot(er - 1.0, dri))
