"""Topic-level score agreement between an original and a replicated run.

Delta ARP contrasts mean scores (the "naive" replication check); RMSE is the
root mean square of per-topic score differences and penalizes large per-topic
errors that a mean comparison hides.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .effectiveness import MeasureConfig, TopicScoreVector


def delta_arp(original: TopicScoreVector, replicated: TopicScoreVector) -> float:
    """Signed difference in mean score; reports give its absolute value as ``delta_arp``."""
    original.require_aligned(replicated)
    return original.mean - replicated.mean


def rmse(original: TopicScoreVector, replicated: TopicScoreVector) -> float:
    original.require_aligned(replicated)
    diffs = [a - b for a, b in zip(original.values(), replicated.values())]
    return math.sqrt(math.fsum(d * d for d in diffs) / len(diffs))


def rmse_at_cutoffs(original: Mapping[MeasureConfig, TopicScoreVector],
                    replicated: Mapping[MeasureConfig, TopicScoreVector],
                    measure: str, cutoffs: Sequence[int]) -> dict[int, float]:
    """RMSE of ``measure`` at each cutoff, read from vectors already scored at
    those cutoffs (keyed by config, as one :func:`score_run` call gives them)."""
    cfgs = {k: MeasureConfig(measure, k) for k in cutoffs}
    return {k: rmse(original[c], replicated[c]) for k, c in cfgs.items()}
