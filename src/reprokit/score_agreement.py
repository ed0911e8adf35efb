"""Topic-level score agreement between an original and a replicated run.

Delta ARP contrasts mean scores (the "naive" replication check); RMSE is the
root mean square of per-topic score differences and penalizes large per-topic
errors that a mean comparison hides.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .effectiveness import MeasureConfig, TopicScoreVector


class ArpDelta(NamedTuple):
    signed: float
    absolute: float


def delta_arp(original: TopicScoreVector, replicated: TopicScoreVector) -> ArpDelta:
    """Difference in mean score; the absolute form is the canonical output."""
    original.require_aligned(replicated)
    signed = original.mean - replicated.mean
    return ArpDelta(signed=signed, absolute=abs(signed))


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
