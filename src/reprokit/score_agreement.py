"""Topic-level score agreement between an original and a replicated run.

Delta ARP contrasts mean scores (the "naive" replication check); RMSE is the
root mean square of per-topic score differences and penalizes large per-topic
errors that a mean comparison hides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .effectiveness import MeasureConfig, TopicScoreVector, score_run
from .errors import ConfigError
from .trec_io import Qrels, Run, TopicSet


@dataclass(frozen=True)
class ArpDelta:
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
    return math.sqrt(sum(d * d for d in diffs) / len(diffs))


def rmse_at_cutoffs(r: Run, s: Run, qrels: Qrels, topics: TopicSet,
                    cfg: MeasureConfig, cutoffs: Sequence[int]) -> dict[int, float]:
    """RMSE per cutoff, re-scoring both runs at that cutoff first."""
    if list(cutoffs) != sorted(cutoffs):
        raise ConfigError("cutoffs must be ascending")
    out: dict[int, float] = {}
    for k in cutoffs:
        cut_cfg = MeasureConfig(cfg.measure, k)
        out[k] = rmse(score_run(r, qrels, topics, cut_cfg),
                      score_run(s, qrels, topics, cut_cfg))
    return out
