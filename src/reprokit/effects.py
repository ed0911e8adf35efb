"""Replication of the baseline-to-advanced improvement.

Given a baseline run b, an advanced run a, and their re-created counterparts
b' and a', the Effect Ratio (ER) is the ratio of mean per-topic improvements
mean(a' - b') / mean(a - b). The Relative Improvement delta
(Delta RI = RI - RI') complements it with an absolute-score view; plotting
ER against Delta RI places an ideal re-creation at (1, 0).

In replicability mode all four runs live on the same collection and share a
topic set. In reproducibility mode the re-created pair lives on a different
collection; only mean improvements cross the boundary, so topic sets may
differ in identity and size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .effectiveness import TopicScoreVector
from .errors import UndefinedEffectError

@dataclass(frozen=True)
class EffectInput:
    b: TopicScoreVector
    a: TopicScoreVector
    b_prime: TopicScoreVector
    a_prime: TopicScoreVector
    mode: str = "replicability"  # or "reproducibility"

    def __post_init__(self):
        if self.mode not in ("replicability", "reproducibility"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.b.require_aligned(self.a)
        self.b_prime.require_aligned(self.a_prime)
        if self.mode == "replicability":
            self.b.require_aligned(self.b_prime)


@dataclass(frozen=True)
class EffectSummary:
    run_id: str
    measure: str
    er: float
    ri: float
    ri_prime: float
    delta_ri: float
    region: str

    @property
    def distance_to_ideal(self) -> float:
        """Euclidean distance to the perfect re-creation point (1, 0)."""
        return math.hypot(self.er - 1.0, self.delta_ri)


def per_topic_improvements(b: TopicScoreVector, a: TopicScoreVector) -> list[float]:
    """Signed advanced-minus-baseline score per topic; may be negative."""
    b.require_aligned(a)
    return [av - bv for av, bv in zip(a.values(), b.values())]


def effect_ratio(inp: EffectInput) -> float:
    """Mean re-created improvement over mean original improvement.

    Works with different topic counts in reproducibility mode since only
    the two means are compared.
    """
    delta_orig = per_topic_improvements(inp.b, inp.a)
    delta_rep = per_topic_improvements(inp.b_prime, inp.a_prime)
    mean_orig = sum(delta_orig) / len(delta_orig)
    if mean_orig == 0:
        raise UndefinedEffectError("mean original improvement is zero; ER undefined")
    return (sum(delta_rep) / len(delta_rep)) / mean_orig


def relative_improvement(b: TopicScoreVector, a: TopicScoreVector) -> float:
    """(mean(a) - mean(b)) / mean(b); requires a nonzero baseline mean."""
    mb = b.mean
    if mb == 0:
        raise UndefinedEffectError(
            f"baseline run {b.run_tag!r} has zero mean score; remove it from "
            "the evaluation (as with topics holding no relevant document)"
        )
    return (a.mean - mb) / mb


def delta_ri(inp: EffectInput) -> float:
    """RI - RI'; 0 means the relative improvements agree, > 0 that the
    re-created one is smaller."""
    return relative_improvement(inp.b, inp.a) - relative_improvement(inp.b_prime, inp.a_prime)


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


def summarize_effect(inp: EffectInput) -> EffectSummary:
    """ER, RI, RI' and Delta RI of the re-created run ``inp.a_prime`` under
    the measure of ``inp.a``."""
    er = effect_ratio(inp)
    ri = relative_improvement(inp.b, inp.a)
    ri_prime = relative_improvement(inp.b_prime, inp.a_prime)
    dri = ri - ri_prime
    return EffectSummary(
        run_id=inp.a_prime.run_tag,
        measure=inp.a.measure,
        er=er,
        ri=ri,
        ri_prime=ri_prime,
        delta_ri=dri,
        region=classify_region(er, dri),
    )


PLOT_HEADER = "run,measure,er,delta_ri,region,dist"


def er_ri_plot_data(summaries: Sequence[EffectSummary]) -> list[str]:
    """CSV rows for external ER-vs-DeltaRI plotting, input order preserved."""
    rows = [PLOT_HEADER]
    for s in summaries:
        rows.append(
            f"{s.run_id},{s.measure},{s.er:.6f},{s.delta_ri:.6f},"
            f"{s.region},{s.distance_to_ideal:.6f}"
        )
    return rows
