"""Measures for quantifying how well a system-oriented IR experiment was
replicated (same collection) or reproduced (new collection).

The pipeline runs bottom-up: TREC run/qrels parsing, per-topic effectiveness
scoring, then comparison at four levels of granularity: document ordering
(Kendall's tau union/intersection, RBO), per-topic scores (RMSE, delta ARP),
overall effect (Effect Ratio, Delta RI), and statistical difference (paired
and unpaired t-tests).
"""

from .effectiveness import MeasureConfig, TopicScoreVector, parse_measure_spec, score_run
from .effects import EffectSummary, classify_region, effect_ratio, summarize_effect
from .ordering import RboParams, kendall_tau, rbo, tau_intersection, tau_union
from .score_agreement import delta_arp, rmse
from .stats import TestResult, paired_t_test, t_cdf, unpaired_t_test
from .trec_io import Qrels, Run, load_qrels, load_run, parse_qrels, parse_run, topic_intersection

__version__ = "0.1.0"

__all__ = [
    "MeasureConfig",
    "TopicScoreVector",
    "parse_measure_spec",
    "score_run",
    "EffectSummary",
    "classify_region",
    "effect_ratio",
    "summarize_effect",
    "RboParams",
    "kendall_tau",
    "rbo",
    "tau_intersection",
    "tau_union",
    "delta_arp",
    "rmse",
    "TestResult",
    "paired_t_test",
    "t_cdf",
    "unpaired_t_test",
    "Qrels",
    "Run",
    "load_qrels",
    "load_run",
    "parse_qrels",
    "parse_run",
    "topic_intersection",
]
