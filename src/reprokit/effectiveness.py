"""Per-topic effectiveness scoring: P@k, AP, and nDCG@k.

Conventions follow trec_eval: unjudged documents count as non-relevant,
binarization for P@k/AP is grade >= threshold (default 1), nDCG uses linear
gain with a 1/log2(i+1) discount. An exponential-gain nDCG variant is
available behind a config switch but is non-default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ConfigError, TopicMismatchError
from .trec_io import Qrels, Run, TopicSet

MEASURES = ("P", "AP", "nDCG")


@dataclass(frozen=True)
class MeasureConfig:
    measure: str  # one of MEASURES
    cutoff: int
    rel_threshold: int = 1
    exponential_gain: bool = False

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ConfigError(f"unknown measure {self.measure!r}")
        if self.cutoff < 1:
            raise ConfigError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.rel_threshold < 1:
            raise ConfigError(f"relevance threshold must be >= 1, got {self.rel_threshold}")

    @property
    def label(self) -> str:
        return f"{self.measure}@{self.cutoff}"

    def with_cutoff(self, cutoff: int) -> "MeasureConfig":
        return MeasureConfig(self.measure, cutoff, self.rel_threshold, self.exponential_gain)


def parse_measure_spec(spec: str) -> MeasureConfig:
    """Parse CLI measure specs like ``P@10``, ``AP``, ``nDCG@1000``.

    Bare ``AP``/``nDCG`` default to cutoff 1000, bare ``P`` to 10.
    """
    name, _, cut = spec.partition("@")
    aliases = {"p": "P", "ap": "AP", "ndcg": "nDCG", "map": "AP"}
    measure = aliases.get(name.lower())
    if measure is None:
        raise ConfigError(f"unknown measure spec {spec!r}")
    if cut:
        try:
            cutoff = int(cut)
        except ValueError:
            raise ConfigError(f"bad cutoff in measure spec {spec!r}") from None
    else:
        cutoff = 10 if measure == "P" else 1000
    return MeasureConfig(measure, cutoff)


@dataclass(frozen=True)
class TopicScoreVector:
    """Per-topic scores of one run under one measure; the mean is the ARP."""

    measure: str
    run_tag: str
    scores: Mapping[str, float]

    @property
    def mean(self) -> float:
        vals = list(self.scores.values())
        return sum(vals) / len(vals)

    @property
    def topic_ids(self) -> tuple[str, ...]:
        return tuple(self.scores)

    def values(self) -> list[float]:
        return list(self.scores.values())

    def aligned_with(self, other: "TopicScoreVector") -> bool:
        return self.topic_ids == other.topic_ids and self.measure == other.measure

    def require_aligned(self, other: "TopicScoreVector") -> None:
        if not self.aligned_with(other):
            raise TopicMismatchError(
                f"score vectors are not aligned: "
                f"({self.measure}, {len(self.scores)} topics) vs "
                f"({other.measure}, {len(other.scores)} topics)"
            )


def _judged_hits(ranking: Sequence[str], grades: Mapping[str, int],
                 k: int | None) -> list[tuple[int, int]]:
    """(rank, grade) of each top-k document with a nonzero grade, in rank order.

    An unjudged or grade-0 document adds no term, or a +0.0 term, to every
    sum below, so leaving it out changes no score.
    """
    return [(i, g) for i, g in enumerate(map(grades.get, ranking[:k]), start=1) if g]


def precision_at_k(ranking: Sequence[str], grades: Mapping[str, int], k: int,
                   threshold: int = 1) -> float:
    """Fraction of the top-k that is relevant; short lists pad as non-relevant."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = sum(1 for _, g in _judged_hits(ranking, grades, k) if g >= threshold)
    return hits / k


def average_precision(ranking: Sequence[str], grades: Mapping[str, int],
                      threshold: int = 1, cutoff: int | None = None) -> float:
    """Mean of precision at the rank of each relevant retrieved document.

    Normalized by the total number of relevant documents R; relevant
    documents not retrieved (or beyond the cutoff) contribute 0.
    """
    n_rel = sum(1 for g in grades.values() if g >= threshold)
    if n_rel == 0:
        raise ValueError("topic has no relevant documents; filter upstream")
    hits = 0
    total = 0.0
    for i, g in _judged_hits(ranking, grades, cutoff):
        if g >= threshold:
            hits += 1
            total += hits / i
    return total / n_rel


def ndcg_at_k(ranking: Sequence[str], grades: Mapping[str, int], k: int,
              exponential_gain: bool = False) -> float:
    """DCG@k over ideal DCG@k; ideal ranking sorts the positive grades descending.

    Grades are >= 0, so grade-0 documents add nothing to either sum.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")

    def gain(g: int) -> float:
        return (2.0 ** g - 1.0) if exponential_gain else float(g)

    dcg = sum(gain(g) / math.log2(i + 1) for i, g in _judged_hits(ranking, grades, k))
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum(gain(g) / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0:
        raise ValueError("topic has no relevant documents; filter upstream")
    return dcg / idcg


def score_topic(ranking: Sequence[str], grades: Mapping[str, int],
                cfg: MeasureConfig) -> float:
    if cfg.measure == "P":
        return precision_at_k(ranking, grades, cfg.cutoff, cfg.rel_threshold)
    if cfg.measure == "AP":
        return average_precision(ranking, grades, cfg.rel_threshold, cfg.cutoff)
    return ndcg_at_k(ranking, grades, cfg.cutoff, cfg.exponential_gain)


def score_run(run: Run, qrels: Qrels, topics: TopicSet, cfg: MeasureConfig,
              strict: bool = False,
              warnings: list[str] | None = None) -> TopicScoreVector:
    """Score one run over a topic set, one score per topic in set order.

    A topic missing from the run scores 0 with a warning (error if strict).
    """
    scores: dict[str, float] = {}
    for topic in topics:
        if topic not in run.topics:
            if strict:
                raise TopicMismatchError(f"run {run.tag!r} is missing topic {topic}")
            if warnings is not None:
                warnings.append(f"run {run.tag!r} missing topic {topic}, scored 0")
            scores[topic] = 0.0
            continue
        scores[topic] = score_topic(run.topics[topic].doc_ids, qrels.topics.get(topic, {}), cfg)
    return TopicScoreVector(measure=cfg.label, run_tag=run.tag, scores=scores)
