"""Per-topic effectiveness scoring: P@k, AP, and nDCG@k.

Conventions follow trec_eval's defaults: unjudged documents count as
non-relevant, a document is relevant for P@k and AP when its grade is >= 1,
and nDCG uses linear gain with a 1/log2(i+1) discount.
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

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ConfigError(f"unknown measure {self.measure!r}")
        if self.cutoff < 1:
            raise ConfigError(f"cutoff must be >= 1, got {self.cutoff}")

    @property
    def label(self) -> str:
        return f"{self.measure}@{self.cutoff}"


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

    def values(self) -> list[float]:
        return list(self.scores.values())

    def require_aligned(self, other: "TopicScoreVector") -> None:
        """Raise unless both vectors score the same measure on the same topics
        in the same order; a different order would pair the wrong topics."""
        if self.measure != other.measure or tuple(self.scores) != tuple(other.scores):
            raise TopicMismatchError(
                f"score vectors are not aligned: "
                f"({self.measure}, {len(self.scores)} topics) vs "
                f"({other.measure}, {len(other.scores)} topics)"
            )


def _judged_hits(ranking: Sequence[str], grades: Mapping[str, int],
                 k: int | None) -> list[tuple[int, int]]:
    """(rank, grade) of each relevant top-k document, in rank order.

    Grades are >= 0 (:class:`Qrels`), so a nonzero grade is a relevant
    document; an unjudged or grade-0 one adds no term to any sum below.
    """
    return [(i, g) for i, g in enumerate(map(grades.get, ranking[:k]), start=1) if g]


def precision_at_k(ranking: Sequence[str], grades: Mapping[str, int], k: int) -> float:
    """Fraction of the top-k that is relevant; short lists pad as non-relevant."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return len(_judged_hits(ranking, grades, k)) / k


def average_precision(ranking: Sequence[str], grades: Mapping[str, int],
                      cutoff: int | None = None) -> float:
    """Mean of precision at the rank of each relevant retrieved document.

    Normalized by the total number of relevant documents R; relevant
    documents not retrieved (or beyond the cutoff) contribute 0.
    """
    n_rel = sum(1 for g in grades.values() if g > 0)
    if n_rel == 0:
        raise ValueError("topic has no relevant documents; filter upstream")
    total = 0.0
    for hits, (i, _) in enumerate(_judged_hits(ranking, grades, cutoff), start=1):
        total += hits / i
    return total / n_rel


def ndcg_at_k(ranking: Sequence[str], grades: Mapping[str, int], k: int) -> float:
    """DCG@k over ideal DCG@k with linear gain; the ideal ranking sorts the
    positive grades descending."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dcg = sum(g / math.log2(i + 1) for i, g in _judged_hits(ranking, grades, k))
    ideal = sorted((g for g in grades.values() if g > 0), reverse=True)[:k]
    idcg = sum(g / math.log2(i + 1) for i, g in enumerate(ideal, start=1))
    if idcg == 0:
        raise ValueError("topic has no relevant documents; filter upstream")
    return dcg / idcg


def score_topic(ranking: Sequence[str], grades: Mapping[str, int],
                cfg: MeasureConfig) -> float:
    if cfg.measure == "P":
        return precision_at_k(ranking, grades, cfg.cutoff)
    if cfg.measure == "AP":
        return average_precision(ranking, grades, cfg.cutoff)
    return ndcg_at_k(ranking, grades, cfg.cutoff)


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
