"""Per-topic effectiveness scoring: P@k, AP, and nDCG@k.

Conventions follow trec_eval's defaults: a document is relevant when
:class:`~reprokit.trec_io.Qrels` holds it, so unjudged documents count as
non-relevant, and nDCG uses linear gain with a 1/log2(i+1) discount.

:func:`score_run` walks each (run, topic) once, down to the largest cutoff,
for every (measure, cutoff) asked; a single ranking is scored as a one-topic
run. P@k counts the hits at rank <= k. AP@k reads the running sum of
precision at each hit at the last hit <= k, the very float a walk stopped at
k gives. nDCG@k and IDCG@k are the ``math.fsum`` of a prefix slice of the
gain terms, built once per topic in the walk.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Mapping, NamedTuple, Sequence

from .errors import ConfigError, TopicMismatchError
from .trec_io import Qrels, Run

MEASURES = ("P", "AP", "nDCG")


class _MeasureConfig(NamedTuple):
    measure: str  # one of MEASURES
    cutoff: int


class MeasureConfig(_MeasureConfig):  # a NamedTuple cannot define __new__ itself
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.measure not in MEASURES:
            raise ConfigError(f"unknown measure {self.measure!r}")
        if self.cutoff < 1:
            raise ConfigError(f"cutoff must be >= 1, got {self.cutoff}")
        return self

    @property
    def label(self) -> str:
        return f"{self.measure}@{self.cutoff}"


def parse_measure_spec(spec: str) -> MeasureConfig:
    """Parse CLI measure specs like ``P@10``, ``AP``, ``nDCG@1000``.

    Bare ``AP``/``nDCG`` default to cutoff 1000, bare ``P`` to 10. A cutoff
    after ``@`` is ASCII digits only (see :func:`is_cutoff`).
    """
    name, at, cut = spec.partition("@")
    aliases = {"p": "P", "ap": "AP", "ndcg": "nDCG", "map": "AP"}
    measure = aliases.get(name.lower())
    if measure is None:
        raise ConfigError(f"unknown measure spec {spec!r}")
    if at and not is_cutoff(cut):
        raise ConfigError(f"bad cutoff in measure spec {spec!r}")
    return MeasureConfig(measure, int(cut) if at else (10 if measure == "P" else 1000))


def is_cutoff(text: str) -> bool:
    """Nonempty ASCII digits only: ``int()`` also takes ``1_0``, ``+5``, spaces and non-ASCII digits."""
    return text.isascii() and text.isdigit()


class TopicScoreVector(NamedTuple):
    """Per-topic scores of one run under one measure; the mean is the ARP."""

    measure: str
    run_tag: str
    scores: Mapping[str, float]

    @property
    def mean(self) -> float:
        return math.fsum(self.scores.values()) / len(self.scores)

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
    """(rank, grade) of each relevant top-k document, in rank order: those
    that ``grades``, one topic of a :class:`Qrels`, holds."""
    return [(i, g) for i, g in enumerate(map(grades.get, ranking[:k]), start=1) if g]


def _topic_scores(ranking: Sequence[str], grades: Mapping[str, int],
                  cfgs: Sequence[tuple[str, int]]) -> list[float]:
    """The score of one topic under each ``(measure, cutoff)``, in order, each
    read from one walk down to the largest cutoff (see the module docstring)."""
    hits = _judged_hits(ranking, grades, max((k for _, k in cfgs), default=0))
    ranks = [i for i, _ in hits]
    n_rel = len(grades)
    ap_sums, total = [0.0], 0.0  # ap_sums[j]: the AP sum over the first j hits
    for n_hits, i in enumerate(ranks, start=1):
        total += n_hits / i
        ap_sums.append(total)
    dcg_terms = [g / math.log2(i + 1) for i, g in hits]
    ideal = sorted(grades.values(), reverse=True)
    ideal_terms = [g / math.log2(i + 1) for i, g in enumerate(ideal, start=1)]
    out = []
    for measure, k in cfgs:
        j = bisect_right(ranks, k)  # hits at rank <= k
        if measure == "P":
            out.append(j / k)
        elif n_rel == 0:
            raise ValueError("topic has no relevant documents; filter upstream")
        elif measure == "AP":
            out.append(ap_sums[j] / n_rel)
        else:
            out.append(math.fsum(dcg_terms[:j]) / math.fsum(ideal_terms[:k]))
    return out


def score_run(run: Run, qrels: Qrels, topics: tuple[str, ...], cfgs: Sequence[MeasureConfig],
              strict: bool = False, warnings: list[str] | None = None) -> list[TopicScoreVector]:
    """One vector per config, in order, of the run's score on each topic in set order.

    A topic missing from the run scores 0 (error if strict) and warns once.
    """
    missing = [topic for topic in topics if topic not in run.topics]
    if missing and strict:
        raise TopicMismatchError(f"run {run.tag!r} is missing topic {missing[0]}")
    if warnings is not None:
        warnings.extend(f"run {run.tag!r} missing topic {topic}, scored 0" for topic in missing)
    pairs = [(c.measure, c.cutoff) for c in cfgs]
    rows = {topic: _topic_scores(run.topics[topic].doc_ids, qrels.topics.get(topic, {}), pairs)
            if topic in run.topics else [0.0] * len(pairs) for topic in topics}
    return [TopicScoreVector(measure=c.label, run_tag=run.tag,
                             scores={topic: row[i] for topic, row in rows.items()})
            for i, c in enumerate(cfgs)]
