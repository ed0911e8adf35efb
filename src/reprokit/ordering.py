"""Document-ordering similarity between two runs.

Kendall's tau (tie-aware), its union and intersection constructions for
rankings over different document sets, and rank-biased overlap (RBO).
Tau over n paired positions reduces to an exact inversion count (Knight's
method), taken with one bitset of the positions seen: O(n) memory and
O(n^2 / 64) machine-word operations. In pure Python this matches or beats a
vectorized O(n log n) merge kernel up to about 10^4 documents per ranking (TREC
runs hold 1000) and falls behind above that, about 1.5x at 2 * 10^4.

A ranking holds each doc id once: the kernels raise ValueError naming a
repeated one. A tau that is undefined (fewer than two paired items, or every
pair tied) is None. All per-topic kernels are pure; per-topic results average
via :func:`mean_over_topics`, which counts the None values it leaves out
instead of silently biasing the mean.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Iterable, Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .trec_io import Run


class _RboParams(NamedTuple):
    phi: float = 0.8
    depth: int = 1000


class RboParams(_RboParams):  # a NamedTuple cannot define __new__ itself
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not 0.0 < self.phi < 1.0:
            raise ConfigError(f"phi must be in (0,1), got {self.phi}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        return self


def _inversions(perm: Sequence[int]) -> int:
    """Pairs i < j with perm[i] > perm[j], for distinct non-negative ints.

    One bitset of the values seen so far: each item adds the count of seen
    values above it. Exact, O(max(perm)) bits of memory, O(n * max(perm) / 64)
    machine-word operations.
    """
    inv = 0
    seen = 0
    for v in perm:
        inv += (seen >> v).bit_count()
        seen |= 1 << v
    return inv


def _tied_pairs(values: Iterable[Hashable]) -> int:
    """Pairs of equal items."""
    return sum(c * (c - 1) for c in Counter(values).values()) // 2


def _tau(p: int, q: int, u: int, v: int) -> float | None:
    denom = math.sqrt((p + q + u) * (p + q + v))
    return (p - q) / denom if denom else None


def _tau_of_positions(y: Sequence[int]) -> float | None:
    """Tau of x = 1..len(y) against distinct positions y: no pair is tied, so
    Q is the inversion count of y and U = V = 0. None below two items."""
    n = len(y)
    q = _inversions(y)
    return _tau(n * (n - 1) // 2 - q, q, 0, 0)


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Tie-aware Kendall correlation over all index pairs.

    (P - Q) / sqrt((P + Q + U) (P + Q + V)) with P/Q concordant/discordant
    pairs and U/V pairs tied in x only / y only; pairs tied in both lists
    enter neither factor. None when a factor is 0: below two items, or one
    list entirely tied. Unequal lengths and NaN are a ValueError.

    Knight's method: after sorting by (x, y), Q is the number of strict
    inversions of y, which is the inversion count of y's stable argsort, and
    the tie counts come from counting equal values. The counts are exact
    integers, so the result does not depend on how they were obtained.
    """
    if len(x) != len(y):
        raise ValueError(f"paired lists differ in length: {len(x)} vs {len(y)}")
    n = len(x)
    if any(a != a for a in x) or any(b != b for b in y):
        raise ValueError("NaN has no order; tau undefined")
    pairs = sorted(zip(x, y))
    ys = [b for _, b in pairs]
    q = _inversions(sorted(range(n), key=ys.__getitem__))
    tied_x = _tied_pairs(x)
    tied_y = _tied_pairs(y)
    tied_xy = _tied_pairs(pairs)
    p = n * (n - 1) // 2 - tied_x - tied_y + tied_xy - q
    return _tau(p, q, tied_x - tied_xy, tied_y - tied_xy)


def _ranks(r_docs: Sequence[str], s_docs: Sequence[str]) -> dict[str, int]:
    """r's 1-based rank of each of its documents; ValueError naming a doc id
    that either ranking holds twice."""
    rank = dict(zip(r_docs, range(1, len(r_docs) + 1)))
    if len(rank) != len(r_docs) or len(set(s_docs)) != len(s_docs):
        doc = next(d for docs in (r_docs, s_docs) for d, c in Counter(docs).items() if c > 1)
        raise ValueError(f"doc id {doc!r} repeated in one ranking")
    return rank


def tau_union(r_docs: Sequence[str], s_docs: Sequence[str]) -> float | None:
    """Kendall's tau between rank positions taken in the union of two rankings.

    The union lists r's documents first, then s's unseen documents in s-order.
    The i-th document of r (x = i) pairs with the i-th document of s; on
    unequal lengths only the common prefix m = min(|r|, |s|) is paired. Equals
    plain tau when both rankings hold the same document set. y keeps the
    union's order: a document's rank in r or, if r lacks it, |r| + its s-rank.
    None when fewer than two positions are paired.
    """
    rank = _ranks(r_docs, s_docs)
    n = len(r_docs)
    return _tau_of_positions([rank.get(d, i) for i, d in enumerate(s_docs[:n], start=n + 1)])


def tau_intersection(r_docs: Sequence[str], s_docs: Sequence[str]) -> tuple[float | None, int]:
    """Tau over the relative orders of shared documents, plus the overlap size.

    Small overlaps make tau noisy, so the overlap is always reported with it
    (tau is None below 2). r's ranks of the shared documents, taken in s-order,
    have the pairs discordant between the two relative orders as their inversions.
    """
    rank = _ranks(r_docs, s_docs)
    y = [rank[d] for d in s_docs if d in rank]
    return _tau_of_positions(y), len(y)


def rbo(r_docs: Sequence[str], s_docs: Sequence[str], params: RboParams) -> float:
    """Truncated rank-biased overlap: (1-phi) * sum phi^(i-1) * A_i.

    A_i is |r[:i] & s[:i]| / i, each shared document counted once: a document
    at rank a in r and b in s is in both depth-i prefixes from i = max(a, b) on.
    Evaluated to d = min(depth, max(|r|, |s|)) with no extrapolation, so the
    neglected tail is at most phi**d: up to 0.8**100 (about 2.0e-10) on
    100-document lists, and two identical 5-document lists score 1 - 0.8**5
    (about 0.672), not 1. An empty list shares nothing, so its RBO is 0. The sum
    to depth k reads only the two depth-k prefixes, so RBO at a cutoff k is
    ``rbo(r_docs[:k], s_docs[:k], params)``.
    """
    rank = _ranks(r_docs, s_docs)
    n = max(len(r_docs), len(s_docs))
    joins = [0] * (n + 1)
    for b, a in enumerate(map(rank.get, s_docs), start=1):
        if a is not None:
            joins[a if a > b else b] += 1
    overlap, total, weight = 0, 0.0, 1.0  # weight is phi^(i-1)
    for i in range(1, min(params.depth, n) + 1):
        overlap += joins[i]
        total += weight * (overlap / i)
        weight *= params.phi
    return (1.0 - params.phi) * total


def mean_over_topics(per_topic: Mapping[str, float | None]) -> tuple[float | None, int]:
    """Average per-topic values; None entries (undefined values) are excluded.

    Returns (mean, number of excluded topics); the mean is None if all are.
    """
    if not per_topic:
        raise ValueError("no topics to average")
    vals = [v for v in per_topic.values() if v is not None]
    return (math.fsum(vals) / len(vals) if vals else None), len(per_topic) - len(vals)


def _doc_lists(r: Run, s: Run, topics: tuple[str, ...]):
    """Both doc lists of each topic of the reference run ``r``; ``()`` where ``s`` lacks it."""
    for topic in topics:
        yield topic, r.topics[topic].doc_ids, s.topics[topic].doc_ids if topic in s.topics else ()


def tau_union_over_topics(r: Run, s: Run, topics: tuple[str, ...]) -> dict[str, float | None]:
    """Per-topic tau-union; None where fewer than two documents are paired."""
    return {topic: tau_union(r_docs, s_docs) for topic, r_docs, s_docs in _doc_lists(r, s, topics)}


def rbo_over_topics(r: Run, s: Run, topics: tuple[str, ...], params: RboParams) -> dict[str, float]:
    return {topic: rbo(r_docs, s_docs, params) for topic, r_docs, s_docs in _doc_lists(r, s, topics)}


def check_cutoffs(cutoffs: Sequence[int]) -> None:
    """Raise ConfigError unless the cutoffs ascend, are all >= 1 and are distinct."""
    if list(cutoffs) != sorted(cutoffs):
        raise ConfigError("cutoffs must be ascending")
    if cutoffs and cutoffs[0] < 1:
        raise ConfigError(f"cutoff must be >= 1, got {cutoffs[0]}")
    for k, next_k in zip(cutoffs, cutoffs[1:]):
        if k == next_k:
            raise ConfigError(f"cutoff {k} given twice")


class FullDepth(NamedTuple):
    """Per-topic values of one run pair on the full lists, and the lists the cutoff sweep truncates."""

    tau: dict[str, float | None]  # tau-union, None on fewer than two paired documents
    rbo: dict[str, float]
    docs: dict[str, tuple[Sequence[str], Sequence[str]]]  # both doc lists of each topic
    params: RboParams


def full_depth(r: Run, s: Run, topics: tuple[str, ...], params: RboParams) -> FullDepth:
    """Tau-union and RBO of each topic on the full lists, and both doc lists for
    :func:`ordering_at_cutoffs`."""
    return FullDepth(tau_union_over_topics(r, s, topics), rbo_over_topics(r, s, topics, params),
                     {topic: (r_docs, s_docs) for topic, r_docs, s_docs in _doc_lists(r, s, topics)},
                     params)


def ordering_at_cutoffs(full: FullDepth, cutoffs: Sequence[int]) -> dict[int, tuple[float | None, float]]:
    """Mean tau-union and mean RBO after truncating both runs of ``full`` to each cutoff.

    At k, a topic's values are those of its two lists truncated to k. They are
    computed anew only on a topic where k truncates one of the two lists; where
    k >= |r| and k >= |s| they are the full-depth values. The mean tau-union
    is None where tau is undefined on every topic, as at cutoff 1.
    """
    check_cutoffs(cutoffs)
    out: dict[int, tuple[float | None, float]] = {}
    for k in cutoffs:
        taus, rbos = dict(full.tau), dict(full.rbo)
        for topic, (r_docs, s_docs) in full.docs.items():
            if k < len(r_docs) or k < len(s_docs):
                r_k, s_k = r_docs[:k], s_docs[:k]
                taus[topic], rbos[topic] = tau_union(r_k, s_k), rbo(r_k, s_k, full.params)
        out[k] = (mean_over_topics(taus)[0], mean_over_topics(rbos)[0])
    return out
