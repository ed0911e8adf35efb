"""Document-ordering similarity between two runs.

Kendall's tau (tie-aware), its union and intersection constructions for
rankings over different document sets, and rank-biased overlap (RBO).
Tau over n paired positions reduces to an exact inversion count (Knight's
method), taken with one bitset of the positions seen: O(n) memory and
O(n^2 / 64) machine-word operations. In pure Python this matches or beats a
vectorized O(n log n) merge kernel up to about 10^4 documents per ranking (TREC
runs hold 1000) and falls behind above that, about 1.5x at 2 * 10^4.

All per-topic kernels are pure; per-topic results average via
:func:`mean_over_topics`, which excludes degenerate-tie topics explicitly
instead of silently biasing the mean.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import ConfigError, DegenerateTiesError, OverlapTooSmallError
from .trec_io import Run, TopicSet


@dataclass(frozen=True)
class RboParams:
    phi: float = 0.8
    depth: int = 1000

    def __post_init__(self):
        if not 0.0 < self.phi < 1.0:
            raise ConfigError(f"phi must be in (0,1), got {self.phi}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")


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


def _tau(p: int, q: int, u: int, v: int) -> float:
    denom = math.sqrt((p + q + u) * (p + q + v))
    if denom == 0:
        raise DegenerateTiesError("all pairs tied in one list; tau undefined")
    return (p - q) / denom


def _tau_of_positions(y: Sequence[int]) -> float:
    """Tau of x = 1..len(y) against distinct positions y: no pair is tied, so
    Q is the inversion count of y and U = V = 0."""
    n = len(y)
    if n < 2:
        raise ValueError("need at least 2 paired items")
    q = _inversions(y)
    return _tau(n * (n - 1) // 2 - q, q, 0, 0)


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Tie-aware Kendall correlation over all index pairs.

    (P - Q) / sqrt((P + Q + U) (P + Q + V)) with P/Q concordant/discordant
    pairs and U/V pairs tied in x only / y only; pairs tied in both lists
    enter neither factor.

    Knight's method: after sorting by (x, y), Q is the number of strict
    inversions of y, which is the inversion count of y's stable argsort, and
    the tie counts come from counting equal values. The counts are exact
    integers, so the result does not depend on how they were obtained.
    """
    if len(x) != len(y):
        raise ValueError(f"paired lists differ in length: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        raise ValueError("need at least 2 paired items")
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


def tau_union(r_docs: Sequence[str], s_docs: Sequence[str]) -> float:
    """Kendall's tau between rank positions taken in the union of two rankings.

    The union lists r's documents first, then s's unseen documents in s-order.
    The i-th document of r pairs with the i-th document of s; on unequal
    lengths only the common prefix min(|r|, |s|) is paired. Equals plain tau
    when both rankings hold the same document set.
    """
    if not r_docs or not s_docs:
        raise ValueError("rankings must be nonempty")
    pos = {doc: i for i, doc in enumerate(r_docs, start=1)}
    r_distinct = len(pos) == len(r_docs)
    nxt = len(r_docs) + 1
    for doc in s_docs:
        if doc not in pos:
            pos[doc] = nxt
            nxt += 1
    m = min(len(r_docs), len(s_docs))
    y = [pos[d] for d in s_docs[:m]]
    if r_distinct and len(set(y)) == m:  # x = 1..m and no ties
        return _tau_of_positions(y)
    return kendall_tau([pos[d] for d in r_docs[:m]], y)


def tau_intersection(r_docs: Sequence[str], s_docs: Sequence[str]) -> tuple[float, int]:
    """Tau over the relative orders of shared documents, plus the overlap size.

    Small overlaps make tau noisy, so the overlap is always reported with it.
    """
    shared = set(r_docs) & set(s_docs)
    if len(shared) < 2:
        raise OverlapTooSmallError(f"overlap too small: {len(shared)} shared documents")
    r_order = [d for d in r_docs if d in shared]
    s_pos = {d: i for i, d in enumerate(s_docs, start=1) if d in shared}
    y = [s_pos[d] for d in r_order]
    if len(r_order) == len(shared):  # no duplicate doc, so no tied position
        return _tau_of_positions(y), len(shared)
    return kendall_tau(range(1, len(y) + 1), y), len(shared)


def _rbo_sums(r_docs: Sequence[str], s_docs: Sequence[str],
              params: RboParams) -> list[float]:
    """Running sums of phi^(i-1) * A_i for i = 1..min(depth, max(|r|, |s|)),
    where A_i is the prefix-overlap proportion at depth i."""
    if not r_docs or not s_docs:
        raise ValueError("rankings must be nonempty")
    d = min(params.depth, max(len(r_docs), len(s_docs)))
    seen_r: set[str] = set()
    seen_s: set[str] = set()
    overlap = 0
    total = 0.0
    weight = 1.0  # phi^(i-1)
    sums = []
    for i in range(1, d + 1):
        # add r's doc first so an identical doc at depth i counts exactly once
        if i <= len(r_docs):
            doc = r_docs[i - 1]
            if doc in seen_s:
                overlap += 1
            seen_r.add(doc)
        if i <= len(s_docs):
            doc = s_docs[i - 1]
            if doc in seen_r:
                overlap += 1
            seen_s.add(doc)
        total += weight * (overlap / i)
        sums.append(total)
        weight *= params.phi
    return sums


def rbo(r_docs: Sequence[str], s_docs: Sequence[str], params: RboParams) -> float:
    """Truncated rank-biased overlap: (1-phi) * sum phi^(i-1) * A_i.

    A_i is the prefix-overlap proportion at depth i. Evaluated to
    d = min(depth, max(|r|, |s|)) with no extrapolation; at phi = 0.8 and
    depth >= 1000 the neglected tail is below 0.8**1000.
    """
    return (1.0 - params.phi) * _rbo_sums(r_docs, s_docs, params)[-1]


def mean_over_topics(per_topic: Mapping[str, float | None]) -> tuple[float, int]:
    """Average per-topic values; None entries (degenerate ties) are excluded.

    Returns (mean, number of excluded topics).
    """
    if not per_topic:
        raise ValueError("no topics to average")
    vals = [v for v in per_topic.values() if v is not None]
    excluded = len(per_topic) - len(vals)
    if not vals:
        raise DegenerateTiesError("tau degenerate on every topic")
    return sum(vals) / len(vals), excluded


def _truncated(r: Run, s: Run, topics: TopicSet, cutoff: int | None):
    for topic in topics:
        yield topic, r.topics[topic].doc_ids[:cutoff], s.topics[topic].doc_ids[:cutoff]


def tau_union_over_topics(r: Run, s: Run, topics: TopicSet,
                          cutoff: int | None = None) -> dict[str, float | None]:
    """Per-topic tau-union; None where tau is undefined: fewer than 2 paired
    items (e.g. at cutoff 1) or degenerate ties. Any other error propagates."""
    out: dict[str, float | None] = {}
    for topic, r_docs, s_docs in _truncated(r, s, topics, cutoff):
        if min(len(r_docs), len(s_docs)) < 2:
            out[topic] = None
            continue
        try:
            out[topic] = tau_union(r_docs, s_docs)
        except DegenerateTiesError:
            out[topic] = None
    return out


def rbo_over_topics(r: Run, s: Run, topics: TopicSet, params: RboParams,
                    cutoff: int | None = None) -> dict[str, float]:
    return {topic: rbo(r_docs, s_docs, params)
            for topic, r_docs, s_docs in _truncated(r, s, topics, cutoff)}


def ordering_at_cutoffs(r: Run, s: Run, topics: TopicSet, cutoffs: Sequence[int],
                        params: RboParams) -> dict[int, tuple[float, float]]:
    """Mean tau-union and mean RBO after truncating both runs to each cutoff.

    RBO over the first k documents of each run is the running sum of the
    full lists at depth min(depth, max(|r[:k]|, |s[:k]|)), so each topic's
    sums are computed once, to the deepest cutoff.
    """
    if list(cutoffs) != sorted(cutoffs):
        raise ConfigError("cutoffs must be ascending")
    if not cutoffs:
        return {}
    if cutoffs[0] < 1:
        raise ConfigError(f"cutoffs must be >= 1, got {cutoffs[0]}")
    prefixes = {
        topic: (len(r_docs), len(s_docs), _rbo_sums(r_docs, s_docs, params))
        for topic, r_docs, s_docs in _truncated(r, s, topics, cutoffs[-1])
    }
    out: dict[int, tuple[float | None, float]] = {}
    for k in cutoffs:
        try:
            tau_mean, _ = mean_over_topics(tau_union_over_topics(r, s, topics, cutoff=k))
        except DegenerateTiesError:
            tau_mean = None  # tau undefined everywhere, e.g. at cutoff 1
        rbo_at_k = {
            topic: (1.0 - params.phi)
            * sums[min(params.depth, max(min(k, r_len), min(k, s_len))) - 1]
            for topic, (r_len, s_len, sums) in prefixes.items()
        }
        rbo_mean, _ = mean_over_topics(rbo_at_k)
        out[k] = (tau_mean, rbo_mean)
    return out
