"""Seeded synthetic TREC runs and qrels for the benchmark workloads.

Only the standard library and numpy are used and nothing is downloaded. Each
collection draws, per topic, a pool of candidate documents with graded
relevance; a run scores the pool as ``signal * grade + noise`` and keeps the
top ``depth`` documents. The inputs deliberately cover the branches the
program takes:

- scores are quantized to two decimals, so tied scores exercise the doc-id
  tie-break of canonicalization, and the file lists ties in ascending doc-id
  order while the canonical order is descending;
- most of each pool is unjudged, so runs retrieve unjudged documents;
- a few topics have judgments but no relevant document, so
  ``topic_intersection`` drops them;
- a re-created run adds noise to the original scores (swaps) and replaces a
  share of the original documents with pool documents the original did not
  retrieve, so the overlap is below the depth;
- correlate candidates are perturbed by increasing amounts, so the per-measure
  rankings of the candidates are not all ties.

The generator keeps every run in memory as it was written, so the verifier
can recompute expected values without parsing the files back.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

SCORE_SCALE = 100  # scores are written as integers / 100, hence many ties
NO_RELEVANT_SHARE = 0.06
BASE_SCORE = 20.0  # keeps every written score positive


@dataclass
class Collection:
    """Per topic: pool doc ids, relevance grade of each pool doc, and which
    pool docs are judged (graded docs are always judged)."""

    topics: list[str]
    pools: dict[str, np.ndarray]  # topic -> doc ids (str array)
    grades: dict[str, np.ndarray]  # topic -> grade per pool doc
    judged: dict[str, np.ndarray]  # topic -> bool per pool doc
    depth: int


@dataclass
class GenRun:
    """A run as written: per topic, pool indices and integer scores."""

    tag: str
    collection: Collection
    picks: dict[str, np.ndarray] = field(default_factory=dict)
    scores: dict[str, np.ndarray] = field(default_factory=dict)
    noise: dict[str, np.ndarray] = field(default_factory=dict)  # latent, for re-creation

    @property
    def lines(self) -> int:
        return sum(len(p) for p in self.picks.values())


def make_collection(rng: np.random.Generator, n_topics: int, depth: int,
                    first_topic: int) -> Collection:
    topics = [str(first_topic + i) for i in range(n_topics)]
    no_rel = set(rng.choice(n_topics, size=max(1, round(NO_RELEVANT_SHARE * n_topics)),
                            replace=False).tolist())
    pool_size = depth + depth // 2
    pools, grades, judged = {}, {}, {}
    for i, topic in enumerate(topics):
        # 7-digit ids make string order equal numeric order; drawn sparse so
        # neighbouring ids are unrelated documents
        nums = np.unique(rng.integers(0, 10_000_000, size=pool_size + 64))[:pool_size]
        nums = rng.permutation(nums)
        pools[topic] = np.array([f"D{n:07d}" for n in nums])
        g = np.zeros(pool_size, dtype=np.int64)
        if i not in no_rel:
            n_rel = int(rng.integers(max(3, depth // 100), max(12, depth // 16)))
            rel_idx = rng.choice(pool_size, size=n_rel, replace=False)
            g[rel_idx] = rng.choice([1, 1, 2], size=n_rel)
        grades[topic] = g
        j = rng.random(pool_size) < 0.25
        j[g > 0] = True
        if i in no_rel:
            j[: max(2, depth // 50)] = True  # judged, all non-relevant
        judged[topic] = j
    return Collection(topics, pools, grades, judged, depth)


def _take_top(coll: Collection, topic: str, latent: np.ndarray,
              allowed: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Pool indices of the top-``depth`` docs by latent score, with integer
    scores, in file order: score descending, doc id ascending on ties."""
    q = np.round(latent * SCORE_SCALE).astype(np.int64)
    idx = np.arange(len(q)) if allowed is None else np.flatnonzero(allowed)
    docs = coll.pools[topic][idx]
    order = np.lexsort((docs, -q[idx]))[: coll.depth]
    return idx[order], q[idx[order]]


def make_run(rng: np.random.Generator, coll: Collection, tag: str, signal: float) -> GenRun:
    run = GenRun(tag, coll)
    for topic in coll.topics:
        noise = rng.normal(0.0, 1.0, size=len(coll.pools[topic]))
        run.noise[topic] = noise
        run.picks[topic], run.scores[topic] = _take_top(
            coll, topic, BASE_SCORE + signal * coll.grades[topic] + noise)
    return run


def recreate(rng: np.random.Generator, orig: GenRun, tag: str, signal: float,
             swap_sd: float, replace_share: float) -> GenRun:
    """A re-created run: the original's latent scores plus noise of
    ``swap_sd``, with ``replace_share`` of the original's documents
    withheld so that unseen pool documents take their places."""
    coll = orig.collection
    run = GenRun(tag, coll)
    for topic in coll.topics:
        noise = orig.noise[topic] + rng.normal(0.0, swap_sd, size=len(coll.pools[topic]))
        run.noise[topic] = noise
        allowed = np.ones(len(noise), dtype=bool)
        picked = orig.picks[topic]
        n_out = max(1, int(round(replace_share * len(picked))))
        allowed[rng.choice(picked, size=n_out, replace=False)] = False
        run.picks[topic], run.scores[topic] = _take_top(
            coll, topic, BASE_SCORE + signal * coll.grades[topic] + noise, allowed)
    return run


def write_run(run: GenRun, path: str) -> None:
    pools = run.collection.pools
    with open(path, "w", encoding="utf-8") as f:
        for topic in run.collection.topics:
            docs = pools[topic][run.picks[topic]]
            f.writelines(
                f"{topic} Q0 {d} {r} {s / SCORE_SCALE:.2f} {run.tag}\n"
                for r, (d, s) in enumerate(zip(docs.tolist(), run.scores[topic].tolist()), start=1)
            )


def write_qrels(coll: Collection, path: str) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for topic in coll.topics:
            j = coll.judged[topic]
            f.writelines(
                f"{topic} 0 {d} {g}\n"
                for d, g in zip(coll.pools[topic][j].tolist(), coll.grades[topic][j].tolist())
            )


def write_all(runs: dict[str, GenRun], colls: dict[str, Collection],
              workdir: str) -> dict[str, str]:
    """Write every run and qrels file; return name -> path."""
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name, run in runs.items():
        paths[name] = os.path.join(workdir, f"{name}.run")
        write_run(run, paths[name])
    for name, coll in colls.items():
        paths[name] = os.path.join(workdir, f"{name}.txt")
        write_qrels(coll, paths[name])
    return paths
