"""Shared fixtures: synthetic runs, qrels, and noise injection.

This is the one place that builds test inputs and writes them as TREC text:
``make_run`` builds a run shaped as the parser shapes it, and ``run_text`` and
``qrels_text`` write runs and grade maps for the parser and the command line.
``golden_inputs.py`` keeps its own writers, whose inputs the golden reports pin.
"""

from __future__ import annotations

import random
from array import array

import pytest

from reprokit.effectiveness import MeasureConfig, TopicScoreVector, score_run
from reprokit.trec_io import Qrels, Ranking, Run


def make_run(tag: str, topic_docs: dict[str, list[str]]) -> Run:
    """Build a canonical Run from ordered doc-id lists (rank 1 first), scored
    n down to 1. It is built directly, not parsed, so a test may repeat a doc id."""
    topics = {}
    for topic, docs in topic_docs.items():
        n = len(docs)
        topics[topic] = Ranking(tuple(docs), array("d", [n - i for i in range(n)]))
    return Run(tag=tag, topics=topics)


def make_qrels(grades: dict[str, dict[str, int]]) -> Qrels:
    return Qrels(topics={t: dict(d) for t, d in grades.items()})


def run_text(run: Run) -> str:
    """A run as 6-column text, ranks from 1 and each score by its ``repr``."""
    return "".join(f"{topic} Q0 {doc} {rank} {score!r} {run.tag}\n"
                   for topic, ranking in run.topics.items()
                   for rank, (doc, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1))


def qrels_text(grades: dict[str, dict[str, int]]) -> str:
    """A ``{topic: {doc: grade}}`` map, such as ``Qrels.topics``, as 4-column text."""
    return "".join(f"{topic} 0 {doc} {grade}\n" for topic, docs in grades.items() for doc, grade in docs.items())


def score_ranking(ranking: list[str], grades: dict[str, int], measure: str, k: int) -> float:
    """The score of one ranking under ``measure@k``, scored as a one-topic run."""
    vectors = score_run(make_run("r", {"1": ranking}), make_qrels({"1": grades}), ("1",),
                        (MeasureConfig(measure, k),))
    return vectors[0].scores["1"]


def vector(scores: dict[str, float], measure: str = "M", tag: str = "run") -> TopicScoreVector:
    return TopicScoreVector(measure=measure, run_tag=tag, scores=scores)


_POOLS: dict[int, list[str]] = {}


def _doc_pool(size: int) -> list[str]:
    if size not in _POOLS:
        _POOLS[size] = [f"D{d:04d}" for d in range(size)]
    return _POOLS[size]


def random_run(rng: random.Random, tag: str, n_topics: int, n_docs: int,
               doc_pool: int | None = None) -> Run:
    pool = _doc_pool(doc_pool or n_docs * 2)
    topic_docs = {}
    for t in range(1, n_topics + 1):
        topic_docs[str(300 + t)] = rng.sample(pool, n_docs)
    return make_run(tag, topic_docs)


def random_qrels(rng: random.Random, run: Run, max_grade: int = 3) -> Qrels:
    """Judge every retrieved doc, guaranteeing >= 1 relevant doc per topic."""
    grades = {}
    for topic, ranking in run.topics.items():
        judged = {d: rng.randint(0, max_grade) for d in ranking.doc_ids}
        if not any(g > 0 for g in judged.values()):
            judged[ranking.doc_ids[0]] = 1
        grades[topic] = judged
    return make_qrels(grades)


def swap_noise(rng: random.Random, run: Run, n_swaps: int, tag: str) -> Run:
    """Copy a run with n random adjacent-pair swaps per topic."""
    topic_docs = {}
    for topic in run.topics:
        docs = list(run.topics[topic].doc_ids)
        for _ in range(n_swaps):
            if len(docs) < 2:
                break
            i = rng.randrange(len(docs) - 1)
            docs[i], docs[i + 1] = docs[i + 1], docs[i]
        topic_docs[topic] = docs
    return make_run(tag, topic_docs)


@pytest.fixture
def rng():
    return random.Random(20260826)
