"""Shared fixtures: synthetic runs, qrels, and noise injection.

This is the one place that builds test inputs, writes them as TREC text and
runs the command line on them: ``make_run`` builds a run shaped as the parser
shapes it, and ``run_text`` and ``qrels_text`` write runs and grade maps for the
parser and the command line. ``write_files`` writes a test's input files,
``cli_argv`` spells a subcommand's input options from their dests (the roles of
the provenance block), and ``run_cli`` runs ``main``, checks its exit code and
decodes what it wrote. ``golden_inputs.py`` keeps its own writers, whose inputs
the golden reports pin: the golden comparison runs it without pytest.
"""

from __future__ import annotations

import io
import json
import pathlib
import random
from array import array
from contextlib import redirect_stderr, redirect_stdout

import pytest

from reprokit.cli import main
from reprokit.effectiveness import MeasureConfig, TopicScoreVector, score_run
from reprokit.trec_io import Qrels, Ranking, Run

from golden_inputs import strict_json


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


def write_files(tmp: pathlib.Path, files: dict[str, object]) -> dict[str, pathlib.Path]:
    """Write each named file under ``tmp`` and return its path by name: a Run as
    ``run_text``, a Qrels as ``qrels_text``, text or bytes as given, and anything
    else (a correlate manifest) as JSON."""
    for name, content in files.items():
        if isinstance(content, Run):
            content = run_text(content)
        elif isinstance(content, Qrels):
            content = qrels_text(content.topics)
        elif not isinstance(content, (str, bytes)):
            content = json.dumps(content)
        (tmp / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp / name).write_bytes(content if isinstance(content, bytes) else content.encode("utf-8"))
    return {name: tmp / name for name in files}


# each subcommand's input options by dest, in the order the parser declares them
ROLES = {
    "replicate": ("run_orig", "run_rpl", "qrels", "run_b_orig", "run_b_rpl"),
    "reproduce": ("run_a_orig", "run_b_orig", "qrels_orig", "run_a_rpd", "run_b_rpd", "qrels_rpd"),
    "correlate": ("manifest",),
}


def cli_argv(command: str, inputs: dict[str, object], *extra: str) -> list[str]:
    """``command``'s argv: the option of each role in ``inputs`` with its path, then ``extra``."""
    assert set(inputs) <= set(ROLES[command]), sorted(set(inputs) - set(ROLES[command]))
    return [command, *(arg for role in ROLES[command] if role in inputs
                       for arg in ("--" + role.replace("_", "-"), str(inputs[role]))), *extra]


def run_cli(argv: list[str], code: int = 0, text: bool = False):
    """Run ``main`` on ``argv`` and check that it exits ``code``. On exit 0, return the
    report (stdout, or the ``--output`` file), decoded as strict JSON when it is JSON
    unless ``text`` asks for it as written; on any other exit, the stderr error record."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert main(argv) == code, err.getvalue()
    if code:
        return json.loads(err.getvalue())
    options = dict(zip(argv, argv[1:]))
    report = pathlib.Path(options["--output"]).read_text(encoding="utf-8") if "--output" in options else out.getvalue()
    return report if text or options.get("--format") != "json" else strict_json(report)


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
