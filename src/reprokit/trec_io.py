"""Parsing and canonicalization of TREC run and qrels files.

Run files are whitespace-delimited 6-column lines::

    topic Q0 docid rank score tag

Qrels files are 4-column lines::

    topic 0 docid rel

Parsed structures are canonicalized: within a topic, documents are ordered
by (score descending, doc-id descending) and re-ranked consecutively from 1.
File ranks are ignored since they are frequently inconsistent in the wild;
only scores define order. The doc-id tie-break mirrors the de-facto
trec_eval convention.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, Union

from .errors import NoComparableTopicsError, TrecParseError

TextSource = Union[str, bytes, IO]


@dataclass(frozen=True)
class ScoredDoc:
    doc_id: str
    rank: int
    score: float


@dataclass
class Run:
    """One system's output: per-topic ranked document lists with scores."""

    tag: str
    topics: dict[str, list[ScoredDoc]]
    warnings: list[str] = field(default_factory=list)

    def doc_ids(self, topic: str) -> list[str]:
        return [d.doc_id for d in self.topics[topic]]

    def topic_ids(self) -> list[str]:
        return list(self.topics)


@dataclass
class Qrels:
    """Graded relevance judgments: topic -> doc -> grade (>= 0).

    A document absent from a topic's map is unjudged and treated as grade 0.
    """

    topics: dict[str, dict[str, int]]
    warnings: list[str] = field(default_factory=list)

    def grade(self, topic: str, doc_id: str) -> int:
        return self.topics.get(topic, {}).get(doc_id, 0)

    def relevant_topics(self) -> set[str]:
        """Topics with at least one document of grade > 0."""
        return {t for t, docs in self.topics.items() if any(g > 0 for g in docs.values())}


@dataclass(frozen=True)
class TopicSet:
    ids: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _topic_sort_key(topic: str):
    # numeric topic ids sort numerically, anything else lexicographically after
    return (0, int(topic), "") if topic.isdigit() else (1, 0, topic)


def _iter_lines(source: TextSource) -> Iterator[tuple[int, str]]:
    """Yield (line_no, stripped_line), skipping blank lines and a UTF-8 BOM."""
    if isinstance(source, bytes):
        source = source.decode("utf-8-sig")
    if isinstance(source, str):
        source = io.StringIO(source.removeprefix("\ufeff"))
    for i, raw in enumerate(source, start=1):
        if isinstance(raw, bytes):
            raw = raw.decode("utf-8-sig")
        line = raw.strip()
        if line:
            yield i, line


def _canonical_order(docs: Iterable[ScoredDoc]) -> list[ScoredDoc]:
    """Score descending, doc-id descending, ranks rewritten from 1."""
    ordered = sorted(docs, key=lambda d: d.doc_id, reverse=True)
    ordered.sort(key=lambda d: d.score, reverse=True)
    return [ScoredDoc(d.doc_id, i, d.score) for i, d in enumerate(ordered, start=1)]


def parse_run(source: TextSource, mode: str = "strict") -> Run:
    """Parse a TREC run file into a canonical :class:`Run`.

    In strict mode a duplicate doc-id within a topic is an error; in lenient
    mode the higher-scored instance wins and a warning is recorded.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown mode {mode!r}")
    tag = None
    by_topic: dict[str, dict[str, ScoredDoc]] = {}
    warnings: list[str] = []
    n_lines = 0
    for line_no, line in _iter_lines(source):
        parts = line.split()
        if len(parts) != 6:
            raise TrecParseError(f"line {line_no}: expected 6 columns, got {len(parts)}: {line!r}")
        topic, _q0, doc_id, rank_str, score_str, line_tag = parts
        try:
            int(rank_str)
        except ValueError as e:
            raise TrecParseError(f"line {line_no}: non-integer rank {rank_str!r}") from e
        try:
            score = float(score_str)
        except ValueError as e:
            raise TrecParseError(f"line {line_no}: non-numeric score {score_str!r}") from e
        if tag is None:
            tag = line_tag
        docs = by_topic.setdefault(topic, {})
        if doc_id in docs:
            if mode == "strict":
                raise TrecParseError(f"line {line_no}: duplicate doc {doc_id!r} in topic {topic}")
            if score > docs[doc_id].score:
                docs[doc_id] = ScoredDoc(doc_id, 0, score)
            warnings.append(f"line {line_no}: duplicate doc {doc_id!r} in topic {topic}, kept higher score")
        else:
            docs[doc_id] = ScoredDoc(doc_id, 0, score)
        n_lines += 1
    if n_lines == 0:
        raise TrecParseError("empty run input")
    topics = {
        t: _canonical_order(by_topic[t].values())
        for t in sorted(by_topic, key=_topic_sort_key)
    }
    return Run(tag=tag, topics=topics, warnings=warnings)


def parse_qrels(source: TextSource) -> Qrels:
    """Parse a 4-column qrels file.

    Repeated (topic, doc) pairs take the last value with a warning; negative
    grades clamp to 0 (some TREC qrels use -1 for "not relevant").
    """
    topics: dict[str, dict[str, int]] = {}
    warnings: list[str] = []
    n_lines = 0
    for line_no, line in _iter_lines(source):
        parts = line.split()
        if len(parts) != 4:
            raise TrecParseError(f"line {line_no}: expected 4 columns, got {len(parts)}: {line!r}")
        topic, _it, doc_id, grade_str = parts
        try:
            grade = int(grade_str)
        except ValueError as e:
            raise TrecParseError(f"line {line_no}: non-integer grade {grade_str!r}") from e
        if grade < 0:
            warnings.append(f"line {line_no}: negative grade {grade} for doc {doc_id!r}, clamped to 0")
            grade = 0
        docs = topics.setdefault(topic, {})
        if doc_id in docs:
            warnings.append(f"line {line_no}: repeated judgment for doc {doc_id!r} in topic {topic}, kept last")
        docs[doc_id] = grade
        n_lines += 1
    if n_lines == 0:
        raise TrecParseError("empty qrels input")
    ordered = {t: topics[t] for t in sorted(topics, key=_topic_sort_key)}
    return Qrels(topics=ordered, warnings=warnings)


def load_run(path: str, mode: str = "strict") -> Run:
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            return parse_run(f, mode=mode)
        except TrecParseError as e:
            raise TrecParseError(f"{path}: {e}") from None


def load_qrels(path: str) -> Qrels:
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            return parse_qrels(f)
        except TrecParseError as e:
            raise TrecParseError(f"{path}: {e}") from None


def serialize_run(run: Run) -> str:
    """Render a canonical run back to 6-column text (round-trip stable)."""
    lines = []
    for topic, docs in run.topics.items():
        for d in docs:
            lines.append(f"{topic} Q0 {d.doc_id} {d.rank} {d.score:.6f} {run.tag}")
    return "\n".join(lines) + "\n"


def topic_intersection(a: Run, b: Run, qrels: Qrels) -> TopicSet:
    """Topics present in both runs and holding >= 1 relevant document.

    Topics without any relevant document are dropped, matching how such
    topics are excluded from TREC-style evaluation.
    """
    shared = set(a.topics) & set(b.topics) & qrels.relevant_topics()
    if not shared:
        raise NoComparableTopicsError("no comparable topics between runs and qrels")
    return TopicSet(ids=tuple(sorted(shared, key=_topic_sort_key)))
