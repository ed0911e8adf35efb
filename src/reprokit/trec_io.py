"""Parsing and canonicalization of TREC run and qrels files.

Run files are whitespace-delimited 6-column lines::

    topic Q0 docid rank score tag

Qrels files are 4-column lines::

    topic 0 docid rel

Parsed structures are canonicalized: within a topic, documents are ordered
by (score descending, doc-id descending) and re-ranked consecutively from 1.
File ranks are ignored since they are frequently inconsistent in the wild;
only scores define order. The doc-id tie-break mirrors the de-facto
trec_eval convention. Each topic is held as one :class:`Ranking` of parallel
doc-id and score tuples, not as one object per document.

Files are read one line at a time in a single pass and never whole, so memory
grows with the parsed run, not with the file text.
"""

from __future__ import annotations

import io
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterator, Union

from .errors import NoComparableTopicsError, TrecParseError

TextSource = Union[str, bytes, IO]


@dataclass(frozen=True)
class Ranking:
    """One topic in canonical order: the document at index i has rank i + 1."""

    doc_ids: tuple[str, ...]
    scores: tuple[float, ...]


@dataclass
class Run:
    """One system's output: a canonical :class:`Ranking` per topic."""

    tag: str
    topics: dict[str, Ranking]
    warnings: list[str] = field(default_factory=list)


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
    return (0, int(topic), "") if topic.isdecimal() else (1, 0, topic)


@contextmanager
def _text_lines(source: TextSource) -> Iterator[Iterator[str]]:
    """Text lines of the source, read one at a time, less one leading BOM.
    ``bytes`` and binary streams are UTF-8; a binary stream is left open for the caller."""
    if isinstance(source, str):
        source = io.StringIO(source)
    elif isinstance(source, bytes):
        source = io.BytesIO(source)
    if not isinstance(source, (io.RawIOBase, io.BufferedIOBase)):
        lines = iter(source)
        yield chain((next(lines, "").removeprefix("\ufeff"),), lines)
        return
    text = io.TextIOWrapper(source, encoding="utf-8-sig", newline="\n")
    try:
        yield text
    finally:
        text.detach()


def _canonical_ranking(scores: dict[str, float]) -> Ranking:
    """Score descending, doc-id descending (ids are unique within a topic).

    Two stable sorts, doc id then score, build no tuple per document."""
    ids = sorted(scores, reverse=True)
    ids.sort(key=scores.__getitem__, reverse=True)
    return Ranking(tuple(ids), tuple(map(scores.__getitem__, ids)))


def parse_run(source: TextSource, mode: str = "strict") -> Run:
    """Parse a TREC run file into a canonical :class:`Run`.

    In strict mode a duplicate doc-id within a topic is an error; in lenient
    mode the strictly higher-scored instance wins and a warning is recorded.
    A NaN score is rejected, since it has no place in a score order.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown mode {mode!r}")
    tag = topic = docs = None
    by_topic: dict[str, dict[str, float]] = {}
    warnings: list[str] = []
    with _text_lines(source) as lines:
        for line_no, line in enumerate(lines, start=1):
            parts = line.split()
            if len(parts) != 6:
                if not parts:
                    continue
                raise TrecParseError(f"line {line_no}: expected 6 columns, got {len(parts)}: {line.strip()!r}")
            line_topic, _q0, doc_id, rank_str, score_str, line_tag = parts
            if not rank_str.isdecimal():
                try:
                    int(rank_str)
                except ValueError as e:
                    raise TrecParseError(f"line {line_no}: non-integer rank {rank_str!r}") from e
            try:
                score = float(score_str)
            except ValueError as e:
                raise TrecParseError(f"line {line_no}: non-numeric score {score_str!r}") from e
            if score != score:
                raise TrecParseError(f"line {line_no}: non-numeric score {score_str!r}")
            if line_topic != topic:  # runs list a topic's lines together, so this is rare
                topic = line_topic
                docs = by_topic.setdefault(topic, {})
                if tag is None:
                    tag = line_tag
            if doc_id in docs:
                if mode == "strict":
                    raise TrecParseError(f"line {line_no}: duplicate doc {doc_id!r} in topic {topic}")
                if score > docs[doc_id]:
                    docs[doc_id] = score
                warnings.append(f"line {line_no}: duplicate doc {doc_id!r} in topic {topic}, kept higher score")
            else:
                docs[doc_id] = score
    if tag is None:
        raise TrecParseError("empty run input")
    topics = {t: _canonical_ranking(by_topic.pop(t)) for t in sorted(by_topic, key=_topic_sort_key)}
    return Run(tag=tag, topics=topics, warnings=warnings)


def parse_qrels(source: TextSource) -> Qrels:
    """Parse a 4-column qrels file.

    Repeated (topic, doc) pairs take the last value with a warning; negative
    grades clamp to 0 (some TREC qrels use -1 for "not relevant").
    """
    topic = docs = None
    topics: dict[str, dict[str, int]] = {}
    warnings: list[str] = []
    with _text_lines(source) as lines:
        for line_no, line in enumerate(lines, start=1):
            parts = line.split()
            if len(parts) != 4:
                if not parts:
                    continue
                raise TrecParseError(f"line {line_no}: expected 4 columns, got {len(parts)}: {line.strip()!r}")
            line_topic, _it, doc_id, grade_str = parts
            try:
                grade = int(grade_str)
            except ValueError as e:
                raise TrecParseError(f"line {line_no}: non-integer grade {grade_str!r}") from e
            if grade < 0:
                warnings.append(f"line {line_no}: negative grade {grade} for doc {doc_id!r}, clamped to 0")
                grade = 0
            if line_topic != topic:
                topic = line_topic
                docs = topics.setdefault(topic, {})
            if doc_id in docs:
                warnings.append(f"line {line_no}: repeated judgment for doc {doc_id!r} in topic {topic}, kept last")
            docs[doc_id] = grade
    if not topics:
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
    for topic, ranking in run.topics.items():
        for rank, (doc_id, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1):
            lines.append(f"{topic} Q0 {doc_id} {rank} {score:.6f} {run.tag}")
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
