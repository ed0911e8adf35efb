"""Parsing and canonicalization of TREC run and qrels files.

Run files are whitespace-delimited 6-column lines::

    topic Q0 docid rank score tag

Qrels files are 4-column lines::

    topic 0 docid rel

Parsed structures are canonicalized: within a topic, documents are ordered
by (score descending, doc-id descending) and re-ranked consecutively from 1.
File ranks are ignored since they are frequently inconsistent in the wild;
only scores define order. The doc-id tie-break mirrors the de-facto
trec_eval convention. Each topic is held as one :class:`Ranking`: a tuple
of doc ids and a parallel ``array('d')`` of scores, 8 bytes per score and no
object per document.

Files are read one line at a time in a single pass and never whole. A topic is
canonicalized when its block of lines ends, so a parse holds one topic's
``{doc: score}`` dict at a time next to the finished rankings; a topic that
reappears later in the file (interleaved input) is reopened once as a dict and
stays one until the end. Memory grows with the parsed run, not with the file
text.
"""

from __future__ import annotations

import io
import math
from array import array
from contextlib import contextmanager
from itertools import chain
from typing import IO, Iterator, NamedTuple, Union

from .errors import NoComparableTopicsError, TrecParseError

TextSource = Union[str, IO[str]]


class Ranking(NamedTuple):
    """One topic in canonical order: the document at index i has rank i + 1."""

    doc_ids: tuple[str, ...]
    scores: array  # array('d'), parallel to doc_ids


class _Record:
    """Equality and repr over the attributes named in ``_fields``. Instances
    keep a ``__dict__``, so they stay weak-referenceable and take extra attributes."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"


class Run(_Record):
    """One system's output: a canonical :class:`Ranking` per topic."""

    _fields = ("tag", "topics", "warnings")

    def __init__(self, tag: str, topics: dict[str, Ranking], warnings: list[str] | None = None):
        self.tag, self.topics, self.warnings = tag, topics, [] if warnings is None else warnings


class Qrels(_Record):
    """Relevant judgments: topic -> doc -> grade, holding only grades > 0.

    The relevance rule: a document absent from a topic's map (unjudged, or
    judged 0 or below) is not relevant; an all-zero topic keeps an empty map.
    The rule is applied when a Qrels is built: a caller who edits ``topics``
    afterwards builds a new ``Qrels(qrels.topics, qrels.warnings)`` to apply it again.
    """

    _fields = ("topics", "warnings")

    def __init__(self, topics: dict[str, dict[str, int]], warnings: list[str] | None = None):
        self.topics = {t: {d: g for d, g in docs.items() if g > 0} for t, docs in topics.items()}
        self.warnings = [] if warnings is None else warnings


def _topic_sort_key(topic: str):
    # numeric topic ids sort numerically, then by id (1, 01, 001); anything else lexicographically after
    return (0, int(topic), topic) if topic.isdecimal() else (1, 0, topic)


def _is_integer(text: str) -> bool:
    """An optional sign and ASCII digits: ``int()`` also takes ``1_0`` and non-ASCII digits."""
    digits = text[1:] if text[0] in "+-" else text
    return digits.isascii() and digits.isdigit()


@contextmanager
def _text_lines(source: TextSource) -> Iterator[Iterator[str]]:
    """Text lines of the source, read one at a time, less one leading BOM. A ``str`` is
    read as a file opened in text mode: ``\\n``, ``\\r\\n`` and ``\\r`` each end a line.
    ``bytes`` and binary streams are a ``TypeError``; a UTF-8 text stream over bytes that
    are not UTF-8 raises :class:`TrecParseError`."""
    if isinstance(source, str):
        source = io.StringIO(source, newline=None)
    elif isinstance(source, (bytes, bytearray, io.RawIOBase, io.BufferedIOBase)):
        raise TypeError(f"expected a str or a text stream, got {type(source).__name__}; decode it first")
    try:
        lines = iter(source)
        yield chain((next(lines, "").removeprefix("\ufeff"),), lines)
    except UnicodeDecodeError as e:
        raise TrecParseError(f"not UTF-8 text: byte {e.object[e.start]:#04x} ({e.reason})") from None


def _canonical_ranking(scores: dict[str, float]) -> Ranking:
    """Score descending, doc-id descending, in one sort of (score, id) pairs.

    Ids are unique within a topic, so no two pairs tie in full and ``-0.0`` and
    ``0.0`` fall to the id as well. Both columns are read back by comprehension,
    not ``zip(*pairs)``, whose iterator per pair triggers many more garbage
    collections; the array is filled from a list, several times faster than
    from an iterator."""
    pairs = sorted(zip(scores.values(), scores), reverse=True)
    return Ranking(tuple([d for _, d in pairs]), array("d", [s for s, _ in pairs]))


def parse_run(source: TextSource, strict: bool = True) -> Run:
    """Parse a TREC run file into a canonical :class:`Run`.

    If strict, a duplicate doc-id within a topic is an error; otherwise the
    strictly higher-scored instance wins and a warning is recorded.
    A rank is an optional sign and ASCII digits; a score is an ASCII float
    without ``_``, and NaN is rejected, since it has no place in a score order.
    """
    tag = topic = docs = None
    by_topic: dict[str, Ranking | dict[str, float]] = {}  # a dict while the topic is open
    reopened: set[str] = set()
    warnings: list[str] = []
    with _text_lines(source) as lines:
        for line_no, line in enumerate(lines, start=1):
            try:
                line_topic, _q0, doc_id, rank_str, score_str, line_tag = line.split()
            except ValueError:
                if not (parts := line.split()):
                    continue
                raise TrecParseError(f"line {line_no}: expected 6 columns, got {len(parts)}: {line.strip()!r}") from None
            # int() and float() also take 1_0 and non-ASCII digits; one isascii() of the line clears most lines
            ascii_line = line.isascii()
            if not (ascii_line and rank_str.isdecimal() or _is_integer(rank_str)):
                raise TrecParseError(f"line {line_no}: non-integer rank {rank_str!r}")
            try:
                score = float(score_str)
            except ValueError:
                score = math.nan
            if score != score or "_" in score_str or not (ascii_line or score_str.isascii()):
                raise TrecParseError(f"line {line_no}: non-numeric score {score_str!r}")
            if line_topic != topic:  # runs list a topic's lines together, so this is rare
                if topic is not None and topic not in reopened:
                    by_topic[topic] = _canonical_ranking(docs)
                topic = line_topic
                docs = by_topic.setdefault(topic, {})
                if type(docs) is Ranking:  # interleaved: reopen once, keep the dict until EOF
                    docs = by_topic[topic] = dict(zip(docs.doc_ids, docs.scores))
                    reopened.add(topic)
                if tag is None:
                    tag = line_tag
            if doc_id in docs:
                if strict:
                    raise TrecParseError(f"line {line_no}: duplicate doc {doc_id!r} in topic {topic}")
                if score > docs[doc_id]:
                    docs[doc_id] = score
                warnings.append(f"line {line_no}: duplicate doc {doc_id!r} in topic {topic}, kept higher score")
            else:
                docs[doc_id] = score
    if tag is None:
        raise TrecParseError("empty run input")
    if topic not in reopened:
        by_topic[topic] = _canonical_ranking(docs)
    for t in reopened:
        by_topic[t] = _canonical_ranking(by_topic[t])
    topics = {t: by_topic[t] for t in sorted(by_topic, key=_topic_sort_key)}
    return Run(tag=tag, topics=topics, warnings=warnings)


def parse_qrels(source: TextSource) -> Qrels:
    """Parse a 4-column qrels file.

    Repeated (topic, doc) pairs take the last value with a warning; negative
    grades clamp to 0 (some TREC qrels use -1 for "not relevant"). Every
    judged topic is kept, and :class:`Qrels` keeps its relevant documents.
    """
    topic = docs = None
    topics: dict[str, dict[str, int]] = {}
    warnings: list[str] = []
    with _text_lines(source) as lines:
        for line_no, line in enumerate(lines, start=1):
            try:
                line_topic, _it, doc_id, grade_str = line.split()
            except ValueError:
                if not (parts := line.split()):
                    continue
                raise TrecParseError(f"line {line_no}: expected 4 columns, got {len(parts)}: {line.strip()!r}") from None
            if not _is_integer(grade_str):
                raise TrecParseError(f"line {line_no}: non-integer grade {grade_str!r}")
            grade = int(grade_str)
            if grade < 0:
                warnings.append(f"line {line_no}: negative grade {grade} for doc {doc_id!r}, clamped to 0")
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


def _load(path: str, parse, *args):
    with open(path, "r", encoding="utf-8") as f:
        try:
            return parse(f, *args)
        except TrecParseError as e:
            raise TrecParseError(f"{path}: {e}") from None


def load_run(path: str, strict: bool = True) -> Run:
    return _load(path, parse_run, strict)


def load_qrels(path: str) -> Qrels:
    return _load(path, parse_qrels)


def topic_intersection(run: Run, qrels: Qrels) -> tuple[str, ...]:
    """The reference run's topics holding >= 1 relevant document, in report order:
    the one topic set on which every other run of a comparison is scored.

    Topics without any relevant document are dropped, as TREC-style evaluation drops them.
    """
    shared = set(run.topics) & {t for t, docs in qrels.topics.items() if docs}
    if not shared:
        raise NoComparableTopicsError(f"run {run.tag!r} has no topic judged relevant in the qrels")
    return tuple(sorted(shared, key=_topic_sort_key))
