import io
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit import trec_io
from reprokit.errors import NoComparableTopicsError, TrecParseError
from reprokit.trec_io import (
    Qrels,
    load_qrels,
    load_run,
    parse_qrels,
    parse_run,
    topic_intersection,
)

import oracles
from conftest import make_qrels, make_run, qrels_text, random_qrels, random_run, run_text, swap_noise

RUN_TEXT = """\
301 Q0 NYT1 1 12.5 sys
"""


def test_parse_single_line():
    run = parse_run(RUN_TEXT)
    assert run.tag == "sys"
    assert run.topics["301"].doc_ids == ("NYT1",)
    assert run.topics["301"].scores[0] == 12.5


def test_canonical_order_puts_higher_score_first():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 2 2.0 sys\n")
    assert run.topics["301"].doc_ids == ("B", "A")


def test_tie_break_docid_descending():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 2 1.0 sys\n")
    assert run.topics["301"].doc_ids == ("B", "A")


def test_file_ranks_ignored_scores_define_order():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 99 5.0 sys\n")
    assert run.topics["301"].doc_ids == ("B", "A")


def test_duplicate_doc_strict_errors_with_line_number():
    text = "301 Q0 A 1 1.0 sys\n301 Q0 A 2 0.5 sys\n"
    with pytest.raises(TrecParseError, match="line 2"):
        parse_run(text, strict=True)


def test_duplicate_doc_lenient_keeps_higher_score():
    text = "301 Q0 A 1 1.0 sys\n301 Q0 A 2 3.0 sys\n301 Q0 B 3 2.0 sys\n"
    run = parse_run(text, strict=False)
    assert run.topics["301"].doc_ids == ("A", "B")
    assert run.topics["301"].scores[0] == 3.0
    assert len(run.warnings) == 1


def test_malformed_line_errors():
    with pytest.raises(TrecParseError, match="line 1"):
        parse_run("301 Q0 A 1 sys\n")
    with pytest.raises(TrecParseError, match="non-numeric score"):
        parse_run("301 Q0 A 1 abc sys\n")
    with pytest.raises(TrecParseError, match="empty"):
        parse_run("")


def test_nan_score_is_rejected_infinities_are_kept():
    text = "301 Q0 A 1 2.0 sys\n301 Q0 Z 2 nan sys\n301 Q0 BB 3 1.0 sys\n"
    with pytest.raises(TrecParseError, match="line 2: non-numeric score 'nan'"):
        parse_run(text, strict=False)
    with pytest.raises(TrecParseError, match="line 1: non-numeric score 'NaN'"):
        parse_run("301 Q0 A 1 NaN sys\n")
    run = parse_run("301 Q0 A 1 -inf sys\n301 Q0 B 2 1.0 sys\n301 Q0 C 3 inf sys\n")
    assert run.topics["301"].doc_ids == ("C", "B", "A")
    assert tuple(run.topics["301"].scores) == (float("inf"), 1.0, float("-inf"))


def test_parsed_run_holds_little_memory():
    # 50 topics x 1000 docs; with one object per document this run held about 10 MB
    text = "".join(f"{t} Q0 LA{t:04d}89-{d:04d} {d + 1} {(1000 - d) / 8:.3f} sys\n"
                   for t in range(301, 351) for d in range(1000))
    tracemalloc.start()
    try:
        run = parse_run(text)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run.topics) == 50 and len(run.topics["350"].doc_ids) == 1000
    assert held < 7 * 2**20, f"parsed run holds {held / 2**20:.1f} MB"


def test_load_run_streams_the_file(tmp_path):
    # 200 topics x 1000 docs, about 7.2 MB of text; reading the file whole would add all of it
    path = tmp_path / "run.txt"
    with open(path, "w") as f:
        for t in range(301, 501):
            f.writelines(f"{t} Q0 LA{t:04d}89-{d:04d} {d + 1} {(1000 - d) / 8:.3f} sys\n" for d in range(1000))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        run = load_run(str(path))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(run.topics) == 200 and len(run.topics["500"].doc_ids) == 1000
    # one topic is open at a time: its dict and the read buffer are all the peak adds
    assert peak - held < 2**19, f"peak {(peak - held) / 2**20:.2f} MB above the parsed run"


def test_rank_major_run_reopens_each_topic_once(monkeypatch):
    # every line switches topic: a topic is closed after its first line, reopened
    # once as a dict, and closed again at the end, never once per line
    def text(pairs):
        return "".join(f"{t} Q0 D{t}-{d:03d} {d + 1} {(200 - d) / 4} sys\n" for t, d in pairs)

    grouped = parse_run(text((t, d) for t in range(301, 501) for d in range(200)))
    calls = Counter()
    canonical = trec_io._canonical_ranking

    def counting(scores):
        calls[next(iter(scores)).split("-")[0]] += 1
        return canonical(scores)

    monkeypatch.setattr(trec_io, "_canonical_ranking", counting)
    run = parse_run(text((t, d) for d in range(200) for t in range(301, 501)))
    assert run.tag == grouped.tag and run.topics == grouped.topics
    assert len(calls) == 200 and max(calls.values()) <= 2


_TOPICS = ("301", "302", "2", "10", "q7", "\u00b2")
_DOCS = ("A", "B", "BB", "Z", "d10", "d9")
# "1", "1.0" and "1e0" tie, as do "0" and "-0.0"
_SCORES = ("1", "1.0", "1e0", "2.5", "0", "-0.0", "-3", "inf", "-inf", "+.5", "5.", "-Infinity", "2E-1")
_ODD_RANKS = ("+7", "+0", "007")
_BAD = {
    # "\u00b2" and "\u066b" look numeric, but int() rejects them; int() and float()
    # take 1_000 and non-ASCII digits, which a rank or score may not hold
    "rank": ("x", "1.5", "r1", "\u00b2", "\u066b", "1_000", "\u0661\u0662", "\uff11\uff12", "+-1"),
    "score": ("abc", "nan", "-NaN", "1,5", "1_0.5", "1e1_0", "\u0663", "\uff12.5", "++1"),
}


@st.composite
def _run_texts(draw):
    def row():
        return [draw(st.sampled_from(_TOPICS)), "Q0", draw(st.sampled_from(_DOCS)),
                draw(st.one_of(st.integers(-3, 1500).map(str), st.sampled_from(_ODD_RANKS))),
                draw(st.sampled_from(_SCORES)),
                draw(st.sampled_from(("tagA", "tagB")))]

    rows = [row() for _ in range(draw(st.integers(0, 25)))]
    lines = [draw(st.sampled_from((" ", "\t", "  "))).join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    fault = draw(st.sampled_from((None, "columns", "rank", "score")))
    if fault is not None:
        bad = row()
        if fault == "columns":
            n = draw(st.sampled_from((1, 2, 3, 4, 5, 7)))
            bad = (bad + ["extra"])[:n]
        else:
            bad[3 if fault == "rank" else 4] = draw(st.sampled_from(_BAD[fault]))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(bad))
    eol = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = eol.join(lines) + draw(st.sampled_from(("", eol)))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("parse") / "input.txt"


@settings(max_examples=200, deadline=None)
@given(text=_run_texts(), mode=st.sampled_from(("strict", "lenient")),
       kind=st.sampled_from(("str", "text stream", "path")))
def test_parse_run_matches_brute_force_parser(input_file, text, mode, kind):
    strict = mode == "strict"
    if kind == "path":
        input_file.write_bytes(text.encode())  # the drawn line ends, untranslated
        parse, prefix = (lambda: load_run(str(input_file), strict)), f"{input_file}: "
    else:
        source = {"str": text, "text stream": io.StringIO(text, newline="")}[kind]
        parse, prefix = (lambda: parse_run(source, strict=strict)), ""
    try:
        expected = oracles.brute_parse_run(text, mode)
    except ValueError as e:
        with pytest.raises(TrecParseError) as info:
            parse()
        assert str(info.value) == prefix + str(e)
        return
    run = parse()
    got = [(t, list(zip(r.doc_ids, r.scores))) for t, r in run.topics.items()]
    assert (run.tag, got, run.warnings) == expected


_GRADES = ("0", "1", "2", "3", "10", "-1", "-2", "+2", "+0", "-0", "007")
_BAD_GRADES = ("x", "1.5", "1_0", "\u0663", "\uff12", "\u00b2", "++1", "+", "-", "1e1")


@st.composite
def _qrels_texts(draw):
    def row(topic=None, grades=_GRADES):
        return [topic or draw(st.sampled_from(_TOPICS)), draw(st.sampled_from(("0", "Q0"))),
                draw(st.sampled_from(_DOCS)), draw(st.sampled_from(grades))]

    rows = [row() for _ in range(draw(st.integers(0, 25)))]
    for _ in range(draw(st.integers(0, 3))):  # a topic whose judgments are all 0 or negative
        rows.insert(draw(st.integers(0, len(rows))), row("999", ("0", "-1", "+0", "-0")))
    lines = [draw(st.sampled_from((" ", "\t", "  "))).join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    fault = draw(st.sampled_from((None, "columns", "grade")))
    if fault is not None:
        bad = row()
        if fault == "columns":
            bad = (bad + ["extra"])[:draw(st.sampled_from((1, 2, 3, 5)))]
        else:
            bad[3] = draw(st.sampled_from(_BAD_GRADES))
        lines.insert(draw(st.integers(0, len(lines))), " ".join(bad))
    eol = draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = eol.join(lines) + draw(st.sampled_from(("", eol)))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@settings(max_examples=200, deadline=None)
@given(text=_qrels_texts(),
       kind=st.sampled_from(("str", "text stream", "path")))
def test_parse_qrels_matches_brute_force_parser(input_file, text, kind):
    if kind == "path":
        input_file.write_bytes(text.encode())  # the drawn line ends, untranslated
        parse, prefix = (lambda: load_qrels(str(input_file))), f"{input_file}: "
    else:
        source = {"str": text, "text stream": io.StringIO(text, newline="")}[kind]
        parse, prefix = (lambda: parse_qrels(source)), ""
    try:
        expected = oracles.brute_parse_qrels(text)
    except ValueError as e:
        with pytest.raises(TrecParseError) as info:
            parse()
        assert str(info.value) == prefix + str(e)
        return
    qrels = parse()
    assert (list(qrels.topics.items()), qrels.warnings) == expected


@settings(max_examples=200, deadline=None)
@given(text=_run_texts(), mode=st.sampled_from(("strict", "lenient")))
def test_serialize_then_parse_round_trips(text, mode):
    try:
        run = parse_run(text, strict=mode == "strict")
    except TrecParseError:
        return
    serialized = run_text(run)
    again = parse_run(serialized)
    assert again.tag == run.tag
    assert list(again.topics) == list(run.topics)
    for topic, ranking in run.topics.items():
        assert again.topics[topic].doc_ids == ranking.doc_ids
        # repr tells -0.0 from 0.0
        assert list(map(repr, again.topics[topic].scores)) == list(map(repr, ranking.scores))
    assert run_text(again) == serialized


def test_parse_reads_text_streams():
    run_str = "302 Q0 A 1 2.0 sys\r\n\r\n301 Q0 B 1 1.0 sys\r\n302 Q0 C 2 3.0 sys\r\n"
    expected = parse_run(run_str)
    stream = io.StringIO("\ufeff" + run_str)
    assert parse_run(stream).topics == expected.topics
    assert not stream.closed
    bad = io.StringIO("301 Q0 A 1 2.0 sys\n301 Q0 B 1 \u00bd sys\n")
    with pytest.raises(TrecParseError, match="line 2: non-numeric score '\u00bd'"):
        parse_run(bad)
    assert not bad.closed
    qrels_str = "301 0 A 1\r\n\r\n301 0 C 2\n"
    for source in (io.StringIO("\ufeff" + qrels_str), io.StringIO(qrels_str)):
        assert parse_qrels(source).topics == {"301": {"A": 1, "C": 2}}


@pytest.mark.parametrize("parse, text", [(parse_run, "301 Q0 A 1 2.0 sys\n"), (parse_qrels, "301 0 A 1\n")],
                         ids=["run", "qrels"])
def test_bytes_and_binary_streams_are_a_type_error(tmp_path, parse, text):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with open(path, "rb") as binary_file:
        for source, kind in ((text.encode(), "bytes"), (bytearray(text.encode()), "bytearray"),
                             (io.BytesIO(text.encode()), "BytesIO"), (binary_file, "BufferedReader")):
            with pytest.raises(TypeError) as info:
                parse(source)
            assert str(info.value) == f"expected a str or a text stream, got {kind}; decode it first"


def test_utf8_bom_does_not_split_a_topic(tmp_path):
    run_str = "301 Q0 A 1 2.0 sys\n301 Q0 B 2 1.0 sys\n"
    qrels_str = "301 0 A 1\n301 0 B 2\n"
    run_path = tmp_path / "run.txt"
    qrels_path = tmp_path / "qrels.txt"
    run_path.write_bytes(b"\xef\xbb\xbf" + run_str.encode())
    qrels_path.write_bytes(b"\xef\xbb\xbf" + qrels_str.encode())
    expected_run = parse_run(run_str)
    with open(run_path, encoding="utf-8") as text_stream:
        from_text_stream = parse_run(text_stream)
    for run in (load_run(str(run_path)), parse_run("\ufeff" + run_str),
                parse_run(io.StringIO("\ufeff" + run_str)), from_text_stream):
        assert run.topics == expected_run.topics
    with open(qrels_path, encoding="utf-8") as text_stream:
        from_text_stream = parse_qrels(text_stream)
    for qrels in (load_qrels(str(qrels_path)), parse_qrels("\ufeff" + qrels_str),
                  parse_qrels(io.StringIO("\ufeff" + qrels_str)), from_text_stream):
        assert qrels.topics == {"301": {"A": 1, "B": 2}}


def test_permuting_lines_gives_identical_run(rng):
    lines = [f"301 Q0 D{i} {i} {s} sys" for i, s in enumerate([3.0, 1.0, 2.5, 0.5, 2.5])]
    base = parse_run("\n".join(lines))
    for _ in range(10):
        rng.shuffle(lines)
        assert parse_run("\n".join(lines)).topics == base.topics


def test_serialize_round_trip_idempotent():
    run = parse_run("302 Q0 A 5 1.0 sys\n301 Q0 B 1 2.0 sys\n301 Q0 C 2 1.0 sys\n")
    text = run_text(run)
    again = parse_run(text)
    assert run_text(again) == text
    assert again.topics == run.topics


def test_test_inputs_are_built_as_the_parser_builds_them(rng):
    run = random_run(rng, "r", 4, 15)
    for built in (run, swap_noise(rng, run, 5, "s"), make_run("m", {"302": ["B", "A"], "10": ["C"]})):
        assert parse_run(run_text(built)) == built
    qrels = random_qrels(rng, run)
    assert parse_qrels(qrels_text(qrels.topics)) == qrels


def test_qrels_basic_and_absence():
    q = parse_qrels("301 0 NYT1 2\n")
    assert q.topics["301"].get("NYT1", 0) == 2
    assert q.topics["301"].get("NYT9", 0) == 0


def test_qrels_negative_grade_clamped_with_warning():
    q = parse_qrels("301 0 NYT1 -1\n")
    assert q.topics["301"].get("NYT1", 0) == 0
    assert q.warnings


def test_qrels_repeated_pair_takes_last():
    q = parse_qrels("301 0 A 1\n301 0 A 2\n")
    assert q.topics["301"].get("A", 0) == 2
    assert q.warnings


def test_qrels_non_integer_grade():
    with pytest.raises(TrecParseError, match="line 1"):
        parse_qrels("301 0 A x\n")


@pytest.mark.parametrize("grade", ["1_0", "\u0663", "\uff12", "\u00b2", "++1", "+", "-", "1.0"])
def test_qrels_grade_is_a_sign_and_ascii_digits(grade):
    # int() reads 1_0 as 10, Arabic-Indic 3 as 3 and fullwidth 2 as 2
    with pytest.raises(TrecParseError) as info:
        parse_qrels(f"301 0 A 1\n301 0 B {grade}\n")
    assert str(info.value) == f"line 2: non-integer grade {grade!r}"


@pytest.mark.parametrize("doc", ["B", "\u00e9"])  # an ASCII line, and one that is not
@pytest.mark.parametrize("field, text", [("rank", "1_0"), ("rank", "\u0663"), ("rank", "\uff12"),
                                         ("score", "1_0.5"), ("score", "\u0663"), ("score", "\uff12")])
def test_run_rank_and_score_are_ascii_numbers(field, text, doc):
    # int() and float() read 1_0 as 10, Arabic-Indic 3 as 3 and fullwidth 2 as 2
    line = f"301 Q0 {doc} {text} 1.0 t" if field == "rank" else f"301 Q0 {doc} 2 {text} t"
    with pytest.raises(TrecParseError) as info:
        parse_run(f"301 Q0 A 1 2.0 t\n{line}\n")
    kind = "non-integer rank" if field == "rank" else "non-numeric score"
    assert str(info.value) == f"line 2: {kind} {text!r}"


def test_qrels_grade_takes_one_sign():
    q = parse_qrels("301 0 A +2\n301 0 B -1\n")
    assert (q.topics["301"].get("A", 0), q.topics["301"].get("B", 0)) == (2, 0)
    assert q.warnings == ["line 2: negative grade -1 for doc 'B', clamped to 0"]


def test_qrels_hold_only_relevant_documents():
    # grades 2, 0 and -1, a repeated 2 -> 0, and a topic judged only 0 or below
    text = "301 0 A 2\n301 0 B 0\n301 0 C -1\n301 0 D 2\n302 0 E 0\n301 0 D 0\n302 0 F -3\n"
    warnings = ["line 3: negative grade -1 for doc 'C', clamped to 0",
                "line 6: repeated judgment for doc 'D' in topic 301, kept last",
                "line 7: negative grade -3 for doc 'F', clamped to 0"]
    judged = {"301": {"A": 2, "B": 0, "C": -1, "D": 0}, "302": {"E": 0, "F": -3}}
    run = make_run("sys", {"301": ["D", "C", "B", "A"], "302": ["E", "F"]})
    for qrels in (parse_qrels(text), Qrels(judged, list(warnings))):
        assert list(qrels.topics.items()) == [("301", {"A": 2}), ("302", {})]
        assert qrels.warnings == warnings
        assert topic_intersection(run, qrels) == ("301",)
    assert judged["301"] == {"A": 2, "B": 0, "C": -1, "D": 0}  # the caller's maps are not changed


@pytest.mark.parametrize("kind", ["str", "text stream"])
@pytest.mark.parametrize("bad", ["302 0 B", "302 0 B 1 extra"])
def test_qrels_column_count_error_names_the_line(bad, kind):
    # blank, whitespace-only and CRLF lines before the bad one still count as lines
    text = f"301 0 A 1\r\n\r\n \t \r\n\n301 0 C 0\r\n{bad}\r\n302 0 D 1\r\n"
    with pytest.raises(TrecParseError) as info:
        parse_qrels(io.StringIO(text) if kind == "text stream" else text)
    assert str(info.value) == f"line 6: expected 4 columns, got {len(bad.split())}: {bad!r}"


def test_qrels_column_count_error_through_load_names_the_file(tmp_path):
    path = tmp_path / "qrels.txt"
    path.write_bytes(b"301 0 A 1\r\n\r\n301 0 B 1 2 3\r\n")
    with pytest.raises(TrecParseError) as info:
        load_qrels(str(path))
    assert str(info.value) == f"{path}: line 3: expected 4 columns, got 6: '301 0 B 1 2 3'"


# 1- and 2-character ids, ASCII and beyond: 342 of them
_CANON_CHARS = "aZz09_-.~\u00e9\u00df\u00ff\u0661\u03a9\u4e2d\uac00\U0001f600\U00010348"
_CANON_IDS = [*_CANON_CHARS, *(a + b for a in _CANON_CHARS for b in _CANON_CHARS)]
_CANON_SCORES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, math.inf, -math.inf)),
    st.floats(allow_nan=False), st.integers(-3, 3).map(float))


@st.composite
def _topic_scores(draw):
    """Up to 300 documents sharing at most 8 scores, so they tie often."""
    palette = draw(st.lists(_CANON_SCORES, min_size=1, max_size=8))
    rnd = random.Random(draw(st.integers(0, 2**32)))
    ids = rnd.sample(_CANON_IDS, draw(st.integers(1, 300)))
    return {d: rnd.choice(palette) for d in ids}


@settings(max_examples=100, deadline=None)
@given(scores=_topic_scores())
def test_canonical_ranking_matches_placement_oracle(scores):
    ranking = trec_io._canonical_ranking(scores)
    expected = oracles.brute_canonical_order(scores)
    assert list(zip(ranking.doc_ids, ranking.scores)) == expected
    # each document keeps its own score: repr tells -0.0 from 0.0
    assert list(map(repr, ranking.scores)) == [repr(s) for _, s in expected]


def test_topic_intersection_requires_relevant_docs():
    a = make_run("a", {"301": ["d1"], "302": ["d2"]})
    q = make_qrels({"301": {"d1": 1}, "302": {"d2": 0}})
    assert topic_intersection(a, q) == ("301",)


def test_topic_intersection_is_the_reference_runs_relevant_topics():
    # 303 is judged but not retrieved, 304 retrieved but not judged
    a = make_run("a", {"301": ["d1"], "302": ["d2"], "304": ["d4"]})
    q = make_qrels({"301": {"d1": 1}, "302": {"d2": 1}, "303": {"d3": 1}})
    assert topic_intersection(a, q) == ("301", "302")


def test_topic_intersection_without_a_relevant_topic_errors_naming_the_run():
    a = make_run("a", {"301": ["d1"], "302": ["d2"]})
    q = make_qrels({"301": {"d1": 0}, "303": {"d3": 1}})
    with pytest.raises(NoComparableTopicsError, match="^run 'a' has no topic judged relevant in the qrels$"):
        topic_intersection(a, q)


def test_topic_order_numeric_ascending():
    a = make_run("a", {"10": ["d"], "2": ["d"], "301": ["d"]})
    q = make_qrels({t: {"d": 1} for t in ("10", "2", "301")})
    assert topic_intersection(a, q) == ("2", "10", "301")


def test_non_decimal_digit_topic_sorts_after_numeric_ones():
    run = parse_run("\u00b2 Q0 A 1 1 t\n10 Q0 A 1 1 t\n2 Q0 A 1 1 t\n")
    assert list(run.topics) == ["2", "10", "\u00b2"]


def test_topic_ids_equal_as_numbers_sort_by_id_under_every_hash_seed():
    # 1, 01 and 001 are one number; set order varies with the hash seed, the id order does not
    code = ("from reprokit.trec_io import parse_run, parse_qrels, topic_intersection\n"
            "ids = ['001', '1', '01', '2', '02', 'x', '10']\n"
            "run = parse_run(''.join(f'{t} Q0 d 1 1 s\\n' for t in ids))\n"
            "qrels = parse_qrels(''.join(f'{t} 0 d 1\\n' for t in ids))\n"
            "print(list(run.topics), list(qrels.topics), topic_intersection(run, qrels))")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    orders = {subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)}).stdout
              for seed in range(1, 7)}
    ids = ["001", "01", "1", "02", "2", "10", "x"]
    assert orders == {f"{ids} {ids} {tuple(ids)}\n"}


def test_only_one_leading_bom_is_dropped_from_every_source(tmp_path):
    # the second BOM is text: every source reads it into the topic id alike
    text = "\ufeff\ufeff301 Q0 A 1 2.0 sys\n"
    path = tmp_path / "run.txt"
    path.write_bytes(text.encode())
    with open(path, encoding="utf-8") as text_stream:
        runs = [load_run(str(path)), parse_run(text), parse_run(io.StringIO(text)), parse_run(text_stream)]
    assert [list(run.topics) for run in runs] == [["\ufeff301"]] * 4
    qrels_path = tmp_path / "qrels.txt"
    qrels_path.write_bytes("\ufeff\ufeff301 0 A 1\n".encode())
    assert list(load_qrels(str(qrels_path)).topics) == ["\ufeff301"]


@pytest.mark.parametrize("parse, text", [
    (parse_run, b"301 Q0 A 1 2.0 sys\n301 Q0 caf\xe9 2 1.0 sys\n"),
    (parse_qrels, b"301 0 A 1\n301 0 caf\xe9 0\n"),
], ids=["run", "qrels"])
def test_bytes_that_are_not_utf8_are_a_parse_error(tmp_path, parse, text):
    message = r"not UTF-8 text: byte 0xe9"
    path = tmp_path / "latin1.txt"
    path.write_bytes(text)
    load = load_run if parse is parse_run else load_qrels
    with pytest.raises(TrecParseError, match=f"^{re.escape(str(path))}: {message}"):
        load(str(path))
    with open(path, encoding="utf-8") as text_stream, pytest.raises(TrecParseError, match=message):
        parse(text_stream)
