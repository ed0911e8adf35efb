import io
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit.errors import NoComparableTopicsError, TrecParseError
from reprokit.trec_io import (
    load_qrels,
    load_run,
    parse_qrels,
    parse_run,
    serialize_run,
    topic_intersection,
)

import oracles
from conftest import make_qrels, make_run

RUN_TEXT = """\
301 Q0 NYT1 1 12.5 sys
"""


def test_parse_single_line():
    run = parse_run(RUN_TEXT)
    assert run.tag == "sys"
    assert run.topics["301"].doc_ids[0] == "NYT1"
    assert serialize_run(run).split()[3] == "1"
    assert run.topics["301"].scores[0] == 12.5


def test_canonical_order_puts_higher_score_first():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 2 2.0 sys\n")
    assert run.topics["301"].doc_ids == ("B", "A")
    assert [line.split()[3] for line in serialize_run(run).splitlines()] == ["1", "2"]


def test_tie_break_docid_descending():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 2 1.0 sys\n")
    assert run.topics["301"].doc_ids == ("B", "A")


def test_file_ranks_ignored_scores_define_order():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 99 5.0 sys\n")
    assert run.topics["301"].doc_ids == ("B", "A")


def test_duplicate_doc_strict_errors_with_line_number():
    text = "301 Q0 A 1 1.0 sys\n301 Q0 A 2 0.5 sys\n"
    with pytest.raises(TrecParseError, match="line 2"):
        parse_run(text, mode="strict")


def test_duplicate_doc_lenient_keeps_higher_score():
    text = "301 Q0 A 1 1.0 sys\n301 Q0 A 2 3.0 sys\n301 Q0 B 3 2.0 sys\n"
    run = parse_run(text, mode="lenient")
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
        parse_run(text, mode="lenient")
    with pytest.raises(TrecParseError, match="line 1: non-numeric score 'NaN'"):
        parse_run("301 Q0 A 1 NaN sys\n")
    run = parse_run("301 Q0 A 1 -inf sys\n301 Q0 B 2 1.0 sys\n301 Q0 C 3 inf sys\n")
    assert run.topics["301"].doc_ids == ("C", "B", "A")
    assert run.topics["301"].scores == (float("inf"), 1.0, float("-inf"))


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
    assert peak - held < size / 2, f"peak {(peak - held) / 2**20:.1f} MB above the parsed run"


_TOPICS = ("301", "302", "2", "10", "q7", "\u00b2")
_DOCS = ("A", "B", "BB", "Z", "d10", "d9")
# "1", "1.0" and "1e0" tie, as do "0" and "-0.0"
_SCORES = ("1", "1.0", "1e0", "2.5", "0", "-0.0", "-3", "inf", "-inf")
# int() accepts these ranks although they are not plain ASCII digits
_ODD_RANKS = ("+7", "1_000", "\u0661\u0662", "\uff11\uff12")
_BAD = {
    # "\u00b2" and "\u066b" look numeric, but int() rejects them
    "rank": ("x", "1.5", "r1", "\u00b2", "\u066b"),
    "score": ("abc", "nan", "-NaN", "1,5"),
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
    eol = draw(st.sampled_from(("\n", "\r\n")))
    text = eol.join(lines) + draw(st.sampled_from(("", eol)))
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


@settings(max_examples=200, deadline=None)
@given(text=_run_texts(), mode=st.sampled_from(("strict", "lenient")),
       kind=st.sampled_from(("str", "bytes", "binary stream", "text stream")))
def test_parse_run_matches_brute_force_parser(text, mode, kind):
    source = {"str": text, "bytes": text.encode(), "binary stream": io.BytesIO(text.encode()),
              "text stream": io.StringIO(text, newline="")}[kind]
    try:
        expected = oracles.brute_parse_run(text, mode)
    except ValueError as e:
        with pytest.raises(TrecParseError) as info:
            parse_run(source, mode=mode)
        assert str(info.value) == str(e)
        return
    run = parse_run(source, mode=mode)
    got = [(t, list(zip(r.doc_ids, r.scores))) for t, r in run.topics.items()]
    assert (run.tag, got, run.warnings) == expected


def test_parse_accepts_bytes():
    run = parse_run(b"301 Q0 NYT1 1 12.5 sys\n")
    assert run.topics["301"].doc_ids == ("NYT1",)


def test_parse_reads_binary_and_text_streams():
    run_text = "302 Q0 A 1 2.0 sys\r\n\r\n301 Q0 B 1 1.0 sys\r\n302 Q0 C 2 3.0 sys\r\n"
    expected = parse_run(run_text)
    binary = io.BytesIO(b"\xef\xbb\xbf" + run_text.encode())
    assert parse_run(binary).topics == expected.topics
    assert not binary.closed
    assert parse_run(io.StringIO(run_text)).topics == expected.topics
    bad = io.BytesIO("301 Q0 A 1 2.0 sys\n301 Q0 B 1 \u00bd sys\n".encode())
    with pytest.raises(TrecParseError, match="line 2: non-numeric score '\u00bd'"):
        parse_run(bad)
    assert not bad.closed
    qrels_text = "301 0 A 1\r\n\r\n301 0 C 0\n"
    for source in (io.BytesIO(b"\xef\xbb\xbf" + qrels_text.encode()), io.StringIO(qrels_text)):
        assert parse_qrels(source).topics == {"301": {"A": 1, "C": 0}}


def test_utf8_bom_does_not_split_a_topic(tmp_path):
    run_text = "301 Q0 A 1 2.0 sys\n301 Q0 B 2 1.0 sys\n"
    qrels_text = "301 0 A 1\n301 0 B 0\n"
    run_path = tmp_path / "run.txt"
    qrels_path = tmp_path / "qrels.txt"
    run_path.write_bytes(b"\xef\xbb\xbf" + run_text.encode())
    qrels_path.write_bytes(b"\xef\xbb\xbf" + qrels_text.encode())
    expected_run = parse_run(run_text)
    with open(run_path, encoding="utf-8") as text_stream:
        from_text_stream = parse_run(text_stream)
    for run in (load_run(str(run_path)), parse_run(run_path.read_bytes()),
                parse_run("\ufeff" + run_text), parse_run(io.StringIO("\ufeff" + run_text)),
                from_text_stream):
        assert run.topics == expected_run.topics
    with open(qrels_path, encoding="utf-8") as text_stream:
        from_text_stream = parse_qrels(text_stream)
    for qrels in (load_qrels(str(qrels_path)), parse_qrels(qrels_path.read_bytes()),
                  parse_qrels("\ufeff" + qrels_text), parse_qrels(io.StringIO("\ufeff" + qrels_text)),
                  from_text_stream):
        assert qrels.topics == {"301": {"A": 1, "B": 0}}


def test_permuting_lines_gives_identical_run(rng):
    lines = [f"301 Q0 D{i} {i} {s} sys" for i, s in enumerate([3.0, 1.0, 2.5, 0.5, 2.5])]
    base = parse_run("\n".join(lines))
    for _ in range(10):
        rng.shuffle(lines)
        assert parse_run("\n".join(lines)).topics == base.topics


def test_serialize_round_trip_idempotent():
    run = parse_run("302 Q0 A 5 1.0 sys\n301 Q0 B 1 2.0 sys\n301 Q0 C 2 1.0 sys\n")
    text = serialize_run(run)
    again = parse_run(text)
    assert serialize_run(again) == text
    assert again.topics == run.topics


def test_qrels_basic_and_absence():
    q = parse_qrels("301 0 NYT1 2\n")
    assert q.grade("301", "NYT1") == 2
    assert q.grade("301", "NYT9") == 0


def test_qrels_negative_grade_clamped_with_warning():
    q = parse_qrels("301 0 NYT1 -1\n")
    assert q.grade("301", "NYT1") == 0
    assert q.warnings


def test_qrels_repeated_pair_takes_last():
    q = parse_qrels("301 0 A 1\n301 0 A 2\n")
    assert q.grade("301", "A") == 2
    assert q.warnings


def test_qrels_non_integer_grade():
    with pytest.raises(TrecParseError, match="line 1"):
        parse_qrels("301 0 A x\n")


def test_topic_intersection_requires_relevant_docs():
    a = make_run("a", {"301": ["d1"], "302": ["d2"]})
    b = make_run("b", {"301": ["d1"], "302": ["d2"]})
    q = make_qrels({"301": {"d1": 1}, "302": {"d2": 0}})
    assert topic_intersection(a, b, q).ids == ("301",)


def test_topic_intersection_identity():
    a = make_run("a", {"301": ["d1"], "302": ["d2"]})
    q = make_qrels({"301": {"d1": 1}, "302": {"d2": 1}})
    assert topic_intersection(a, a, q).ids == ("301", "302")


def test_topic_intersection_disjoint_errors():
    a = make_run("a", {"301": ["d1"]})
    b = make_run("b", {"302": ["d2"]})
    q = make_qrels({"301": {"d1": 1}, "302": {"d2": 1}})
    with pytest.raises(NoComparableTopicsError):
        topic_intersection(a, b, q)


def test_topic_order_numeric_ascending():
    a = make_run("a", {"10": ["d"], "2": ["d"], "301": ["d"]})
    q = make_qrels({t: {"d": 1} for t in ("10", "2", "301")})
    assert topic_intersection(a, a, q).ids == ("2", "10", "301")


def test_non_decimal_digit_topic_sorts_after_numeric_ones():
    run = parse_run("\u00b2 Q0 A 1 1 t\n10 Q0 A 1 1 t\n2 Q0 A 1 1 t\n")
    assert list(run.topics) == ["2", "10", "\u00b2"]
