import pytest

from reprokit.errors import NoComparableTopicsError, TrecParseError
from reprokit.trec_io import (
    load_qrels,
    load_run,
    parse_qrels,
    parse_run,
    serialize_run,
    topic_intersection,
)

from conftest import make_qrels, make_run

RUN_TEXT = """\
301 Q0 NYT1 1 12.5 sys
"""


def test_parse_single_line():
    run = parse_run(RUN_TEXT)
    assert run.tag == "sys"
    assert run.topics["301"][0].doc_id == "NYT1"
    assert run.topics["301"][0].rank == 1
    assert run.topics["301"][0].score == 12.5


def test_canonical_order_puts_higher_score_first():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 2 2.0 sys\n")
    assert run.doc_ids("301") == ["B", "A"]
    assert [d.rank for d in run.topics["301"]] == [1, 2]


def test_tie_break_docid_descending():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 2 1.0 sys\n")
    assert run.doc_ids("301") == ["B", "A"]


def test_file_ranks_ignored_scores_define_order():
    run = parse_run("301 Q0 A 1 1.0 sys\n301 Q0 B 99 5.0 sys\n")
    assert run.doc_ids("301") == ["B", "A"]


def test_duplicate_doc_strict_errors_with_line_number():
    text = "301 Q0 A 1 1.0 sys\n301 Q0 A 2 0.5 sys\n"
    with pytest.raises(TrecParseError, match="line 2"):
        parse_run(text, mode="strict")


def test_duplicate_doc_lenient_keeps_higher_score():
    text = "301 Q0 A 1 1.0 sys\n301 Q0 A 2 3.0 sys\n301 Q0 B 3 2.0 sys\n"
    run = parse_run(text, mode="lenient")
    assert run.doc_ids("301") == ["A", "B"]
    assert run.topics["301"][0].score == 3.0
    assert len(run.warnings) == 1


def test_malformed_line_errors():
    with pytest.raises(TrecParseError, match="line 1"):
        parse_run("301 Q0 A 1 sys\n")
    with pytest.raises(TrecParseError, match="non-numeric score"):
        parse_run("301 Q0 A 1 abc sys\n")
    with pytest.raises(TrecParseError, match="empty"):
        parse_run("")


def test_parse_accepts_bytes():
    run = parse_run(b"301 Q0 NYT1 1 12.5 sys\n")
    assert run.doc_ids("301") == ["NYT1"]


def test_utf8_bom_does_not_split_a_topic(tmp_path):
    run_text = "301 Q0 A 1 2.0 sys\n301 Q0 B 2 1.0 sys\n"
    qrels_text = "301 0 A 1\n301 0 B 0\n"
    run_path = tmp_path / "run.txt"
    qrels_path = tmp_path / "qrels.txt"
    run_path.write_bytes(b"\xef\xbb\xbf" + run_text.encode())
    qrels_path.write_bytes(b"\xef\xbb\xbf" + qrels_text.encode())
    expected_run = parse_run(run_text)
    for run in (load_run(str(run_path)), parse_run(run_path.read_bytes()),
                parse_run("\ufeff" + run_text)):
        assert run.topics == expected_run.topics
    for qrels in (load_qrels(str(qrels_path)), parse_qrels(qrels_path.read_bytes())):
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
