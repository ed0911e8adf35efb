"""No undefined value stops a report. A tau-union mean, a t-test or an effect
that is undefined exits 0: it is null in JSON and an empty cell in CSV and
table, and the report's warnings give the reason, each warning on a measure's
value starting with the measure's label."""

import csv
import io
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit.effects import EffectSummary

from conftest import cli_argv, make_run, qrels_text, run_cli, write_files

LABELS = ("P@2", "AP@3")
MEASURES = ["--measures", ",".join(LABELS)]


def _reports(tmp: pathlib.Path, command: str, files: dict[str, object], baselines: bool) -> dict:
    """Write ``files`` and run ``command`` on them in each format, each exiting 0. The
    inputs are a.run (original), b.run (re-created), q.txt and, with ``baselines``, ba.run
    and bb.run; reproduce takes a.run and ba.run on q.txt as the original side and b.run
    and bb.run on q2.txt as the new one."""
    manifest = {"qrels": "q.txt", "run_orig": "a.run", "candidates": ["b.run", "a.run"]}
    inputs = {"replicate": {"run_orig": "a.run", "run_rpl": "b.run", "qrels": "q.txt"},
              "reproduce": {"run_a_orig": "a.run", "run_b_orig": "ba.run", "qrels_orig": "q.txt",
                            "run_a_rpd": "b.run", "run_b_rpd": "bb.run", "qrels_rpd": "q2.txt"},
              "correlate": {"manifest": "m.json"}}[command]
    if baselines:
        manifest.update(run_b_orig="ba.run",
                        candidates=[{"run": "b.run", "run_b": "bb.run"}, {"run": "a.run", "run_b": "ba.run"}])
        if command == "replicate":
            inputs.update(run_b_orig="ba.run", run_b_rpl="bb.run")
    p = write_files(tmp, {**files, "m.json": manifest})
    argv = cli_argv(command, {role: p[name] for role, name in inputs.items()}, *MEASURES)
    return {fmt: run_cli([*argv, "--format", fmt]) for fmt in ("json", "csv", "table")}


def _json_value(rep: dict, label: str, column: str):
    if column == "tau_union":
        return rep["ordering"]["tau_union_mean"]
    return rep["effects" if column in EffectSummary._fields else "measures"][label][column]


def _table_cells(table: str, label: str) -> dict[str, str]:
    """The cells of ``label``'s measure row and, when there is one, its effect row."""
    rows = [line for line in table.splitlines() if line.startswith(f"{label} ")]
    _, tau_rbo, _, p_value = rows[0].split(" | ")
    cells = {"tau_union": tau_rbo[:8].strip(), "p_value": p_value.strip()}
    if len(rows) > 1:
        widths = {"er": 10, "ri": 10, "ri_prime": 10, "delta_ri": 10, "region": 18, "dist": 8}
        at = 12
        for column, width in widths.items():
            cells[column] = rows[1][at:at + width].strip()
            at += width
    return cells


def _assert_null(out: dict[str, str], columns: tuple[str, ...], warnings: list[str]) -> None:
    """Each column is null in JSON and an empty cell in CSV and table, for every
    measure, and each warning is in the report."""
    rep = out["json"]
    rows = {row["measure"]: row for row in csv.DictReader(io.StringIO(out["csv"]))}
    for label in LABELS:
        cells = _table_cells(out["table"], label)
        for column in columns:
            assert _json_value(rep, label, column) is None, (label, column)
            assert rows[label][column] == "", (label, column)
            assert cells.get(column, "") == "", (label, column)
        assert cells["p_value"] != "" or "p_value" in columns  # a defined value is printed
    for w in warnings:
        assert w in rep["warnings"]
        assert f"  - {w}" in out["table"].splitlines()


def _assert_blank_measure(out: dict[str, str], measure_id: str, warnings: list[str]) -> None:
    """In a correlate report, every candidate has badness null under ``measure_id``,
    whose row and column of the matrix are blank off the diagonal and unflagged."""
    rep = out["json"]
    assert rep["rankings"][measure_id]["badness"] == [None, None]
    assert not [f for f in rep["flags"] if measure_id in (f["a"], f["b"])]
    assert out["csv"] == rep["matrix_csv"] and out["table"].startswith(rep["matrix_csv"])
    rows = list(csv.reader(io.StringIO(rep["matrix_csv"])))
    i = rows[0].index(measure_id) - 1
    for j, row in enumerate(rows[1:]):
        cells = row[1:]
        if j == i:
            assert cells[:i] + cells[i + 1:] == [""] * (len(cells) - 1)
        else:
            assert cells[i] == ""
    for w in warnings:
        assert w in rep["warnings"]
        assert f"  - {w}" in out["table"].splitlines()


TWO_TOPICS = {"a.run": make_run("a", {"301": ["A", "B", "C"], "302": ["D", "E"]}),
              "b.run": make_run("b", {"301": ["B", "A", "C"], "302": ["E", "D"]}),
              "q.txt": qrels_text({"301": {"A": 1, "C": 1}, "302": {"D": 1}}),
              "q2.txt": qrels_text({"301": {"B": 1}, "302": {"E": 1}}),
              "bb.run": make_run("bb", {"301": ["C", "B"], "302": ["D"]})}
ZERO = make_run("z", {"301": ["N"], "302": ["N"]})  # retrieves nothing relevant
ONE_TOPIC = {"a.run": "301 Q0 A 1 2.0 a\n301 Q0 B 2 1.0 a\n",
             "b.run": "301 Q0 B 1 2.0 b\n301 Q0 A 2 1.0 b\n",
             "q.txt": "301 0 A 1\n", "q2.txt": "301 0 A 1\n"}


@pytest.mark.parametrize("command", ["replicate", "reproduce", "correlate"])
def test_one_comparable_topic_gives_null_t_tests(tmp_path, command):
    # a t-test needs two topics: with one, both of its values are null
    files = {**ONE_TOPIC, "ba.run": ONE_TOPIC["b.run"], "bb.run": ONE_TOPIC["a.run"]}
    out = _reports(tmp_path, command, files, baselines=False)
    if command == "correlate":
        for label in LABELS:
            _assert_blank_measure(out, f"p_value_{label}", [
                f"{run}: {label}: paired test needs n >= 2 topics, got 1" for run in ("a.run", "b.run")])
        return
    if command == "reproduce":
        rep = out["json"]
        for label in LABELS:
            assert rep["measures"][label]["t_stat_baseline"] is rep["measures"][label]["p_value_baseline"] is None
        warnings = [f"{label}: unpaired test needs n >= 2 per sample, got 1 and 1" for label in LABELS]
    else:
        warnings = [f"{label}: paired test needs n >= 2 topics, got 1" for label in LABELS]
    _assert_null(out, ("t_stat", "p_value"), warnings)


# each run scores the same on both of its topics, and no run as its counterpart on the other side
CONSTANT = {"a.run": make_run("a", {"301": ["N", "A"], "302": ["N", "C"]}),
            "ba.run": make_run("ba", {"301": ["N", "M"], "302": ["N", "M"]}),
            "b.run": make_run("b", {"301": ["B", "D"], "302": ["E", "F"]}),
            "bb.run": make_run("bb", {"301": ["B", "N"], "302": ["E", "N"]}),
            "q.txt": qrels_text({"301": {"A": 1}, "302": {"C": 1}}),
            "q2.txt": qrels_text({"301": {"B": 1, "D": 1}, "302": {"E": 1, "F": 1}})}


@pytest.mark.parametrize("files, warning", [
    ({**ONE_TOPIC, "ba.run": ONE_TOPIC["b.run"], "bb.run": ONE_TOPIC["a.run"]},
     "unpaired test needs n >= 2 per sample, got 1 and 1"),
    (CONSTANT, "zero variance in both samples with unequal means"),
], ids=["one-topic", "constant"])
def test_reproduce_names_the_test_each_warning_is_about(tmp_path, files, warning):
    # the a against a' and the b against b' test of a measure warn alike; the baselines' says so
    out = _reports(tmp_path, "reproduce", files, baselines=True)
    rep = out["json"]
    table = out["table"].splitlines()
    for label in LABELS:
        for line in (f"{label}: {warning}", f"{label}: baseline runs: {warning}"):
            assert rep["warnings"].count(line) == 1, line
            assert table.count(f"  - {line}") == 1, line


@pytest.mark.parametrize("command", ["replicate", "correlate"])
def test_tau_union_undefined_on_every_topic_is_a_null_mean(tmp_path, command):
    # one document per topic pairs no two positions, so no topic has a tau-union
    out = _reports(tmp_path, command, {"a.run": "301 Q0 A 1 2.0 a\n302 Q0 C 1 2.0 a\n",
                                       "b.run": "301 Q0 B 1 2.0 b\n302 Q0 C 1 2.0 b\n",
                                       "q.txt": "301 0 A 1\n302 0 C 1\n"}, baselines=False)
    if command == "correlate":
        _assert_blank_measure(out, "tau", [f"{run}: tau-union unavailable on every topic"
                                           for run in ("a.run", "b.run")])
    else:
        _assert_null(out, ("tau_union",), ["tau-union unavailable on every topic"])


@pytest.mark.parametrize("command", ["replicate", "reproduce", "correlate"])
def test_zero_original_improvement_is_a_null_er(tmp_path, command):
    # the original baseline is the original run, so there is no improvement to re-create
    out = _reports(tmp_path, command, {**TWO_TOPICS, "ba.run": TWO_TOPICS["a.run"]}, baselines=True)
    if command == "correlate":
        for label in LABELS:
            _assert_blank_measure(out, f"er_{label}", [
                f"{run}: {label}: er, region and dist undefined: the original pair has no mean improvement"
                for run in ("a.run", "b.run")])
    else:
        _assert_null(out, ("er", "region", "dist"), [
            f"{label}: er, region and dist undefined: the original pair has no mean improvement"
            for label in LABELS])


@pytest.mark.parametrize("command", ["replicate", "reproduce"])
def test_zero_baseline_mean_is_a_null_ri(tmp_path, command):
    out = _reports(tmp_path, command, {**TWO_TOPICS, "ba.run": ZERO}, baselines=True)
    rep = out["json"]
    assert all(rep["effects"][label]["er"] is not None for label in LABELS)
    _assert_null(out, ("ri", "delta_ri", "region", "dist"), [
        f"{label}: ri, delta_ri, region and dist undefined: baseline run 'z' has zero mean score"
        for label in LABELS])


# --- any tiny input: nothing undefined aborts, and every null is explained ---

DOCS = ("A", "B", "C")
TOPICS = ("301", "302", "303")


@st.composite
def _side(draw):
    """Runs a and b, a baseline for each, and qrels, on 1-3 topics of 1-3
    documents; a baseline is a copy of its run, retrieves nothing relevant, or is drawn."""
    topics = draw(st.lists(st.sampled_from(TOPICS), min_size=1, max_size=3, unique=True))
    ranking = st.lists(st.sampled_from(DOCS), min_size=1, max_size=3, unique=True)

    def run():
        return {t: draw(ranking) for t in topics}

    # each topic judges one document relevant, which no run may retrieve ("Z")
    grades = {t: {**{d: draw(st.integers(0, 2)) for d in DOCS}, draw(st.sampled_from(DOCS + ("Z",))): 1}
              for t in topics}
    a, b = run(), run()
    files = {"a.run": make_run("a", a), "b.run": make_run("b", b), "q.txt": qrels_text(grades)}
    for name, own in (("ba.run", a), ("bb.run", b)):
        kind = draw(st.sampled_from(["copy", "zero", "drawn"]))
        docs = {t: ["N"] for t in topics} if kind == "zero" else own if kind == "copy" else run()
        files[name] = make_run(name[:2], docs)
    return files


def _assert_each_null_is_explained(rep: dict) -> None:
    warnings = rep["warnings"]
    if rep["mode"] == "correlate":
        for mid, ranking in rep["rankings"].items():
            for run, badness in zip(ranking["runs"], ranking["badness"]):
                if badness is None:
                    prefix = f"{run}: tau-union unavailable" if mid == "tau" else f"{run}: {mid.rpartition('_')[2]}: "
                    assert any(w.startswith(prefix) for w in warnings), (mid, run)
        return
    for key, name in (("tau_union_mean", "tau-union"), ("tau_intersection_mean", "tau-intersection")):
        if (rep.get("ordering") or {key: 0})[key] is None:
            assert f"{name} unavailable on every topic" in warnings
    for kind in ("measures", "effects"):
        for label, block in (rep[kind] or {}).items():
            for key, value in block.items():
                # a measure's null is a one-topic t-test or an infinite t, each with its warning
                assert value is not None or any(
                    w.startswith(f"{label}: ") and (kind == "measures" or key in w) for w in warnings), (label, key)


@pytest.mark.parametrize("command", ["replicate", "reproduce", "correlate"])
@settings(max_examples=40, deadline=None)
@given(side=_side(), other=_side(), baselines=st.booleans())
def test_no_undefined_value_aborts_a_report(command, side, other, baselines):
    if command == "reproduce":  # the new side is a side of its own
        side = {**side, "b.run": other["a.run"], "bb.run": other["ba.run"], "q2.txt": other["q.txt"]}
    with tempfile.TemporaryDirectory() as tmp:
        _assert_each_null_is_explained(_reports(pathlib.Path(tmp), command, side, baselines)["json"])
