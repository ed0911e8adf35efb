"""One topic rule for every run: a comparison is made on the topics of its
reference run (``run_orig`` in replicate and correlate, ``run_a`` on each
reproduce side) that hold a relevant document. Every other run is scored on
that set: a topic it lacks scores 0 and is warned once, and under ``--strict``
it is exit 4 naming the run. A topic only a compared run holds is not compared."""

import json
import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reprokit.cli import main

from conftest import make_run, qrels_text, run_text

TOPICS = [str(t) for t in range(301, 311)]
DOCS = {t: [f"{t}-{i}" for i in range(5)] for t in TOPICS}
ORIG = make_run("orig", DOCS)
# an exact copy of three of the original's topics, and one topic only it holds
PROBE = make_run("rpl", {**{t: DOCS[t] for t in TOPICS[:3]}, "399": ["399-0"]})
QRELS = qrels_text({t: {f"{t}-0": 1} for t in [*TOPICS, "399"]})
MISSING = [f"run 'rpl' missing topic {t}, scored 0" for t in TOPICS[3:]]
TAU_MISSING = "tau undefined on 7 topic(s) run 'rpl' lacks, excluded from mean"


def _write(tmp: pathlib.Path, runs: dict[str, object]) -> dict[str, str]:
    """Write q.txt and each run as ``<name>.run``; return each path by name."""
    (tmp / "q.txt").write_text(QRELS)
    for name, run in runs.items():
        (tmp / f"{name}.run").write_text(run_text(run))
    return {"q": str(tmp / "q.txt"), **{name: str(tmp / f"{name}.run") for name in runs}}


def _json(argv: list[str], capsys) -> dict:
    assert main([*argv, "--measures", "P@5", "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)


def _strict_error(argv: list[str], capsys) -> dict:
    assert main([*argv, "--measures", "P@5", "--strict"]) == 4
    return json.loads(capsys.readouterr().err)


def test_replicate_compares_on_the_original_runs_topics(tmp_path, capsys):
    p = _write(tmp_path, {"orig": ORIG, "rpl": PROBE})
    argv = ["replicate", "--run-orig", p["orig"], "--run-rpl", p["rpl"], "--qrels", p["q"]]
    rep = _json(argv, capsys)
    assert rep["topics"] == 10
    assert rep["warnings"] == [TAU_MISSING, *MISSING]
    # the three shared topics agree exactly; the seven missing ones share nothing
    assert rep["ordering"]["tau_union_mean"] == rep["ordering"]["tau_intersection_mean"] == 1.0
    assert rep["ordering"]["rbo_mean"] == pytest.approx(0.3 * (1 - 0.8 ** 5))
    block = rep["measures"]["P@5"]
    assert (block["arp_orig"], block["arp_rpl"]) == (pytest.approx(0.2), pytest.approx(0.06))
    assert _strict_error(argv, capsys) == {"error": "topic-mismatch", "message": "run 'rpl' is missing topic 304"}


def test_reproduce_compares_each_side_on_its_run_a_topics(tmp_path, capsys):
    rpd = make_run("rpd", {t: DOCS[t] for t in TOPICS[:-1]})
    p = _write(tmp_path, {"orig": ORIG, "rpl": PROBE, "rpd": rpd})
    argv = ["reproduce", "--run-a-orig", p["orig"], "--run-b-orig", p["rpl"], "--qrels-orig", p["q"],
            "--run-a-rpd", p["orig"], "--run-b-rpd", p["rpd"], "--qrels-rpd", p["q"]]
    rep = _json(argv, capsys)
    assert (rep["topics_orig"], rep["topics"]) == (10, 10)
    assert rep["warnings"] == [*MISSING, "run 'rpd' missing topic 310, scored 0"]
    assert rep["measures"]["P@5"]["arp_b_orig"] == pytest.approx(0.06)
    assert _strict_error(argv, capsys) == {"error": "topic-mismatch", "message": "run 'rpl' is missing topic 304"}


def test_correlate_ranks_every_candidate_on_the_original_runs_topics(tmp_path, capsys):
    # "none" shares no topic with the original: it is ranked, not the end of the report
    none = make_run("none", {"401": ["401-0"], "402": ["402-0"]})
    _write(tmp_path, {"orig": ORIG, "full": make_run("full", DOCS), "rpl": PROBE, "none": none})
    (tmp_path / "m.json").write_text(json.dumps({"qrels": "q.txt", "run_orig": "orig.run",
                                                 "candidates": ["full.run", "rpl.run", "none.run"]}))
    argv = ["correlate", "--manifest", str(tmp_path / "m.json")]
    rep = _json(argv, capsys)
    assert rep["warnings"] == [
        f"rpl.run: {TAU_MISSING}", *(f"rpl.run: {w}" for w in MISSING),
        "none.run: tau undefined on 10 topic(s) run 'none' lacks, excluded from mean",
        "none.run: tau-union unavailable on every topic",
        *(f"none.run: run 'none' missing topic {t}, scored 0" for t in TOPICS),
        "none.run: P@5: zero variance with nonzero mean difference"]
    # badness is -tau and -RBO: a null tau ranks last
    assert rep["rankings"]["tau"] == {"runs": ["full.run", "rpl.run", "none.run"], "badness": [-1.0, -1.0, None]}
    assert rep["rankings"]["rbo"] == {"runs": ["full.run", "rpl.run", "none.run"], "badness": [
        pytest.approx(0.8 ** 5 - 1), pytest.approx(0.3 * (0.8 ** 5 - 1)), 0.0]}
    assert _strict_error(argv, capsys) == {"error": "topic-mismatch",
                                           "message": "rpl.run: run 'rpl' is missing topic 304"}


@pytest.mark.parametrize("lacking", ["x2", "b2"])
def test_correlate_strict_error_names_the_candidate(tmp_path, capsys, lacking):
    # both candidates' runs have tag "x" and both baselines tag "b": only the id tells them apart
    runs = {"orig": ORIG, "b_orig": make_run("b_orig", DOCS)}
    for name in ("x1", "x2", "b1", "b2"):
        docs = {t: DOCS[t] for t in TOPICS if not (name == lacking and t == "305")}
        runs[name] = make_run(name[0], docs)
    _write(tmp_path, runs)
    (tmp_path / "m.json").write_text(json.dumps({
        "qrels": "q.txt", "run_orig": "orig.run", "run_b_orig": "b_orig.run",
        "candidates": [{"run": "x1.run", "run_b": "b1.run"}, {"run": "x2.run", "run_b": "b2.run"}]}))
    argv = ["correlate", "--manifest", str(tmp_path / "m.json")]
    assert _strict_error(argv, capsys) == {"error": "topic-mismatch",
                                           "message": f"x2.run: run '{lacking[0]}' is missing topic 305"}
    assert f"x2.run: run '{lacking[0]}' missing topic 305, scored 0" in _json(argv, capsys)["warnings"]


@settings(max_examples=40, deadline=None)
@given(relevant=st.lists(st.booleans(), min_size=len(TOPICS), max_size=len(TOPICS)).filter(any),
       dropped=st.sets(st.sampled_from(TOPICS)))
def test_a_recreated_run_that_drops_topics_is_compared_on_every_reference_topic(relevant, dropped):
    judged = [t for t, rel in zip(TOPICS, relevant) if rel]
    missing = [t for t in judged if t in dropped]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "q.txt").write_text(qrels_text({t: {f"{t}-0": int(t in judged)} for t in TOPICS}))
        (tmp / "orig.run").write_text(run_text(ORIG))
        kept = {t: DOCS[t] for t in TOPICS if t not in dropped}
        (tmp / "rpl.run").write_text(run_text(make_run("rpl", {**kept, "399": ["399-0"]})))  # never empty
        argv = ["replicate", "--run-orig", str(tmp / "orig.run"), "--run-rpl", str(tmp / "rpl.run"),
                "--qrels", str(tmp / "q.txt"), "--measures", "P@5", "--output", str(tmp / "out.json")]
        assert main([*argv, "--format", "json"]) == 0
        rep = json.loads((tmp / "out.json").read_text())
        assert rep["topics"] == len(judged)
        assert [w for w in rep["warnings"] if "missing topic" in w] == [
            f"run 'rpl' missing topic {t}, scored 0" for t in missing]
        tau_missing = [w for w in rep["warnings"] if "lacks" in w]
        assert tau_missing == ([f"tau undefined on {len(missing)} topic(s) run 'rpl' lacks, excluded from mean"]
                               if missing else [])
        assert main([*argv, "--strict"]) == (4 if missing else 0)
