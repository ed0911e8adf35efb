"""One topic rule for every run: a comparison is made on the topics of its
reference run (``run_orig`` in replicate and correlate, ``run_a`` on each
reproduce side) that hold a relevant document. Every other run is scored on
that set: a topic it lacks scores 0 and is warned once, and under ``--strict``
it is exit 4 naming the run. A topic only a compared run holds is not compared."""

import pathlib
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cli_argv, make_run, qrels_text, run_cli, write_files

TOPICS = [str(t) for t in range(301, 311)]
DOCS = {t: [f"{t}-{i}" for i in range(5)] for t in TOPICS}
ORIG = make_run("orig", DOCS)
# an exact copy of three of the original's topics, and one topic only it holds
PROBE = make_run("rpl", {**{t: DOCS[t] for t in TOPICS[:3]}, "399": ["399-0"]})
QRELS = qrels_text({t: {f"{t}-0": 1} for t in [*TOPICS, "399"]})
MISSING = [f"run 'rpl' missing topic {t}, scored 0" for t in TOPICS[3:]]
TAU_MISSING = "tau undefined on 7 topic(s) run 'rpl' lacks, excluded from mean"


def test_replicate_compares_on_the_original_runs_topics(tmp_path):
    p = write_files(tmp_path, {"q.txt": QRELS, "orig.run": ORIG, "rpl.run": PROBE})
    argv = cli_argv("replicate", {"run_orig": p["orig.run"], "run_rpl": p["rpl.run"], "qrels": p["q.txt"]},
                    "--measures", "P@5")
    rep = run_cli([*argv, "--format", "json"])
    assert rep["topics"] == 10
    assert rep["warnings"] == [TAU_MISSING, *MISSING]
    # the three shared topics agree exactly; the seven missing ones share nothing
    assert rep["ordering"]["tau_union_mean"] == rep["ordering"]["tau_intersection_mean"] == 1.0
    assert rep["ordering"]["rbo_mean"] == pytest.approx(0.3 * (1 - 0.8 ** 5))
    block = rep["measures"]["P@5"]
    assert (block["arp_orig"], block["arp_rpl"]) == (pytest.approx(0.2), pytest.approx(0.06))
    assert run_cli([*argv, "--strict"], 4) == {"error": "topic-mismatch", "message": "run 'rpl' is missing topic 304"}


def test_reproduce_compares_each_side_on_its_run_a_topics(tmp_path):
    rpd = make_run("rpd", {t: DOCS[t] for t in TOPICS[:-1]})
    p = write_files(tmp_path, {"q.txt": QRELS, "orig.run": ORIG, "rpl.run": PROBE, "rpd.run": rpd})
    argv = cli_argv("reproduce", {"run_a_orig": p["orig.run"], "run_b_orig": p["rpl.run"], "qrels_orig": p["q.txt"],
                                  "run_a_rpd": p["orig.run"], "run_b_rpd": p["rpd.run"], "qrels_rpd": p["q.txt"]},
                    "--measures", "P@5")
    rep = run_cli([*argv, "--format", "json"])
    assert (rep["topics_orig"], rep["topics"]) == (10, 10)
    assert rep["warnings"] == [*MISSING, "run 'rpd' missing topic 310, scored 0"]
    assert rep["measures"]["P@5"]["arp_b_orig"] == pytest.approx(0.06)
    assert run_cli([*argv, "--strict"], 4) == {"error": "topic-mismatch", "message": "run 'rpl' is missing topic 304"}


def test_correlate_ranks_every_candidate_on_the_original_runs_topics(tmp_path):
    # "none" shares no topic with the original: it is ranked, not the end of the report
    none = make_run("none", {"401": ["401-0"], "402": ["402-0"]})
    p = write_files(tmp_path, {"q.txt": QRELS, "orig.run": ORIG, "full.run": make_run("full", DOCS),
                               "rpl.run": PROBE, "none.run": none,
                               "m.json": {"qrels": "q.txt", "run_orig": "orig.run",
                                          "candidates": ["full.run", "rpl.run", "none.run"]}})
    argv = cli_argv("correlate", {"manifest": p["m.json"]}, "--measures", "P@5")
    rep = run_cli([*argv, "--format", "json"])
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
    assert run_cli([*argv, "--strict"], 4) == {"error": "topic-mismatch",
                                               "message": "rpl.run: run 'rpl' is missing topic 304"}


@pytest.mark.parametrize("lacking", ["x2", "b2"])
def test_correlate_strict_error_names_the_candidate(tmp_path, lacking):
    # both candidates' runs have tag "x" and both baselines tag "b": only the id tells them apart
    files = {"q.txt": QRELS, "orig.run": ORIG, "b_orig.run": make_run("b_orig", DOCS), "m.json": {
        "qrels": "q.txt", "run_orig": "orig.run", "run_b_orig": "b_orig.run",
        "candidates": [{"run": "x1.run", "run_b": "b1.run"}, {"run": "x2.run", "run_b": "b2.run"}]}}
    for name in ("x1", "x2", "b1", "b2"):
        docs = {t: DOCS[t] for t in TOPICS if not (name == lacking and t == "305")}
        files[f"{name}.run"] = make_run(name[0], docs)
    argv = cli_argv("correlate", {"manifest": write_files(tmp_path, files)["m.json"]}, "--measures", "P@5")
    assert run_cli([*argv, "--strict"], 4) == {"error": "topic-mismatch",
                                               "message": f"x2.run: run '{lacking[0]}' is missing topic 305"}
    assert f"x2.run: run '{lacking[0]}' missing topic 305, scored 0" in run_cli([*argv, "--format", "json"])["warnings"]


@settings(max_examples=40, deadline=None)
@given(relevant=st.lists(st.booleans(), min_size=len(TOPICS), max_size=len(TOPICS)).filter(any),
       dropped=st.sets(st.sampled_from(TOPICS)))
def test_a_recreated_run_that_drops_topics_is_compared_on_every_reference_topic(relevant, dropped):
    judged = [t for t, rel in zip(TOPICS, relevant) if rel]
    missing = [t for t in judged if t in dropped]
    kept = {t: DOCS[t] for t in TOPICS if t not in dropped}
    with tempfile.TemporaryDirectory() as tmp:
        p = write_files(pathlib.Path(tmp), {
            "q.txt": qrels_text({t: {f"{t}-0": int(t in judged)} for t in TOPICS}), "orig.run": ORIG,
            "rpl.run": make_run("rpl", {**kept, "399": ["399-0"]})})  # never empty
        argv = cli_argv("replicate", {"run_orig": p["orig.run"], "run_rpl": p["rpl.run"], "qrels": p["q.txt"]},
                        "--measures", "P@5")
        rep = run_cli([*argv, "--format", "json"])
        assert rep["topics"] == len(judged)
        assert [w for w in rep["warnings"] if "missing topic" in w] == [
            f"run 'rpl' missing topic {t}, scored 0" for t in missing]
        tau_missing = [w for w in rep["warnings"] if "lacks" in w]
        assert tau_missing == ([f"tau undefined on {len(missing)} topic(s) run 'rpl' lacks, excluded from mean"]
                               if missing else [])
        run_cli([*argv, "--strict"], 4 if missing else 0)
