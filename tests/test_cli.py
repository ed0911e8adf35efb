import gc
import hashlib
import json
import os
import re
import weakref

import pytest

from reprokit import cli, meta, ordering
from reprokit.cli import build_replicate_report
from reprokit.effectiveness import parse_measure_spec, score_run
from reprokit.errors import ConfigError
from reprokit.report import CSV_HEADER, build_correlation_report, build_reproduce_report, emit
from reprokit.trec_io import load_qrels, load_run, topic_intersection

from conftest import ROLES, cli_argv, make_qrels, make_run, random_qrels, random_run, run_cli, write_files


def with_duplicate(path, src_path, tag):
    """Copy a run file and repeat its first document at a lower score on a new
    last line; return the lenient-mode load warning that line gives."""
    lines = src_path.read_text().splitlines()
    topic, _, doc = lines[0].split()[:3]
    path.write_text("\n".join(lines + [f"{topic} Q0 {doc} 99 -1.0 {tag}"]) + "\n")
    return f"line {len(lines) + 1}: duplicate doc {doc!r} in topic {topic}, kept higher score"


@pytest.fixture
def paths(tmp_path, rng):
    """orig.run, rpl.run on its topics, and qrels.txt, by their ``replicate`` roles."""
    orig = random_run(rng, "orig", 6, 20)
    rpl = random_run(rng, "rpl", 6, 20)
    rpl.topics = {t: rpl.topics[t] for t in orig.topics}  # align topic ids
    p = write_files(tmp_path, {"orig.run": orig, "rpl.run": rpl, "qrels.txt": random_qrels(rng, orig)})
    return {"run_orig": p["orig.run"], "run_rpl": p["rpl.run"], "qrels": p["qrels.txt"]}


class TestReplicate:
    def test_self_comparison(self, paths):
        rep = run_cli(cli_argv("replicate", {**paths, "run_rpl": paths["run_orig"], "run_b_orig": paths["run_rpl"],
                                             "run_b_rpl": paths["run_rpl"]}, "--format", "json"))
        assert rep["ordering"]["tau_union_mean"] == 1.0
        assert rep["ordering"]["rbo_mean"] == pytest.approx(1 - 0.8 ** 20, abs=1e-12)
        for block in rep["measures"].values():
            assert block["rmse"] == 0.0
            assert block["delta_arp"] == 0.0
            assert block["p_value"] == 1.0
        for eff in rep["effects"].values():
            assert eff["er"] == pytest.approx(1.0)
            assert eff["delta_ri"] == pytest.approx(0.0)

    def test_single_measure_filter(self, paths):
        rep = run_cli(cli_argv("replicate", paths, "--measures", "P@10", "--format", "json"))
        assert list(rep["measures"]) == ["P@10"]

    def test_output_deterministic(self, paths):
        args = cli_argv("replicate", paths, "--format", "json")
        first = run_cli(args, text=True)
        assert run_cli(args, text=True) == first

    def test_json_round_trips(self, paths):
        out = run_cli(cli_argv("replicate", paths, "--format", "json"), text=True)
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    def test_csv_header_fixed(self, paths):
        out = run_cli(cli_argv("replicate", paths, "--format", "csv"))
        assert out.splitlines()[0] == CSV_HEADER

    def test_table_format_runs(self, paths):
        assert "measure" in run_cli(cli_argv("replicate", paths, "--cutoffs", "5,10"))

    def test_provenance_digests_every_input(self, paths, tmp_path):
        base = write_files(tmp_path, dict.fromkeys(("b_orig.run", "b_rpl.run"), paths["run_rpl"].read_bytes()))
        argv = cli_argv("replicate", {**paths, "run_b_orig": base["b_orig.run"], "run_b_rpl": base["b_rpl.run"]},
                        "--format", "json")
        rep = run_cli(argv + ["--provenance"])
        inputs = rep.pop("provenance")["inputs"]
        assert {role: os.path.basename(v["path"]) for role, v in inputs.items()} == {
            "run_orig": "orig.run", "run_rpl": "rpl.run", "qrels": "qrels.txt",
            "run_b_orig": "b_orig.run", "run_b_rpl": "b_rpl.run",
        }
        for v in inputs.values():
            with open(v["path"], "rb") as f:
                assert v["sha256"] == hashlib.sha256(f.read()).hexdigest()
        assert run_cli(argv) == rep

    def test_provenance_records_the_argv_given_to_main(self, paths, tmp_path):
        argv = cli_argv("replicate", paths, "--format", "json", "--provenance",
                        "--output", str(tmp_path / "report.json"))
        assert run_cli(argv)["provenance"]["argv"] == argv

    def test_missing_file_nonzero_exit(self, tmp_path):
        err = run_cli(cli_argv("replicate", dict.fromkeys(("run_orig", "run_rpl", "qrels"), tmp_path / "nope.run")), 5)
        assert err["error"] == "io"

    def test_nan_score_is_a_parse_error(self, paths, tmp_path):
        bad = write_files(tmp_path, {"nan.run": "301 Q0 A 1 2.0 sys\n301 Q0 Z 2 nan sys\n"})["nan.run"]
        err = run_cli(cli_argv("replicate", {**paths, "run_rpl": bad}), 3)
        assert err == {"error": "parse", "message": f"{bad}: line 2: non-numeric score 'nan'"}

    def test_baseline_load_warnings_are_reported(self, paths, tmp_path):
        dup = with_duplicate(tmp_path / "b_rpl.run", paths["run_orig"], "orig")
        rep = run_cli(cli_argv("replicate", {**paths, "run_b_orig": paths["run_rpl"],
                                             "run_b_rpl": tmp_path / "b_rpl.run"}, "--format", "json"))
        assert rep["warnings"] == [dup]

    def test_baseline_flags_must_pair(self, paths):
        run_cli(cli_argv("replicate", {**paths, "run_b_orig": paths["run_orig"]}), 2)

    @pytest.mark.parametrize("cutoffs, message", [
        ("10,5", "cutoffs must be ascending"),
        ("0,10", "cutoff must be >= 1, got 0"),
        ("2,2", "cutoff 2 given twice"),
    ])
    def test_cutoffs_are_checked_before_any_input_is_read(self, tmp_path, cutoffs, message):
        argv = cli_argv("replicate", dict.fromkeys(ROLES["replicate"], tmp_path / "nope.run"), "--cutoffs", cutoffs)
        assert run_cli(argv, 2) == {"error": "config", "message": message}

    def test_non_decimal_digit_topic_is_compared(self, tmp_path):
        # '\u00b2'.isdigit() is true but int() rejects it: it must sort as a name
        p = write_files(tmp_path, {
            "a.run": "\u00b2 Q0 A 1 2.0 a\n\u00b2 Q0 B 2 1.0 a\n301 Q0 A 1 2.0 a\n301 Q0 B 2 1.0 a\n",
            "q.txt": "\u00b2 0 A 1\n301 0 B 1\n"})
        rep = run_cli(cli_argv("replicate", {"run_orig": p["a.run"], "run_rpl": p["a.run"], "qrels": p["q.txt"]},
                               "--measures", "P@2", "--format", "json"))
        assert rep["topics"] == 2
        assert rep["measures"]["P@2"]["arp_orig"] == 0.5

    def test_tau_intersection_undefined_topic_is_excluded(self):
        orig = make_run("orig", {"1": ["a", "b", "c"], "2": ["p", "q", "r"]})
        rpl = make_run("rpl", {"1": ["c", "b", "a"], "2": ["x", "y", "p"]})
        qrels = make_qrels({"1": {"a": 1}, "2": {"p": 1}})
        rep = build_replicate_report(orig, rpl, qrels, [parse_measure_spec("P@2")])
        assert rep["ordering"]["tau_intersection_mean"] == -1.0
        assert any("tau-intersection unavailable on 1 topic" in w for w in rep["warnings"])

    def test_a_null_cutoff_tau_union_is_warned_after_the_full_depth_warnings(self, tmp_path):
        # at cutoff 1 no topic pairs two documents; at cutoff 2 and at full depth every topic does
        p = write_files(tmp_path, {"o.run": make_run("o", {"1": ["A", "B", "C"], "2": ["A", "B"]}),
                                   "r.run": make_run("r", {"1": ["B", "A", "C"], "2": ["A", "C"]}),
                                   "q.txt": "1 0 A 1\n2 0 B 1\n"})
        rep = run_cli(cli_argv("replicate", {"run_orig": p["o.run"], "run_rpl": p["r.run"], "qrels": p["q.txt"]},
                               "--cutoffs", "1,2", "--measures", "P@2", "--format", "json"))
        assert [rep["cutoffs"][k]["ordering"]["tau_union"] is None for k in ("1", "2")] == [True, False]
        assert rep["warnings"] == ["tau-intersection unavailable on 1 topic(s), excluded from mean",
                                   "tau-union unavailable on every topic at cutoff 1"]

    def test_cutoffs_are_checked_before_the_comparison(self):
        run = make_run("orig", {"1": ["a", "b"]})  # one topic: the paired test would fail
        qrels = make_qrels({"1": {"a": 1}})
        for cutoffs, message in (([10, 5], "cutoffs must be ascending"),
                                 ([0, 5], "cutoff must be >= 1, got 0"),
                                 ([2, 2], "cutoff 2 given twice")):
            with pytest.raises(ConfigError, match=message):
                build_replicate_report(run, run, qrels, [parse_measure_spec("P@2")], cutoffs=cutoffs)

    def test_cutoffs_without_measures_give_an_ordering_only_report(self):
        # with no measure rows, each cutoff block holds the cutoff's ordering alone, and
        # CSV and table give the full-depth ordering in one row with an empty measure cell
        orig = make_run("orig", {"1": ["a", "b", "c"], "2": ["p", "q", "r"]})
        rpl = make_run("rpl", {"1": ["b", "a", "c"], "2": ["p", "q", "r"]})
        rep = build_replicate_report(orig, rpl, make_qrels({"1": {"a": 1}, "2": {"p": 1}}), [], cutoffs=[1, 2])
        assert json.loads(emit(rep, "json"))["cutoffs"] == {
            "1": {"ordering": {"tau_union": None, "rbo": pytest.approx(0.1)}},
            "2": {"ordering": {"tau_union": 0.0, "rbo": pytest.approx(0.26)}}}
        assert rep["ordering"] == {"tau_union_mean": pytest.approx(2 / 3), "tau_intersection_mean": pytest.approx(2 / 3),
                                   "mean_overlap": 3.0, "rbo_mean": pytest.approx(0.388)}
        assert emit(rep, "csv") == CSV_HEADER + "\n,,,,,0.6667,0.6667,3.0000,0.3880,,,,,,,,,\n"
        table = emit(rep, "table").splitlines()
        assert [line.split() for line in table if "ordering" in line] == [
            ["1", "ordering", "0.1000"], ["2", "ordering", "0.0000", "0.2600"]]
        assert table[5].split() == ["|", "0.6667", "0.3880", "|", "|"]  # below the header and its rule

    def test_tau_intersection_kernel_errors_propagate(self, monkeypatch):
        def broken(r_docs, s_docs):
            raise ValueError("kernel bug")

        monkeypatch.setattr(ordering, "tau_intersection", broken)
        run = make_run("orig", {"1": ["a", "b", "c"]})
        qrels = make_qrels({"1": {"a": 1}})
        with pytest.raises(ValueError, match="kernel bug"):
            build_replicate_report(run, run, qrels, [parse_measure_spec("P@2")])

    def test_a_baseline_missing_topic_is_listed_once_before_the_per_measure_warnings(self):
        # P@2 and AP differ by a constant on every topic, so each of their t-tests warns
        topics = ("301", "302", "303")
        orig = make_run("orig", {t: ["R1", "R2"] for t in topics})
        rpl = make_run("rpl", {t: ["R1", "N", "R2"] for t in topics})
        b_orig = make_run("b_orig", {t: ["R2", "R1"] for t in topics[:2]})
        qrels = make_qrels({t: {"R1": 1, "R2": 1} for t in topics})
        measures = [parse_measure_spec(s) for s in ("P@1", "P@2", "AP")]
        rep = build_replicate_report(orig, rpl, qrels, measures, baselines=(b_orig, rpl))
        assert rep["warnings"] == ["run 'b_orig' missing topic 303, scored 0",
                                   "P@2: zero variance with nonzero mean difference",
                                   "AP@1000: zero variance with nonzero mean difference"]


class TestReproduce:
    def test_degenerate_reuse(self, paths):
        orig, rpl, qrels = paths.values()
        rep = run_cli(cli_argv("reproduce", {"run_a_orig": orig, "run_b_orig": rpl, "qrels_orig": qrels,
                                             "run_a_rpd": orig, "run_b_rpd": rpl, "qrels_rpd": qrels},
                               "--format", "json"))
        for eff in rep["effects"].values():
            assert eff["er"] == pytest.approx(1.0)
            assert eff["delta_ri"] == pytest.approx(0.0)
        for block in rep["measures"].values():
            assert block["p_value"] == 1.0
        # ranking-level and RMSE blocks are structurally absent across collections
        assert "ordering" not in rep
        for block in rep["measures"].values():
            assert "rmse" not in block

    def test_arp_on_each_side(self, paths):
        orig_path, rpl_path, qrels_path = paths.values()
        argv = cli_argv("reproduce", {"run_a_orig": orig_path, "run_b_orig": rpl_path, "qrels_orig": qrels_path,
                                      "run_a_rpd": rpl_path, "run_b_rpd": orig_path, "qrels_rpd": qrels_path})
        rep = run_cli(argv + ["--format", "json"])
        orig, rpl = load_run(str(orig_path)), load_run(str(rpl_path))
        qrels = load_qrels(str(qrels_path))
        topics = topic_intersection(orig, qrels)
        for label, block in rep["measures"].items():
            cfg = parse_measure_spec(label)
            assert block["arp_orig"] == score_run(orig, qrels, topics, (cfg,))[0].mean
            assert block["arp_b_orig"] == score_run(rpl, qrels, topics, (cfg,))[0].mean
            assert block["arp_rpl"] == block["arp_b_orig"]
        header, *rows = run_cli(argv + ["--format", "csv"]).splitlines()
        col = header.split(",").index("arp_orig")
        assert {row.split(",")[0]: row.split(",")[col] for row in rows} == {
            label: f"{block['arp_orig']:.4f}" for label, block in rep["measures"].items()}

    def test_mismatched_collections_error(self, paths, tmp_path, rng):
        other = random_run(rng, "other", 3, 10)
        # remap to topic ids absent from the original qrels
        other.topics = {str(900 + i): docs for i, docs in enumerate(other.topics.values())}
        other_path = write_files(tmp_path, {"other.run": other})["other.run"]
        run_cli(cli_argv("reproduce", {"run_a_orig": paths["run_orig"], "run_b_orig": paths["run_rpl"],
                                       "qrels_orig": paths["qrels"], "run_a_rpd": other_path,
                                       "run_b_rpd": other_path, "qrels_rpd": paths["qrels"]}), 4)

    def test_load_warnings_of_each_side_are_reported(self, paths, tmp_path):
        dup_orig = with_duplicate(tmp_path / "b_orig.run", paths["run_rpl"], "rpl")
        dup_rpd = with_duplicate(tmp_path / "a_rpd.run", paths["run_orig"], "orig")
        rep = run_cli(cli_argv("reproduce", {"run_a_orig": paths["run_orig"], "run_b_orig": tmp_path / "b_orig.run",
                                             "qrels_orig": paths["qrels"], "run_a_rpd": tmp_path / "a_rpd.run",
                                             "run_b_rpd": paths["run_rpl"], "qrels_rpd": paths["qrels"]},
                               "--format", "json"))
        assert rep["warnings"] == [dup_orig, dup_rpd]

    def test_one_side_is_held_at_a_time(self, rng):
        held = []

        def side(tag):
            assert [ref() for ref in held] == [None] * len(held), "a previous side is still held"
            run_a = random_run(rng, f"a_{tag}", 6, 20)
            inputs = (run_a, random_run(rng, f"b_{tag}", 6, 20), random_qrels(rng, run_a))
            held.extend(weakref.ref(x) for x in inputs)
            return inputs

        rep = build_reproduce_report((side(tag) for tag in ("orig", "rpd")),
                                     [parse_measure_spec("P@10"), parse_measure_spec("AP@20")])
        assert len(held) == 6
        assert rep["runs"] == {"a_orig": "a_orig", "b_orig": "b_orig",
                               "a_rpd": "a_rpd", "b_rpd": "b_rpd"}
        assert rep["topics"] == rep["topics_orig"] == 6
        with pytest.raises(ConfigError, match="two sides, got 1"):
            build_reproduce_report([side("only")], [parse_measure_spec("P@10")])


class TestCorrelate:
    def _manifest(self, tmp, paths, rng, n_candidates=3):
        # random_run reuses the same topic ids, so candidates align with qrels
        runs = {f"cand{i}.run": random_run(rng, f"cand{i}", 6, 20) for i in range(n_candidates)}
        return write_files(tmp, {**runs, "manifest.json": {
            "qrels": paths["qrels"].name, "run_orig": paths["run_orig"].name, "candidates": list(runs),
        }})["manifest.json"]

    def _manifest_with_baselines(self, tmp, paths, rng, lacking=("cand2",)):
        """Four candidates, each with a baseline; the runs named in ``lacking``
        (cand2 by default) lack topic 303."""
        runs = {"b_orig.run": random_run(rng, "b_orig", 6, 20)}
        candidates = []
        for i in range(4):
            for name in (f"cand{i}", f"base{i}"):
                runs[f"{name}.run"] = run = random_run(rng, name, 6, 20)
                if name in lacking:
                    del run.topics["303"]
            candidates.append({"run": f"cand{i}.run", "run_b": f"base{i}.run"})
        return write_files(tmp, {**runs, "manifest.json": {
            "qrels": paths["qrels"].name, "run_orig": paths["run_orig"].name, "run_b_orig": "b_orig.run",
            "candidates": candidates,
        }})["manifest.json"], candidates

    def test_values_match_replicate_per_candidate(self, paths, tmp_path, rng):
        mpath, candidates = self._manifest_with_baselines(tmp_path, paths, rng)
        argv = cli_argv("correlate", {"manifest": mpath})
        rep = run_cli(argv + ["--format", "json"])
        labels = ["P@10", "AP@1000", "nDCG@1000"]
        assert rep["measure_ids"] == (
            ["tau", "rbo"]
            + [f"{key}_{label}" for label in labels for key in ("delta_arp", "rmse", "p_value")]
            + [f"er_{label}" for label in labels]
        )

        def load(name):
            return load_run(str(tmp_path / name), strict=False)

        orig, b_orig = load(paths["run_orig"].name), load("b_orig.run")
        qrels = load_qrels(str(paths["qrels"]))
        raw, topic_counts = {}, []
        for cand in candidates:
            r = build_replicate_report(
                orig, load(cand["run"]), qrels, [parse_measure_spec(x) for x in labels],
                baselines=(b_orig, load(cand["run_b"])),
            )
            topic_counts.append(r["topics"])
            values = {"tau": r["ordering"]["tau_union_mean"], "rbo": r["ordering"]["rbo_mean"]}
            for label in labels:
                for key in ("delta_arp", "rmse", "p_value"):
                    values[f"{key}_{label}"] = r["measures"][label][key]
                values[f"er_{label}"] = r["effects"][label]["er"]
            for mid, value in values.items():
                raw.setdefault(mid, {})[cand["run"]] = value
        assert topic_counts == [6, 6, 6, 6]  # the original's topics, which cand2 lacks one of
        for mid in rep["measure_ids"]:
            got = dict(zip(rep["rankings"][mid]["runs"], rep["rankings"][mid]["badness"]))
            assert got == {run: meta.consistency_transform(mid, v) for run, v in raw[mid].items()}
        rankings = [meta.rank_runs(mid, raw[mid]) for mid in rep["measure_ids"]]
        assert rep["matrix_csv"] == meta.matrix_to_csv(
            meta.correlation_matrix(rankings), rep["measure_ids"])

        assert run_cli(argv + ["--format", "csv"]) == rep["matrix_csv"]
        assert rep["warnings"] == ["cand2.run: tau undefined on 1 topic(s) run 'cand2' lacks, excluded from mean",
                                   "cand2.run: run 'cand2' missing topic 303, scored 0"]
        flags = [f"{f['a']} vs {f['b']}: tau={f['tau']:.4f} ({f['label']})" for f in rep["flags"]]
        assert run_cli(argv) == rep["matrix_csv"] + "\n" + "\n".join(
            flags + ["", "warnings:", *(f"  - {w}" for w in rep["warnings"])]) + "\n"

    def test_warnings_are_replicates_per_candidate(self, paths, tmp_path, rng):
        # base2 lacks topic 303, which cand2 has: replicate scores it 0 and says so
        mpath, candidates = self._manifest_with_baselines(tmp_path, paths, rng, lacking=("base2",))
        argv = cli_argv("correlate", {"manifest": mpath})
        rep = run_cli(argv + ["--format", "json"])

        def load(name):
            return load_run(str(tmp_path / name), strict=False)

        orig, b_orig = load(paths["run_orig"].name), load("b_orig.run")
        qrels = load_qrels(str(paths["qrels"]))
        measures = [parse_measure_spec(x) for x in ("P@10", "AP@1000", "nDCG@1000")]
        expected = []
        for cand in candidates:
            r = build_replicate_report(orig, load(cand["run"]), qrels, measures,
                                       baselines=(b_orig, load(cand["run_b"])))
            # correlate ranks no tau-intersection, so it gives none of its warnings
            expected += [f"{cand['run']}: {w}" for w in r["warnings"] if "tau-intersection" not in w]
        assert rep["warnings"] == expected
        assert [w for w in expected if "missing" in w] == [
            "cand2.run: run 'base2' missing topic 303, scored 0"]
        assert run_cli(argv).endswith("\nwarnings:\n" + "".join(f"  - {w}\n" for w in expected))

    def test_baseline_load_warnings_are_reported(self, paths, tmp_path, rng):
        mpath, _ = self._manifest_with_baselines(tmp_path, paths, rng)
        dup_orig = with_duplicate(tmp_path / "b_orig.run", tmp_path / "b_orig.run", "b_orig")
        dup_base = with_duplicate(tmp_path / "base1.run", tmp_path / "base1.run", "base1")
        warnings = run_cli(cli_argv("correlate", {"manifest": mpath}, "--format", "json"))["warnings"]
        # each candidate's block lists the original baseline's, then its own baseline's
        assert [w for w in warnings if "duplicate" in w] == [
            "cand0.run: " + dup_orig, "cand1.run: " + dup_orig, "cand1.run: " + dup_base,
            "cand2.run: " + dup_orig, "cand3.run: " + dup_orig]

    def test_provenance_digests_every_input(self, paths, tmp_path, rng):
        mpath, _ = self._manifest_with_baselines(tmp_path, paths, rng)
        argv = cli_argv("correlate", {"manifest": mpath}, "--format", "json")
        rep = run_cli(argv + ["--provenance"])
        inputs = rep.pop("provenance")["inputs"]
        assert {role: os.path.basename(v["path"]) for role, v in inputs.items()} == {
            "manifest": "manifest.json", "qrels": "qrels.txt", "run_orig": "orig.run",
            "run_b_orig": "b_orig.run",
            **{f"candidates[{i}].run": f"cand{i}.run" for i in range(4)},
            **{f"candidates[{i}].run_b": f"base{i}.run" for i in range(4)},
        }
        for v in inputs.values():
            with open(v["path"], "rb") as f:
                assert v["sha256"] == hashlib.sha256(f.read()).hexdigest()
        assert run_cli(argv) == rep

    def test_two_candidates_matrix(self, paths, tmp_path, rng):
        mpath = self._manifest(tmp_path, paths, rng)
        rep = run_cli(cli_argv("correlate", {"manifest": mpath}, "--format", "json", "--measures", "AP@1000,P@10"))
        assert rep["matrix_csv"].startswith("measure,")
        assert rep["flags"]

    def test_measure_with_equal_badness_leaves_its_cells_blank(self, paths, tmp_path, rng):
        # both candidates keep the original top document of every topic, so at
        # depth 1 their RBO is equal and tau against the RBO ranking is undefined
        orig = load_run(str(paths["run_orig"]))
        runs = {}
        for i in range(2):
            topic_docs = {}
            for topic in orig.topics:
                top, *rest = orig.topics[topic].doc_ids
                rng.shuffle(rest)
                topic_docs[topic] = [top] + rest
            runs[f"cand{i}.run"] = make_run(f"cand{i}", topic_docs)
        mpath = write_files(tmp_path, {**runs, "manifest.json": {
            "qrels": paths["qrels"].name, "run_orig": paths["run_orig"].name, "candidates": list(runs),
        }})["manifest.json"]
        argv = cli_argv("correlate", {"manifest": mpath}, "--depth", "1", "--measures", "AP@1000,P@10")
        rep = run_cli(argv + ["--format", "json"])
        ids = rep["measure_ids"]
        constant = {mid for mid in ids if len(set(rep["rankings"][mid]["badness"])) == 1}
        assert "rbo" in constant and constant != set(ids)
        header, *rows = rep["matrix_csv"].splitlines()
        assert header == "measure," + ",".join(ids)
        for a, row in zip(ids, rows):
            name, *cells = row.split(",")
            assert name == a
            for b, cell in zip(ids, cells):
                undefined = a != b and (a in constant or b in constant)
                assert (cell == "") == undefined, (a, b, cell)
        assert {(f["a"], f["b"]) for f in rep["flags"]} == {
            (a, b) for i, a in enumerate(ids) for b in ids[i + 1:]
            if a not in constant and b not in constant}
        assert run_cli(argv).startswith(rep["matrix_csv"])

    def test_missing_candidate_errors(self, paths, tmp_path):
        mpath = write_files(tmp_path, {"manifest.json": {
            "qrels": paths["qrels"].name, "run_orig": paths["run_orig"].name, "candidates": ["ghost.run", "ghost2.run"],
        }})["manifest.json"]
        assert "ghost.run" in run_cli(cli_argv("correlate", {"manifest": mpath}), 2)["message"]

    def test_too_few_candidates(self, paths, tmp_path):
        mpath = write_files(tmp_path, {"manifest.json": {
            "qrels": paths["qrels"].name, "run_orig": paths["run_orig"].name, "candidates": [paths["run_rpl"].name],
        }})["manifest.json"]
        run_cli(cli_argv("correlate", {"manifest": mpath}), 2)

    @staticmethod
    def _refuse_loads(monkeypatch):
        def refuse(path, *args):
            raise AssertionError(f"{path} read before the manifest was checked")

        monkeypatch.setattr(cli, "load_run", refuse)
        monkeypatch.setattr(cli, "load_qrels", refuse)

    @pytest.mark.parametrize("manifest, message", [
        (5, "expected a JSON object, got 5"),
        (["cand0.run", "cand1.run"], "expected a JSON object"),
        ({"qrels": ...}, "qrels must be a path, got None"),  # ... drops the key
        ({"qrels": 5}, "qrels must be a path, got 5"),
        ({"run_orig": 5}, "run_orig must be a path, got 5"),
        ({"run_orig": ""}, "run_orig must be a path, got ''"),
        ({"run_b_orig": 5}, "run_b_orig must be a path, got 5"),
        ({"qrels": "ghost.txt"}, "qrels 'ghost.txt': file not found"),
        ({"candidates": 5}, "candidates must be a list of at least 2 runs"),
        ({"candidates": ["cand0.run"]}, "candidates must be a list of at least 2 runs"),
        ({"candidates": ["cand0.run", 5]}, "candidates[1] must be a path or {'run': path}"),
        ({"candidates": [{"run": 5}, "cand1.run"]}, "candidates[0].run must be a path, got 5"),
        ({"candidates": [{"run_b": "cand1.run"}, "cand1.run"]},
         "candidates[0].run must be a path, got None"),
        ({"candidates": ["cand0.run", {"run": "cand1.run", "run_b": 5}]},
         "candidates[1].run_b must be a path, got 5"),
        ({"candidates": ["cand0.run", "ghost.run"]}, "candidates[1].run 'ghost.run': file not found"),
        # a misspelled key was ignored: correlate exited 0 and ranked no er_*
        ({"run_b_orgi": "cand1.run"},
         "unknown key 'run_b_orgi'; expected qrels, run_orig, run_b_orig or candidates"),
        ({"candidates": ["cand0.run", {"run": "cand1.run", "run_bb": "cand0.run"}]},
         "candidates[1]: unknown key 'run_bb'; expected run or run_b"),
    ])
    def test_a_malformed_manifest_is_a_config_error_before_any_read(
            self, paths, tmp_path, rng, monkeypatch, manifest, message):
        mpath = self._manifest(tmp_path, paths, rng, n_candidates=2)
        if isinstance(manifest, dict):
            manifest = {key: value for key, value in {**json.loads(mpath.read_text()), **manifest}.items()
                        if value is not ...}
        write_files(tmp_path, {mpath.name: manifest})
        self._refuse_loads(monkeypatch)
        err = run_cli(cli_argv("correlate", {"manifest": mpath}), 2)
        assert err["error"] == "config"
        assert err["message"].startswith(f"manifest {mpath}: ")
        assert message in err["message"]

    def test_a_manifest_that_is_not_utf8_is_a_config_error(self, tmp_path, monkeypatch):
        mpath = write_files(tmp_path, {"m.json": b'{"qrels": "q\xff.txt"}'})["m.json"]
        self._refuse_loads(monkeypatch)
        assert run_cli(cli_argv("correlate", {"manifest": mpath}), 2) == {
            "error": "config", "message": f"manifest {mpath}: not UTF-8 text: byte 0xff (invalid start byte)"}

    def test_a_manifest_that_is_not_json_is_a_config_error_before_any_read(self, tmp_path, monkeypatch):
        mpath = write_files(tmp_path, {"m.json": '{"qrels": "q.txt",}'})["m.json"]
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(mpath.read_text())
        self._refuse_loads(monkeypatch)
        assert run_cli(cli_argv("correlate", {"manifest": mpath}), 2) == {
            "error": "config", "message": f"manifest {mpath}: invalid JSON: {info.value}"}

    @pytest.mark.parametrize("lacking, run_b_orig, message", [
        ((), None, "candidate 'cand0.run' has a baseline run and the original lacks one"),
        (("base1",), "b_orig.run", "candidate 'cand1.run' lacks a baseline run and the original has one"),
        (("base0", "base1", "base2", "base3"), "b_orig.run",
         "candidate 'cand0.run' lacks a baseline run and the original has one"),
    ])
    def test_baselines_are_all_or_none(self, paths, tmp_path, rng, monkeypatch, lacking, run_b_orig, message):
        # an orphaned candidate baseline was ignored; a mixed set failed after every load
        mpath, candidates = self._manifest_with_baselines(tmp_path, paths, rng)
        manifest = json.loads(mpath.read_text())
        manifest["run_b_orig"] = run_b_orig
        manifest["candidates"] = [c["run"] if c["run_b"][:-4] in lacking else c for c in candidates]
        write_files(tmp_path, {mpath.name: manifest})
        self._refuse_loads(monkeypatch)
        assert run_cli(cli_argv("correlate", {"manifest": mpath}), 2) == {
            "error": "config", "message": f"{message}; give baselines for all or none"}

    @pytest.mark.parametrize("entries, message", [
        (["a/x.run", "b/x.run", "z.run"], "candidates[0] and candidates[1] have the same id 'x.run'"),
        # one distinct id: the ranking would have a single run
        (["cand0.run", "sub/cand0.run"], "candidates[0] and candidates[1] have the same id 'cand0.run'"),
        (["z.run", "cand0.run", {"run": "a/z.run"}], "candidates[0] and candidates[2] have the same id 'z.run'"),
    ])
    def test_candidate_ids_are_distinct(self, paths, tmp_path, rng, monkeypatch, entries, message):
        # the id is the file name: a repeated one silently dropped a candidate
        mpath = self._manifest(tmp_path, paths, rng, n_candidates=1)
        write_files(tmp_path, {name: random_run(rng, "c", 6, 20)
                               for name in ("a/x.run", "b/x.run", "z.run", "sub/cand0.run", "a/z.run")})
        write_files(tmp_path, {mpath.name: {**json.loads(mpath.read_text()), "candidates": entries}})
        self._refuse_loads(monkeypatch)
        err = run_cli(cli_argv("correlate", {"manifest": mpath}), 2)
        assert err["error"] == "config"
        assert err["message"].startswith(f"manifest {mpath}: {message}; ")

    def test_library_candidate_ids_are_distinct(self, rng):
        run = random_run(rng, "orig", 4, 10)
        qrels = random_qrels(rng, run)
        candidates = [("c", random_run(rng, "c", 4, 10), None), ("d", random_run(rng, "d", 4, 10), None),
                      ("c", random_run(rng, "c2", 4, 10), None)]
        with pytest.raises(ConfigError, match="candidate id 'c' given twice"):
            build_correlation_report(run, qrels, candidates, [parse_measure_spec("P@5")])

    def test_one_candidate_is_held_at_a_time(self, rng):
        run = random_run(rng, "orig", 6, 20)
        qrels, b_orig = random_qrels(rng, run), random_run(rng, "b_orig", 6, 20)
        held = []

        def candidate(i):
            assert [ref() for ref in held] == [None] * len(held), "a previous candidate is still held"
            assert not [x for x in gc.get_objects() if isinstance(x, ordering.FullDepth)], (
                "a previous candidate's ordering record is still held")
            inputs = random_run(rng, f"cand{i}", 6, 20), random_run(rng, f"base{i}", 6, 20)
            held.extend(weakref.ref(x) for x in inputs)
            return (f"cand{i}", *inputs)

        rep = build_correlation_report(run, qrels, (candidate(i) for i in range(4)),
                                       [parse_measure_spec("P@10"), parse_measure_spec("AP@20")],
                                       baseline_orig=b_orig)
        assert len(held) == 8
        assert sorted(rep["rankings"]["tau"]["runs"]) == [f"cand{i}" for i in range(4)]

    def test_library_baselines_are_all_or_none(self, rng):
        run = random_run(rng, "orig", 4, 10)
        qrels = random_qrels(rng, run)
        measures = [parse_measure_spec("P@5")]
        for baseline_orig, baseline, message in (
                (run, None, "candidate 'c' lacks a baseline run and the original has one"),
                (None, run, "candidate 'c' has a baseline run and the original lacks one")):
            with pytest.raises(ConfigError, match=re.escape(message)):
                build_correlation_report(run, qrels, [("c", run, baseline)], measures,
                                         baseline_orig=baseline_orig)


@pytest.mark.parametrize("command", ["replicate", "correlate"])
@pytest.mark.parametrize("flag, value, message", [
    ("--phi", "1.5", "phi must be in (0,1), got 1.5"),
    ("--depth", "0", "depth must be >= 1, got 0"),
    # int() and float() also take 1_0, a sign and non-ASCII digits
    *(("--depth", v, f"bad --depth {v!r}; expected an integer like 1000")
      for v in ("1_0", "\u0663", "+5", "-5", "1.0", "")),
    *(("--phi", v, f"bad --phi {v!r}; expected a number like 0.8")
      for v in ("\uff10.\uff15", "0.5_0", "0.\u0665", "x", "")),
    ("--measures", ",", "no measures requested"),
    ("--measures", "P@10,p@10", "measure P@10 requested twice"),
])
def test_rbo_settings_are_checked_before_any_input_is_read(tmp_path, command, flag, value, message):
    argv = cli_argv(command, dict.fromkeys(ROLES[command], tmp_path / "nope"), flag, value)
    assert run_cli(argv, 2) == {"error": "config", "message": message}


@pytest.mark.parametrize("flag, value", [
    *(("--measures", spec) for spec in ("P@", "AP@", "nDCG@", "P@1_0", "P@+5", "P@ 5", "P@\u0663", "P@-5")),
    *(("--cutoffs", spec) for spec in ("1_0", "+5", "\u0663", "5,\u00b2", "-5", "5,,1e1", "10,abc")),
])
def test_a_cutoff_is_ascii_digits(tmp_path, flag, value):
    # an empty cutoff was read as the default; int() takes 1_0, +5, a space and non-ASCII digits
    err = run_cli(cli_argv("replicate", dict.fromkeys(ROLES["replicate"], tmp_path / "nope.run"), flag, value), 2)
    assert err["error"] == "config"
    assert repr(value) in err["message"]


@pytest.mark.parametrize("command", ["replicate", "correlate"])
def test_strict_baseline_without_the_one_comparable_topic_is_a_topic_mismatch(tmp_path, command):
    # baselines are scored with their run pair: under --strict the missing topic
    # is the error; leniently it is scored 0, and the one-topic t-test is null
    p = write_files(tmp_path, {
        "a.run": "301 Q0 A 1 2.0 a\n301 Q0 B 2 1.0 a\n", "b.run": "301 Q0 B 1 2.0 b\n301 Q0 A 2 1.0 b\n",
        "c.run": "302 Q0 A 1 2.0 c\n302 Q0 B 2 1.0 c\n", "q.txt": "301 0 A 1\n",
        "m.json": {"qrels": "q.txt", "run_orig": "a.run", "run_b_orig": "c.run",
                   "candidates": [{"run": "b.run", "run_b": "a.run"}, {"run": "a.run", "run_b": "a.run"}]}})
    inputs = {"replicate": {"run_orig": p["a.run"], "run_rpl": p["b.run"], "qrels": p["q.txt"],
                            "run_b_orig": p["c.run"], "run_b_rpl": p["a.run"]},
              "correlate": {"manifest": p["m.json"]}}[command]
    err = run_cli(cli_argv(command, inputs, "--strict"), 4)
    assert err["error"] == "topic-mismatch"
    assert "301" in err["message"]
    warnings = run_cli(cli_argv(command, inputs, "--format", "json"))["warnings"]
    prefixes = [""] if command == "replicate" else ["b.run: ", "a.run: "]  # one per candidate
    assert [w for w in warnings if "301" in w] == [f"{p}run 'c' missing topic 301, scored 0" for p in prefixes]
    assert all(f"{p}P@10: paired test needs n >= 2 topics, got 1" in warnings for p in prefixes)


@pytest.mark.parametrize("command", ["replicate", "reproduce"])
def test_infinite_t_stat_is_null_in_json_and_inf_elsewhere(tmp_path, command):
    # on each of 3 topics a.run has P@2 = 1 and b.run P@2 = 0.5: the paired differences
    # (replicate) and both samples (reproduce, a.run against b.run) have zero variance
    # and a nonzero mean difference, so t = inf with p = 0
    topics = ("301", "302", "303")
    p = write_files(tmp_path, {"a.run": "".join(f"{t} Q0 R1 1 2.0 a\n{t} Q0 R2 2 1.0 a\n" for t in topics),
                               "b.run": "".join(f"{t} Q0 R1 1 2.0 b\n{t} Q0 N 2 1.0 b\n" for t in topics),
                               "q.txt": "".join(f"{t} 0 R1 1\n{t} 0 R2 1\n" for t in topics)})
    a, b, q = p["a.run"], p["b.run"], p["q.txt"]
    inputs = {"replicate": {"run_orig": a, "run_rpl": b, "qrels": q},
              "reproduce": {"run_a_orig": a, "run_b_orig": b, "qrels_orig": q,
                            "run_a_rpd": b, "run_b_rpd": b, "qrels_rpd": q}}[command]
    rep = run_cli(cli_argv(command, inputs, "--measures", "P@2", "--format", "json"))
    block = rep["measures"]["P@2"]
    assert (block["t_stat"], block["p_value"]) == (None, 0.0)
    assert any("zero variance" in w for w in rep["warnings"])
    csv = run_cli(cli_argv(command, inputs, "--measures", "P@2", "--format", "csv"))
    row = dict(zip(CSV_HEADER.split(","), csv.splitlines()[1].split(",")))
    assert (row["t_stat"], row["p_value"]) == ("inf", "0.0000")
