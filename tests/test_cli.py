import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import reprokit
from reprokit import meta, ordering
from reprokit.cli import build_replicate_report, main
from reprokit.effectiveness import parse_measure_spec, score_run
from reprokit.trec_io import Run, load_qrels, load_run, topic_intersection

from conftest import make_qrels, make_run, random_qrels, random_run


def write_run(path, run: Run):
    lines = []
    for topic, ranking in run.topics.items():
        for rank, (doc_id, score) in enumerate(zip(ranking.doc_ids, ranking.scores), start=1):
            lines.append(f"{topic} Q0 {doc_id} {rank} {score:.4f} {run.tag}")
    path.write_text("\n".join(lines) + "\n")


def write_qrels(path, qrels):
    lines = []
    for topic, docs in qrels.topics.items():
        for doc, grade in docs.items():
            lines.append(f"{topic} 0 {doc} {grade}")
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def workspace(tmp_path, rng):
    orig = random_run(rng, "orig", 6, 20)
    rpl = random_run(rng, "rpl", 6, 20)
    rpl.topics = {t: rpl.topics[t] for t in orig.topics}  # align topic ids
    qrels = random_qrels(rng, orig)
    paths = {
        "orig": tmp_path / "orig.run",
        "rpl": tmp_path / "rpl.run",
        "qrels": tmp_path / "qrels.txt",
    }
    write_run(paths["orig"], orig)
    write_run(paths["rpl"], rpl)
    write_qrels(paths["qrels"], qrels)
    return tmp_path, paths


class TestReplicate:
    def test_self_comparison(self, workspace, capsys):
        tmp, paths = workspace
        code = main([
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["orig"]),
            "--qrels", str(paths["qrels"]),
            "--run-b-orig", str(paths["rpl"]),
            "--run-b-rpl", str(paths["rpl"]),
            "--format", "json",
        ])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["ordering"]["tau_union_mean"] == 1.0
        assert rep["ordering"]["rbo_mean"] == pytest.approx(1 - 0.8 ** 20, abs=1e-12)
        for block in rep["measures"].values():
            assert block["rmse"] == 0.0
            assert block["delta_arp"] == 0.0
            assert block["p_value"] == 1.0
        for eff in rep["effects"].values():
            assert eff["er"] == pytest.approx(1.0)
            assert eff["delta_ri"] == pytest.approx(0.0)

    def test_single_measure_filter(self, workspace, capsys):
        tmp, paths = workspace
        code = main([
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["rpl"]),
            "--qrels", str(paths["qrels"]),
            "--measures", "P@10",
            "--format", "json",
        ])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert list(rep["measures"]) == ["P@10"]

    def test_output_deterministic(self, workspace, capsys):
        tmp, paths = workspace
        args = [
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["rpl"]),
            "--qrels", str(paths["qrels"]),
            "--format", "json",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_json_round_trips(self, workspace, capsys):
        tmp, paths = workspace
        main([
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["rpl"]),
            "--qrels", str(paths["qrels"]),
            "--format", "json",
        ])
        out = capsys.readouterr().out
        assert json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n" == out

    def test_csv_header_fixed(self, workspace, capsys):
        from reprokit.report import CSV_HEADER
        tmp, paths = workspace
        main([
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["rpl"]),
            "--qrels", str(paths["qrels"]),
            "--format", "csv",
        ])
        out = capsys.readouterr().out
        assert out.splitlines()[0] == CSV_HEADER

    def test_table_format_runs(self, workspace, capsys):
        tmp, paths = workspace
        code = main([
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["rpl"]),
            "--qrels", str(paths["qrels"]),
            "--cutoffs", "5,10",
        ])
        assert code == 0
        assert "measure" in capsys.readouterr().out

    def test_provenance_digests_every_input(self, workspace, capsys):
        tmp, paths = workspace
        for role in ("b_orig", "b_rpl"):
            (tmp / f"{role}.run").write_bytes(paths["rpl"].read_bytes())
        argv = [
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["rpl"]),
            "--qrels", str(paths["qrels"]),
            "--run-b-orig", str(tmp / "b_orig.run"),
            "--run-b-rpl", str(tmp / "b_rpl.run"),
            "--format", "json",
        ]
        assert main(argv + ["--provenance"]) == 0
        rep = json.loads(capsys.readouterr().out)
        inputs = rep.pop("provenance")["inputs"]
        assert {role: os.path.basename(v["path"]) for role, v in inputs.items()} == {
            "run_orig": "orig.run", "run_rpl": "rpl.run", "qrels": "qrels.txt",
            "run_b_orig": "b_orig.run", "run_b_rpl": "b_rpl.run",
        }
        for v in inputs.values():
            with open(v["path"], "rb") as f:
                assert v["sha256"] == hashlib.sha256(f.read()).hexdigest()
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == rep

    def test_missing_file_nonzero_exit(self, tmp_path, capsys):
        code = main([
            "replicate",
            "--run-orig", str(tmp_path / "nope.run"),
            "--run-rpl", str(tmp_path / "nope.run"),
            "--qrels", str(tmp_path / "nope.qrels"),
        ])
        assert code != 0
        err = json.loads(capsys.readouterr().err)
        assert "error" in err

    def test_nan_score_is_a_parse_error(self, workspace, capsys):
        tmp, paths = workspace
        bad = tmp / "nan.run"
        bad.write_text("301 Q0 A 1 2.0 sys\n301 Q0 Z 2 nan sys\n")
        code = main([
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(bad),
            "--qrels", str(paths["qrels"]),
        ])
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "parse", "message": f"{bad}: line 2: non-numeric score 'nan'"}

    def test_baseline_flags_must_pair(self, workspace, capsys):
        tmp, paths = workspace
        code = main([
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["rpl"]),
            "--qrels", str(paths["qrels"]),
            "--run-b-orig", str(paths["orig"]),
        ])
        assert code == 2

    def test_non_integer_cutoff_is_a_config_error(self, workspace, capsys):
        tmp, paths = workspace
        code = main([
            "replicate",
            "--run-orig", str(paths["orig"]),
            "--run-rpl", str(paths["rpl"]),
            "--qrels", str(paths["qrels"]),
            "--cutoffs", "10,abc",
        ])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "10,abc" in err["message"]

    def test_non_decimal_digit_topic_is_compared(self, tmp_path, capsys):
        # '\u00b2'.isdigit() is true but int() rejects it: it must sort as a name
        (tmp_path / "a.run").write_text(
            "\u00b2 Q0 A 1 2.0 a\n\u00b2 Q0 B 2 1.0 a\n301 Q0 A 1 2.0 a\n301 Q0 B 2 1.0 a\n",
            encoding="utf-8")
        (tmp_path / "q.txt").write_text("\u00b2 0 A 1\n301 0 B 1\n", encoding="utf-8")
        code = main([
            "replicate",
            "--run-orig", str(tmp_path / "a.run"),
            "--run-rpl", str(tmp_path / "a.run"),
            "--qrels", str(tmp_path / "q.txt"),
            "--measures", "P@2",
            "--format", "json",
        ])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["topics"] == 2
        assert rep["measures"]["P@2"]["arp_orig"] == 0.5

    def test_tau_intersection_undefined_topic_is_excluded(self):
        orig = make_run("orig", {"1": ["a", "b", "c"], "2": ["p", "q", "r"]})
        rpl = make_run("rpl", {"1": ["c", "b", "a"], "2": ["x", "y", "p"]})
        qrels = make_qrels({"1": {"a": 1}, "2": {"p": 1}})
        rep = build_replicate_report(orig, rpl, qrels, [parse_measure_spec("P@2")])
        assert rep["ordering"]["tau_intersection_mean"] == -1.0
        assert any("tau-intersection unavailable on 1 topic" in w for w in rep["warnings"])

    def test_tau_intersection_kernel_errors_propagate(self, monkeypatch):
        def broken(r_docs, s_docs):
            raise ValueError("kernel bug")

        monkeypatch.setattr(ordering, "tau_intersection", broken)
        run = make_run("orig", {"1": ["a", "b", "c"]})
        qrels = make_qrels({"1": {"a": 1}})
        with pytest.raises(ValueError, match="kernel bug"):
            build_replicate_report(run, run, qrels, [parse_measure_spec("P@2")])


class TestReproduce:
    def test_degenerate_reuse(self, workspace, capsys):
        tmp, paths = workspace
        code = main([
            "reproduce",
            "--run-a-orig", str(paths["orig"]),
            "--run-b-orig", str(paths["rpl"]),
            "--qrels-orig", str(paths["qrels"]),
            "--run-a-rpd", str(paths["orig"]),
            "--run-b-rpd", str(paths["rpl"]),
            "--qrels-rpd", str(paths["qrels"]),
            "--format", "json",
        ])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        for eff in rep["effects"].values():
            assert eff["er"] == pytest.approx(1.0)
            assert eff["delta_ri"] == pytest.approx(0.0)
        for block in rep["measures"].values():
            assert block["p_value"] == 1.0
        # ranking-level and RMSE blocks are structurally absent across collections
        assert "ordering" not in rep
        for block in rep["measures"].values():
            assert "rmse" not in block

    def test_arp_on_each_side(self, workspace, capsys):
        tmp, paths = workspace
        argv = [
            "reproduce",
            "--run-a-orig", str(paths["orig"]),
            "--run-b-orig", str(paths["rpl"]),
            "--qrels-orig", str(paths["qrels"]),
            "--run-a-rpd", str(paths["rpl"]),
            "--run-b-rpd", str(paths["orig"]),
            "--qrels-rpd", str(paths["qrels"]),
        ]
        assert main(argv + ["--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        orig, rpl = load_run(str(paths["orig"])), load_run(str(paths["rpl"]))
        qrels = load_qrels(str(paths["qrels"]))
        topics = topic_intersection(orig, rpl, qrels)
        for label, block in rep["measures"].items():
            cfg = parse_measure_spec(label)
            assert block["arp_orig"] == score_run(orig, qrels, topics, cfg).mean
            assert block["arp_b_orig"] == score_run(rpl, qrels, topics, cfg).mean
            assert block["arp_rpl"] == block["arp_b_orig"]
        assert main(argv + ["--format", "csv"]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        col = header.split(",").index("arp_orig")
        assert {row.split(",")[0]: row.split(",")[col] for row in rows} == {
            label: f"{block['arp_orig']:.4f}" for label, block in rep["measures"].items()}

    def test_mismatched_collections_error(self, workspace, tmp_path, rng, capsys):
        tmp, paths = workspace
        other = random_run(rng, "other", 3, 10)
        # remap to topic ids absent from the original qrels
        other.topics = {str(900 + i): docs for i, docs in enumerate(other.topics.values())}
        write_run(tmp_path / "other.run", other)
        code = main([
            "reproduce",
            "--run-a-orig", str(paths["orig"]),
            "--run-b-orig", str(paths["rpl"]),
            "--qrels-orig", str(paths["qrels"]),
            "--run-a-rpd", str(tmp_path / "other.run"),
            "--run-b-rpd", str(tmp_path / "other.run"),
            "--qrels-rpd", str(paths["qrels"]),
        ])
        assert code == 4


class TestCorrelate:
    def _manifest(self, tmp, paths, rng, n_candidates=3):
        candidates = []
        for i in range(n_candidates):
            # random_run reuses the same topic ids, so candidates align with qrels
            run = random_run(rng, f"cand{i}", 6, 20)
            p = tmp / f"cand{i}.run"
            write_run(p, run)
            candidates.append(p.name)
        manifest = {
            "qrels": paths["qrels"].name,
            "run_orig": paths["orig"].name,
            "candidates": candidates,
        }
        mpath = tmp / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        return mpath

    def _manifest_with_baselines(self, tmp, paths, rng, lacking=("cand2",)):
        """Four candidates, each with a baseline; the runs named in ``lacking``
        (cand2 by default) lack topic 303."""
        write_run(tmp / "b_orig.run", random_run(rng, "b_orig", 6, 20))
        candidates = []
        for i in range(4):
            for name in (f"cand{i}", f"base{i}"):
                run = random_run(rng, name, 6, 20)
                if name in lacking:
                    del run.topics["303"]
                write_run(tmp / f"{name}.run", run)
            candidates.append({"run": f"cand{i}.run", "run_b": f"base{i}.run"})
        mpath = tmp / "manifest.json"
        mpath.write_text(json.dumps({
            "qrels": paths["qrels"].name,
            "run_orig": paths["orig"].name,
            "run_b_orig": "b_orig.run",
            "candidates": candidates,
        }))
        return mpath, candidates

    def test_values_match_replicate_per_candidate(self, workspace, rng, capsys):
        tmp, paths = workspace
        mpath, candidates = self._manifest_with_baselines(tmp, paths, rng)
        argv = ["correlate", "--manifest", str(mpath)]
        assert main(argv + ["--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
        labels = ["P@10", "AP@1000", "nDCG@1000"]
        assert rep["measure_ids"] == (
            ["tau", "rbo"]
            + [f"{key}_{label}" for label in labels for key in ("delta_arp", "rmse", "p_value")]
            + [f"er_{label}" for label in labels]
        )

        def load(name):
            return load_run(str(tmp / name), mode="lenient")

        orig, b_orig = load(paths["orig"].name), load("b_orig.run")
        qrels = load_qrels(str(paths["qrels"]))
        raw, topic_counts = {}, []
        for cand in candidates:
            r = build_replicate_report(
                orig, load(cand["run"]), qrels, [parse_measure_spec(x) for x in labels],
                baseline_orig=b_orig, baseline_rpl=load(cand["run_b"]),
            )
            topic_counts.append(r["topics"])
            values = {"tau": r["ordering"]["tau_union_mean"], "rbo": r["ordering"]["rbo_mean"]}
            for label in labels:
                for key in ("delta_arp", "rmse", "p_value"):
                    values[f"{key}_{label}"] = r["measures"][label][key]
                values[f"er_{label}"] = r["effects"][label]["er"]
            for mid, value in values.items():
                raw.setdefault(mid, {})[cand["run"]] = value
        assert topic_counts == [6, 6, 5, 6]
        for mid in rep["measure_ids"]:
            got = dict(zip(rep["rankings"][mid]["runs"], rep["rankings"][mid]["badness"]))
            assert got == {run: meta.consistency_transform(mid, v) for run, v in raw[mid].items()}
        rankings = [meta.rank_runs(mid, raw[mid]) for mid in rep["measure_ids"]]
        assert rep["matrix_csv"] == meta.matrix_to_csv(
            meta.correlation_matrix(rankings), rep["measure_ids"])

        assert main(argv + ["--format", "csv"]) == 0
        assert capsys.readouterr().out == rep["matrix_csv"]
        assert main(argv) == 0
        flags = [f"{f['a']} vs {f['b']}: tau={f['tau']:.4f} ({f['label']})" for f in rep["flags"]]
        assert capsys.readouterr().out == rep["matrix_csv"] + "\n" + "\n".join(flags) + "\n"

    def test_warnings_are_replicates_per_candidate(self, workspace, rng, capsys):
        # base2 lacks topic 303, which cand2 has: replicate scores it 0 and says so
        tmp, paths = workspace
        mpath, candidates = self._manifest_with_baselines(tmp, paths, rng, lacking=("base2",))
        argv = ["correlate", "--manifest", str(mpath)]
        assert main(argv + ["--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)

        def load(name):
            return load_run(str(tmp / name), mode="lenient")

        orig, b_orig = load(paths["orig"].name), load("b_orig.run")
        qrels = load_qrels(str(paths["qrels"]))
        measures = [parse_measure_spec(x) for x in ("P@10", "AP@1000", "nDCG@1000")]
        expected = []
        for cand in candidates:
            r = build_replicate_report(orig, load(cand["run"]), qrels, measures,
                                       baseline_orig=b_orig, baseline_rpl=load(cand["run_b"]))
            # correlate ranks no tau-intersection, so it gives none of its warnings
            expected += [f"{cand['run']}: {w}" for w in r["warnings"] if "tau-intersection" not in w]
        assert rep["warnings"] == expected
        assert [w for w in expected if "missing" in w] == [
            "cand2.run: run 'base2' missing topic 303, scored 0"] * 3
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(
            "\nwarnings:\n" + "".join(f"  - {w}\n" for w in expected))

    def test_provenance_digests_every_input(self, workspace, rng, capsys):
        tmp, paths = workspace
        mpath, _ = self._manifest_with_baselines(tmp, paths, rng)
        argv = ["correlate", "--manifest", str(mpath), "--format", "json"]
        assert main(argv + ["--provenance"]) == 0
        rep = json.loads(capsys.readouterr().out)
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
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out) == rep

    def test_two_candidates_matrix(self, workspace, rng, capsys):
        tmp, paths = workspace
        mpath = self._manifest(tmp, paths, rng)
        code = main(["correlate", "--manifest", str(mpath), "--format", "json",
                     "--measures", "AP@1000,P@10"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["matrix_csv"].startswith("measure,")
        assert rep["flags"]

    def test_measure_with_equal_badness_leaves_its_cells_blank(self, workspace, rng, capsys):
        # both candidates keep the original top document of every topic, so at
        # depth 1 their RBO is equal and tau against the RBO ranking is undefined
        tmp, paths = workspace
        orig = load_run(str(paths["orig"]))
        candidates = []
        for i in range(2):
            topic_docs = {}
            for topic in orig.topics:
                top, *rest = orig.topics[topic].doc_ids
                rng.shuffle(rest)
                topic_docs[topic] = [top] + rest
            write_run(tmp / f"cand{i}.run", make_run(f"cand{i}", topic_docs))
            candidates.append(f"cand{i}.run")
        mpath = tmp / "manifest.json"
        mpath.write_text(json.dumps({
            "qrels": paths["qrels"].name, "run_orig": paths["orig"].name, "candidates": candidates,
        }))
        argv = ["correlate", "--manifest", str(mpath), "--depth", "1", "--measures", "AP@1000,P@10"]
        assert main(argv + ["--format", "json"]) == 0
        rep = json.loads(capsys.readouterr().out)
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
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith(rep["matrix_csv"])

    def test_missing_candidate_errors(self, workspace, capsys):
        tmp, paths = workspace
        mpath = tmp / "manifest.json"
        mpath.write_text(json.dumps({
            "qrels": paths["qrels"].name,
            "run_orig": paths["orig"].name,
            "candidates": ["ghost.run", "ghost2.run"],
        }))
        code = main(["correlate", "--manifest", str(mpath)])
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert "ghost.run" in err["message"]

    def test_too_few_candidates(self, workspace, capsys):
        tmp, paths = workspace
        mpath = tmp / "manifest.json"
        mpath.write_text(json.dumps({
            "qrels": paths["qrels"].name,
            "run_orig": paths["orig"].name,
            "candidates": [paths["rpl"].name],
        }))
        assert main(["correlate", "--manifest", str(mpath)]) == 2


def test_cli_import_loads_no_numpy():
    src = str(pathlib.Path(reprokit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, reprokit.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
