import json
import random

import pytest

from reprokit import ordering
from reprokit.cli import build_replicate_report, main
from reprokit.effectiveness import parse_measure_spec
from reprokit.trec_io import Run

from conftest import make_qrels, make_run, random_qrels, random_run


def write_run(path, run: Run):
    lines = []
    for topic, docs in run.topics.items():
        for d in docs:
            lines.append(f"{topic} Q0 {d.doc_id} {d.rank} {d.score:.4f} {run.tag}")
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

    def test_two_candidates_matrix(self, workspace, rng, capsys):
        tmp, paths = workspace
        mpath = self._manifest(tmp, paths, rng)
        code = main(["correlate", "--manifest", str(mpath), "--format", "json",
                     "--measures", "AP@1000,P@10"])
        assert code == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["matrix_csv"].startswith("measure,")
        assert rep["flags"]

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
