import random

import numpy as np
import pytest

from reprokit.effectiveness import parse_measure_spec
from reprokit.errors import ConfigError
from reprokit.meta import (
    consistency_transform,
    correlation_matrix,
    flag_equivalences,
    matrix_to_csv,
    rank_runs,
)
from reprokit.report import build_correlation_report

from conftest import make_qrels, make_run


class TestConsistencyTransform:
    def test_er_perfect(self):
        assert consistency_transform("er_AP@1000", 1.0) == 0.0

    def test_tau_negated(self):
        assert consistency_transform("tau", 1.0) == -1.0

    def test_er_distance(self):
        assert consistency_transform("er_AP@1000", 1.4719) == pytest.approx(0.4719)

    def test_rmse_and_delta_arp_pass_through(self):
        assert consistency_transform("rmse_P@10", 0.2) == 0.2
        assert consistency_transform("delta_arp_P@10", 0.05) == 0.05

    def test_rbo_and_p_value_negated(self):
        assert consistency_transform("rbo", 0.5448) == -0.5448
        assert consistency_transform("p_value_AP@1000", 0.551) == -0.551

    def test_unknown_measure_errors(self):
        with pytest.raises(ConfigError):
            consistency_transform("bogus_measure", 1.0)


class TestRankRuns:
    def test_badness_non_decreasing(self):
        ranking = rank_runs("rmse_AP@1000", {"r1": 0.3, "r2": 0.1, "r3": 0.2})
        assert ranking.run_ids == ("r2", "r3", "r1")
        assert list(ranking.badness) == sorted(ranking.badness)

    def test_higher_tau_ranks_first(self):
        ranking = rank_runs("tau", {"good": 0.9, "bad": 0.1})
        assert ranking.run_ids[0] == "good"

    def test_an_undefined_value_ranks_last_by_run_id(self):
        ranking = rank_runs("er_P@10", {"r4": None, "r3": 1.5, "r1": None, "r2": 1.0})
        assert ranking == ("er_P@10", ("r2", "r3", "r1", "r4"), (0.0, 0.5, None, None))


class TestCorrelationMatrix:
    def _rankings(self, runs=10):
        base = {f"r{i}": i / runs for i in range(runs)}
        agree = rank_runs("rmse_AP@1000", base)
        agree2 = rank_runs("delta_arp_AP@1000", {k: v * 2 for k, v in base.items()})
        reverse = rank_runs("rmse_P@10", {k: 1 - v for k, v in base.items()})
        return agree, agree2, reverse

    def test_diagonal_and_symmetry(self):
        mat = np.asarray(correlation_matrix(self._rankings()))
        assert np.allclose(np.diag(mat), 1.0)
        assert np.allclose(mat, mat.T)

    def test_agreeing_and_reversed_orders(self):
        mat = correlation_matrix(self._rankings())
        assert mat[0][1] == pytest.approx(1.0)
        assert mat[0][2] == pytest.approx(-1.0)

    def test_monotone_transform_leaves_row_unchanged(self):
        runs = {f"r{i}": random.Random(7).random() + i / 10 for i in range(8)}
        a = rank_runs("rmse_AP@1000", runs)
        b = rank_runs("rmse_P@10", {k: v ** 3 + 1 for k, v in runs.items()})
        c = rank_runs("tau", {k: -v for k, v in runs.items()})
        mat = correlation_matrix([a, b, c])
        assert mat[0][1] == pytest.approx(1.0)
        assert mat[0][2] == pytest.approx(1.0)

    def test_measure_with_equal_badness_is_undefined(self):
        a = rank_runs("rmse_AP@1000", {"r1": 0.1, "r2": 0.2, "r3": 0.3})
        b = rank_runs("rbo", {"r1": 0.5, "r2": 0.5, "r3": 0.5})
        c = rank_runs("rmse_P@10", {"r1": 0.3, "r2": 0.2, "r3": 0.1})
        mat = correlation_matrix([a, b, c])
        assert np.isnan(mat[0][1]) and np.isnan(mat[1][0])
        assert np.isnan(mat[1][2]) and np.isnan(mat[2][1])
        assert mat[0][2] == pytest.approx(-1.0)
        assert list(np.diag(mat)) == [1.0, 1.0, 1.0]
        ids = ["rmse_AP@1000", "rbo", "rmse_P@10"]
        assert matrix_to_csv(mat, ids).splitlines()[1:] == [
            "rmse_AP@1000,1.0000,,-1.0000",
            "rbo,,1.0000,",
            "rmse_P@10,-1.0000,,1.0000",
        ]
        assert [(x, y) for x, y, _, _ in flag_equivalences(mat, ids)] == [("rmse_AP@1000", "rmse_P@10")]

    def test_measure_undefined_for_a_run_is_uncorrelated(self):
        # like a measure that ties every run: its row and column stay NaN, unflagged
        a = rank_runs("rmse_AP@1000", {"r1": 0.1, "r2": 0.2, "r3": 0.3})
        b = rank_runs("p_value_AP@1000", {"r1": 0.5, "r2": None, "r3": 0.1})
        c = rank_runs("rmse_P@10", {"r1": 0.1, "r2": 0.2, "r3": 0.3})
        mat = correlation_matrix([a, b, c])
        ids = ["rmse_AP@1000", "p_value_AP@1000", "rmse_P@10"]
        assert matrix_to_csv(mat, ids).splitlines()[1:] == [
            "rmse_AP@1000,1.0000,,1.0000",
            "p_value_AP@1000,,1.0000,",
            "rmse_P@10,1.0000,,1.0000",
        ]
        assert [(x, y) for x, y, _, _ in flag_equivalences(mat, ids)] == [("rmse_AP@1000", "rmse_P@10")]

    def test_run_set_mismatch_errors(self):
        a = rank_runs("rmse_AP@1000", {"r1": 0.1, "r2": 0.2})
        b = rank_runs("rmse_P@10", {"r1": 0.1, "r3": 0.2})
        with pytest.raises(ConfigError):
            correlation_matrix([a, b])

    def test_fewer_than_two_measures_errors(self):
        a = rank_runs("rmse_AP@1000", {"r1": 0.1, "r2": 0.2})
        with pytest.raises(ConfigError):
            correlation_matrix([a])


class TestFlagEquivalences:
    def test_threshold_labels(self):
        ids = ["m1", "m2", "m3"]
        mat = np.array([
            [1.0, 0.95, 0.85],
            [0.95, 1.0, 0.5],
            [0.85, 0.5, 1.0],
        ])
        flags = {(a, b): label for a, b, _, label in flag_equivalences(mat, ids)}
        assert flags[("m1", "m2")] == "equivalent"
        assert flags[("m1", "m3")] == "intermediate"
        assert flags[("m2", "m3")] == "different"


def test_matrix_csv_shape():
    ids = ["m1", "m2"]
    mat = np.array([[1.0, 0.5], [0.5, 1.0]])
    csv = matrix_to_csv(mat, ids)
    lines = csv.strip().split("\n")
    assert lines[0] == "measure,m1,m2"
    assert lines[1] == "m1,1.0000,0.5000"


@pytest.mark.parametrize("n", [0, 1])
def test_correlation_report_needs_two_candidates(n):
    orig = make_run("orig", {"301": ["A", "B"], "302": ["C", "D"]})
    qrels = make_qrels({"301": {"A": 1}, "302": {"D": 1}})
    candidates = [(f"c{i}", make_run(f"c{i}", {"301": ["B", "A"], "302": ["C", "D"]}), None)
                  for i in range(n)]
    with pytest.raises(ConfigError, match=f"need at least 2 runs to correlate, got {n}"):
        build_correlation_report(orig, qrels, candidates, [parse_measure_spec("P@1")])


def test_badness_follows_the_kind_before_the_measure_label():
    assert consistency_transform("delta_arp", 0.05) == 0.05
    assert consistency_transform("tau_P@10", 0.5) == -0.5
    for unknown in ("TAU", "tau@10", "er_x", "rmse_P@10_P@10", "p_value_"):
        with pytest.raises(ConfigError):
            consistency_transform(unknown, 1.0)
