"""Cross-measure meta-analysis over a set of candidate runs.

Raw measure outputs point in different directions (high tau is good, high
RMSE is bad), so each is first mapped to a "badness" scale where lower is
better (``_BADNESS``). Runs are then ranked per measure and the rankings
compared with tie-aware Kendall correlation; pairs above 0.9 are flagged
equivalent, below 0.8 noticeably different.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple, Sequence

from .errors import ConfigError
from .ordering import kendall_tau

# badness of each kind of value correlate ranks; a value's id is its kind, then "_"
# and the measure label for per-measure kinds ("p_value_AP@1000"); a label holds "@"
_BADNESS = {
    "tau": lambda v: -v,
    "rbo": lambda v: -v,
    "p_value": lambda v: -v,
    "er": lambda v: abs(1.0 - v),
    "delta_arp": lambda v: v,
    "rmse": lambda v: v,
}

EQUIVALENT_THRESHOLD = 0.9
DIFFERENT_THRESHOLD = 0.8


class MeasureRanking(NamedTuple):
    measure_id: str
    run_ids: tuple[str, ...]  # best (lowest badness) first
    badness: tuple[float, ...]  # aligned with run_ids, non-decreasing


def consistency_transform(measure_id: str, raw: float) -> float:
    """Map a raw measure value to badness (lower = better re-creation)."""
    kind = measure_id.rpartition("_")[0] if "@" in measure_id else measure_id
    if kind not in _BADNESS:
        raise ConfigError(f"unknown measure id {measure_id!r}")
    return _BADNESS[kind](raw)


def rank_runs(measure_id: str, raw_by_run: Mapping[str, float]) -> MeasureRanking:
    """Order runs by badness ascending, run-id as deterministic tie-break."""
    items = sorted((consistency_transform(measure_id, v), run) for run, v in raw_by_run.items())
    return MeasureRanking(
        measure_id=measure_id,
        run_ids=tuple(run for _, run in items),
        badness=tuple(b for b, _ in items),
    )


def correlation_matrix(rankings: Sequence[MeasureRanking]) -> list[list[float]]:
    """Pairwise Kendall tau between measures over per-run badness values.

    Correlations pair badness values per run (ties handled by the tau
    kernel's tie terms), so equal-badness runs do not inject noise. A pair
    with no defined tau (one measure gives every run the same badness) is NaN:
    a blank cell in :func:`matrix_to_csv` and no flag. Rows are lists, indexed
    ``matrix[i][j]``.
    """
    if len(rankings) < 2:
        raise ConfigError("need at least 2 measure rankings")
    run_set = set(rankings[0].run_ids)
    if len(run_set) < 2:
        raise ConfigError(f"need at least 2 runs to correlate, got {len(run_set)}")
    for r in rankings[1:]:
        if set(r.run_ids) != run_set:
            raise ConfigError(
                f"run sets differ between {rankings[0].measure_id!r} and {r.measure_id!r}"
            )
    order = sorted(run_set)
    vectors = []
    for r in rankings:
        by_run = dict(zip(r.run_ids, r.badness))
        vectors.append([by_run[run] for run in order])
    k = len(rankings)
    mat = [[1.0 if i == j else math.nan for j in range(k)] for i in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            tau = kendall_tau(vectors[i], vectors[j])
            if tau is not None:  # else the cell stays NaN
                mat[i][j] = mat[j][i] = tau
    return mat


def flag_equivalences(matrix: Sequence[Sequence[float]],
                      measure_ids: Sequence[str]) -> list[tuple[str, str, float, str]]:
    """Label each measure pair equivalent (> 0.9), different (< 0.8), or
    intermediate."""
    out = []
    for i in range(len(measure_ids)):
        for j in range(i + 1, len(measure_ids)):
            tau = float(matrix[i][j])
            if tau != tau:
                continue
            if tau > EQUIVALENT_THRESHOLD:
                label = "equivalent"
            elif tau < DIFFERENT_THRESHOLD:
                label = "different"
            else:
                label = "intermediate"
            out.append((measure_ids[i], measure_ids[j], tau, label))
    return out


def matrix_to_csv(matrix: Sequence[Sequence[float]], measure_ids: Sequence[str]) -> str:
    lines = ["measure," + ",".join(measure_ids)]
    for i, mid in enumerate(measure_ids):
        lines.append(mid + "," + ",".join("" if v != v else f"{v:.4f}" for v in matrix[i]))
    return "\n".join(lines) + "\n"
