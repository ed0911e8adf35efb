"""Expected report values, computed from the generated inputs.

Nothing here imports the package under test or parses the written files:
every value comes from the generator's in-memory runs, through formulas
written independently of the package (tau from an inversion count, RBO from
the depth at which each shared document enters both prefixes, measures from
cumulative gain arrays). The checks return a list of problems; an empty list
means the report is correct.
"""

from __future__ import annotations

import json
import math

import numpy as np

from gen import GenRun

TOL = 1e-9


class Measure:
    """One measure spec such as ``AP@1000``."""

    def __init__(self, spec: str):
        self.name, _, cut = spec.partition("@")
        self.cutoff = int(cut)

    def at(self, k: int) -> "Measure":
        return Measure(f"{self.name}@{k}")


def canonical(run: GenRun, topic: str) -> np.ndarray:
    """Pool indices in canonical order: score descending, doc id descending."""
    picks = run.picks[topic]
    docs = run.collection.pools[topic][picks]
    return picks[np.lexsort((docs, run.scores[topic]))[::-1]]


def topic_score(run: GenRun, topic: str, m: Measure) -> float:
    coll = run.collection
    grades = coll.grades[topic]
    gains = grades[canonical(run, topic)][: m.cutoff].astype(float)
    rel = gains >= 1
    if m.name == "P":
        return rel.sum() / m.cutoff
    if m.name == "AP":
        ranks = np.arange(1, len(gains) + 1)
        return float((np.cumsum(rel)[rel] / ranks[rel]).sum() / np.count_nonzero(grades >= 1))
    discount = 1.0 / np.log2(np.arange(2, m.cutoff + 2))
    ideal = np.sort(grades[coll.judged[topic]])[::-1][: m.cutoff].astype(float)
    return float((gains * discount[: len(gains)]).sum() / (ideal * discount[: len(ideal)]).sum())


def relevant_topics(run: GenRun) -> list[str]:
    coll = run.collection
    return [t for t in coll.topics if np.any(coll.grades[t] >= 1)]


def scores(run: GenRun, m: Measure) -> np.ndarray:
    return np.array([topic_score(run, t, m) for t in relevant_topics(run)])


def _inversions(y: np.ndarray) -> int:
    return int(np.count_nonzero(np.triu(y[:, None] > y[None, :], k=1)))


def _tau_tie_free(y: np.ndarray) -> float:
    n = len(y)
    return 1.0 - 4.0 * _inversions(y) / (n * (n - 1))


def tau_union(r: list[str], s: list[str]) -> float:
    pos = {d: i for i, d in enumerate(r)}
    for d in s:
        pos.setdefault(d, len(pos))
    m = min(len(r), len(s))
    return _tau_tie_free(np.array([pos[d] for d in s[:m]]))


def tau_intersection(r: list[str], s: list[str]) -> tuple[float, int]:
    s_pos = {d: i for i, d in enumerate(s)}
    y = np.array([s_pos[d] for d in r if d in s_pos])
    return _tau_tie_free(y), len(y)


def rbo(r: list[str], s: list[str], phi: float, depth: int) -> float:
    d = min(depth, max(len(r), len(s)))
    s_pos = {doc: i for i, doc in enumerate(s, start=1)}
    enter = [max(i, s_pos[doc]) for i, doc in enumerate(r, start=1) if doc in s_pos]
    overlap = np.cumsum(np.bincount(np.array(enter, dtype=np.int64), minlength=d + 1)[: d + 1])[1:]
    i = np.arange(1, d + 1)
    return float((1.0 - phi) * np.sum(phi ** (i - 1) * overlap / i))


def doc_lists(run: GenRun) -> dict[str, list[str]]:
    pools = run.collection.pools
    return {t: pools[t][canonical(run, t)].tolist() for t in relevant_topics(run)}


def ordering(orig: GenRun, rpl: GenRun, phi: float, depth: int,
             cutoff: int | None = None) -> dict[str, float]:
    r_lists, s_lists = doc_lists(orig), doc_lists(rpl)
    tu, rb, ti, ov = [], [], [], []
    for t in r_lists:
        r, s = r_lists[t][:cutoff], s_lists[t][:cutoff]
        tu.append(tau_union(r, s))
        rb.append(rbo(r, s, phi, depth))
        tau_i, n = tau_intersection(r, s)
        ti.append(tau_i)
        ov.append(n)
    return {"tau_union_mean": float(np.mean(tu)), "rbo_mean": float(np.mean(rb)),
            "tau_intersection_mean": float(np.mean(ti)), "mean_overlap": float(np.mean(ov))}


def effect(a: np.ndarray, b: np.ndarray, a2: np.ndarray, b2: np.ndarray) -> dict[str, float]:
    er = float(np.mean(a2 - b2) / np.mean(a - b))
    ri = float((a.mean() - b.mean()) / b.mean())
    ri2 = float((a2.mean() - b2.mean()) / b2.mean())
    return {"er": er, "ri": ri, "ri_prime": ri2, "delta_ri": ri - ri2,
            "dist": math.hypot(er - 1.0, ri - ri2)}


class Checker:
    def __init__(self):
        self.problems: list[str] = []

    def close(self, where: str, got, want: float) -> None:
        want = float(want)
        if not isinstance(got, (int, float)) or not abs(got - want) <= TOL * max(1.0, abs(want)):
            self.problems.append(f"{where}: got {got!r}, expected {want!r}")

    def equal(self, where: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{where}: got {got!r}, expected {want!r}")

    def within(self, where: str, got, lo: float, hi: float) -> None:
        if not isinstance(got, (int, float)) or not lo <= got <= hi:
            self.problems.append(f"{where}: {got!r} outside [{lo}, {hi}]")


def check_replicate(text: bytes, runs: dict[str, GenRun], measures: list[str],
                    cutoffs: list[int], phi: float, depth: int) -> list[str]:
    rep = json.loads(text)
    c = Checker()
    orig, rpl, b, b2 = runs["orig"], runs["rpl"], runs["b_orig"], runs["b_rpl"]
    c.equal("topics", rep["topics"], len(relevant_topics(orig)))
    want = ordering(orig, rpl, phi, depth)
    for key, value in want.items():
        c.close(f"ordering.{key}", rep["ordering"][key], value)
    c.within("ordering.tau_union_mean", rep["ordering"]["tau_union_mean"], -1, 1)
    c.within("ordering.rbo_mean", rep["ordering"]["rbo_mean"], 0, 1)
    c.within("ordering.mean_overlap", rep["ordering"]["mean_overlap"], 2, orig.collection.depth - 1)
    for spec in measures:
        m = Measure(spec)
        a, a2 = scores(orig, m), scores(rpl, m)
        block = rep["measures"][spec]
        c.close(f"{spec}.arp_orig", block["arp_orig"], a.mean())
        c.close(f"{spec}.arp_rpl", block["arp_rpl"], a2.mean())
        c.close(f"{spec}.delta_arp", block["delta_arp"], abs(a.mean() - a2.mean()))
        c.close(f"{spec}.rmse", block["rmse"], math.sqrt(np.mean((a - a2) ** 2)))
        c.within(f"{spec}.p_value", block["p_value"], 0, 1)
        for key, value in effect(a, scores(b, m), a2, scores(b2, m)).items():
            c.close(f"{spec}.{key}", rep["effects"][spec][key], value)
        for k in cutoffs:
            mk = m.at(k)
            c.close(f"cutoff {k} {spec}.rmse", rep["cutoffs"][str(k)][spec]["rmse"],
                    math.sqrt(np.mean((scores(orig, mk) - scores(rpl, mk)) ** 2)))
    for k in cutoffs:
        want = ordering(orig, rpl, phi, depth, cutoff=k)
        for key in ("tau_union", "rbo"):
            c.close(f"cutoff {k} {key}", rep["cutoffs"][str(k)]["ordering"][key],
                    want[f"{key}_mean"])
    return c.problems


def check_reproduce(text: bytes, runs: dict[str, GenRun], measures: list[str]) -> list[str]:
    rep = json.loads(text)
    c = Checker()
    c.equal("topics", rep["topics"], len(relevant_topics(runs["a_rpd"])))
    c.equal("topics_orig", rep["topics_orig"], len(relevant_topics(runs["a_orig"])))
    for spec in measures:
        m = Measure(spec)
        a, b = scores(runs["a_orig"], m), scores(runs["b_orig"], m)
        a2, b2 = scores(runs["a_rpd"], m), scores(runs["b_rpd"], m)
        c.close(f"{spec}.arp_rpl", rep["measures"][spec]["arp_rpl"], a2.mean())
        c.close(f"{spec}.arp_b_rpl", rep["measures"][spec]["arp_b_rpl"], b2.mean())
        c.within(f"{spec}.p_value", rep["measures"][spec]["p_value"], 0, 1)
        c.within(f"{spec}.p_value_baseline", rep["measures"][spec]["p_value_baseline"], 0, 1)
        for key, value in effect(a, b, a2, b2).items():
            c.close(f"{spec}.{key}", rep["effects"][spec][key], value)
    return c.problems


def check_correlate(text: bytes, runs: dict[str, GenRun], candidates: list[tuple[str, str]],
                    measures: list[str], phi: float, depth: int) -> list[str]:
    """``candidates`` holds (run name, baseline name); run ids in the report
    are the candidates' file names."""
    rep = json.loads(text)
    c = Checker()
    orig, b = runs["orig"], runs["b_orig"]
    want: dict[str, dict[str, float]] = {}
    for name, name_b in candidates:
        run_id = f"{name}.run"
        o = ordering(orig, runs[name], phi, depth)
        want.setdefault("tau", {})[run_id] = -o["tau_union_mean"]
        want.setdefault("rbo", {})[run_id] = -o["rbo_mean"]
        for spec in measures:
            m = Measure(spec)
            a, a2 = scores(orig, m), scores(runs[name], m)
            want.setdefault(f"delta_arp_{spec}", {})[run_id] = abs(a.mean() - a2.mean())
            want.setdefault(f"rmse_{spec}", {})[run_id] = math.sqrt(np.mean((a - a2) ** 2))
            er = effect(a, scores(b, m), a2, scores(runs[name_b], m))["er"]
            want.setdefault(f"er_{spec}", {})[run_id] = abs(1.0 - er)
    ids = set(want) | {f"p_value_{spec}" for spec in measures}
    c.equal("measure_ids", sorted(rep["measure_ids"]), sorted(ids))
    for mid, ranking in rep["rankings"].items():
        badness = dict(zip(ranking["runs"], ranking["badness"]))
        c.equal(f"{mid} runs", sorted(badness), sorted(f"{n}.run" for n, _ in candidates))
        c.equal(f"{mid} order", ranking["badness"], sorted(ranking["badness"]))
        for run_id, value in badness.items():
            if mid in want:
                c.close(f"{mid} {run_id}", value, want[mid][run_id])
            else:
                c.within(f"{mid} {run_id}", value, -1, 0)
    lines = rep["matrix_csv"].splitlines()
    matrix = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    c.equal("matrix shape", matrix.shape, (len(ids), len(ids)))
    c.equal("matrix diagonal", bool(np.all(np.diag(matrix) == 1.0)), True)
    c.equal("matrix symmetric", bool(np.array_equal(matrix, matrix.T)), True)
    c.within("matrix min", float(matrix.min()), -1, 1)
    c.within("matrix max", float(matrix.max()), -1, 1)
    return c.problems
