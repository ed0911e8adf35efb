"""Building and deterministic serialization of comparison reports.

A report is a plain nested dict (JSON-shaped), built by a ``build_*_report``
function from loaded runs and qrels. Emission is byte-deterministic for
identical inputs: JSON keys are sorted, the CSV column order is fixed (see
CSV_HEADER), and the text table groups columns as ARP | Correlation | RMSE |
p-value. No timestamps unless provenance was explicitly requested upstream.
"""

from __future__ import annotations

import json
from typing import Iterable

from . import effects, meta, ordering, score_agreement, stats
from .effectiveness import MeasureConfig, TopicScoreVector, score_run
from .errors import ConfigError, DegenerateTiesError, OverlapTooSmallError, ReprokitError
from .trec_io import Qrels, Run, TopicSet, topic_intersection

CSV_HEADER = (
    "measure,arp_orig,arp_rpl,delta_arp,delta_arp_signed,"
    "tau_union,tau_intersection,overlap,rbo,rmse,t_stat,p_value,"
    "er,ri,ri_prime,delta_ri,region,dist"
)

FORMATS = ("json", "csv", "table")


def _paired_block(label: str, v_orig: TopicScoreVector, v_rpl: TopicScoreVector,
                  warnings: list[str]) -> dict:
    """Score agreement and paired t-test of one measure over one topic set."""
    arp = score_agreement.delta_arp(v_orig, v_rpl)
    test = stats.paired_t_test(v_orig, v_rpl)
    if test.warning:
        warnings.append(f"{label}: {test.warning}")
    return {
        "arp_orig": v_orig.mean,
        "arp_rpl": v_rpl.mean,
        "delta_arp": arp.absolute,
        "delta_arp_signed": arp.signed,
        "rmse": score_agreement.rmse(v_orig, v_rpl),
        "t_stat": test.t_stat,
        "p_value": test.p_value,
    }


def _tau_union_mean(run_orig: Run, run_rpl: Run, topics: TopicSet,
                    warnings: list[str]) -> float:
    tau_mean, excluded = ordering.mean_over_topics(
        ordering.tau_union_over_topics(run_orig, run_rpl, topics))
    if excluded:
        warnings.append(f"tau degenerate on {excluded} topic(s), excluded from mean")
    return tau_mean


def _effect_block(inp: effects.EffectInput) -> dict:
    summary = effects.summarize_effect(inp)
    return {
        "er": summary.er,
        "ri": summary.ri,
        "ri_prime": summary.ri_prime,
        "delta_ri": summary.delta_ri,
        "region": summary.region,
        "dist": summary.distance_to_ideal,
    }


def build_replicate_report(
    run_orig: Run,
    run_rpl: Run,
    qrels: Qrels,
    measures: list[MeasureConfig],
    phi: float = 0.8,
    depth: int = 1000,
    cutoffs: list[int] | None = None,
    baseline_orig: Run | None = None,
    baseline_rpl: Run | None = None,
    strict: bool = False,
) -> dict:
    warnings: list[str] = list(run_orig.warnings) + list(run_rpl.warnings) + list(qrels.warnings)
    topics = topic_intersection(run_orig, run_rpl, qrels)
    params = ordering.RboParams(phi=phi, depth=depth)

    tau_mean = _tau_union_mean(run_orig, run_rpl, topics, warnings)
    rbo_mean, _ = ordering.mean_over_topics(
        ordering.rbo_over_topics(run_orig, run_rpl, topics, params)
    )
    inter_vals = {}
    overlaps = []
    for topic in topics:
        try:
            tau_i, ov = ordering.tau_intersection(run_orig.topics[topic].doc_ids,
                                                 run_rpl.topics[topic].doc_ids)
            inter_vals[topic] = tau_i
            overlaps.append(ov)
        except (DegenerateTiesError, OverlapTooSmallError):
            inter_vals[topic] = None
    try:
        tau_inter_mean, inter_excluded = ordering.mean_over_topics(inter_vals)
        mean_overlap = sum(overlaps) / len(overlaps)
        if inter_excluded:
            warnings.append(
                f"tau-intersection unavailable on {inter_excluded} topic(s), excluded from mean"
            )
    except ReprokitError:
        tau_inter_mean, mean_overlap = None, None
        warnings.append("tau-intersection unavailable on every topic")

    measure_blocks: dict[str, dict] = {}
    effect_blocks: dict[str, dict] = {}
    cutoff_blocks: dict[int, dict] = {}
    for cfg in measures:
        v_orig = score_run(run_orig, qrels, topics, cfg, strict=strict, warnings=warnings)
        v_rpl = score_run(run_rpl, qrels, topics, cfg, strict=strict, warnings=warnings)
        measure_blocks[cfg.label] = _paired_block(cfg.label, v_orig, v_rpl, warnings)
        if baseline_orig is not None and baseline_rpl is not None:
            b = score_run(baseline_orig, qrels, topics, cfg, strict=strict, warnings=warnings)
            b_prime = score_run(baseline_rpl, qrels, topics, cfg, strict=strict, warnings=warnings)
            effect_blocks[cfg.label] = _effect_block(effects.EffectInput(b, v_orig, b_prime, v_rpl))
        if cutoffs:
            sweep = score_agreement.rmse_at_cutoffs(run_orig, run_rpl, qrels, topics, cfg, cutoffs)
            for k, v in sweep.items():
                cutoff_blocks.setdefault(k, {}).setdefault(cfg.label, {})["rmse"] = v
    if cutoffs:
        for k, (t_mean, r_mean) in ordering.ordering_at_cutoffs(
            run_orig, run_rpl, topics, cutoffs, params
        ).items():
            block = cutoff_blocks.setdefault(k, {}).setdefault("ordering", {})
            block["tau_union"] = t_mean
            block["rbo"] = r_mean

    return {
        "mode": "replicate",
        "runs": {"orig": run_orig.tag, "rpl": run_rpl.tag},
        "topics": topics.size,
        "config": {"phi": phi, "depth": depth, "measures": [c.label for c in measures]},
        "ordering": {
            "tau_union_mean": tau_mean,
            "tau_intersection_mean": tau_inter_mean,
            "mean_overlap": mean_overlap,
            "rbo_mean": rbo_mean,
        },
        "measures": measure_blocks,
        "effects": effect_blocks or None,
        "cutoffs": cutoff_blocks or None,
        "warnings": warnings,
    }


def build_reproduce_report(
    run_a_orig: Run,
    run_b_orig: Run,
    qrels_orig: Qrels,
    run_a_rpd: Run,
    run_b_rpd: Run,
    qrels_rpd: Qrels,
    measures: list[MeasureConfig],
    strict: bool = False,
) -> dict:
    warnings: list[str] = []
    topics_c = topic_intersection(run_a_orig, run_b_orig, qrels_orig)
    topics_d = topic_intersection(run_a_rpd, run_b_rpd, qrels_rpd)

    measure_blocks: dict[str, dict] = {}
    effect_blocks: dict[str, dict] = {}
    for cfg in measures:
        a = score_run(run_a_orig, qrels_orig, topics_c, cfg, strict=strict, warnings=warnings)
        b = score_run(run_b_orig, qrels_orig, topics_c, cfg, strict=strict, warnings=warnings)
        a_prime = score_run(run_a_rpd, qrels_rpd, topics_d, cfg, strict=strict, warnings=warnings)
        b_prime = score_run(run_b_rpd, qrels_rpd, topics_d, cfg, strict=strict, warnings=warnings)
        test_a = stats.unpaired_t_test(a, a_prime)
        test_b = stats.unpaired_t_test(b, b_prime)
        for test in (test_a, test_b):
            if test.warning:
                warnings.append(f"{cfg.label}: {test.warning}")
        measure_blocks[cfg.label] = {
            "arp_orig": a.mean,
            "arp_b_orig": b.mean,
            "arp_rpl": a_prime.mean,
            "arp_b_rpl": b_prime.mean,
            "t_stat": test_a.t_stat,
            "p_value": test_a.p_value,
            "t_stat_baseline": test_b.t_stat,
            "p_value_baseline": test_b.p_value,
        }
        effect_blocks[cfg.label] = _effect_block(
            effects.EffectInput(b, a, b_prime, a_prime, "reproducibility"))

    return {
        "mode": "reproduce",
        "runs": {
            "a_orig": run_a_orig.tag,
            "b_orig": run_b_orig.tag,
            "a_rpd": run_a_rpd.tag,
            "b_rpd": run_b_rpd.tag,
        },
        "topics": topics_d.size,
        "topics_orig": topics_c.size,
        "config": {"measures": [c.label for c in measures]},
        "measures": measure_blocks,
        "effects": effect_blocks,
        "warnings": warnings,
    }


def build_correlation_report(run_orig: Run, qrels: Qrels,
                             candidates: Iterable[tuple[str, Run, Run | None]],
                             measures: list[MeasureConfig], phi: float = 0.8, depth: int = 1000,
                             baseline_orig: Run | None = None, strict: bool = False) -> dict:
    """Rank the candidates, ``(run_id, run, baseline or None)`` read once, by each value
    :func:`build_replicate_report` gives for them, and correlate those rankings.

    ``warnings`` holds, for each candidate, the warnings replicate gives on it
    (except those on tau-intersection, which is not ranked), prefixed with its id.
    """
    raw: dict[str, dict[str, float]] = {}  # measure_id -> run_id -> raw value
    raw_er: dict[str, dict[str, float]] = {}  # listed after the others, as in replicate
    warnings: list[str] = []
    # by role, not id(): ids get reused; the warnings are replayed for each candidate
    orig_scores: dict[tuple, tuple[TopicScoreVector, list[str]]] = {}

    def score_orig(role: str, run: Run, topics: TopicSet, cfg: MeasureConfig,
                   found: list[str]) -> TopicScoreVector:
        if (role, topics, cfg) not in orig_scores:
            scored: list[str] = []
            orig_scores[role, topics, cfg] = (
                score_run(run, qrels, topics, cfg, strict=strict, warnings=scored), scored)
        vec, scored = orig_scores[role, topics, cfg]
        found.extend(scored)
        return vec

    for run_id, run_rpl, baseline_rpl in candidates:
        found = list(run_orig.warnings) + list(run_rpl.warnings) + list(qrels.warnings)
        topics = topic_intersection(run_orig, run_rpl, qrels)
        raw.setdefault("tau", {})[run_id] = _tau_union_mean(run_orig, run_rpl, topics, found)
        raw.setdefault("rbo", {})[run_id] = ordering.mean_over_topics(ordering.rbo_over_topics(
            run_orig, run_rpl, topics, ordering.RboParams(phi=phi, depth=depth)))[0]
        for cfg in measures:
            v_orig = score_orig("orig", run_orig, topics, cfg, found)
            v_rpl = score_run(run_rpl, qrels, topics, cfg, strict=strict, warnings=found)
            block = _paired_block(cfg.label, v_orig, v_rpl, found)
            for key in ("delta_arp", "rmse", "p_value"):
                raw.setdefault(f"{key}_{cfg.label}", {})[run_id] = block[key]
            if baseline_orig is not None and baseline_rpl is not None:
                raw_er.setdefault(f"er_{cfg.label}", {})[run_id] = _effect_block(effects.EffectInput(
                    score_orig("b_orig", baseline_orig, topics, cfg, found), v_orig,
                    score_run(baseline_rpl, qrels, topics, cfg, strict=strict, warnings=found),
                    v_rpl,
                ))["er"]
        warnings.extend(f"{run_id}: {w}" for w in found)
        del run_rpl, baseline_rpl  # hold no candidate while the next one loads
    raw.update(raw_er)

    rankings = [meta.rank_runs(mid, by_run) for mid, by_run in raw.items()]
    matrix = meta.correlation_matrix(rankings)
    ids = [r.measure_id for r in rankings]
    return {
        "mode": "correlate",
        "measure_ids": ids,
        "rankings": {
            r.measure_id: {"runs": list(r.run_ids), "badness": list(r.badness)}
            for r in rankings
        },
        "matrix_csv": meta.matrix_to_csv(matrix, ids),
        "flags": [
            {"a": a, "b": b, "tau": tau, "label": label}
            for a, b, tau, label in meta.flag_equivalences(matrix, ids)
        ],
        "warnings": warnings,
    }


def _fmt(value, sci_below: float | None = None) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value)
    if sci_below is not None and 0 < abs(value) < sci_below:
        mantissa, _, exp = f"{value:.0E}".partition("E")
        return f"{mantissa}E{int(exp)}"
    return f"{value:.4f}"


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "table":
        return emit_table(report)
    raise ConfigError(f"unknown format {fmt!r}; expected one of {FORMATS}")


def _row_values(report: dict, label: str) -> dict:
    block = report["measures"][label]
    effects = (report.get("effects") or {}).get(label, {})
    return {
        "measure": label,
        "arp_orig": block.get("arp_orig"),
        "arp_rpl": block.get("arp_rpl"),
        "delta_arp": block.get("delta_arp"),
        "delta_arp_signed": block.get("delta_arp_signed"),
        "tau_union": (report.get("ordering") or {}).get("tau_union_mean"),
        "tau_intersection": (report.get("ordering") or {}).get("tau_intersection_mean"),
        "overlap": (report.get("ordering") or {}).get("mean_overlap"),
        "rbo": (report.get("ordering") or {}).get("rbo_mean"),
        "rmse": block.get("rmse"),
        "t_stat": block.get("t_stat"),
        "p_value": block.get("p_value"),
        "er": effects.get("er"),
        "ri": effects.get("ri"),
        "ri_prime": effects.get("ri_prime"),
        "delta_ri": effects.get("delta_ri"),
        "region": effects.get("region"),
        "dist": effects.get("dist"),
    }


def emit_csv(report: dict) -> str:
    if report["mode"] == "correlate":
        return report["matrix_csv"]
    lines = [CSV_HEADER]
    for label in report["measures"]:
        row = _row_values(report, label)
        lines.append(",".join(_fmt(row[col]) for col in CSV_HEADER.split(",")))
    return "\n".join(lines) + "\n"


def _warning_lines(report: dict) -> list[str]:
    if not report.get("warnings"):
        return []
    return ["", "warnings:", *(f"  - {w}" for w in report["warnings"])]


def emit_table(report: dict) -> str:
    if report["mode"] == "correlate":
        flags = [f"{f['a']} vs {f['b']}: tau={f['tau']:.4f} ({f['label']})" for f in report["flags"]]
        return report["matrix_csv"] + "\n" + "\n".join(flags + _warning_lines(report)) + "\n"
    lines = []
    runs = report["runs"]
    lines.append(f"mode: {report['mode']}    topics: {report['topics']}")
    lines.append("runs: " + ", ".join(f"{role}={tag}" for role, tag in runs.items()))
    lines.append("")
    header = f"{'measure':<12}{'ARP orig':>10}{'ARP rpl':>10}{'dARP':>8} | {'tau':>8}{'RBO':>8} | {'RMSE':>8} | {'p-value':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    order_block = report.get("ordering") or {}
    for label in report["measures"]:
        row = _row_values(report, label)
        lines.append(
            f"{label:<12}"
            f"{_fmt(row['arp_orig']):>10}{_fmt(row['arp_rpl']):>10}{_fmt(row['delta_arp']):>8}"
            f" | {_fmt(row['tau_union']):>8}{_fmt(row['rbo']):>8}"
            f" | {_fmt(row['rmse']):>8}"
            f" | {_fmt(row['p_value'], sci_below=1e-3):>10}"
        )
    if order_block.get("tau_intersection_mean") is not None:
        lines.append("")
        lines.append(
            f"tau on intersection: {_fmt(order_block['tau_intersection_mean'])} "
            f"(mean overlap {_fmt(order_block['mean_overlap'])})"
        )
    effects = report.get("effects")
    if effects:
        lines.append("")
        eff_header = f"{'measure':<12}{'ER':>10}{'RI':>10}{'RI prime':>10}{'dRI':>10}  {'region':<16}{'dist':>8}"
        lines.append(eff_header)
        lines.append("-" * len(eff_header))
        for label, eff in effects.items():
            lines.append(
                f"{label:<12}{_fmt(eff['er']):>10}{_fmt(eff['ri']):>10}"
                f"{_fmt(eff['ri_prime']):>10}{_fmt(eff['delta_ri']):>10}"
                f"  {eff['region']:<16}{_fmt(eff['dist']):>8}"
            )
    cutoffs = report.get("cutoffs")
    if cutoffs:
        lines.append("")
        lines.append(f"{'cutoff':<8}{'measure':<12}{'tau':>8}{'RBO':>8}{'RMSE':>8}")
        for k, block in cutoffs.items():
            for label, vals in block.items():
                lines.append(
                    f"{k:<8}{label:<12}{_fmt(vals.get('tau_union')):>8}"
                    f"{_fmt(vals.get('rbo')):>8}{_fmt(vals.get('rmse')):>8}"
                )
    lines.extend(_warning_lines(report))
    return "\n".join(lines) + "\n"
