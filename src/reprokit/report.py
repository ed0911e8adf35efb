"""Building and deterministic serialization of comparison reports.

A report is a plain nested dict (JSON-shaped), built by a ``build_*_report``
function from loaded runs and qrels. Emission is byte-deterministic for
identical inputs: JSON keys are sorted, the CSV column order is fixed (see
CSV_HEADER), and the text table groups columns as ARP | Correlation | RMSE |
p-value. No timestamps unless provenance was explicitly requested upstream.
A value that is undefined (a tau, an effect, a t-test) is None, and the
report's ``warnings`` give the reason; it never stops the report.
"""

from __future__ import annotations

import json
import math
from typing import Iterable

from . import effects, meta, ordering, score_agreement, stats
from .effectiveness import MeasureConfig, TopicScoreVector, score_run
from .errors import ConfigError, TopicMismatchError
from .ordering import RboParams
from .trec_io import Qrels, Run, topic_intersection

CSV_HEADER = (
    "measure,arp_orig,arp_rpl,delta_arp,delta_arp_signed,"
    "tau_union,tau_intersection,overlap,rbo,rmse,t_stat,p_value,"
    "er,ri,ri_prime,delta_ri,region,dist"
)

FORMATS = ("json", "csv", "table")


def _load_warnings(*inputs: Run | Qrels | None) -> list[str]:
    """The warnings of loading each input that is given, in order."""
    return [w for x in inputs if x is not None for w in x.warnings]


def _paired_block(label: str, v_orig: TopicScoreVector, v_rpl: TopicScoreVector,
                  warnings: list[str]) -> dict:
    """Score agreement and paired t-test of one measure over one topic set."""
    signed = score_agreement.delta_arp(v_orig, v_rpl)
    test = stats.paired_t_test(v_orig, v_rpl)
    if test.warning:
        warnings.append(f"{label}: {test.warning}")
    return {
        "arp_orig": v_orig.mean,
        "arp_rpl": v_rpl.mean,
        "delta_arp": abs(signed),
        "delta_arp_signed": signed,
        "rmse": score_agreement.rmse(v_orig, v_rpl),
        "t_stat": test.t_stat,
        "p_value": test.p_value,
    }


def _ordering_means(full: ordering.FullDepth, run: Run, warnings: list[str],
                    intersection: bool = True) -> dict:
    """The ``ordering`` block of :func:`ordering.full_depth`'s values, tau-intersection
    and overlap only if ``intersection``, with a warning for each topic a tau mean
    leaves out; the topics that the compared ``run`` lacks get their own."""
    missing = sum(topic not in run.topics for topic in full.docs)
    if missing:
        warnings.append(f"tau undefined on {missing} topic(s) run {run.tag!r} lacks, excluded from mean")

    def mean(per_topic: dict, name: str, excluded_as: str) -> float | None:
        value, excluded = ordering.mean_over_topics(per_topic)
        if value is None:
            warnings.append(f"{name} unavailable on every topic")
        elif excluded > missing:
            warnings.append(f"{excluded_as} on {excluded - missing} topic(s), excluded from mean")
        return value

    block = {"tau_union_mean": mean(full.tau, "tau-union", "tau degenerate"),
             "rbo_mean": ordering.mean_over_topics(full.rbo)[0]}
    if intersection:
        inter = {topic: ordering.tau_intersection(*docs) for topic, docs in full.docs.items()}
        block["tau_intersection_mean"] = mean({t: tau for t, (tau, _) in inter.items()},
                                              "tau-intersection", "tau-intersection unavailable")
        overlaps = [ov for tau, ov in inter.values() if tau is not None]  # of the topics in the mean
        block["mean_overlap"] = sum(overlaps) / len(overlaps) if overlaps else None
    return block


def _effect_block(label: str, b: TopicScoreVector, a: TopicScoreVector, b_prime: TopicScoreVector,
                  a_prime: TopicScoreVector, warnings: list[str]) -> dict:
    """The effect block of one measure, with a warning for each undefined value."""
    block = effects.summarize_effect(b, a, b_prime, a_prime)._asdict()
    if block["er"] is None:
        warnings.append(f"{label}: er, region and dist undefined: the original pair has no mean improvement")
    warnings.extend(f"{label}: {key}, delta_ri, region and dist undefined: baseline run {run.run_tag!r} "
                    "has zero mean score" for key, run in (("ri", b), ("ri_prime", b_prime)) if block[key] is None)
    return block


def _measure_blocks(measures: list[MeasureConfig], orig: list[TopicScoreVector],
                    rpl: list[TopicScoreVector], b: list[TopicScoreVector] | None,
                    b_prime: list[TopicScoreVector] | None, warnings: list[str]) -> tuple[dict, dict]:
    """The paired block of each measure and, given the two baselines' vectors, its effect block."""
    measure_blocks: dict[str, dict] = {}
    effect_blocks: dict[str, dict] = {}
    for i, cfg in enumerate(measures):
        measure_blocks[cfg.label] = _paired_block(cfg.label, orig[i], rpl[i], warnings)
        if b is not None:
            effect_blocks[cfg.label] = _effect_block(cfg.label, b[i], orig[i], b_prime[i], rpl[i], warnings)
    return measure_blocks, effect_blocks


def build_replicate_report(
    run_orig: Run,
    run_rpl: Run,
    qrels: Qrels,
    measures: list[MeasureConfig],
    params: RboParams = RboParams(),
    cutoffs: list[int] | None = None,
    baselines: tuple[Run, Run] | None = None,
    strict: bool = False,
) -> dict:
    """Compare a re-created run with the original; ``baselines``, the original
    and the re-created baseline run, add the effect block of each measure."""
    warnings = _load_warnings(run_orig, run_rpl, qrels, *baselines or ())
    topics = topic_intersection(run_orig, qrels)

    full = ordering.full_depth(run_orig, run_rpl, topics, params)
    cutoff_ordering = ordering.ordering_at_cutoffs(full, cutoffs or ())  # a bad cutoff raises here
    ordering_block = _ordering_means(full, run_rpl, warnings)
    # at k >= 2 a topic lacks tau exactly where it does at full depth, so only k = 1 can be null unsaid
    warnings.extend(f"tau-union unavailable on every topic at cutoff {k}"
                    for k, (t_mean, _) in cutoff_ordering.items() if t_mean is None)

    # the measures first, then each at every cutoff: each run is walked once;
    # each run's missing topics are listed once, before the per-measure warnings
    cfgs = tuple(dict.fromkeys([*measures, *(MeasureConfig(c.measure, k)
                                             for k in cutoffs or () for c in measures)]))
    orig = dict(zip(cfgs, score_run(run_orig, qrels, topics, cfgs)))
    rpl = dict(zip(cfgs, score_run(run_rpl, qrels, topics, cfgs, strict=strict, warnings=warnings)))
    b, b_prime = (score_run(run, qrels, topics, tuple(measures), strict=strict, warnings=warnings)
                  for run in baselines) if baselines else (None, None)
    measure_blocks, effect_blocks = _measure_blocks(
        measures, [orig[c] for c in measures], [rpl[c] for c in measures], b, b_prime, warnings)
    cutoff_blocks: dict[int, dict] = {}
    if cutoffs:
        for cfg in measures:
            for k, v in score_agreement.rmse_at_cutoffs(orig, rpl, cfg.measure, cutoffs).items():
                cutoff_blocks.setdefault(k, {})[cfg.label] = {"rmse": v}
        for k, (t_mean, r_mean) in cutoff_ordering.items():
            cutoff_blocks.setdefault(k, {})["ordering"] = {"tau_union": t_mean, "rbo": r_mean}

    return {
        "mode": "replicate",
        "runs": {"orig": run_orig.tag, "rpl": run_rpl.tag},
        "topics": len(topics),
        "config": {"phi": params.phi, "depth": params.depth, "measures": [c.label for c in measures]},
        "ordering": ordering_block,
        "measures": measure_blocks,
        "effects": effect_blocks or None,
        "cutoffs": cutoff_blocks or None,
        "warnings": warnings,
    }


def build_reproduce_report(sides: Iterable[tuple[Run, Run, Qrels]],
                           measures: list[MeasureConfig], strict: bool = False) -> dict:
    """Compare exactly two ``(run_a, run_b, qrels)`` sides, the original collection first;
    each side is compared on the topics of its ``run_a``.

    Each side is scored for every measure and dropped before the next is read,
    so only one side's runs and qrels are held at a time.
    """
    warnings: list[str] = []
    done = []  # per side: tag a, tag b, topic count, (vector a, vector b) per measure
    for run_a, run_b, qrels in sides:
        warnings.extend(_load_warnings(run_a, run_b, qrels))
        topics = topic_intersection(run_a, qrels)
        done.append((run_a.tag, run_b.tag, len(topics), list(zip(
            score_run(run_a, qrels, topics, tuple(measures)),
            score_run(run_b, qrels, topics, tuple(measures), strict=strict, warnings=warnings)))))
        del run_a, run_b, qrels  # hold no side while the next one loads
    if len(done) != 2:
        raise ConfigError(f"reproduce compares two sides, got {len(done)}")
    (tag_a, tag_b, n_orig, orig), (tag_a_rpd, tag_b_rpd, n_rpd, rpd) = done

    measure_blocks: dict[str, dict] = {}
    effect_blocks: dict[str, dict] = {}
    for cfg, (a, b), (a_prime, b_prime) in zip(measures, orig, rpd):
        test_a, test_b = stats.unpaired_t_test(a, a_prime), stats.unpaired_t_test(b, b_prime)
        warnings.extend(f"{cfg.label}: {which}{test.warning}"
                        for which, test in (("", test_a), ("baseline runs: ", test_b)) if test.warning)
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
        effect_blocks[cfg.label] = _effect_block(cfg.label, b, a, b_prime, a_prime, warnings)

    return {
        "mode": "reproduce",
        "runs": {"a_orig": tag_a, "b_orig": tag_b, "a_rpd": tag_a_rpd, "b_rpd": tag_b_rpd},
        "topics": n_rpd,
        "topics_orig": n_orig,
        "config": {"measures": [c.label for c in measures]},
        "measures": measure_blocks,
        "effects": effect_blocks,
        "warnings": warnings,
    }


def check_baselines(candidate: str, orig: bool, own: bool) -> None:
    """Raise ConfigError unless a candidate has a baseline run exactly when the original has one."""
    if orig != own:
        raise ConfigError(f"candidate {candidate!r} {'lacks' if orig else 'has'} a baseline run and the "
                          f"original {'has' if orig else 'lacks'} one; give baselines for all or none")


def build_correlation_report(run_orig: Run, qrels: Qrels,
                             candidates: Iterable[tuple[str, Run, Run | None]],
                             measures: list[MeasureConfig], params: RboParams = RboParams(),
                             baseline_orig: Run | None = None, strict: bool = False) -> dict:
    """Rank the candidates, ``(run_id, run, baseline or None)`` read once, by each value
    :func:`build_replicate_report` gives for them, and correlate those rankings.
    Every run is scored on the original's topics, which are scored once; baselines
    are all or none (see :func:`check_baselines`).

    ``warnings`` holds, for each candidate, the warnings replicate gives on it (except
    those on tau-intersection, which is not ranked), prefixed with its id, as is the
    error under ``strict`` on a topic the candidate's run or baseline lacks.
    """
    raw: dict[str, dict[str, float | None]] = {"tau": {}, "rbo": {}}  # measure_id -> run_id -> raw value
    raw_er: dict[str, dict[str, float | None]] = {}  # listed after the others, as in replicate
    warnings: list[str] = []
    cfgs = tuple(measures)
    topics = topic_intersection(run_orig, qrels)
    orig = score_run(run_orig, qrels, topics, cfgs)
    b_found: list[str] = []  # the original baseline's missing topics, listed for each candidate
    b_orig = None if baseline_orig is None else score_run(
        baseline_orig, qrels, topics, cfgs, strict=strict, warnings=b_found)
    for run_id, run_rpl, baseline_rpl in candidates:
        check_baselines(run_id, baseline_orig is not None, baseline_rpl is not None)
        if run_id in raw["tau"]:
            raise ConfigError(f"candidate id {run_id!r} given twice")
        found = _load_warnings(run_orig, run_rpl, qrels, baseline_orig, baseline_rpl)
        # not bound to a name: the record holds the candidate's doc lists
        means = _ordering_means(ordering.full_depth(run_orig, run_rpl, topics, params), run_rpl, found,
                                intersection=False)
        raw["tau"][run_id], raw["rbo"][run_id] = means["tau_union_mean"], means["rbo_mean"]
        try:  # each run's missing topics once, before the per-measure warnings
            rpl = score_run(run_rpl, qrels, topics, cfgs, strict=strict, warnings=found)
            found += b_found
            b_rpl = None if baseline_rpl is None else score_run(
                baseline_rpl, qrels, topics, cfgs, strict=strict, warnings=found)
        except TopicMismatchError as e:
            raise TopicMismatchError(f"{run_id}: {e}") from None
        measure_blocks, effect_blocks = _measure_blocks(measures, orig, rpl, b_orig, b_rpl, found)
        for label, block in measure_blocks.items():
            for key in ("delta_arp", "rmse", "p_value"):
                raw.setdefault(f"{key}_{label}", {})[run_id] = block[key]
        for label, block in effect_blocks.items():
            raw_er.setdefault(f"er_{label}", {})[run_id] = block["er"]
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
    if sci_below is not None and 0 < abs(value) < sci_below:
        mantissa, _, exp = f"{value:.0E}".partition("E")
        return f"{mantissa}E{int(exp)}"
    return f"{value:.4f}"


def _finite(value):
    """``value`` with each non-finite float as None (JSON null); a report warning gives the reason."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_finite(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def emit(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(_finite(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "table":
        return emit_table(report)
    raise ConfigError(f"unknown format {fmt!r}; expected one of {FORMATS}")


_ORDERING_COLUMNS = {"tau_union": "tau_union_mean", "tau_intersection": "tau_intersection_mean",
                     "overlap": "mean_overlap", "rbo": "rbo_mean"}


def _rows(report: dict) -> list[dict]:
    """The CSV_HEADER columns of each measure: its score block, its effects and the
    report's ordering values, None where the report has no such value. A report
    with ordering values and no measure has one row, with an empty measure cell."""
    ordering_block = report.get("ordering") or {}
    rows = []
    for label in report["measures"] or ([""] if ordering_block else []):
        row = {**report["measures"].get(label, {}), **(report.get("effects") or {}).get(label, {}),
               **{col: ordering_block.get(key) for col, key in _ORDERING_COLUMNS.items()}, "measure": label}
        rows.append({col: row.get(col) for col in CSV_HEADER.split(",")})
    return rows


def emit_csv(report: dict) -> str:
    if report["mode"] == "correlate":
        return report["matrix_csv"]
    return "\n".join([CSV_HEADER, *(",".join(map(_fmt, row.values())) for row in _rows(report))]) + "\n"


def _warning_lines(report: dict) -> list[str]:
    if not report.get("warnings"):
        return []
    return ["", "warnings:", *(f"  - {w}" for w in report["warnings"])]


def emit_table(report: dict) -> str:
    if report["mode"] == "correlate":
        flags = [f"{f['a']} vs {f['b']}: tau={f['tau']:.4f} ({f['label']})" for f in report["flags"]]
        return report["matrix_csv"] + "\n" + "\n".join(flags + _warning_lines(report)) + "\n"
    header = f"{'measure':<12}{'ARP orig':>10}{'ARP rpl':>10}{'dARP':>8} | {'tau':>8}{'RBO':>8} | {'RMSE':>8} | {'p-value':>10}"
    lines = [f"mode: {report['mode']}    topics: {report['topics']}",
             "runs: " + ", ".join(f"{role}={tag}" for role, tag in report["runs"].items()),
             "", header, "-" * len(header)]
    order_block = report.get("ordering") or {}
    for row in _rows(report):
        lines.append(
            f"{row['measure']:<12}"
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
                f"  {_fmt(eff['region']):<16}{_fmt(eff['dist']):>8}"
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
