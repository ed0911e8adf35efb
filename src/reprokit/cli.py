"""Command-line entry point.

Subcommands:
  replicate      same-collection comparison of an original and a re-created
                 run: ARP deltas, tau-union / tau-intersection, RBO, RMSE,
                 paired t-test, and (with a baseline pair) ER / Delta RI.
  reproduce      cross-collection comparison of two baseline/advanced
                 quadruples: ER, Delta RI, unpaired t-tests. Ranking-level
                 and RMSE blocks are structurally absent since the two runs
                 retrieve from different collections.
  correlate      rank a set of candidate runs under every measure and emit
                 the cross-measure Kendall correlation matrix.
  fetch-dataset  download the public companion run archive used for the
                 optional integration fixtures (qrels must be supplied by
                 the user for licensing reasons).

Exit code 0 means no errors (warnings permitted); failures print a
machine-readable JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import urllib.request

from . import effects, meta, ordering, report, score_agreement, stats
from .effectiveness import MeasureConfig, parse_measure_spec, score_run
from .errors import ConfigError, DegenerateTiesError, OverlapTooSmallError, ReprokitError
from .trec_io import Qrels, Run, load_qrels, load_run, topic_intersection

DEFAULT_MEASURES = "P@10,AP@1000,nDCG@1000"
DATASET_URL = (
    "https://github.com/irgroup/sigir2020-measure-reproducibility"
    "/archive/refs/heads/master.tar.gz"
)

_EXIT_CODES = {
    "config": 2,
    "parse": 3,
    "topic-mismatch": 4,
    "no-comparable-topics": 4,
    "io": 5,
}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _parse_measures(spec: str) -> list[MeasureConfig]:
    cfgs = [parse_measure_spec(s.strip()) for s in spec.split(",") if s.strip()]
    if not cfgs:
        raise ConfigError("no measures requested")
    seen = set()
    for c in cfgs:
        if c.label in seen:
            raise ConfigError(f"measure {c.label} requested twice")
        seen.add(c.label)
    return cfgs


def _parse_cutoffs(spec: str | None) -> list[int] | None:
    if not spec:
        return None
    cutoffs = [int(s) for s in spec.split(",") if s.strip()]
    if cutoffs != sorted(cutoffs):
        raise ConfigError("cutoffs must be ascending")
    return cutoffs


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

    tau_per_topic = ordering.tau_union_over_topics(run_orig, run_rpl, topics)
    tau_mean, tau_excluded = ordering.mean_over_topics(tau_per_topic)
    if tau_excluded:
        warnings.append(f"tau degenerate on {tau_excluded} topic(s), excluded from mean")
    rbo_mean, _ = ordering.mean_over_topics(
        ordering.rbo_over_topics(run_orig, run_rpl, topics, params)
    )
    inter_vals = {}
    overlaps = []
    for topic in topics:
        try:
            tau_i, ov = ordering.tau_intersection(run_orig.doc_ids(topic), run_rpl.doc_ids(topic))
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
        arp = score_agreement.delta_arp(v_orig, v_rpl)
        test = stats.paired_t_test(v_orig, v_rpl)
        if test.warning:
            warnings.append(f"{cfg.label}: {test.warning}")
        measure_blocks[cfg.label] = {
            "arp_orig": v_orig.mean,
            "arp_rpl": v_rpl.mean,
            "delta_arp": arp.absolute,
            "delta_arp_signed": arp.signed,
            "rmse": score_agreement.rmse(v_orig, v_rpl),
            "t_stat": test.t_stat,
            "p_value": test.p_value,
        }
        if baseline_orig is not None and baseline_rpl is not None:
            b = score_run(baseline_orig, qrels, topics, cfg, strict=strict, warnings=warnings)
            b_prime = score_run(baseline_rpl, qrels, topics, cfg, strict=strict, warnings=warnings)
            summary = effects.summarize_effect(
                effects.EffectInput(b=b, a=v_orig, b_prime=b_prime, a_prime=v_rpl),
                run_id=run_rpl.tag,
                measure=cfg.label,
            )
            effect_blocks[cfg.label] = {
                "er": summary.er,
                "ri": summary.ri,
                "ri_prime": summary.ri_prime,
                "delta_ri": summary.delta_ri,
                "region": summary.region,
                "dist": summary.distance_to_ideal,
            }
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
            "arp_rpl": a_prime.mean,
            "arp_b_rpl": b_prime.mean,
            "t_stat": test_a.t_stat,
            "p_value": test_a.p_value,
            "t_stat_baseline": test_b.t_stat,
            "p_value_baseline": test_b.p_value,
        }
        summary = effects.summarize_effect(
            effects.EffectInput(b=b, a=a, b_prime=b_prime, a_prime=a_prime,
                                mode="reproducibility"),
            run_id=run_a_rpd.tag,
            measure=cfg.label,
        )
        effect_blocks[cfg.label] = {
            "er": summary.er,
            "ri": summary.ri,
            "ri_prime": summary.ri_prime,
            "delta_ri": summary.delta_ri,
            "region": summary.region,
            "dist": summary.distance_to_ideal,
        }

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


def _load_manifest(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"manifest {path}: invalid JSON: {e}") from None
    for key in ("qrels", "run_orig", "candidates"):
        if key not in manifest:
            raise ConfigError(f"manifest {path}: missing key {key!r}")
    if len(manifest["candidates"]) < 2:
        raise ConfigError(f"manifest {path}: need at least 2 candidate runs")
    return manifest


def _load_candidate(entry, base: str) -> tuple[str, str | None]:
    """Return (advanced path, baseline path or None) for a manifest entry."""
    if isinstance(entry, str):
        rel, rel_b = entry, None
    elif isinstance(entry, dict) and "run" in entry:
        rel, rel_b = entry["run"], entry.get("run_b")
    else:
        raise ConfigError(f"manifest candidate {entry!r}: expected path or {{'run': ...}}")
    path = os.path.join(base, rel)
    if not os.path.exists(path):
        raise ConfigError(f"manifest candidate {rel!r}: file not found")
    path_b = None
    if rel_b:
        path_b = os.path.join(base, rel_b)
        if not os.path.exists(path_b):
            raise ConfigError(f"manifest candidate baseline {rel_b!r}: file not found")
    return path, path_b


def build_correlation_report(manifest: dict, base: str, measures: list[MeasureConfig],
                             phi: float = 0.8, depth: int = 1000,
                             strict: bool = False) -> dict:
    mode = "strict" if strict else "lenient"
    qrels = load_qrels(os.path.join(base, manifest["qrels"]))
    run_orig = load_run(os.path.join(base, manifest["run_orig"]), mode=mode)
    baseline_orig = None
    if manifest.get("run_b_orig"):
        baseline_orig = load_run(os.path.join(base, manifest["run_b_orig"]), mode=mode)

    raw: dict[str, dict[str, float]] = {}  # measure_id -> run_id -> raw value

    def record(measure_id: str, run_id: str, value: float) -> None:
        raw.setdefault(measure_id, {})[run_id] = value

    for entry in manifest["candidates"]:
        path, path_b = _load_candidate(entry, base)
        run_rpl = load_run(path, mode=mode)
        baseline_rpl = load_run(path_b, mode=mode) if path_b else None
        rep = build_replicate_report(
            run_orig, run_rpl, qrels, measures, phi=phi, depth=depth,
            baseline_orig=baseline_orig, baseline_rpl=baseline_rpl, strict=strict,
        )
        run_id = os.path.basename(path)
        record("tau", run_id, rep["ordering"]["tau_union_mean"])
        record("rbo", run_id, rep["ordering"]["rbo_mean"])
        for label, block in rep["measures"].items():
            record(f"delta_arp_{label}", run_id, block["delta_arp"])
            record(f"rmse_{label}", run_id, block["rmse"])
            record(f"p_value_{label}", run_id, block["p_value"])
        for label, block in (rep.get("effects") or {}).items():
            record(f"er_{label}", run_id, block["er"])

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
    }


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measures", default=DEFAULT_MEASURES,
                   help="comma-separated, e.g. P@10,AP@1000,nDCG@1000")
    p.add_argument("--format", default="table", choices=report.FORMATS)
    p.add_argument("--strict", action="store_true",
                   help="error on duplicate docs and missing topics")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.add_argument("--provenance", action="store_true",
                   help="include input digests and config echo in the report")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprokit",
        description="Quantify how well an IR experiment was replicated or reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rpl = sub.add_parser("replicate", help="same-collection comparison")
    p_rpl.add_argument("--run-orig", required=True)
    p_rpl.add_argument("--run-rpl", required=True)
    p_rpl.add_argument("--qrels", required=True)
    p_rpl.add_argument("--run-b-orig", default=None, help="original baseline run (enables ER)")
    p_rpl.add_argument("--run-b-rpl", default=None, help="re-created baseline run")
    p_rpl.add_argument("--phi", type=float, default=0.8)
    p_rpl.add_argument("--depth", type=int, default=1000)
    p_rpl.add_argument("--cutoffs", default=None, help="ascending, e.g. 10,100,1000")
    _add_common(p_rpl)

    p_rpd = sub.add_parser("reproduce", help="cross-collection comparison")
    p_rpd.add_argument("--run-a-orig", required=True)
    p_rpd.add_argument("--run-b-orig", required=True)
    p_rpd.add_argument("--qrels-orig", required=True)
    p_rpd.add_argument("--run-a-rpd", required=True)
    p_rpd.add_argument("--run-b-rpd", required=True)
    p_rpd.add_argument("--qrels-rpd", required=True)
    _add_common(p_rpd)

    p_cor = sub.add_parser("correlate", help="cross-measure correlation over candidates")
    p_cor.add_argument("--manifest", required=True,
                       help="JSON with keys qrels, run_orig, candidates (>= 2)")
    p_cor.add_argument("--phi", type=float, default=0.8)
    p_cor.add_argument("--depth", type=int, default=1000)
    _add_common(p_cor)

    p_fetch = sub.add_parser("fetch-dataset", help="download the companion run archive")
    p_fetch.add_argument("--url", default=DATASET_URL)
    p_fetch.add_argument("--dest", default=None,
                         help="defaults to $REPROKIT_CACHE or ~/.cache/reprokit")
    return parser


def _write_output(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _provenance(paths: dict[str, str], args: argparse.Namespace) -> dict:
    import time

    return {
        "inputs": {role: {"path": p, "sha256": _sha256(p)} for role, p in paths.items()},
        "argv": sys.argv[1:],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _cmd_replicate(args) -> int:
    measures = _parse_measures(args.measures)
    mode = "strict" if args.strict else "lenient"
    if (args.run_b_orig is None) != (args.run_b_rpl is None):
        raise ConfigError("--run-b-orig and --run-b-rpl must be given together")
    rep = build_replicate_report(
        load_run(args.run_orig, mode=mode),
        load_run(args.run_rpl, mode=mode),
        load_qrels(args.qrels),
        measures,
        phi=args.phi,
        depth=args.depth,
        cutoffs=_parse_cutoffs(args.cutoffs),
        baseline_orig=load_run(args.run_b_orig, mode=mode) if args.run_b_orig else None,
        baseline_rpl=load_run(args.run_b_rpl, mode=mode) if args.run_b_rpl else None,
        strict=args.strict,
    )
    if args.provenance:
        paths = {"run_orig": args.run_orig, "run_rpl": args.run_rpl, "qrels": args.qrels}
        rep["provenance"] = _provenance(paths, args)
    _write_output(report.emit(rep, args.format), args.output)
    return 0


def _cmd_reproduce(args) -> int:
    measures = _parse_measures(args.measures)
    mode = "strict" if args.strict else "lenient"
    rep = build_reproduce_report(
        load_run(args.run_a_orig, mode=mode),
        load_run(args.run_b_orig, mode=mode),
        load_qrels(args.qrels_orig),
        load_run(args.run_a_rpd, mode=mode),
        load_run(args.run_b_rpd, mode=mode),
        load_qrels(args.qrels_rpd),
        measures,
        strict=args.strict,
    )
    if args.provenance:
        paths = {
            "run_a_orig": args.run_a_orig, "run_b_orig": args.run_b_orig,
            "qrels_orig": args.qrels_orig, "run_a_rpd": args.run_a_rpd,
            "run_b_rpd": args.run_b_rpd, "qrels_rpd": args.qrels_rpd,
        }
        rep["provenance"] = _provenance(paths, args)
    _write_output(report.emit(rep, args.format), args.output)
    return 0


def _cmd_correlate(args) -> int:
    measures = _parse_measures(args.measures)
    manifest = _load_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    rep = build_correlation_report(manifest, base, measures,
                                   phi=args.phi, depth=args.depth, strict=args.strict)
    if args.format == "csv":
        out = rep["matrix_csv"]
    elif args.format == "json":
        out = json.dumps(rep, sort_keys=True, indent=2) + "\n"
    else:
        flags = "\n".join(f"{f['a']} vs {f['b']}: tau={f['tau']:.4f} ({f['label']})"
                          for f in rep["flags"])
        out = rep["matrix_csv"] + "\n" + flags + "\n"
    _write_output(out, args.output)
    return 0


def _cmd_fetch_dataset(args) -> int:
    dest_dir = args.dest or os.environ.get(
        "REPROKIT_CACHE", os.path.expanduser("~/.cache/reprokit")
    )
    os.makedirs(dest_dir, exist_ok=True)
    dest = os.path.join(dest_dir, os.path.basename(args.url.rstrip("/")) or "dataset.tar.gz")
    sys.stderr.write(f"downloading {args.url} -> {dest}\n")
    urllib.request.urlretrieve(args.url, dest)
    sys.stdout.write(dest + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    handlers = {
        "replicate": _cmd_replicate,
        "reproduce": _cmd_reproduce,
        "correlate": _cmd_correlate,
        "fetch-dataset": _cmd_fetch_dataset,
    }
    try:
        return handlers[args.command](args)
    except ReprokitError as e:
        sys.stderr.write(json.dumps({"error": e.category, "message": str(e)}) + "\n")
        return _EXIT_CODES.get(e.category, 1)
    except OSError as e:
        sys.stderr.write(json.dumps({"error": "io", "message": str(e)}) + "\n")
        return _EXIT_CODES["io"]


if __name__ == "__main__":
    sys.exit(main())
