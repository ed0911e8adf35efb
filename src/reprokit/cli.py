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

Exit code 0 means no errors (warnings permitted); failures print a
machine-readable JSON error record to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import report
from .effectiveness import MeasureConfig, parse_measure_spec
from .errors import ConfigError, ReprokitError
from .report import build_correlation_report, build_replicate_report, build_reproduce_report
from .trec_io import load_qrels, load_run

DEFAULT_MEASURES = "P@10,AP@1000,nDCG@1000"

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
    try:
        cutoffs = [int(s) for s in spec.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"bad cutoff list {spec!r}; expected integers like 10,100") from None
    if cutoffs != sorted(cutoffs):
        raise ConfigError("cutoffs must be ascending")
    return cutoffs


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
    return parser


def _write_output(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _provenance(paths: dict[str, str]) -> dict:
    return {
        "inputs": {role: {"path": p, "sha256": _sha256(p)} for role, p in paths.items()},
        "argv": sys.argv[1:],
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _cmd_replicate(args, measures: list[MeasureConfig], mode: str) -> tuple[dict, dict]:
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
    paths = {"run_orig": args.run_orig, "run_rpl": args.run_rpl, "qrels": args.qrels}
    if args.run_b_orig:
        paths.update(run_b_orig=args.run_b_orig, run_b_rpl=args.run_b_rpl)
    return rep, paths


def _cmd_reproduce(args, measures: list[MeasureConfig], mode: str) -> tuple[dict, dict]:
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
    return rep, {
        "run_a_orig": args.run_a_orig, "run_b_orig": args.run_b_orig,
        "qrels_orig": args.qrels_orig, "run_a_rpd": args.run_a_rpd,
        "run_b_rpd": args.run_b_rpd, "qrels_rpd": args.qrels_rpd,
    }


def _cmd_correlate(args, measures: list[MeasureConfig], mode: str) -> tuple[dict, dict]:
    manifest = _load_manifest(args.manifest)
    base = os.path.dirname(os.path.abspath(args.manifest))
    paths = {"manifest": args.manifest, "qrels": os.path.join(base, manifest["qrels"])}
    qrels = load_qrels(paths["qrels"])
    paths["run_orig"] = os.path.join(base, manifest["run_orig"])
    run_orig = load_run(paths["run_orig"], mode=mode)
    baseline_orig = None
    if manifest.get("run_b_orig"):
        paths["run_b_orig"] = os.path.join(base, manifest["run_b_orig"])
        baseline_orig = load_run(paths["run_b_orig"], mode=mode)

    def candidates():
        for i, entry in enumerate(manifest["candidates"]):
            path, path_b = _load_candidate(entry, base)
            paths[f"candidates[{i}].run"] = path
            if path_b:
                paths[f"candidates[{i}].run_b"] = path_b
            yield (os.path.basename(path), load_run(path, mode=mode),
                   load_run(path_b, mode=mode) if path_b else None)

    return build_correlation_report(run_orig, qrels, candidates(), measures, phi=args.phi,
                                    depth=args.depth, baseline_orig=baseline_orig,
                                    strict=args.strict), paths


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    handlers = {
        "replicate": _cmd_replicate,
        "reproduce": _cmd_reproduce,
        "correlate": _cmd_correlate,
    }
    try:
        measures = _parse_measures(args.measures)
        rep, paths = handlers[args.command](args, measures, "strict" if args.strict else "lenient")
        if args.provenance:
            rep["provenance"] = _provenance(paths)
        _write_output(report.emit(rep, args.format), args.output)
        return 0
    except ReprokitError as e:
        sys.stderr.write(json.dumps({"error": e.category, "message": str(e)}) + "\n")
        return _EXIT_CODES.get(e.category, 1)
    except OSError as e:
        sys.stderr.write(json.dumps({"error": "io", "message": str(e)}) + "\n")
        return _EXIT_CODES["io"]


if __name__ == "__main__":
    sys.exit(main())
