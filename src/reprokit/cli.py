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

Exit code 0 means no errors (warnings permitted); a failure writes a JSON error
record to stderr and exits with the ``exit_code`` of its class in :mod:`reprokit.errors`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import report
from .effectiveness import MeasureConfig, is_cutoff, parse_measure_spec
from .errors import ConfigError, FileAccessError, ReprokitError
from .ordering import RboParams, check_cutoffs
from .report import build_correlation_report, build_replicate_report, build_reproduce_report
from .trec_io import load_qrels, load_run

DEFAULT_MEASURES = "P@10,AP@1000,nDCG@1000"


def _sha256(path: str) -> str:
    import hashlib  # only --provenance needs it; kept off the import every run pays

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
    items = [s.strip() for s in spec.split(",") if s.strip()]
    if not all(map(is_cutoff, items)):
        raise ConfigError(f"bad cutoff list {spec!r}; expected integers like 10,100")
    cutoffs = [int(s) for s in items]
    check_cutoffs(cutoffs)
    return cutoffs


def _rbo_params(phi: str, depth: str) -> RboParams:
    """``--phi`` is ASCII ``float()`` text without ``_``, as a run score is, and
    ``--depth`` is ASCII digits, as a cutoff is."""
    try:
        value = float(phi) if phi.isascii() and "_" not in phi else None
    except ValueError:
        value = None
    if value is None:
        raise ConfigError(f"bad --phi {phi!r}; expected a number like 0.8")
    if not is_cutoff(depth):
        raise ConfigError(f"bad --depth {depth!r}; expected an integer like 1000")
    return RboParams(value, int(depth))


def _load_manifest(path: str) -> tuple[dict[str, str], list[tuple[str, str | None]]]:
    """Check a correlate manifest whole before any file it names is opened: its
    shape and keys, that every file it names exists, and that baselines are all or none.

    Returns each path by role (the provenance roles), resolved against the
    manifest's directory, and each candidate's (id, run path, baseline path or
    None); the id is the run's file name, distinct for each candidate.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            manifest = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"manifest {path}: invalid JSON: {e}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"manifest {path}: not UTF-8 text: byte {e.object[e.start]:#04x} ({e.reason})") from None
    if not isinstance(manifest, dict):
        raise ConfigError(f"manifest {path}: expected a JSON object, got {manifest!r}")
    base = os.path.dirname(os.path.abspath(path))
    paths = {"manifest": path}

    def check_keys(entry: dict, where: str, keys: tuple[str, ...]) -> None:
        for key in entry:
            if key not in keys:
                raise ConfigError(f"manifest {path}: {where}unknown key {key!r}; "
                                  f"expected {', '.join(keys[:-1])} or {keys[-1]}")

    def resolve(entry: dict, key: str, role: str, required: bool = True) -> str | None:
        rel = entry.get(key)
        if rel is None and not required:
            return None
        if not isinstance(rel, str) or not rel:
            raise ConfigError(f"manifest {path}: {role} must be a path, got {rel!r}")
        paths[role] = os.path.join(base, rel)
        if not os.path.exists(paths[role]):
            raise ConfigError(f"manifest {path}: {role} {rel!r}: file not found")
        return paths[role]

    check_keys(manifest, "", ("qrels", "run_orig", "run_b_orig", "candidates"))
    resolve(manifest, "qrels", "qrels")
    resolve(manifest, "run_orig", "run_orig")
    has_b_orig = resolve(manifest, "run_b_orig", "run_b_orig", required=False) is not None
    entries = manifest.get("candidates")
    if not isinstance(entries, list) or len(entries) < 2:
        raise ConfigError(f"manifest {path}: candidates must be a list of at least 2 runs")
    candidates, index = [], {}  # index: the first position of each candidate id
    for i, entry in enumerate(entries):
        entry = {"run": entry} if isinstance(entry, str) else entry
        if not isinstance(entry, dict):
            raise ConfigError(f"manifest {path}: candidates[{i}] must be a path or {{'run': path}}")
        check_keys(entry, f"candidates[{i}]: ", ("run", "run_b"))
        run = resolve(entry, "run", f"candidates[{i}].run")
        run_b = resolve(entry, "run_b", f"candidates[{i}].run_b", required=False)
        report.check_baselines(entry["run"], has_b_orig, run_b is not None)
        run_id = os.path.basename(run)
        if index.setdefault(run_id, i) != i:
            raise ConfigError(f"manifest {path}: candidates[{index[run_id]}] and candidates[{i}] "
                              f"have the same id {run_id!r}; a candidate's id is its file name")
        candidates.append((run_id, run, run_b))
    return paths, candidates


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--measures", default=DEFAULT_MEASURES,
                   help="comma-separated, e.g. P@10,AP@1000,nDCG@1000")
    p.add_argument("--format", default="table", choices=report.FORMATS)
    p.add_argument("--strict", action="store_true",
                   help="error on duplicate docs and on a run lacking a topic of the reference run")
    p.add_argument("--output", default=None, help="write to file instead of stdout")
    p.add_argument("--provenance", action="store_true",
                   help="include input digests and config echo in the report (json only)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reprokit",
        description="Quantify how well an IR experiment was replicated or reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    rbo = RboParams()  # the --phi and --depth defaults

    p_rpl = sub.add_parser("replicate", help="same-collection comparison")
    p_rpl.add_argument("--run-orig", required=True)
    p_rpl.add_argument("--run-rpl", required=True)
    p_rpl.add_argument("--qrels", required=True)
    p_rpl.add_argument("--run-b-orig", default=None, help="original baseline run (enables ER)")
    p_rpl.add_argument("--run-b-rpl", default=None, help="re-created baseline run")
    p_rpl.add_argument("--phi", default=str(rbo.phi))
    p_rpl.add_argument("--depth", default=str(rbo.depth))
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
    p_cor.add_argument("--phi", default=str(rbo.phi))
    p_cor.add_argument("--depth", default=str(rbo.depth))
    _add_common(p_cor)
    return parser


def _write_output(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _arg_paths(args) -> dict[str, str]:
    """Each input file given on the command line, by its option's dest (the provenance role)."""
    return {k: v for k, v in vars(args).items() if k.startswith(("run_", "qrels")) and v is not None}


def _provenance(paths: dict[str, str], argv: list[str]) -> dict:
    return {
        "inputs": {role: {"path": p, "sha256": _sha256(p)} for role, p in paths.items()},
        "argv": argv,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _cmd_replicate(args, measures: list[MeasureConfig]) -> tuple[dict, dict]:
    if (args.run_b_orig is None) != (args.run_b_rpl is None):
        raise ConfigError("--run-b-orig and --run-b-rpl must be given together")
    cutoffs = _parse_cutoffs(args.cutoffs)  # settings before any input is read
    params = _rbo_params(args.phi, args.depth)
    return build_replicate_report(
        load_run(args.run_orig, args.strict), load_run(args.run_rpl, args.strict), load_qrels(args.qrels),
        measures, params, cutoffs,
        baselines=(load_run(args.run_b_orig, args.strict), load_run(args.run_b_rpl, args.strict))
        if args.run_b_orig else None,
        strict=args.strict,
    ), _arg_paths(args)


def _cmd_reproduce(args, measures: list[MeasureConfig]) -> tuple[dict, dict]:
    def sides():  # loaded one at a time: the original side is dropped before the new one loads
        for run_a, run_b, qrels in ((args.run_a_orig, args.run_b_orig, args.qrels_orig),
                                    (args.run_a_rpd, args.run_b_rpd, args.qrels_rpd)):
            yield load_run(run_a, args.strict), load_run(run_b, args.strict), load_qrels(qrels)

    return build_reproduce_report(sides(), measures, args.strict), _arg_paths(args)


def _cmd_correlate(args, measures: list[MeasureConfig]) -> tuple[dict, dict]:
    params = _rbo_params(args.phi, args.depth)  # settings before any input is read
    paths, entries = _load_manifest(args.manifest)
    qrels = load_qrels(paths["qrels"])
    run_orig = load_run(paths["run_orig"], args.strict)
    baseline_orig = load_run(paths["run_b_orig"], args.strict) if "run_b_orig" in paths else None
    candidates = ((run_id, load_run(path, args.strict),
                   load_run(path_b, args.strict) if path_b else None) for run_id, path, path_b in entries)
    return build_correlation_report(run_orig, qrels, candidates, measures, params,
                                    baseline_orig, strict=args.strict), paths


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    handler = {"replicate": _cmd_replicate, "reproduce": _cmd_reproduce, "correlate": _cmd_correlate}
    try:
        if args.provenance and args.format != "json":
            raise ConfigError(f"--provenance is written in JSON reports only, not --format {args.format}")
        measures = _parse_measures(args.measures)
        rep, paths = handler[args.command](args, measures)
        if args.provenance:
            rep["provenance"] = _provenance(paths, sys.argv[1:] if argv is None else argv)
        _write_output(report.emit(rep, args.format), args.output)
        return 0
    except (ReprokitError, OSError) as e:
        err = e if isinstance(e, ReprokitError) else FileAccessError(str(e))
        sys.stderr.write(json.dumps({"error": err.category, "message": str(err)}) + "\n")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
