"""Benchmark of the reprokit CLI on seeded synthetic workloads.

    python3 bench/run.py --workload replicate-core17 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout: the CLI runs as ``python -m
reprokit.cli`` with ``src`` on ``PYTHONPATH``. One closed-loop client starts
one CLI process at a time and waits for it, for as many invocations as fit
in ``--seconds`` seconds (at least MIN_INVOCATIONS). Every report is
checked: the first against values computed from the generated inputs, the
rest for byte identity with the first. A failed invocation (non-zero exit or a report that fails the
check) counts toward ``error_rate``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` alternates
untraced and traced invocations and reports per-layer metrics from the
spans ``trace_cli.py`` records. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
each metric with its unit and sample count.

Inputs and reports go to ``.bench_out/`` in the checkout; inputs are deleted
at exit, a JSON record of the run (samples, report sha256, spans of the last
traced invocation) is kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)  # also when the interpreter leaves the script's directory out

import workloads  # noqa: E402

MIN_INVOCATIONS = 3
SETUP_RUNS = 7  # `--help` processes per run, after one warm-up
CHILD_TIMEOUT_S = 150
OUT_DIR = ".bench_out"

END_TO_END = {  # name -> unit; error_rate is reported as failed / attempted
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "run_lines_per_s": "lines/s",
    "setup_s": "s",
}
PER_LAYER = {
    "trec_io.self_s": "s",
    "trec_io.load_run.self_s": "s",
    "trec_io.load_run.calls": "count",
    "trec_io.load_run.lines_per_s": "lines/s",
    "trec_io.load_qrels.self_s": "s",
    "effectiveness.self_s": "s",
    "effectiveness.score_run.self_s": "s",
    "effectiveness.score_run.calls": "count",
    "effectiveness.score_run.unique_ratio": "ratio",
    "ordering.self_s": "s",
    "ordering.tau_union.self_s": "s",
    "ordering.tau_union.calls": "count",
    "ordering.tau_union.peak_mb": "MB",
    "ordering.tau_intersection.self_s": "s",
    "ordering.tau_intersection.calls": "count",
    "ordering.tau_intersection.peak_mb": "MB",
    "ordering.rbo.self_s": "s",
    "ordering.cutoff_sweep.total_s": "s",
    "score_agreement.self_s": "s",
    "stats.self_s": "s",
    "effects.self_s": "s",
    "meta.self_s": "s",
    "report.emit.self_s": "s",
    "cli.self_s": "s",
    "trace.total_s": "s",
    "trace.overhead_s": "s",
}


class Child:
    """Environment and accounting for CLI child processes."""

    def __init__(self, root: str, workdir: str):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = "1"  # one core for the client, none for idle BLAS pools
        # Byte-compile once, as an installed package would be, whatever the
        # caller's setting; the cache lives outside src/.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPYCACHEPREFIX"] = os.path.join(root, OUT_DIR, "pycache")

    def run(self, args: list[str]) -> dict:
        """Run one child to completion; wall time from spawn to reap, CPU time
        and peak RSS from wait4, which covers reaped descendants too."""
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, "rb") as f:
            stderr = f.read()[-2000:].decode("utf-8", "replace")
        return {"exit": proc.returncode, "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "stderr": stderr}


class Reports:
    """Correctness of every report: the first successful one is checked
    against expected values (after timing, in ``finish``), every later one
    must be byte-identical to it."""

    def __init__(self, check):
        self.check = check
        self.reference: bytes | None = None
        self.sha256: str | None = None
        self.problems: list[str] = []
        self.digests: list[str | None] = []
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.digests)

    def add(self, exit_code: int, report_path: str, stderr: str) -> None:
        if exit_code != 0 or not os.path.exists(report_path):
            self.failed += 1
            self.digests.append(None)
            self.problems.append(f"exit {exit_code}, no report: {stderr.strip()[-300:]}")
            return
        with open(report_path, "rb") as f:
            text = f.read()
        os.remove(report_path)  # a later invocation that writes nothing must not pass
        digest = hashlib.sha256(text).hexdigest()
        if self.reference is None:
            self.reference, self.sha256 = text, digest
        self.digests.append(digest)
        if digest != self.sha256:
            self.failed += 1
            self.problems.append(f"report {digest} differs from the first, {self.sha256}")

    def finish(self) -> None:
        if self.reference is None:
            return
        try:
            problems = self.check(self.reference)
        except Exception:  # a report the check cannot read is a wrong report
            problems = ["check failed: " + traceback.format_exc(limit=3).strip()[-500:]]
        if problems:
            self.problems.extend(problems)
            self.failed += self.digests.count(self.sha256)


def another_fits(durations: list[float], deadline: float) -> bool:
    """Whether to start another invocation: until MIN_INVOCATIONS ran, or
    while one taking the median duration so far ends before the deadline,
    so a run lasts ``--seconds`` whatever the program's speed."""
    return (len(durations) < MIN_INVOCATIONS
            or time.perf_counter() + statistics.median(durations) <= deadline)


def measure_setup(child: Child) -> list[float]:
    help_args = ["-m", "reprokit.cli", "--help"]
    child.run(help_args)  # warm-up: byte-compiles the package once
    walls = []
    for _ in range(SETUP_RUNS):
        res = child.run(help_args)
        if res["exit"] != 0:
            raise RuntimeError(f"`reprokit.cli --help` failed: {res['stderr']}")
        walls.append(res["wall_s"])
    return walls


def end_to_end(child: Child, wl: workloads.Workload, reports: Reports,
               seconds: float) -> tuple[dict, dict]:
    samples = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    samples["setup_s"] = measure_setup(child)
    report_path = os.path.join(child.workdir, "report.out")
    deadline = time.perf_counter() + seconds
    while another_fits(samples["wall_s"], deadline):
        res = child.run(["-m", "reprokit.cli", *wl.argv, "--output", report_path])
        reports.add(res["exit"], report_path, res["stderr"])
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[key].append(res[key])
    metrics = {key: statistics.median(samples[key]) for key in samples}
    metrics["run_lines_per_s"] = wl.run_lines / metrics["wall_s"]
    counts = {key: len(samples[key]) for key in samples}
    counts["run_lines_per_s"] = counts["wall_s"]
    return metrics, {"samples": samples, "counts": counts}


def layer_metrics(trace: dict, lines_by_path: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation. A span's self time is its
    duration minus the durations of its direct children."""
    spans = trace["spans"]
    self_s = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            self_s[parent] -= end - start
    by_fn: dict[str, dict[str, float]] = {}
    by_module: dict[str, float] = {}
    for (name, start, end, _), own in zip(spans, self_s):
        stat = by_fn.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        stat["self_s"] += own
        stat["total_s"] += end - start
        stat["calls"] += 1
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + own

    def fn(name: str, key: str) -> float:
        return by_fn.get(name, {}).get(key, 0)

    load_s = fn("trec_io.load_run", "self_s")
    lines = sum(lines_by_path.get(p, 0) for p in trace["loaded_paths"])
    calls = fn("effectiveness.score_run", "calls")
    out = {
        "trec_io.load_run.self_s": load_s,
        "trec_io.load_run.calls": fn("trec_io.load_run", "calls"),
        "trec_io.load_run.lines_per_s": lines / load_s if load_s else 0.0,
        "trec_io.load_qrels.self_s": fn("trec_io.load_qrels", "self_s"),
        "effectiveness.score_run.self_s": fn("effectiveness.score_run", "self_s"),
        "effectiveness.score_run.calls": calls,
        "effectiveness.score_run.unique_ratio":
            trace["score_run_distinct"] / calls if calls else 0.0,
        "ordering.rbo.self_s": fn("ordering.rbo", "self_s"),
        "ordering.cutoff_sweep.total_s": fn("ordering.ordering_at_cutoffs", "total_s"),
        "report.emit.self_s": fn("report.emit", "self_s"),
    }
    for kernel in ("ordering.tau_union", "ordering.tau_intersection"):
        out[f"{kernel}.self_s"] = fn(kernel, "self_s")
        out[f"{kernel}.calls"] = fn(kernel, "calls")
        out[f"{kernel}.peak_mb"] = trace["peak_mb"].get(kernel, 0.0)
    for module in ("trec_io", "effectiveness", "ordering", "score_agreement", "stats",
                   "effects", "meta", "cli"):
        out[f"{module}.self_s"] = by_module.get(module, 0.0)
    return out


def traced(child: Child, wl: workloads.Workload, reports: Reports,
           seconds: float) -> tuple[dict, dict]:
    report_path = os.path.join(child.workdir, "report.out")
    spans_path = os.path.join(child.workdir, "spans.json")
    trace_script = os.path.join(BENCH_DIR, "trace_cli.py")
    walls = {"untraced": [], "traced": []}
    per_invocation: list[dict] = []
    last_trace: dict = {}
    pairs: list[float] = []
    deadline = time.perf_counter() + seconds
    while another_fits(pairs, deadline):
        res = child.run(["-m", "reprokit.cli", *wl.argv, "--output", report_path])
        reports.add(res["exit"], report_path, res["stderr"])
        walls["untraced"].append(res["wall_s"])
        res = child.run([trace_script, spans_path, "--", *wl.argv, "--output", report_path])
        reports.add(res["exit"], report_path, res["stderr"])
        walls["traced"].append(res["wall_s"])
        pairs.append(walls["untraced"][-1] + res["wall_s"])
        if os.path.exists(spans_path):
            with open(spans_path, encoding="utf-8") as f:
                last_trace = json.load(f)
            os.remove(spans_path)
            per_invocation.append(layer_metrics(last_trace, wl.lines_by_path))
    if not per_invocation:
        raise RuntimeError(f"no traced invocation wrote spans: {res['stderr']}")
    metrics = {key: statistics.median([m[key] for m in per_invocation])
               for key in per_invocation[0]}
    metrics["trace.total_s"] = statistics.median(walls["traced"])
    metrics["trace.overhead_s"] = metrics["trace.total_s"] - statistics.median(walls["untraced"])
    counts = {key: len(per_invocation) for key in metrics}
    counts["trace.overhead_s"] = len(walls["untraced"]) + len(walls["traced"])
    return metrics, {"walls": walls, "counts": counts, "missing": last_trace["missing"],
                     "spans": last_trace["spans"]}


def print_summary(wl, metrics: dict, units: dict, reports: Reports, detail: dict) -> None:
    print(f"workload {wl.name}: {wl.run_lines} run-file lines per invocation")
    for name, unit in units.items():
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit:<8} n={detail['counts'][name]}")
    rate = reports.failed / reports.attempted
    print(f"  {'error_rate':<40} {rate:>14.6g} {'ratio':<8} "
          f"n={reports.attempted} ({reports.failed} failed)")
    print(f"  report sha256 {reports.sha256}")
    for problem in reports.problems[:20]:
        print(f"  problem: {problem}")
    if detail.get("missing"):
        print(f"  missing trace targets: {', '.join(detail['missing'])}")
    if "ordering.self_s" in metrics:
        modules = [k for k in metrics if k.count(".") == 1 and k.endswith(".self_s")]
        modules.append("report.emit.self_s")
        total = sum(metrics[k] for k in modules)
        shares = ", ".join(f"{k.split('.')[0]} {metrics[k] / total:.0%}"
                           for k in sorted(modules, key=metrics.get, reverse=True))
        print(f"  self-time shares: {shares}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the harness self-test")
    args = parser.parse_args(argv)

    # wait4 needs the children kept for reaping; a SIGCHLD ignored by the
    # caller is inherited and would make the kernel reap them itself.
    signal.signal(signal.SIGCHLD, signal.SIG_DFL)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reprokit", "cli.py")):
        print(f"error: no src/reprokit/cli.py under {root}; run from a source checkout",
              file=sys.stderr)
        return 2
    workdir = os.path.join(root, OUT_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        wl = workloads.build(args.workload, args.seed, workdir, args.size)
        reports = Reports(wl.check)
        child = Child(root, workdir)
        if args.trace:
            metrics, detail = traced(child, wl, reports, args.seconds)
            units = PER_LAYER
        else:
            metrics, detail = end_to_end(child, wl, reports, args.seconds)
            units = END_TO_END
        reports.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print_summary(wl, metrics, units, reports, detail)
    record = os.path.join(root, OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "size": args.size,
                   "metrics": metrics, "detail": detail, "report_sha256": reports.digests,
                   "problems": reports.problems}, f)
    print(json.dumps({
        "correct": reports.failed == 0,
        "attempted": reports.attempted,
        "failed": reports.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
