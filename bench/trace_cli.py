"""Run the reprokit CLI with a span around each call into a layer.

Usage (with ``src`` on ``PYTHONPATH``)::

    python bench/trace_cli.py SPANS_JSON -- <reprokit CLI arguments>

The wrappers live here, not in the package: each target function is looked
up by module and name, and every module of the package that holds a
reference to it (``from .x import f`` makes copies) gets the wrapper; the
originals are put back before the spans are written. A target that no
longer exists is listed under ``missing`` rather than failing the run.

Spans are ``[name, start_s, end_s, parent_index]`` kept in memory and written
once at exit. Alongside them go the counts the parent turns into per-layer
metrics: the paths ``load_run`` read, the number of distinct
``score_run`` requests, and the tracemalloc peak inside the first few calls
of each ordering kernel (tracing allocations slows a call by 10-20%, so
only those calls pay for it).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

PACKAGE = "reprokit"
TARGETS = {
    "trec_io": ("load_run", "load_qrels", "topic_intersection"),
    "effectiveness": ("parse_measure_spec", "score_run"),
    "ordering": ("tau_union", "tau_intersection", "rbo", "tau_union_over_topics",
                 "rbo_over_topics", "mean_over_topics", "ordering_at_cutoffs"),
    "score_agreement": ("delta_arp", "rmse", "rmse_at_cutoffs"),
    "stats": ("paired_t_test", "unpaired_t_test"),
    "effects": ("summarize_effect",),
    "meta": ("rank_runs", "correlation_matrix", "flag_equivalences", "matrix_to_csv"),
    "report": ("emit",),
    "cli": ("build_replicate_report", "build_reproduce_report", "build_correlation_report"),
}
MEMORY_SAMPLED = ("ordering.tau_union", "ordering.tau_intersection")
MEMORY_SAMPLE_CALLS = 8
# arguments that do not change what score_run computes
_NOT_IDENTITY = ("strict", "warnings")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.loaded_paths: list[str] = []
        self.score_requests: set[tuple] = set()
        self.peak_mb: dict[str, float] = {}
        self.sampled_calls: dict[str, int] = {}

    def _span(self, name: str, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        span = [name, time.perf_counter(), None, parent]
        self.spans.append(span)
        self.stack.append(index)
        sample = (name in MEMORY_SAMPLED and not tracemalloc.is_tracing()
                  and self.sampled_calls.get(name, 0) < MEMORY_SAMPLE_CALLS)
        if sample:
            self.sampled_calls[name] = self.sampled_calls.get(name, 0) + 1
            tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            if sample:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
            span[2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn):
        if name == "trec_io.load_run":
            def note(bound, result):
                self.loaded_paths.append(_first(bound))
                _stamp(result, _first(bound))
        elif name == "trec_io.load_qrels":
            def note(bound, result):
                _stamp(result, _first(bound))
        elif name == "effectiveness.score_run":
            def note(bound, result):
                self.score_requests.add(tuple(
                    _identity(v) for k, v in bound.arguments.items() if k not in _NOT_IDENTITY))
        else:
            note = None
        sig = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self._span(name, fn, args, kwargs)
            if note:
                note(sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def install(self, targets: dict[str, tuple[str, ...]]) -> None:
        found = {}
        for module_name, attrs in targets.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                module = None
            for attr in attrs:
                original = getattr(module, attr, None)
                if callable(original):
                    found[f"{module_name}.{attr}"] = original
                else:
                    self.missing.append(f"{module_name}.{attr}")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, original in found.items():
            wrapper = self.wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self.patched.append((m, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self.patched):
            setattr(module, key, original)
        self.patched.clear()

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({
                "exit_code": exit_code,
                "spans": self.spans,
                "missing": self.missing,
                "loaded_paths": self.loaded_paths,
                "score_run_distinct": len(self.score_requests),
                "peak_mb": self.peak_mb,
            }, f)


def _first(bound: inspect.BoundArguments):
    return next(iter(bound.arguments.values()))


def _stamp(obj, source: str) -> None:
    """Remember which file an object came from, so score requests on the same
    run compare equal even after the object is freed and its id reused."""
    try:
        obj._bench_source = source
    except AttributeError:
        pass


def _identity(value):
    source = getattr(value, "_bench_source", None)
    if source is not None:
        return source
    try:
        hash(value)
    except TypeError:
        return id(value)
    return value


def main(argv: list[str]) -> int:
    spans_path, sep, cli_args = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: trace_cli.py SPANS_JSON -- <reprokit CLI arguments>")
    cli = importlib.import_module(f"{PACKAGE}.cli")
    tracer = Tracer()
    tracer.install(TARGETS)
    root = tracer.wrap("cli.main", cli.main)
    code = 1
    try:
        code = root(cli_args)
    finally:
        tracer.restore()
        tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
