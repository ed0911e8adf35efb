"""Every function the benchmark's tracer wraps must exist in the package.

``bench/trace_cli.py`` only lists a target it cannot find, so a renamed or
moved function would turn its per-layer metric into a silent 0. It also reads
some arguments by name or position, which a renamed parameter would change
silently: ``score_run``'s distinct requests and ``load_run``'s paths.
"""

import importlib
import importlib.util
import inspect
import pathlib

from reprokit.effectiveness import score_run
from reprokit.trec_io import load_qrels, load_run

TRACE_CLI = pathlib.Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"


def _trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    return trace_cli


def test_every_trace_target_resolves_to_a_callable():
    trace_cli = _trace_cli()
    missing = [
        f"{module}.{attr}"
        for module, attrs in trace_cli.TARGETS.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"{trace_cli.PACKAGE}.{module}"), attr, None))
    ]
    assert missing == []


def test_score_run_arguments_left_out_of_a_request_are_its_parameters():
    assert set(_trace_cli()._NOT_IDENTITY) <= set(inspect.signature(score_run).parameters)


def test_loaders_take_the_path_first():
    for load in (load_run, load_qrels):
        assert next(iter(inspect.signature(load).parameters)) == "path"
