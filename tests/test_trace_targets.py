"""Every function the benchmark's tracer wraps must exist in the package.

``bench/trace_cli.py`` only lists a target it cannot find, so a renamed or
moved function would turn its per-layer metric into a silent 0.
"""

import importlib
import importlib.util
import pathlib

TRACE_CLI = pathlib.Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"


def test_every_trace_target_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)
    missing = [
        f"{module}.{attr}"
        for module, attrs in trace_cli.TARGETS.items()
        for attr in attrs
        if not callable(getattr(importlib.import_module(f"{trace_cli.PACKAGE}.{module}"), attr, None))
    ]
    assert missing == []
