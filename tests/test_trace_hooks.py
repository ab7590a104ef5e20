"""The benchmark's tracer wraps functions that the package still has."""

import importlib
import importlib.util
from pathlib import Path

TRACE_CLI = Path(__file__).resolve().parents[1] / "perfbench" / "trace_cli.py"


def test_trace_cli_wrapped_names_resolve():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    trace_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_cli)  # defines WRAPPED; main() runs only as a script
    for layer, names in trace_cli.WRAPPED.items():
        home = importlib.import_module(f"cognopipe.{layer}")
        for name in names:
            assert callable(getattr(home, name, None)), f"cognopipe.{layer}.{name}"
