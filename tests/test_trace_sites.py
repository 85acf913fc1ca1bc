"""Every lookup site the benchmark's tracer wraps still exists in wgclust.

A refactor that removes or renames a looked-up name fails here, in a second,
instead of inside a traced benchmark run.
"""

import importlib
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402


def test_every_trace_site_resolves():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.SITES
        if not hasattr(importlib.import_module(module_name), attr)
    ]
    assert not missing, f"trace sites with nothing to wrap: {missing}"
