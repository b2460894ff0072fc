"""The benchmark's trace points name functions that exist.

``benchmarks/tracing.py`` wraps kqrk functions by (module, attribute)
name.  A rename inside kqrk would otherwise surface only in a traced
benchmark run; here it fails the suite.  The tracing module is loaded
from its file and nothing in it is installed.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _trace_points():
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACE_POINTS


TRACE_POINTS = _trace_points()


def test_trace_points_listed():
    assert TRACE_POINTS


@pytest.mark.parametrize(
    "module,attr", [(module, attr) for module, attr, *_ in TRACE_POINTS],
    ids=[f"{module}.{attr}" for module, attr, *_ in TRACE_POINTS],
)
def test_trace_point_resolves(module, attr):
    target = getattr(importlib.import_module(module), attr, None)
    assert callable(target), f"{module}.{attr} is not a callable attribute"
