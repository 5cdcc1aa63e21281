"""The benchmark's tracer (bench/spans.py) wraps program bindings by module
and attribute name. Every binding it lists must exist, so removing or
renaming one fails here, in the test suite, and not only in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def trace_targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module, attr, span", trace_targets())
def test_trace_target_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))
