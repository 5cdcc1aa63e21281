"""The benchmark's tracer (bench/spans.py) wraps program bindings by module
and attribute name. Every binding it lists must exist, so removing or
renaming one fails here, in the test suite, and not only in the benchmark.
Some bindings are made on first access; a fresh interpreter checks those.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


def test_trace_targets_resolve_in_a_fresh_interpreter():
    # here every module is imported already; a cold process reads the
    # bindings in the tracer's order, after a CLI start without numpy, and
    # a binding made on first access must be its module's own object
    script = (
        "import importlib, json, sys\n"
        "import netexposure.cli\n"
        "assert 'numpy' not in sys.modules\n"
        "for module, attr in json.loads(sys.argv[1]):\n"
        "    module = importlib.import_module(module)\n"
        "    late = attr not in vars(module)\n"
        "    value = getattr(module, attr)\n"
        "    assert callable(value), (module, attr)\n"
        "    home = importlib.import_module(value.__module__)\n"
        "    assert not late or getattr(home, attr) is value, (module, attr)\n"
        "    print(module.__name__, attr, late)\n")
    src = str(SPANS.parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    targets = [[module, attr] for module, attr, _ in trace_targets()]
    done = subprocess.run([sys.executable, "-c", script, json.dumps(targets)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    late = [line.split()[:2] for line in done.stdout.splitlines()
            if line.endswith("True")]
    assert late  # the check is void unless the CLI start left some unbound
