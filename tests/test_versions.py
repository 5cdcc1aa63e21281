"""Every Python version that pyproject.toml claims (requires-python >=
3.10) compiles the package, prints the golden bytes and the same float
totals, and parses as the full grammar does.

Each interpreter found on PATH byte-compiles every module of
``src/netexposure`` and runs four numpy-free commands: two on the
Laplace golden market, whose totals are dyadic and sum exactly, and two
on the same links under a uniform law, whose totals round; versions that
are not installed are skipped. Only the exact path can run there, as
those interpreters may lack numpy. Every float total is a running sum in
set order, so an interpreter whose ``sum()`` compensates (3.12 and
later) must still print the same bits: the uniform reports and the
realised-weight risk measures of a seeded market check that. The CLI
parses an argv that starts with a command with that command's parser
alone, as argparse's sub-parser dispatch would; each interpreter checks
that against the full grammar over the help and usage corpus.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_golden import COMMANDS as GOLDEN_COMMANDS, ROUNDING, USAGE

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "golden"
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
COMMANDS = {
    "laplace-12.analyze-bilateral-table.out": ("analyze", "--convention",
                                               "bilateral"),
    "laplace-12.compare-netting.out": ("compare-netting", "--class", "1"),
    **{f"uniform-12.{name}.out": GOLDEN_COMMANDS[name] for name in ROUNDING},
}
COMPILE = """
import py_compile, sys
for i, path in enumerate(sys.argv[2:]):
    py_compile.compile(path, cfile=f"{sys.argv[1]}/{i}.pyc", doraise=True)
"""
# the realised-weight risk measures of a seeded 12-participant market
# (random.Random draws the same floats on every version)
RISK = """
import random
from netexposure.market import (Link, Market, current_bilateral_risk,
                                current_multilateral_risk)
rng = random.Random(20261021)
names = [f"p{i}" for i in range(12)]
links = tuple(Link(u, w, cls, rng.random() < 0.5, rng.uniform(-1.0, 1.0))
              for cls in (1, 2, 3) for i, u in enumerate(names)
              for w in names[i + 1:])
m = Market(tuple(names), 3, links)
print(repr(current_bilateral_risk(m)), repr(current_multilateral_risk(m, 1)))
"""
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}


def interpreter(version: str) -> str | None:
    """The executable of ``python<version>`` on PATH, or None when there
    is none or it is another version (as a version manager's shim for an
    uninstalled version is)."""
    found = shutil.which(f"python{version}")
    if found is None:
        return None
    try:
        done = subprocess.run(
            [found, "-c", "import sys; print('%d.%d' % sys.version_info[:2]);"
             " print(sys.executable)"], capture_output=True, text=True,
            timeout=60)
    except OSError:
        return None
    reported, _, executable = done.stdout.partition("\n")
    return None if done.returncode or reported != version \
        else executable.strip()


@pytest.mark.parametrize("version", VERSIONS)
def test_claimed_version_compiles_and_prints_the_golden_bytes(version,
                                                              tmp_path):
    executable = interpreter(version)
    if executable is None:
        pytest.skip(f"python{version} is not on PATH")
    modules = sorted(map(str, (SRC / "netexposure").glob("*.py")))
    compiled = subprocess.run([executable, "-c", COMPILE, str(tmp_path),
                               *modules], capture_output=True, text=True,
                              timeout=120)
    assert compiled.returncode == 0, compiled.stderr
    for golden, command in COMMANDS.items():
        market = GOLDEN / f"{golden.partition('.')[0]}.json"
        done = subprocess.run(
            [executable, "-m", "netexposure.cli", command[0], "--market",
             str(market), *command[1:]],
            capture_output=True, env=ENV, timeout=120)
        assert (done.returncode, done.stderr) == (0, b""), done.stderr
        assert done.stdout == (GOLDEN / golden).read_bytes()


def risk_measures(executable: str) -> str:
    """What ``RISK`` prints under one interpreter."""
    done = subprocess.run([executable, "-c", RISK], capture_output=True,
                          text=True, env=ENV, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    return done.stdout


@pytest.mark.parametrize("version", VERSIONS)
def test_claimed_version_prints_the_same_risk_measures(version):
    executable = interpreter(version)
    if executable is None:
        pytest.skip(f"python{version} is not on PATH")
    assert risk_measures(executable) == risk_measures(sys.executable)


@pytest.mark.parametrize("version", VERSIONS)
def test_claimed_version_parses_the_usage_corpus_as_the_full_grammar(
        version):
    executable = interpreter(version)
    if executable is None:
        pytest.skip(f"python{version} is not on PATH")
    done = subprocess.run(
        [executable, str(ROOT / "tests" / "cli_differential.py")],
        input=json.dumps(list(USAGE.values())), capture_output=True,
        text=True, env=ENV, timeout=120)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert json.loads(done.stdout) == []
