"""Byte-for-byte CLI output on fixed markets.

The market files and the expected outputs live in ``tests/data/golden``.
They guard changes that must not move any printed number (performance
work, refactors). ``usage.json`` holds the help and usage-error corpus:
stdout, stderr and exit code of each argv at an 80-column terminal. When
an output is meant to change, regenerate the files from the repository
root and review the diff:

    PYTHONPATH=src:tests python -c "import test_golden as g; g.regenerate()"
"""

import contextlib
import io
import json
import os
import random
from pathlib import Path
from unittest import mock

import pytest

from netexposure.cli import main
from conftest import USAGE_ERRORS, triangle_directed

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

COMMANDS = {
    "analyze-bilateral-json": ("analyze", "--convention", "bilateral",
                               "--format", "json"),
    "analyze-bilateral-table": ("analyze", "--convention", "bilateral"),
    "analyze-multilateral-json": ("analyze", "--convention",
                                  "multilateral:1", "--format", "json"),
    "analyze-multilateral-table": ("analyze", "--convention",
                                   "multilateral:1"),
    "compare-netting": ("compare-netting", "--class", "1"),
    "mc-check": ("mc-check", "--convention", "multilateral:1",
                 "--samples", "2000", "--seed", "7"),
}
# the convention stored in the market file
FILE_COMMANDS = {
    "analyze-json": ("analyze", "--format", "json"),
    "analyze-table": ("analyze",),
}
MARKETS = ("laplace-12", "normal-5", "triangle")
# the laplace-12 links under a uniform law: totals whose sums round
ROUNDING = ("analyze-bilateral-json", "analyze-multilateral-json")
# report edge cases: a custom convention (no components, no pairs),
# participant ids that JSON escapes, an isolated participant
EDGE_MARKETS = ("custom", "unicode", "isolated")
CASES = ([(market, name) for market in MARKETS for name in COMMANDS]
         + [("uniform-12", name) for name in ROUNDING]
         + [(market, name) for market in EDGE_MARKETS
            for name in FILE_COMMANDS])
# one hilbert-eval per transform route, written to hilbert-eval.<name>.out
HILBERT_EVAL = {
    "laplace-power3": ("--dist", "laplace", "--scale", "1.5", "--power", "3",
                       "--omega", "0.35"),
    "gamma3-neg": ("--dist", "gamma", "--shape", "3", "--scale", "0.5",
                   "--side", "neg", "--omega", "-1.2"),
    "exponential-onesided": ("--dist", "exponential", "--scale", "2",
                             "--method", "onesided", "--omega", "0.35"),
    "normal-power2": ("--dist", "normal", "--sigma", "0.8", "--power", "2",
                      "--omega", "1.3"),
    "uniform-power2": ("--dist", "uniform", "--power", "2", "--omega", "1"),
    "uniform-closed-form": ("--dist", "uniform", "--omega", "0.35"),
    "laplace-pv": ("--dist", "laplace", "--method", "pv", "--omega", "0.35"),
}

SUBCOMMANDS = ("analyze", "compare-netting", "advantage", "advantage-table",
               "mc-check", "hilbert-eval")
# help, usage errors and abbreviated options; written to usage.json
USAGE = {
    "help": ["--help"],
    "h": ["-h"],
    **{f"{command}-help": [command, "--help"] for command in SUBCOMMANDS},
    **{f"usage-error-{i}": argv for i, argv in enumerate(USAGE_ERRORS)},
    "help-before-command": ["--help", "analyze"],
    "tol-without-command": ["--tol", "1e-9"],
    "unknown-option": ["analyze", "--bogus"],
    "abbreviated-help": ["--he"],
    "abbreviated-tol": ["--to", "1e-3", "analyze"],
    # tokens left over after a command's own arguments
    "tol-after-command": ["analyze", "--market", "m.json", "--tol", "1e-9"],
    "extra-token": ["compare-netting", "--market", "m.json", "--class", "1",
                    "extra"],
    "abbreviated-tol-after-command": ["mc-check", "--market", "m.json",
                                      "--to", "1e-3"],
    "extra-after-double-dash": ["advantage-table", "--dist", "laplace", "--",
                                "--kmax", "3"],
    "extra-then-help": ["hilbert-eval", "extra", "--help"],
    "extra-then-usage-error": ["analyze", "extra", "--format", "yaml"],
}


def _complete(rng: random.Random, n: int, k: int, directed: bool) -> list:
    """Every (pair, class) link of the complete graph, in shuffled order
    with random endpoint order."""
    links = []
    for c in range(1, k + 1):
        for i in range(n):
            for j in range(i + 1, n):
                a, b = (f"p{i}", f"p{j}") if rng.random() < 0.5 \
                    else (f"p{j}", f"p{i}")
                links.append({"from": a, "to": b, "class": c,
                              "directed": directed})
    rng.shuffle(links)
    return links


def _link(a: str, b: str, cls: int, directed: bool) -> dict:
    return {"from": a, "to": b, "class": cls, "directed": directed}


def _markets() -> dict[str, dict]:
    rng = random.Random(20261018)
    tri = triangle_directed()
    odd = ["Z\u00fcrich", "\u6771\u4eac", 'q"uote\\', "\U0001f642"]
    laplace = {"participants": [f"p{i}" for i in range(12)], "classes": 3,
               "links": _complete(rng, 12, 3, False),
               "dist": {"type": "laplace", "scale": 1.5}}
    return {
        "laplace-12": laplace,
        "uniform-12": {**laplace,
                       "dist": {"type": "uniform", "half_width": 0.3}},
        "normal-5": {
            "participants": [f"p{i}" for i in range(5)], "classes": 3,
            "links": _complete(rng, 5, 3, True),
            "dist": {"type": "normal", "sigma": 0.8}},
        "triangle": {
            "participants": list(tri.participants), "classes": 1,
            "links": [{"from": a.source, "to": a.target, "class": a.cls,
                       "directed": a.directed} for a in tri.links],
            "dist": {"type": "uniform", "half_width": 2.0}},
        "custom": {
            "participants": ["a", "b", "c", "d"], "classes": 2,
            "links": [_link("a", "b", 1, True), _link("b", "c", 1, True),
                      _link("c", "a", 2, False), _link("a", "d", 2, False),
                      _link("d", "b", 1, True), _link("b", "c", 2, False)],
            "convention": {"type": "custom", "sets": [
                {"owner": "a", "links": [0, 2]}, {"owner": "a", "links": [3]},
                {"owner": "b", "links": [0, 1]},
                {"owner": "b", "links": [4, 5]},
                {"owner": "c", "links": [1]}, {"owner": "c", "links": [2, 5]},
                {"owner": "d", "links": [3, 4]}]},
            "dist": {"type": "laplace", "scale": 0.5}},
        "unicode": {
            "participants": odd, "classes": 2,
            "links": [_link(odd[0], odd[1], 1, True),
                      _link(odd[1], odd[2], 1, True),
                      _link(odd[3], odd[0], 1, True),
                      _link(odd[0], odd[2], 2, False),
                      _link(odd[1], odd[3], 2, False),
                      _link(odd[2], odd[3], 2, False)],
            "convention": {"type": "multilateral", "class": 2},
            "dist": {"type": "laplace", "scale": 2.0}},
        "isolated": {
            "participants": ["p0", "p1", "p2", "hermit"], "classes": 1,
            "links": [_link("p0", "p1", 1, True), _link("p1", "p2", 1, False),
                      _link("p2", "p0", 1, True)],
            "dist": {"type": "uniform", "half_width": 0.5}},
    }


def _stdout(argv: list[str]) -> str:
    """Stdout of one CLI command; it must succeed silently."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def render(market: str, name: str) -> str:
    """Stdout of one golden market command."""
    command, *options = {**COMMANDS, **FILE_COMMANDS}[name]
    return _stdout([command, "--market", str(GOLDEN / f"{market}.json"),
                    *options])


def render_hilbert(name: str) -> str:
    """Stdout of one golden hilbert-eval command."""
    return _stdout(["hilbert-eval", *HILBERT_EVAL[name]])


def render_usage(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one CLI call at 80 columns; help
    exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def regenerate() -> None:
    """Rewrite the golden market files and outputs from the current code."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for market, data in _markets().items():
        (GOLDEN / f"{market}.json").write_text(json.dumps(data, indent=1)
                                               + "\n")
    for market, name in CASES:
        (GOLDEN / f"{market}.{name}.out").write_text(render(market, name),
                                                     encoding="utf-8")
    for name in HILBERT_EVAL:
        (GOLDEN / f"hilbert-eval.{name}.out").write_text(render_hilbert(name),
                                                         encoding="utf-8")
    usage = {name: render_usage(argv) for name, argv in USAGE.items()}
    (GOLDEN / "usage.json").write_text(json.dumps(usage, indent=1) + "\n",
                                       encoding="utf-8")


@pytest.mark.parametrize("market,name", CASES)
def test_cli_output_matches_golden(market, name):
    expected = (GOLDEN / f"{market}.{name}.out").read_text(encoding="utf-8")
    assert render(market, name) == expected


@pytest.mark.parametrize("name", HILBERT_EVAL)
def test_hilbert_eval_matches_golden(name):
    expected = (GOLDEN / f"hilbert-eval.{name}.out").read_text(
        encoding="utf-8")
    assert render_hilbert(name) == expected


@pytest.mark.parametrize("name", USAGE)
def test_help_and_usage_match_golden(name):
    expected = json.loads((GOLDEN / "usage.json").read_text(
        encoding="utf-8"))[name]
    assert render_usage(USAGE[name]) == expected
