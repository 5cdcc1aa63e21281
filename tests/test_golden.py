"""Byte-for-byte CLI output on fixed markets.

The market files and the expected outputs live in ``tests/data/golden``.
They guard changes that must not move any printed number (performance
work, refactors). When an output is meant to change, regenerate the files
from the repository root and review the diff:

    PYTHONPATH=src:tests python -c "import test_golden as g; g.regenerate()"
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from netexposure.cli import main
from conftest import triangle_directed

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
MARKETS = ("laplace-12", "normal-5", "triangle")
CASES = [(market, name) for market in MARKETS for name in COMMANDS]


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


def _markets() -> dict[str, dict]:
    rng = random.Random(20261018)
    tri = triangle_directed()
    return {
        "laplace-12": {
            "participants": [f"p{i}" for i in range(12)], "classes": 3,
            "links": _complete(rng, 12, 3, False),
            "dist": {"type": "laplace", "scale": 1.5}},
        "normal-5": {
            "participants": [f"p{i}" for i in range(5)], "classes": 3,
            "links": _complete(rng, 5, 3, True),
            "dist": {"type": "normal", "sigma": 0.8}},
        "triangle": {
            "participants": list(tri.participants), "classes": 1,
            "links": [{"from": a.source, "to": a.target, "class": a.cls,
                       "directed": a.directed} for a in tri.links],
            "dist": {"type": "uniform", "half_width": 2.0}},
    }


def render(market: str, name: str) -> str:
    """Stdout of one golden command; it must succeed silently."""
    command, *options = COMMANDS[name]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--market", str(GOLDEN / f"{market}.json"),
                     *options])
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def regenerate() -> None:
    """Rewrite the golden market files and outputs from the current code."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for market, data in _markets().items():
        (GOLDEN / f"{market}.json").write_text(json.dumps(data, indent=1)
                                               + "\n")
    for market, name in CASES:
        (GOLDEN / f"{market}.{name}.out").write_text(render(market, name))


@pytest.mark.parametrize("market,name", CASES)
def test_cli_output_matches_golden(market, name):
    expected = (GOLDEN / f"{market}.{name}.out").read_text()
    assert render(market, name) == expected
