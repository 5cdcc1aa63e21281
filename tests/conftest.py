"""Shared market builders for the test suite."""

import os
import sys

import pytest

# Set before anything imports netexposure, and passed on to subprocesses
# through os.environ: a test run leaves no bytecode in src/, so a program
# run from the same checkout later does not start from a warm cache.
sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

from netexposure import Link, Market  # noqa: E402

# argv that argparse refuses: main returns 1 with a usage message
USAGE_ERRORS = (
    ["analyze"],
    ["analyze", "--market", "m.json", "--format", "yaml"],
    ["hilbert-eval", "--dist", "bogus", "--omega", "1"],
    ["mc-check", "--market", "m.json", "--samples", "abc"],
    ["--tol", "x", "analyze", "--market", "m.json"],
    ["frobnicate"],
    [],
)


def illustrative_market() -> Market:
    """Four participants, two classes (solid/dashed), seven links."""
    links = (
        Link("v1", "v3", 1, False),  # class-1 ring piece
        Link("v3", "v4", 1, False),
        Link("v4", "v1", 1, False),
        Link("v2", "v3", 1, False),
        Link("v2", "v3", 2, False),  # class-2 links
        Link("v1", "v2", 2, False),
        Link("v4", "v1", 2, False),
    )
    return Market(("v1", "v2", "v3", "v4"), 2, links)


def path_market() -> Market:
    """u -> v -> w, one class, directed."""
    return Market(("u", "v", "w"), 1,
                  (Link("u", "v", 1, True), Link("v", "w", 1, True)))


def triangle_directed() -> Market:
    """Cyclic orientation v1 -> v2 -> v3 -> v1 (claims/debts balance)."""
    return Market(("v1", "v2", "v3"), 1,
                  (Link("v1", "v2", 1, True), Link("v2", "v3", 1, True),
                   Link("v3", "v1", 1, True)))


def triangle_undirected() -> Market:
    return Market(("v1", "v2", "v3"), 1,
                  (Link("v1", "v2", 1, False), Link("v2", "v3", 1, False),
                   Link("v3", "v1", 1, False)))


def two_tier(directed: bool) -> Market:
    """Two hubs with two leaves each; every pair trades one class-1 and
    one class-2 position, oppositely directed when oriented."""
    pairs = [("v", "w"), ("v", "v1"), ("v", "v2"), ("w", "w1"), ("w", "w2")]
    links = []
    for a, b in pairs:
        links.append(Link(a, b, 1, directed))
        links.append(Link(b, a, 2, directed))
    return Market(("v", "w", "v1", "v2", "w1", "w2"), 2, tuple(links))


def complete_market(n: int, k: int) -> Market:
    """Undirected complete graph on n vertices with k classes."""
    parts = tuple(f"p{i}" for i in range(n))
    links = tuple(Link(parts[i], parts[j], c, False)
                  for c in range(1, k + 1)
                  for i in range(n) for j in range(i + 1, n))
    return Market(parts, k, links)


def two_vertex_market(k: int) -> Market:
    """Single pair with one undirected link per class."""
    links = tuple(Link("v", "w", c, False) for c in range(1, k + 1))
    return Market(("v", "w"), k, links)


@pytest.fixture
def illustrative():
    return illustrative_market()
