"""Seeded workloads of the netexposure benchmark.

A workload is a list of CLI commands over market files generated from the
workload seed, together with the check each command's output must pass.
The program under test only ever sees the generated JSON files; every
expected value here comes from a closed form or from the stored
reference, never from the engine during the run.

Workloads (one pass runs every command once, in order):

* ``laplace-complete``: Laplace(1), undirected complete graphs, K=3,
  N in {40, 60, 80}. Every netting set closes in exact rational
  arithmetic, so parsing, partitioning and aggregation do the work and the
  transform engine is idle. Three sizes give the partition's scaling.
* ``numeric-directed``: directed complete graphs, K=3, N=5, normal(1) and
  uniform(1). Unbalanced sets fall back to Richardson ladders of PV
  quadratures (with the Dawson series at every node for the normal law),
  and 20-25 sets share a handful of signatures.
* ``mc-oracle``: mc-check at 1e5 samples on two Laplace N=10, K=3 markets
  (directed under multilateral:1, undirected under bilateral). Philox
  draws and numpy reductions dominate. Its millisecond companions run
  COMPANION_REPEATS times per pass.

Every workload also runs each of the three command kinds at least once
(a small companion command where the workload's focus is elsewhere), so
that every end-to-end metric exists on every workload.
"""

import json
import math
import random
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

LAPLACE = {"type": "laplace", "scale": 1.0}
NORMAL = {"type": "normal", "sigma": 1.0}
UNIFORM = {"type": "uniform", "half_width": 1.0}

K_CLASSES = 3
LAPLACE_SIZES = (40, 60, 80)
NUMERIC_N = 5
MC_N = 10
MC_SAMPLES = 100_000
COMPANION_MC_SAMPLES = 2_000
# mc-oracle's analytic companions take milliseconds; repeating them in
# each pass gives their medians enough samples
COMPANION_REPEATS = 4
Z_LIMIT = 5.0
DEFAULT_TOL = 1e-7  # the CLI's --tol default, which every command uses

# Signature census, (claims, debts, undirected) -> number of netting sets,
# that every numeric-directed market has under each convention. It is the
# most common census of a uniformly random orientation of the N=5, K=3
# complete digraph (about 2.5% of orientations). Holding it fixed makes
# the amount of numeric work the same for every seed, while the seed still
# picks which orientation, labels and link order the market has.
NUMERIC_CENSUS = {
    "multilateral:1": {(0, 2, 0): 5, (1, 1, 0): 10, (1, 3, 0): 1,
                       (2, 0, 0): 5, (2, 2, 0): 3, (3, 1, 0): 1},
    "bilateral": {(0, 3, 0): 3, (1, 2, 0): 7, (2, 1, 0): 7, (3, 0, 0): 3},
}
_CENSUS_TRIES = 100_000


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check its output must pass.

    ``check`` takes the captured stdout and returns an error message, or
    None when the output is correct.
    """

    kind: str                  # "analyze" | "compare-netting" | "mc-check"
    argv: tuple[str, ...]
    links: int
    samples: int               # mc-check --samples, 0 otherwise
    check: Callable[[str], str | None]


# ---------------------------------------------------------------------------
# Market generation
# ---------------------------------------------------------------------------

def _complete_links(n: int, k: int) -> list[tuple[int, int, int]]:
    return [(i, j, c) for c in range(1, k + 1)
            for i in range(n) for j in range(i + 1, n)]


def market_json(rng: random.Random, n: int, k: int, dist: dict,
                oriented: list[tuple[int, int, int]] | None = None,
                directed: bool = False) -> dict:
    """A complete market as a JSON object. Vertex labels, link order and
    the endpoint order of undirected links come from ``rng``; ``oriented``
    fixes (debtor, creditor, class) for directed markets."""
    labels = [f"v{i:03d}" for i in range(n)]
    rng.shuffle(labels)
    links = []
    for a, b, c in (oriented if directed else _complete_links(n, k)):
        if not directed and rng.random() < 0.5:
            a, b = b, a
        links.append({"from": labels[a], "to": labels[b], "class": c,
                      "directed": directed})
    rng.shuffle(links)
    return {"participants": sorted(labels), "classes": k, "links": links,
            "dist": dist}


def _random_orientation(rng: random.Random, n: int, k: int
                        ) -> list[tuple[int, int, int]]:
    return [(a, b, c) if rng.random() < 0.5 else (b, a, c)
            for a, b, c in _complete_links(n, k)]


def census(oriented: list[tuple[int, int, int]], convention: str
           ) -> Counter:
    """Signature census of a directed market given as (debtor, creditor,
    class) triples, computed from the netting conventions' definitions:
    bilateral sets pool one pair's links across classes; multilateral:1
    pools each vertex's class-1 links and keeps the other classes
    bilateral."""
    pooled: dict[tuple, list] = {}
    for debtor, creditor, cls in oriented:
        for owner in (debtor, creditor):
            if convention == "multilateral:1" and cls == 1:
                key = (owner, "pool")
            else:
                key = (owner, frozenset((debtor, creditor)))
            pooled.setdefault(key, []).append(+1 if owner == creditor
                                              else -1)
    return Counter((signs.count(+1), signs.count(-1), 0)
                   for signs in pooled.values())


def census_orientation(rng: random.Random) -> list[tuple[int, int, int]]:
    for _ in range(_CENSUS_TRIES):
        oriented = _random_orientation(rng, NUMERIC_N, K_CLASSES)
        if all(census(oriented, conv) == Counter(target)
               for conv, target in NUMERIC_CENSUS.items()):
            return oriented
    raise RuntimeError("no orientation with the numeric-directed census")


# ---------------------------------------------------------------------------
# Closed forms and references
# ---------------------------------------------------------------------------

def pool_exact(m: int) -> Fraction:
    """E_M = (M / 4^M) * C(2M, M): expected exposure of a balanced pool of
    M unit-Laplace positions."""
    return Fraction(m, 4**m) * math.comb(2 * m, m) if m else Fraction(0)


def laplace_complete_total(n: int, k: int, convention: str) -> Fraction:
    """Exact market total of the undirected Laplace(1) complete graph."""
    if convention == "bilateral":
        return n * (n - 1) * pool_exact(k)
    return n * pool_exact(n - 1) + n * (n - 1) * pool_exact(k - 1)


def verdict(with_ccp, without_ccp) -> str:
    if with_ccp == without_ccp:
        return "tie"
    return "advantageous" if with_ccp < without_ccp else "not advantageous"


def load_reference() -> dict[str, dict[tuple[int, int, int], float]]:
    """Per-law, per-signature set exposures made once by make_reference.py
    at a 100x tighter --tol than the commands use."""
    data = json.loads(REFERENCE_FILE.read_text())
    return {law: {tuple(int(x) for x in sig.split(",")): value
                  for sig, value in table.items()}
            for law, table in data["values"].items()}


# ---------------------------------------------------------------------------
# Output parsing and checks
# ---------------------------------------------------------------------------

_FLOAT = r"([-+0-9.eE]+|nan|inf)"


def _find(pattern: str, out: str) -> str | None:
    match = re.search(pattern, out)
    return match.group(1) if match else None


def _close(printed: str | None, expected: float, abs_tol: float) -> bool:
    return printed is not None and abs(float(printed) - expected) <= abs_tol


def _printed_tol(value: float) -> float:
    # values are printed with 8 decimals
    return 1e-8 + 1e-12 * abs(value)


def listed_set_sizes(kind: str, out: str) -> list[int] | None:
    """Link counts of the netting sets an output lists, or None when the
    command lists none (compare-netting)."""
    if kind == "compare-netting":
        return None
    if out.lstrip().startswith("{"):
        return [len(s["links"]) for s in json.loads(out)["netting_sets"]]
    lines = out.splitlines()
    if kind == "analyze":
        dashes = [i for i, line in enumerate(lines) if set(line) == {"-"}]
        rows = lines[dashes[0] + 1:dashes[1]]
        column = 2
    else:
        rows = [line for line in lines[1:]
                if not line.startswith(("market total", "max |z|"))]
        column = 1
    return [len(row.split()[column].split(",")) for row in rows]


def _check_exact_total(expected: Fraction) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        if out.lstrip().startswith("{"):
            got = json.loads(out)["market_total_exact"]
        else:
            got = _find(r"market total: \S+ \(= (\S+)\)", out)
        if got is None or Fraction(got) != expected:
            return f"exact market total {got}, expected {expected}"
        return None
    return check


def _check_numeric_total(expected: float, n_sets: int
                         ) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        got = _find(rf"market total: {_FLOAT}", out)
        if not _close(got, expected, n_sets * DEFAULT_TOL):
            return f"market total {got}, reference {expected:.10f}"
        return None
    return check


def _check_compare(with_ccp, without_ccp, abs_tol: float
                   ) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        bil = _find(rf"bilateral total:\s+{_FLOAT}", out)
        ccp = _find(rf"with CCP in class \d+:\s+{_FLOAT}", out)
        said = _find(r"central clearing is (.+)", out)
        if not _close(bil, float(without_ccp), abs_tol):
            return f"bilateral total {bil}, expected {float(without_ccp)}"
        if not _close(ccp, float(with_ccp), abs_tol):
            return f"CCP total {ccp}, expected {float(with_ccp)}"
        if said != verdict(with_ccp, without_ccp):
            return (f"verdict {said!r}, expected "
                    f"{verdict(with_ccp, without_ccp)!r}")
        return None
    return check


def _check_mc(expected_total: float | None, abs_tol: float
              ) -> Callable[[str], str | None]:
    def check(out: str) -> str | None:
        worst = _find(rf"max \|z\| = {_FLOAT} over", out)
        if worst is None or not float(worst) <= Z_LIMIT:
            return f"max |z| = {worst}, limit {Z_LIMIT}"
        if expected_total is not None:
            got = _find(rf"analytic {_FLOAT} mc", out)
            if not _close(got, expected_total, abs_tol):
                return f"analytic total {got}, expected {expected_total}"
        return None
    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _write(workdir: Path, name: str, market: dict) -> str:
    path = workdir / name
    path.write_text(json.dumps(market))
    return str(path)


def _mc_seed(seed: int, index: int) -> int:
    return (seed * 1_000_003 + index) % 2**32


def _laplace_exact_commands(path: str, n: int, links: int
                            ) -> list[Command]:
    mult = laplace_complete_total(n, K_CLASSES, "multilateral:1")
    bil = laplace_complete_total(n, K_CLASSES, "bilateral")
    return [
        Command("analyze", ("analyze", "--market", path, "--convention",
                            "multilateral:1", "--format", "json"),
                links, 0, _check_exact_total(mult)),
        Command("analyze", ("analyze", "--market", path, "--convention",
                            "bilateral"),
                links, 0, _check_exact_total(bil)),
        Command("compare-netting", ("compare-netting", "--market", path,
                                    "--class", "1"),
                links, 0, _check_compare(mult, bil,
                                         _printed_tol(float(bil)))),
    ]


def laplace_complete(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"laplace-complete:{seed}")
    commands = []
    paths = {}
    for n in LAPLACE_SIZES:
        paths[n] = _write(workdir, f"laplace-{n}.json",
                          market_json(rng, n, K_CLASSES, LAPLACE))
        links = K_CLASSES * n * (n - 1) // 2
        commands += _laplace_exact_commands(paths[n], n, links)
    n = LAPLACE_SIZES[0]
    bil = float(laplace_complete_total(n, K_CLASSES, "bilateral"))
    commands.append(Command(
        "mc-check", ("mc-check", "--market", paths[n], "--convention",
                     "bilateral", "--samples", str(COMPANION_MC_SAMPLES),
                     "--seed", str(_mc_seed(seed, 0))),
        K_CLASSES * n * (n - 1) // 2, COMPANION_MC_SAMPLES,
        _check_mc(bil, _printed_tol(bil))))
    return commands


def numeric_directed(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"numeric-directed:{seed}")
    reference = load_reference()
    links = K_CLASSES * NUMERIC_N * (NUMERIC_N - 1) // 2
    commands = []
    totals = {}
    paths = {}
    for law, dist in (("normal", NORMAL), ("uniform", UNIFORM)):
        oriented = census_orientation(rng)
        paths[law] = _write(workdir, f"{law}-directed.json",
                            market_json(rng, NUMERIC_N, K_CLASSES, dist,
                                        oriented, directed=True))
        for conv in ("multilateral:1", "bilateral"):
            counts = census(oriented, conv)
            totals[law, conv] = sum(reference[law][sig] * count
                                    for sig, count in counts.items())
            commands.append(Command(
                "analyze", ("analyze", "--market", paths[law],
                            "--convention", conv),
                links, 0,
                _check_numeric_total(totals[law, conv],
                                     sum(counts.values()))))
    n_sets = sum(sum(c.values()) for c in NUMERIC_CENSUS.values())
    companions = [
        Command("compare-netting", ("compare-netting", "--market",
                                    paths["uniform"], "--class", "1"),
                links, 0,
                _check_compare(totals["uniform", "multilateral:1"],
                               totals["uniform", "bilateral"],
                               n_sets * DEFAULT_TOL)),
        Command("mc-check", ("mc-check", "--market", paths["uniform"],
                             "--convention", "multilateral:1",
                             "--samples", str(COMPANION_MC_SAMPLES),
                             "--seed", str(_mc_seed(seed, 0))),
                links, COMPANION_MC_SAMPLES,
                _check_mc(totals["uniform", "multilateral:1"],
                          sum(NUMERIC_CENSUS["multilateral:1"].values())
                          * DEFAULT_TOL)),
    ]
    # a pass takes about a third of a run here; the companions go first so
    # that a pass cut short at the deadline still gives them a sample
    return companions + commands


def mc_oracle(seed: int, workdir: Path) -> list[Command]:
    rng = random.Random(f"mc-oracle:{seed}")
    links = K_CLASSES * MC_N * (MC_N - 1) // 2
    directed = _write(workdir, "laplace-directed.json", market_json(
        rng, MC_N, K_CLASSES, LAPLACE,
        _random_orientation(rng, MC_N, K_CLASSES), directed=True))
    undirected = _write(workdir, "laplace-undirected.json",
                        market_json(rng, MC_N, K_CLASSES, LAPLACE))
    commands = [
        Command("mc-check", ("mc-check", "--market", directed,
                             "--convention", "multilateral:1",
                             "--samples", str(MC_SAMPLES),
                             "--seed", str(_mc_seed(seed, 1))),
                links, MC_SAMPLES, _check_mc(None, 0.0)),
        Command("mc-check", ("mc-check", "--market", undirected,
                             "--convention", "bilateral",
                             "--samples", str(MC_SAMPLES),
                             "--seed", str(_mc_seed(seed, 2))),
                links, MC_SAMPLES, _check_mc(
                    float(laplace_complete_total(MC_N, K_CLASSES,
                                                 "bilateral")),
                    _printed_tol(float(laplace_complete_total(
                        MC_N, K_CLASSES, "bilateral"))))),
    ]
    return commands + COMPANION_REPEATS * _laplace_exact_commands(
        undirected, MC_N, links)


WORKLOADS = {
    "laplace-complete": laplace_complete,
    "numeric-directed": numeric_directed,
    "mc-oracle": mc_oracle,
}
