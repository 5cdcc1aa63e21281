#!/usr/bin/env python3
"""Regenerate reference.json, the per-signature set exposures that the
numeric-directed workload's totals are checked against.

    python3 bench/make_reference.py

Runs ``analyze --format json`` at REFERENCE_TOL, 100x tighter than the
CLI default the workload uses, on one census market per law, and records
each netting-set signature (claims, debts, undirected) with its value.
Sets of one signature must agree exactly, since the engine sees only the
signature.
"""

import json
import random
import shutil
import sys

import workloads
from run import WORK, import_program, run_command

REFERENCE_TOL = workloads.DEFAULT_TOL / 100


def signature(market: dict, owner: str, links: list[int]) -> str:
    claims = sum(market["links"][i]["to"] == owner for i in links)
    return f"{claims},{len(links) - claims},0"


def main() -> int:
    cli = import_program()
    workdir = WORK / "reference"
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random("reference")
    values: dict[str, dict[str, float]] = {}
    try:
        for law, dist in (("normal", workloads.NORMAL),
                          ("uniform", workloads.UNIFORM)):
            market = workloads.market_json(
                rng, workloads.NUMERIC_N, workloads.K_CLASSES, dist,
                workloads.census_orientation(rng), directed=True)
            path = workdir / f"{law}.json"
            path.write_text(json.dumps(market))
            table = values.setdefault(law, {})
            for conv in workloads.NUMERIC_CENSUS:
                out = analyze_json(cli, path, conv)
                for s in json.loads(out)["netting_sets"]:
                    sig = signature(market, s["owner"], s["links"])
                    if table.setdefault(sig, s["expected_exposure"]) \
                            != s["expected_exposure"]:
                        raise RuntimeError(f"{law} {sig}: sets disagree")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(
        {"tol": REFERENCE_TOL,
         "values": {law: dict(sorted(t.items()))
                    for law, t in values.items()}}, indent=2) + "\n")
    return 0


def analyze_json(cli, path, convention: str) -> str:
    argv = ("--tol", str(REFERENCE_TOL), "analyze", "--market", str(path),
            "--convention", convention, "--format", "json")
    result = run_command(cli, workloads.Command("analyze", argv, 0, 0,
                                                lambda out: None))
    if result.error:
        raise RuntimeError(f"analyze failed: {result.error}")
    return result.out


if __name__ == "__main__":
    sys.exit(main())
