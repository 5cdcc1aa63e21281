"""Tests of the benchmark itself (not of netexposure):

    python3 -m pytest bench/test_bench.py -q

They run one traced pass of every workload twice, so they take about a
minute.
"""

import importlib
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import run
import spans
import workloads

SEED = 11
cli = run.import_program()
PROGRAM_MODULES = ("netexposure", "netexposure.advantage",
                   "netexposure.charfn", "netexposure.cli",
                   "netexposure.exposure", "netexposure.io",
                   "netexposure.market", "netexposure.mc",
                   "netexposure.transforms")


def _bindings() -> dict[tuple[str, str], int]:
    out = {}
    for name in PROGRAM_MODULES:
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            out[name, attr] = id(value)
    return out


def _wrapped() -> list[tuple[str, str]]:
    return [(name, attr) for name in PROGRAM_MODULES
            for attr, value in vars(importlib.import_module(name)).items()
            if hasattr(value, "bench_span")]


@pytest.fixture(scope="module")
def traced_passes(tmp_path_factory):
    """Two independent traced passes per workload, each generating its
    markets from SEED afresh: {workload: [(commands, results, spans)]}."""
    out = {}
    for workload, build in workloads.WORKLOADS.items():
        for repeat in range(2):
            workdir = tmp_path_factory.mktemp(f"{workload}-{repeat}")
            commands = build(SEED, workdir)
            tracer = spans.Tracer()
            results = run.run_pass(cli, commands, tracer)
            out.setdefault(workload, []).append(
                (commands, results, list(tracer.spans)))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_agree_with_outputs(traced_passes, workload):
    commands, results, recorded = traced_passes[workload][0]
    assert [r.error for r in results] == [None] * len(results)
    assert run.trace_consistency(results, recorded, 0) == []
    counts = spans.command_counts(recorded)
    listed = 0
    for i, r in enumerate(results):
        sizes = workloads.listed_set_sizes(r.command.kind, r.out)
        if sizes is not None:
            listed += len(sizes)
            assert counts[i]["exposure.set"] == len(sizes)
        if r.command.kind == "mc-check":
            assert counts[i]["mc.draw"] == sum(sizes) + r.command.links
    metrics = spans.layer_metrics(
        recorded, sum(c.links for c in commands if c.kind == "mc-check"))
    # compare-netting lists no sets but evaluates both conventions
    assert metrics["exposure.sets"] > listed > 0
    assert metrics["advantage.market_evals"] == 2
    assert metrics["mc.draws_per_link"] == 3


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_for_one_seed(traced_passes, workload):
    (c1, _, s1), (c2, _, s2) = traced_passes[workload]
    links = sum(c.links for c in c1 if c.kind == "mc-check")
    m1, m2 = spans.layer_metrics(s1, links), spans.layer_metrics(s2, links)
    assert [m1[n] for n in spans.EXACT] == [m2[n] for n in spans.EXACT]
    assert spans.command_counts(s1) == spans.command_counts(s2)
    assert [c.argv[0] for c in c1] == [c.argv[0] for c in c2]


def test_tracer_wraps_every_target_and_restores_it(traced_passes):
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert len(_wrapped()) == len(spans.TARGETS)
    finally:
        tracer.remove()
    assert _wrapped() == []
    assert _bindings() == before


def test_untraced_run_leaves_program_unwrapped(tmp_path):
    before = _bindings()
    commands = workloads.mc_oracle(SEED, tmp_path)
    quick = [c for c in commands if c.kind != "mc-check"]
    results = run.timed_run(cli, quick, seconds=0.0)
    assert [r.error for r in results] == [None] * len(quick)
    assert _wrapped() == []
    assert _bindings() == before


def test_timed_run_scales_each_command_by_its_calibrations(tmp_path):
    commands = workloads.mc_oracle(SEED, tmp_path)
    quick = [c for c in commands if c.kind != "mc-check"]
    calibrations = []
    results = run.timed_run(cli, quick, 0.0, calibrations)
    assert len(calibrations) == len(results) + 1
    for r, before, after in zip(results, calibrations, calibrations[1:]):
        assert r.scale == run.host_scale(before, after) > 0
        assert r.scaled == r.seconds * r.scale


def test_numeric_census_matches_program_partition(tmp_path):
    from netexposure.io import parse_market
    from netexposure.market import Bilateral, Multilateral, netting_sets

    commands = workloads.numeric_directed(SEED, tmp_path)
    for path in {c.argv[2] for c in commands}:
        market = parse_market(path).market
        for name, conv in (("multilateral:1", Multilateral(1)),
                           ("bilateral", Bilateral())):
            got = Counter()
            for sets in netting_sets(market, conv).values():
                for s in sets:
                    got[(s.signs.count(1), s.signs.count(-1),
                         s.signs.count(0))] += 1
            assert got == Counter(workloads.NUMERIC_CENSUS[name])


def test_reference_covers_the_census():
    reference = workloads.load_reference()
    needed = {sig for census in workloads.NUMERIC_CENSUS.values()
              for sig in census}
    assert set(reference) == {"normal", "uniform"}
    for table in reference.values():
        assert needed <= set(table)


def test_generation_is_seeded(tmp_path):
    def files(seed, sub):
        (tmp_path / sub).mkdir()
        workloads.mc_oracle(seed, tmp_path / sub)
        return {p.name: p.read_text() for p in (tmp_path / sub).iterdir()}

    assert files(3, "a") == files(3, "b")
    assert files(3, "a2") != files(4, "c")


def test_laplace_closed_forms():
    assert workloads.pool_exact(1) == Fraction(1, 2)
    assert workloads.pool_exact(2) == Fraction(3, 4)
    # the triangle with one class: six one-link bilateral sets, or three
    # two-link pools
    assert workloads.laplace_complete_total(3, 1, "bilateral") == 3
    assert workloads.laplace_complete_total(3, 1, "multilateral:1") \
        == Fraction(9, 4)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile([1.0] * 19) is None
    p, _ = run.tail_percentile([float(i) for i in range(40)])
    assert p == 75


def test_refuses_to_run_without_program(tmp_path):
    copy = tmp_path / "bench"
    copy.mkdir()
    for path in run.BENCH.iterdir():
        if path.is_file():
            shutil.copy(path, copy / path.name)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-oracle",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
