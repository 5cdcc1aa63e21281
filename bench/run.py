#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the netexposure CLI.

    python3 bench/run.py --workload laplace-complete --seed 1 \
        --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory. The workload seed generates the market files (see
workloads.py), and one client runs the workload's CLI commands in a closed
loop through ``netexposure.cli.main``, in this process and thread, with
stdout captured. Every output is checked. ``--trace 0`` times the
commands untraced and prints the end-to-end metrics, scaled to a
reference host speed (see host_scale); ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
(see spans.py). The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_REPEATS = 11
# The calibration kernel's time at the reference host speed.
CAL_REF_S = 0.020

END_TO_END_UNITS = {
    "setup_s": "s",
    "analyze_p50_s": "s",
    "compare_p50_s": "s",
    "mc_check_p50_s": "s",
    "links_per_s": "links/s",
    "mc_samples_per_s": "link-samples/s",
    "peak_rss_mb": "MB",
}
P50_METRICS = {"analyze": "analyze_p50_s",
               "compare-netting": "compare_p50_s",
               "mc-check": "mc_check_p50_s"}


class ProgramMissing(RuntimeError):
    """The checkout holds no importable netexposure sources."""


def import_program():
    """Import ``netexposure.cli`` from this checkout's ``src``, never from
    an installed copy."""
    package = SRC / "netexposure"
    if not (package / "cli.py").is_file():
        raise ProgramMissing(f"no netexposure sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import netexposure.cli

    if Path(netexposure.cli.__file__).resolve().parent != package.resolve():
        raise ProgramMissing("netexposure was imported from "
                             f"{netexposure.cli.__file__}, not {package}")
    return netexposure.cli


@dataclass
class Result:
    command: workloads.Command
    seconds: float
    out: str
    error: str | None
    scale: float = 1.0   # host-speed factor, see host_scale

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def run_command(cli, command: workloads.Command) -> Result:
    """One closed-loop CLI call, timed from entry to return of ``main``.

    ``cli.main`` is looked up at call time so that a traced pass goes
    through its wrapper. Output is checked after the clock stops.
    """
    out, err = io.StringIO(), io.StringIO()
    # start each command from a collected heap, as a fresh CLI process
    # would, so the previous command's garbage is not charged to this one
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(command.argv))
    except SystemExit as exc:  # argparse rejecting the arguments
        code = exc.code
    except Exception:  # the program crashed: a failed command, not a stop
        seconds = time.perf_counter() - start
        return Result(command, seconds, out.getvalue(),
                      traceback.format_exc(limit=3))
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if code != 0:
        return Result(command, seconds, text,
                      f"exit code {code}: {err.getvalue().strip()}")
    try:
        error = command.check(text)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        error = f"unreadable output ({exc!r})"
    return Result(command, seconds, text, error)


def run_pass(cli, commands, tracer: spans.Tracer | None = None,
             first_id: int = 0) -> list[Result]:
    """Every command of the workload once, traced when a tracer is given;
    command ids number the commands of the run."""
    results = []
    if tracer is not None:
        tracer.install()
    try:
        for offset, command in enumerate(commands):
            if tracer is not None:
                tracer.command = first_id + offset
            results.append(run_command(cli, command))
    finally:
        if tracer is not None:
            tracer.remove()
    return results


def calibrate() -> float:
    """Seconds taken by a fixed kernel of about 20 ms, a probe of the
    host's current speed: a pure-Python loop of dict updates and integer
    arithmetic, then Philox normal draws and numpy reductions over 100,000
    values, the two kinds of work the program's commands do."""
    rng = np.random.Generator(np.random.Philox(7))
    table: dict[int, int] = {}
    start = time.perf_counter()
    for i in range(60_000):
        key = i % 1000
        table[key] = table.get(key, 0) + i * i % 7
    for _ in range(4):
        x = rng.standard_normal(100_000)
        np.maximum(x, 0.0).sum()
        np.abs(x).mean()
    return time.perf_counter() - start


def host_scale(before: float, after: float) -> float:
    """Factor that takes a wall time measured between two calibrations to
    the reference host speed, at which the kernel takes CAL_REF_S.

    The shared host runs this process at a speed that changes by up to 2x
    within seconds and by 1.5x for minutes at a time, and a command's
    wall time changes with it. The kernel timed just before and just after
    the command changes in step, so the scaled time varies much less
    between repeats and between runs. The kernel is the benchmark's own
    code: a change to the program moves scaled and wall times alike.
    """
    return CAL_REF_S / ((before + after) / 2)


def measure_setup() -> tuple[float, float]:
    """Median of several cold imports of netexposure.cli, each in a fresh
    interpreter, which every CLI invocation pays before its command runs:
    (scaled to the reference host speed, wall)."""
    code = ("import time; t = time.perf_counter(); import netexposure.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scaled, wall = [], []
    before = calibrate()
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        after = calibrate()
        wall.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(wall[-1] * host_scale(before, after))
        before = after
    return statistics.median(scaled), statistics.median(wall)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, when
    it lies above the median."""
    p = math.floor(100 * (1 - 10 / len(values)))
    if p <= 50:
        return None
    return p, statistics.quantiles(values, n=100)[p - 1]


def invocation_medians(results: list[Result], kinds=None
                       ) -> list[tuple[workloads.Command, float]]:
    """Each distinct invocation (argv) of the given command kinds, with
    the median of its repeats' scaled times."""
    by_argv: dict[tuple, list[Result]] = {}
    for r in results:
        if kinds is None or r.command.kind in kinds:
            by_argv.setdefault(r.command.argv, []).append(r)
    return [(rs[0].command, statistics.median(r.scaled for r in rs))
            for rs in by_argv.values()]


def kind_p50(results: list[Result], kind: str):
    """Median over a command kind's distinct invocations of each
    invocation's median scaled time, the raw sample count, and the tail
    of the scaled times.

    A workload mixes market sizes, so the pooled median of raw times would
    sit in the gap between two sizes and jump with noise; the median of
    per-invocation medians estimates the same middle command robustly.
    """
    per = invocation_medians(results, (kind,))
    times = [r.scaled for r in results if r.command.kind == kind]
    value = statistics.median(median for _, median in per)
    return value, len(times), len(per), tail_percentile(times)


def pass_rate(results: list[Result], kinds, work) -> float:
    """Work per scaled second of one pass over the given kinds'
    invocations, each taking its median time: the throughput at the
    workload's sizes, without the bursts that a sum of raw times keeps."""
    per = invocation_medians(results, kinds)
    return (sum(work(command) for command, _ in per)
            / sum(median for _, median in per))


def end_to_end(results: list[Result], setup: tuple[float, float]) -> dict:
    """Every end-to-end metric with its note. Times and rates are scaled
    to the reference host speed; the notes give wall-clock figures."""
    metrics = {}
    notes = {}
    for kind, name in P50_METRICS.items():
        value, n, distinct, tail = kind_p50(results, kind)
        wall = statistics.median(r.seconds for r in results
                                 if r.command.kind == kind)
        metrics[name] = value
        notes[name] = (f"n={n} over {distinct} invocations"
                       + (f"; p{tail[0]} {tail[1]:.4f} s" if tail else "")
                       + f"; pooled wall median {wall:.4f} s")
    total = sum(r.seconds for r in results)
    links = sum(r.command.links for r in results)
    metrics["links_per_s"] = pass_rate(results, None, lambda c: c.links)
    notes["links_per_s"] = (f"n={len(results)} commands; wall "
                            f"{links / total:.1f} over {total:.2f} s")
    mc = [r for r in results if r.command.kind == "mc-check"]
    metrics["mc_samples_per_s"] = pass_rate(
        results, ("mc-check",), lambda c: c.links * c.samples)
    notes["mc_samples_per_s"] = f"n={len(mc)} mc-check commands"
    metrics["setup_s"] = setup[0]
    notes["setup_s"] = (f"median of {SETUP_REPEATS} cold imports; wall "
                        f"{setup[1]:.4f} s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                              .ru_maxrss / 1024.0)
    notes["peak_rss_mb"] = "ru_maxrss of this process"
    return {name: (metrics[name], notes[name]) for name in END_TO_END_UNITS}


def trace_consistency(results: list[Result], tracer_spans: list[tuple],
                      first_id: int) -> list[str]:
    """Traced counts against the outputs: one exposure.set span per listed
    netting set, and per mc-check one draw per set member plus one per
    link for the totals. ``results`` are the traced commands, with ids
    from ``first_id`` on."""
    counts = spans.command_counts(tracer_spans)
    problems = []
    for offset, r in enumerate(results):
        if r.error:
            continue
        got = counts.get(first_id + offset, {})
        sizes = workloads.listed_set_sizes(r.command.kind, r.out)
        if sizes is None:
            continue
        if got.get("exposure.set", 0) != len(sizes):
            problems.append(f"{' '.join(r.command.argv[:1])}: "
                            f"{got.get('exposure.set', 0)} set spans, "
                            f"{len(sizes)} sets listed")
        if (r.command.kind == "mc-check"
                and got.get("mc.draw", 0) != sum(sizes) + r.command.links):
            problems.append(f"mc-check: {got.get('mc.draw', 0)} draws, "
                            f"expected {sum(sizes) + r.command.links}")
    return problems


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_run(cli, commands, seconds: float,
              calibrations: list[float] | None = None) -> list[Result]:
    """Closed loop over the commands until the time is up. At least one
    full pass runs; after it, a command starts only if its last time says
    it ends before the deadline. The calibration kernel runs before the
    first command and after each one, outside the timed regions, and each
    result gets the host_scale of the two calibrations around it; their
    times are appended to ``calibrations`` when it is given."""
    if calibrations is None:
        calibrations = []
    deadline = time.perf_counter() + seconds
    last: dict[tuple, float] = {}
    results = []
    before = calibrate()
    calibrations.append(before)
    i = 0
    while True:
        command = commands[i % len(commands)]
        if (i >= len(commands)
                and time.perf_counter() + last[command.argv] > deadline):
            break
        r = run_command(cli, command)
        after = calibrate()
        calibrations.append(after)
        last[command.argv] = r.seconds
        # drop the checked output, so that the benchmark's own memory does
        # not grow with the length of the run and show in peak_rss_mb
        results.append(replace(r, out="", scale=host_scale(before, after)))
        before = after
        i += 1
    return results


def traced_run(cli, commands, seconds: float, workload: str):
    """Pairs of one untraced and one traced pass until the time is up (at
    least one pair). Returns all results, the per-layer metrics and the
    consistency problems found."""
    tracer = spans.Tracer()
    deadline = time.perf_counter() + seconds
    results, plain_s, traced_s, layers, problems = [], [], [], [], []
    mc_links = sum(c.links for c in commands if c.kind == "mc-check")
    next_id = 0
    WORK.mkdir(exist_ok=True)
    with (WORK / f"spans-{workload}.jsonl").open("w") as out:
        while True:
            start = time.perf_counter()
            plain = run_pass(cli, commands)
            traced = run_pass(cli, commands, tracer, first_id=next_id)
            plain_s.append(sum(r.seconds for r in plain))
            traced_s.append(sum(r.seconds for r in traced))
            layers.append(spans.layer_metrics(tracer.spans, mc_links))
            problems += trace_consistency(traced, tracer.spans, next_id)
            results += [replace(r, out="") for r in plain + traced]
            tracer.flush(out)
            next_id += len(commands)
            if time.perf_counter() + (time.perf_counter() - start) > deadline:
                break
    for later in layers[1:]:
        for name in spans.EXACT:
            if later[name] != layers[0][name]:
                problems.append(f"{name} differs between traced passes: "
                                f"{layers[0][name]} vs {later[name]}")
    metrics = {name: (layers[0][name] if name in spans.EXACT
                      else statistics.median(m[name] for m in layers))
               for name in spans.LAYER_UNITS}
    untraced = statistics.median(plain_s)
    metrics["trace.overhead_ratio"] = (statistics.median(traced_s)
                                       - untraced) / untraced
    return results, metrics, len(layers), problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = import_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        commands = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            results, layer, pairs, problems = traced_run(
                cli, commands, args.seconds, args.workload)
            units = dict(spans.LAYER_UNITS, **{"trace.overhead_ratio": "1"})
            report = {name: (layer[name], f"{pairs} traced passes")
                      for name in units}
        else:
            setup = measure_setup()
            calibrations: list[float] = []
            results = timed_run(cli, commands, args.seconds, calibrations)
            units = END_TO_END_UNITS
            report = end_to_end(results, setup)
            problems = []
            print(f"host speed: calibration kernel median "
                  f"{statistics.median(calibrations) * 1e3:.2f} ms over "
                  f"{len(calibrations)} runs (reference "
                  f"{CAL_REF_S * 1e3:.0f} ms)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r for r in results if r.error]
    for r in failures[:5]:
        print(f"FAILED {' '.join(r.command.argv)}: {r.error}",
              file=sys.stderr)
    for problem in problems:
        print(f"TRACE {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(results)} commands, {len(failures)} failed, fail_ratio "
          f"{len(failures) / len(results):.4f}")
    for name, (value, note) in report.items():
        print(f"  {name:<30} {value:>14.6g} {units[name]:<15} ({note})")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
