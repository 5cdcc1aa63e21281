"""Span tracing of netexposure's public functions, for the traced run only.

``Tracer.install`` replaces each binding listed in TARGETS, in the module
whose callers look it up, by a wrapper that records a span (name, start,
end, parent, command id) in memory; ``Tracer.remove`` puts the original
objects back. Nothing inside the program changes: the spans sit at the
module boundaries, and self times are derived from them afterwards.
"""

import functools
import importlib
import json
import math
import statistics
import time
from collections import Counter
from typing import TextIO

import numpy as np

# (module whose global the callers read, attribute, span name). Every
# binding of a function that the CLI's call graph goes through is listed,
# so each call is seen exactly once.
TARGETS = (
    ("netexposure.cli", "main", "cli.main"),
    ("netexposure.cli", "parse_market", "io.parse"),
    ("netexposure.cli", "format_report", "io.render"),
    ("netexposure.io", "require_valid", "market.validate"),
    ("netexposure.exposure", "require_valid", "market.validate"),
    ("netexposure.mc", "require_valid", "market.validate"),
    ("netexposure.exposure", "netting_sets", "market.partition"),
    ("netexposure.mc", "netting_sets", "market.partition"),
    ("netexposure.exposure", "netting_set_cf", "charfn.cf_build"),
    ("netexposure.exposure", "hilbert_deriv_at_zero", "transforms.deriv"),
    ("netexposure.advantage", "hilbert_deriv_at_zero", "transforms.deriv"),
    ("netexposure.transforms", "hilbert_deriv_at_zero", "transforms.deriv"),
    ("netexposure.transforms", "dawson", "transforms.dawson"),
    ("netexposure.exposure", "expected_exposure", "exposure.set"),
    ("netexposure.cli", "expected_market", "exposure.market"),
    ("netexposure.exposure", "expected_bilateral_market", "exposure.market"),
    ("netexposure.exposure", "expected_multilateral_market",
     "exposure.market"),
    ("netexposure.advantage", "expected_bilateral_market", "exposure.market"),
    ("netexposure.advantage", "expected_multilateral_market",
     "exposure.market"),
    ("netexposure.cli", "ccp_advantage", "advantage.ccp"),
    ("netexposure.mc", "link_draw", "mc.draw"),
    ("netexposure.cli", "mc_expected_exposure", "mc.per_set"),
    ("netexposure.cli", "mc_market_totals", "mc.totals"),
)


def _note(name: str, args: tuple, result) -> dict | None:
    """Counters read at the boundary: partitioned links, Dawson points,
    and each set's signature and route."""
    if name == "market.partition":
        return {"links": len(args[0].links), "convention": repr(args[1])}
    if name == "transforms.dawson":
        return {"points": int(np.size(args[0]))}
    if name == "exposure.set":
        signs = args[1].signs
        return {"sig": (signs.count(+1), signs.count(-1), signs.count(0)),
                "method": result.method}
    return None


# span fields
NAME, START, END, PARENT, CMD, INFO = range(6)


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.command = -1
        self._stack: list[int] = []
        self._flushed = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                # a closed span is a tuple of atoms, which the cyclic
                # garbage collector stops tracking, so a long trace does
                # not slow the collections the program itself triggers
                spans[index] = (name, start, end, parent, self.command,
                                _note(name, args, result))

        wrapper.bench_span = name
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def flush(self, out: TextIO) -> None:
        """Write the recorded spans as JSON lines (id, name, start, end,
        parent id, command id) and drop them from memory. Called between
        passes: a long list of live spans slows the program's later
        allocations, which would be charged to the next pass."""
        if self._stack:
            raise RuntimeError("flush with open spans")
        base = self._flushed
        for index, s in enumerate(self.spans):
            out.write(json.dumps({
                "id": base + index, "name": s[NAME], "start": s[START],
                "end": s[END],
                "parent": base + s[PARENT] if s[PARENT] >= 0 else -1,
                "command": s[CMD]}) + "\n")
        self._flushed += len(self.spans)
        self.spans.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

# name -> unit
LAYER_UNITS = {
    "io.parse_s": "s",
    "io.render_s": "s",
    "market.validate_s": "s",
    "market.validate_calls": "count",
    "market.partition_s": "s",
    "market.partition_calls": "count",
    "market.partition_us_per_link": "us/link",
    "market.partition_exp": "1",
    "charfn.cf_build_s": "s",
    "charfn.cf_builds": "count",
    "transforms.deriv_s": "s",
    "transforms.deriv_calls": "count",
    "transforms.dawson_s": "s",
    "transforms.dawson_calls": "count",
    "transforms.dawson_points": "count",
    "exposure.set_s": "s",
    "exposure.sets": "count",
    "exposure.set_self_s": "s",
    "exposure.aggregate_self_s": "s",
    "exposure.signatures": "count",
    "exposure.unique_ratio": "1",
    "exposure.sets_closed_form": "count",
    "exposure.sets_shortcut": "count",
    "exposure.sets_numeric": "count",
    "advantage.ccp_self_s": "s",
    "advantage.market_evals": "1",
    "mc.draw_s": "s",
    "mc.draws": "count",
    "mc.draws_per_link": "1",
    "mc.reduce_s": "s",
    "cli.self_s": "s",
}
# counts and ratios of counts, which repeat exactly between passes and
# between runs with one seed
EXACT = tuple(name for name, unit in LAYER_UNITS.items()
              if unit == "count") + (
    "exposure.unique_ratio", "advantage.market_evals", "mc.draws_per_link")


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover
    (children of one single-threaded span never overlap)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _market_of(spans: list[tuple], index: int) -> int:
    parent = spans[index][PARENT]
    while parent >= 0 and spans[parent][NAME] != "exposure.market":
        parent = spans[parent][PARENT]
    return parent


def partition_exponent(per_call: dict[tuple[str, int], list[float]]
                       ) -> float:
    """Exponent b of partition time ~ links^b: the least-squares slope of
    log(median time per call) against log(links), fitted within each
    convention (the conventions scan the links a different number of
    times) and pooled. 0 when no convention was seen at two sizes."""
    groups: dict[str, list[tuple[float, float]]] = {}
    for (convention, links), times in per_call.items():
        groups.setdefault(convention, []).append(
            (math.log(links), math.log(statistics.median(times))))
    sxy = sxx = 0.0
    for points in groups.values():
        mx = statistics.fmean(x for x, _ in points)
        my = statistics.fmean(y for _, y in points)
        sxy += sum((x - mx) * (y - my) for x, y in points)
        sxx += sum((x - mx) ** 2 for x, _ in points)
    return sxy / sxx if sxx else 0.0


def layer_metrics(spans: list[tuple], mc_links: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass. ``mc_links`` is the sum of
    the link counts of the pass's mc-check commands."""
    own = self_times(spans)
    busy: dict[str, float] = {}
    calls: Counter = Counter()
    self_s: dict[str, float] = {}
    for s, t in zip(spans, own):
        busy[s[NAME]] = busy.get(s[NAME], 0.0) + s[END] - s[START]
        self_s[s[NAME]] = self_s.get(s[NAME], 0.0) + t
        calls[s[NAME]] += 1

    sig_per_market: dict[int, set] = {}
    methods: Counter = Counter()
    per_call: dict[tuple[str, int], list[float]] = {}
    partitioned_links = 0
    dawson_points = 0
    ccp_children = 0
    for index, s in enumerate(spans):
        if s[NAME] == "exposure.set":
            sig_per_market.setdefault(_market_of(spans, index),
                                      set()).add(s[INFO]["sig"])
            methods[s[INFO]["method"]] += 1
        elif s[NAME] == "market.partition":
            links = s[INFO]["links"]
            partitioned_links += links
            per_call.setdefault((s[INFO]["convention"], links),
                                []).append(s[END] - s[START])
        elif s[NAME] == "transforms.dawson":
            dawson_points += s[INFO]["points"]
        elif (s[NAME] == "exposure.market" and s[PARENT] >= 0
              and spans[s[PARENT]][NAME] == "advantage.ccp"):
            ccp_children += 1

    sets = calls["exposure.set"]
    signatures = sum(len(v) for v in sig_per_market.values())
    return {
        "io.parse_s": busy.get("io.parse", 0.0),
        "io.render_s": busy.get("io.render", 0.0),
        "market.validate_s": busy.get("market.validate", 0.0),
        "market.validate_calls": calls["market.validate"],
        "market.partition_s": busy.get("market.partition", 0.0),
        "market.partition_calls": calls["market.partition"],
        "market.partition_us_per_link": (
            1e6 * busy.get("market.partition", 0.0) / partitioned_links
            if partitioned_links else 0.0),
        "market.partition_exp": partition_exponent(per_call),
        "charfn.cf_build_s": busy.get("charfn.cf_build", 0.0),
        "charfn.cf_builds": calls["charfn.cf_build"],
        "transforms.deriv_s": busy.get("transforms.deriv", 0.0),
        "transforms.deriv_calls": calls["transforms.deriv"],
        "transforms.dawson_s": busy.get("transforms.dawson", 0.0),
        "transforms.dawson_calls": calls["transforms.dawson"],
        "transforms.dawson_points": dawson_points,
        "exposure.set_s": busy.get("exposure.set", 0.0),
        "exposure.sets": sets,
        "exposure.set_self_s": self_s.get("exposure.set", 0.0),
        "exposure.aggregate_self_s": self_s.get("exposure.market", 0.0),
        "exposure.signatures": signatures,
        "exposure.unique_ratio": signatures / sets if sets else 0.0,
        "exposure.sets_closed_form": methods["closed-form"],
        "exposure.sets_shortcut": methods["shortcut"],
        "exposure.sets_numeric": methods["numeric"],
        "advantage.ccp_self_s": self_s.get("advantage.ccp", 0.0),
        "advantage.market_evals": (ccp_children / calls["advantage.ccp"]
                                   if calls["advantage.ccp"] else 0.0),
        "mc.draw_s": busy.get("mc.draw", 0.0),
        "mc.draws": calls["mc.draw"],
        "mc.draws_per_link": calls["mc.draw"] / mc_links if mc_links else 0.0,
        "mc.reduce_s": (self_s.get("mc.per_set", 0.0)
                        + self_s.get("mc.totals", 0.0)),
        "cli.self_s": self_s.get("cli.main", 0.0),
    }


def command_counts(spans: list[tuple]) -> dict[int, Counter]:
    """Span counts per command id."""
    out: dict[int, Counter] = {}
    for s in spans:
        out.setdefault(s[CMD], Counter())[s[NAME]] += 1
    return out
