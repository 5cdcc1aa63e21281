"""Expected credit exposure of netting sets and whole markets.

A netting set's expected exposure E(max[Y; 0]) depends only on its
signature, the counts of claims, debts and undirected links, and on the
law, so a market evaluation values each signature once, from the
signature alone (``_signature_exposure``). Laplace and uniform sets, and
sets of debts only, get their exact rational value (``exact_exposure``),
which makes whole-market regressions bit-reproducible. A normal set of
claims only is worth E(Y), one of undirected links only sqrt(var Y /
(2 pi)). Every other normal set is E = 1/2 E(Y) + 1/2 E|Y|, with sigma
times a bounded unit-sigma cosine series for E|Y|
(``transforms._normal_abs_mean``), so its error is a computed bound.

The paper's characteristic-function route stays as library API and as
the tests' independent reference: ``netting_set_cf`` is the c.f. of the
net position, the slope at zero of its Hilbert transform is E|Y|
(``hilbert_deriv_at_zero``), and ``exposure_cf`` is the c.f. of the
clipped position max[Y; 0].
"""

import math
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .laws import (DEFAULT_TOL, Distribution, LaplaceSym, MomentError,
                   NormalSym, UniformSym, _square)
from .market import (
    Bilateral,
    Convention,
    Market,
    Multilateral,
    NettingSet,
    SIGN_SYMMETRIC,
    netting_sets,
    require_valid,
)

if TYPE_CHECKING:
    from .charfn import CharFn

__all__ = [
    "SetExposure",
    "ExposureReport",
    "exact_exposure",
    "netting_set_cf",
    "exposure_cf",
    "expected_exposure",
    "eulerian_shortcut",
    "expected_market",
    "expected_bilateral_market",
    "expected_multilateral_market",
]


def __getattr__(name: str):
    """hilbert_deriv_at_zero, bound on first access (PEP 562) as
    ``transforms`` loads numpy; uncalled, bench/spans.py wraps it."""
    if name != "hilbert_deriv_at_zero":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import transforms
    return globals().setdefault(name, transforms.hilbert_deriv_at_zero)


class SetExposure(NamedTuple):
    """Expected exposure of one netting set, with method provenance."""

    owner: str
    kind: str
    links: tuple[int, ...]
    value: float
    method: str  # "closed-form" | "shortcut" | "numeric"
    error: float
    exact: Fraction | None = None


@dataclass(frozen=True)
class ExposureReport:
    convention: str
    per_netting_set: tuple[SetExposure, ...]
    per_participant: dict[str, float]
    market_total: float
    market_total_exact: Fraction | None
    components: dict[str, float]
    pair_view: dict[tuple[str, str], float]


def _signature(signs: tuple[int, ...]) -> tuple[int, int, int]:
    return signs.count(+1), signs.count(-1), signs.count(SIGN_SYMMETRIC)


def exact_exposure(dist: Distribution, plus: int, minus: int,
                   sym: int) -> Fraction | None:
    """Exact E(max[Y; 0]) of a (claims, debts, undirected) signature, or
    None for laws without one. A set of debts only is never positive, so
    it is exactly 0 under any law. Laplace, scale b: Y = G_a - G_c, sums of
    a = plus + sym and c = minus + sym unit exponentials, and their
    memoryless race gives b * sum_{j<a} C(c-1+j, j) (a-j) / 2^(c+j).
    Uniform, half width h: Y/h = sum c_i U_i - (minus + sym) over unit
    uniforms, c_i = 1 per directed and 2 per undirected link; the n-fold
    finite difference of x_+^(n+1)/(n+1)! (Irwin-Hall, box spline) cancels
    heavily, so it is summed in integers.
    """
    if plus == sym == 0:
        return Fraction(0)
    if isinstance(dist, LaplaceSym):
        a, c = plus + sym, minus + sym
        if c == 0:
            return a * Fraction(dist.scale)
        num = sum(math.comb(c - 1 + j, j) * (a - j) << (a - 1 - j)
                  for j in range(a))
        return Fraction(num, 1 << (a + c - 1)) * Fraction(dist.scale)
    if isinstance(dist, UniformSym):
        n, d = plus + minus + sym, -(minus + sym)
        num = sum((-1) ** (n - j - k) * math.comb(plus + minus, j)
                  * math.comb(sym, k) * (d + j + 2 * k) ** (n + 1)
                  for j in range(plus + minus + 1) for k in range(sym + 1)
                  if d + j + 2 * k > 0)
        return (Fraction(num, math.factorial(n + 1) << sym)
                * Fraction(dist.half_width))
    return None


def _finite(x: Fraction | float) -> float:
    """An exact value or a float sum as a finite float."""
    if not abs(x) <= sys.float_info.max:
        raise MomentError("exposure outside the floating-point range")
    return float(x)


def _require_two_sided(dist: Distribution) -> None:
    if not dist.two_sided:
        raise ValueError("market positions need a two-sided symmetric "
                         f"distribution, got {dist!r}")


def netting_set_cf(m: Market, s: NettingSet, dist: Distribution
                   ) -> "CharFn":
    """C.f. of the net position of a netting set: the product of one
    signed-absolute-value factor per claim or debt and one symmetric
    factor per undirected link. A claims/debts balance makes the product
    real and even (each claim factor pairs with a debt conjugate), which
    is what unlocks the parity shortcuts downstream.
    """
    from .charfn import cf_product, charfn_of
    from .transforms import neg_abs_cf, pos_abs_cf
    _require_two_sided(dist)
    plus, minus, sym = _signature(s.signs)
    if not s.items:
        warnings.warn(f"empty netting set for {s.owner!r}: exposure is 0",
                      stacklevel=2)
    base = charfn_of(dist)
    claim = pos_abs_cf(base)
    f = cf_product([claim] * plus + [neg_abs_cf(claim)] * minus + [base] * sym)
    if plus == minus and not f.even_real:
        f = replace(f, even_real=True)
    return f


def exposure_cf(f: "CharFn", tol: float = DEFAULT_TOL) -> "CharFn":
    """C.f. of the clipped position max[Y; 0] given the c.f. of Y:

        1/2 [1 + phi(t)] + i/2 [H{phi}(t) - H{phi}(0)].
    """
    from .charfn import CharFn
    from .transforms import _hilbert_fn
    transform = _hilbert_fn(f, tol)
    h0 = 0j if f.even_real else complex(transform(0.0))
    inner = f.fn

    def fn(t):
        return 0.5 * (1.0 + inner(t)) + 0.5j * (transform(t) - h0)

    return CharFn(fn=fn)


def expected_exposure(m: Market, s: NettingSet, dist: Distribution,
                      tol: float = DEFAULT_TOL,
                      cache: dict | None = None) -> SetExposure:
    """Expected exposure of one netting set, from its signature and the
    law (``_signature_exposure``). Its method is "closed-form" for exact
    and one-sign sets, else "shortcut" where claims and debts balance (the
    E(Y) term vanishes) and "numeric" otherwise; the error is half the
    bound on E|Y|, and 0 for closed forms. ``cache`` maps signatures to
    results; share one only between calls with the same law and tol.
    """
    owner, items, kind = s
    if not items:
        warnings.warn(f"empty netting set for {owner!r}: exposure is 0",
                      stacklevel=2)
        return SetExposure(owner, kind, (), 0.0, "closed-form", 0.0,
                           Fraction(0))
    links, signs = zip(*items)
    key = _signature(signs)
    cache = {} if cache is None else cache
    hit = cache.get(key)
    if hit is None:
        hit = cache[key] = _signature_exposure(dist, key, tol)
    return SetExposure(owner, kind, links, *hit)


def _signature_exposure(dist: Distribution, signature: tuple[int, int, int],
                        tol: float
                        ) -> tuple[float, str, float, Fraction | None]:
    """Uncached (value, method, error, exact) of a nonempty set. Routes, in
    order: the exact value (``exact_exposure``); normal claims only (Y >=
    0, so E max[Y; 0] = E Y); normal undirected links only (Y ~ N(0, sym
    sigma^2)); any other normal set by the series; no other law has one."""
    _require_two_sided(dist)
    plus, minus, sym = signature
    exact = exact_exposure(dist, plus, minus, sym)
    if exact is not None:
        return _finite(exact), "closed-form", 0.0, exact
    if not isinstance(dist, NormalSym):
        raise TypeError(f"unknown distribution spec: {dist!r}")
    v = _square(dist, dist.sigma)  # the variance check of the normal c.f.
    if not (minus or sym):
        return plus * dist.abs_mean, "closed-form", 0.0, None
    if not (plus or minus):
        value = 0.5 * math.sqrt(2.0 * (sym * v) / math.pi)
        return _finite(value), "closed-form", 0.0, None
    from .transforms import _normal_abs_mean
    abs_y, error = _normal_abs_mean(plus, minus, sym, tol / dist.sigma)
    value = 0.5 * (plus - minus) * dist.abs_mean + 0.5 * (dist.sigma * abs_y)
    method = "shortcut" if plus == minus else "numeric"
    return _finite(max(value, 0.0)), method, 0.5 * (dist.sigma * error), None


def eulerian_shortcut(m: Market, s: NettingSet, dist: Distribution,
                      tol: float = DEFAULT_TOL) -> float | None:
    """Parity-shortcut value 1/2 dH(0), or None when it does not apply;
    where it applies, the value is ``expected_exposure``'s.

    Applies to all-directed sets whose claims and debts balance (the net
    position then has zero mean and an even real c.f.) and to fully
    undirected sets (always symmetric). The transform of an even real
    function is odd, so its value at 0 contributes nothing.
    """
    plus, minus, sym = _signature(s.signs)
    if s.items and plus == minus and (sym == 0 or plus == 0):
        return expected_exposure(m, s, dist, tol).value
    return None


# ---------------------------------------------------------------------------
# Market-level aggregation
# ---------------------------------------------------------------------------

def _aggregate(m: Market, sets: dict[str, list[NettingSet]],
               dist: Distribution, tol: float, convention: str,
               components_of: dict[str, str]) -> ExposureReport:
    """``components_of`` maps a set kind's prefix to its component."""
    per_set: list[SetExposure] = []
    per_participant = {v: 0.0 for v in m.participants}
    components: dict[str, float] = {}
    pair_view: dict[tuple[str, str], float] = {}
    cache: dict = {}  # one market evaluation: one law, one tolerance
    for v in m.participants:
        for s in sets.get(v, []):
            e = expected_exposure(m, s, dist, tol, cache)
            per_set.append(e)
            per_participant[v] += e.value
            prefix, _, peer = e.kind.partition(":")
            if prefix in components_of:
                key = components_of[prefix]
                components[key] = components.get(key, 0.0) + e.value
            if prefix == "bilateral":
                key = (v, peer) if v < peer else (peer, v)
                pair_view[key] = pair_view.get(key, 0.0) + e.value
    total = _finite(sum(e.value for e in per_set))
    # cache hits share their signature's Fraction object: add each object
    # once, times its count, instead of once per set
    exacts = [e.exact for e in per_set]
    counts = Counter(map(id, exacts))
    exact = None
    if per_set and id(None) not in counts:
        values = dict(zip(map(id, exacts), exacts))
        exact = sum((n * values[k] for k, n in counts.items()), Fraction(0))
    return ExposureReport(
        convention=convention,
        per_netting_set=tuple(per_set),
        per_participant=per_participant,
        market_total=total,
        market_total_exact=exact,
        components=components,
        pair_view=pair_view,
    )


def expected_bilateral_market(m: Market, dist: Distribution,
                              tol: float = DEFAULT_TOL) -> ExposureReport:
    """Expected exposure under bilateral netting: the ordered double sum
    over creditor-perspective pairs, so each unordered pair contributes
    from both sides (the pair view in the report counts it once)."""
    return expected_market(m, dist, Bilateral(), tol)


def expected_multilateral_market(m: Market, dist: Distribution,
                                 ccp_class: int,
                                 tol: float = DEFAULT_TOL) -> ExposureReport:
    """Expected exposure with one class centrally cleared: that class is
    pooled per participant, the remaining classes stay bilateral, and the
    report carries both components plus their sum."""
    return expected_market(m, dist, Multilateral(ccp_class), tol)


def expected_market(m: Market, dist: Distribution, convention: Convention,
                    tol: float = DEFAULT_TOL) -> ExposureReport:
    """Expected exposure under any convention (custom partitions included)."""
    require_valid(m)
    sets = netting_sets(m, convention)
    if isinstance(convention, Bilateral):
        return _aggregate(m, sets, dist, tol, convention="bilateral",
                          components_of={"bilateral": "bilateral"})
    if isinstance(convention, Multilateral):
        report = _aggregate(m, sets, dist, tol,
                            convention=f"multilateral:{convention.cls}",
                            components_of={"multilateral": "multilateral",
                                           "bilateral": "bilateral_rest"})
        report.components.setdefault("multilateral", 0.0)
        report.components.setdefault("bilateral_rest", 0.0)
        return report
    return _aggregate(m, sets, dist, tol, convention="custom",
                      components_of={})
