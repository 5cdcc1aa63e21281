"""Expected credit exposure of netting sets and whole markets.

A netting set's expected exposure E(max[Y; 0]) depends only on its
signature, the counts of claims, debts and undirected links, and on the
law (``_signature_exposure``). So a market's totals come from its
signature census (``market._partition``): each signature is valued once
and added once per set, and the per-set rows of a report are built only
when it lists them (``ExposureReport.per_netting_set``).

Laplace and uniform sets, and sets of debts only, get their exact
rational value (``exact_exposure``), which makes whole-market
regressions bit-reproducible. A normal set of claims only is worth E(Y),
one of undirected links only sqrt(var Y / (2 pi)). Every other normal
set is E = 1/2 E(Y) + 1/2 E|Y|, with sigma times a bounded unit-sigma
cosine series for E|Y| (``transforms._normal_abs_mean``), so its error
is a computed bound.

The paper's characteristic-function route stays as library API and as
the tests' independent reference: ``netting_set_cf`` is the c.f. of the
net position, the slope at zero of its Hilbert transform is E|Y|
(``hilbert_deriv_at_zero``), and ``exposure_cf`` is the c.f. of the
clipped position max[Y; 0].
"""

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .laws import (DEFAULT_TOL, Distribution, LaplaceSym, MomentError,
                   NormalSym, UniformSym, _square)
from .market import (
    Bilateral,
    Convention,
    Custom,
    Market,
    Multilateral,
    NettingSet,
    SIGN_SYMMETRIC,
    _kind,
    _partition,
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
    """A market evaluation; ``per_netting_set`` is made from the rows it
    is given (any iterable, read once) on first read."""

    convention: str
    _rows: Iterable[SetExposure] = field(repr=False)
    per_participant: dict[str, float]
    market_total: float
    market_total_exact: Fraction | None
    components: dict[str, float]
    pair_view: dict[tuple[str, str], float]

    @cached_property
    def per_netting_set(self) -> tuple[SetExposure, ...]:
        return tuple(self._rows)


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
    """Expected exposure under any convention (custom partitions included),
    from the signature census of its netting sets. Each signature is valued
    once, by ``expected_exposure`` on its first set, and each set adds that
    value in set order, so every float total is the set-by-set sum."""
    require_valid(m)
    custom = isinstance(convention, Custom)
    if custom:  # validated sets, with their census, keyed by position
        groups = {v: {j: [*_signature(s.signs), *s.items]
                      for j, s in enumerate(sets)}
                  for v, sets in netting_sets(m, convention).items()}
    else:
        groups = _partition(m, convention)

    def kind(key):
        return "custom" if custom else _kind(key, convention)

    cache: dict = {}  # one market evaluation: one law, one tolerance
    seen: dict = {}  # signature -> [its first set's SetExposure, set count]
    firsts = {}  # id of a signature's first group -> that SetExposure
    values, per_participant, components, pair_view = [], {}, {}, {}
    multilateral = isinstance(convention, Multilateral)
    pool_name, rest_name = ("multilateral", "bilateral_rest") \
        if multilateral else (None, "bilateral")
    for v in m.participants:
        subtotal = 0.0
        for key, group in groups[v].items():
            if len(group) == 3:
                continue  # an unused pool
            if (entry := seen.get(signature := tuple(group[:3]))) is None:
                s = NettingSet(v, tuple(group[3:]), kind(key))
                e = firsts[id(group)] = expected_exposure(m, s, dist, tol,
                                                          cache)
                entry = seen[signature] = [e, 0]
            entry[1] += 1
            value = entry[0].value
            values.append(value)
            subtotal += value
            if key is None:
                components[pool_name] = components.get(pool_name, 0.0) + value
            elif not custom:
                components[rest_name] = components.get(rest_name, 0.0) + value
                pair = (v, key) if v < key else (key, v)
                pair_view[pair] = pair_view.get(pair, 0.0) + value
        per_participant[v] = subtotal

    def rows():  # the census's first sets, and one call for each other set
        for v in m.participants:
            for key, group in groups[v].items():
                if len(group) > 3:
                    e = firsts.get(id(group))
                    yield e if e is not None else expected_exposure(
                        m, NettingSet(v, tuple(group[3:]), kind(key)), dist,
                        tol, cache)

    exact = None
    if seen and all(e.exact is not None for e, _ in seen.values()):
        exact = sum((n * e.exact for e, n in seen.values()), Fraction(0))
    if multilateral:
        components.setdefault(pool_name, 0.0)
        components.setdefault(rest_name, 0.0)
    name = f"multilateral:{convention.cls}" if multilateral else \
        "custom" if custom else "bilateral"
    return ExposureReport(name, rows(), per_participant, _finite(sum(values)),
                          exact, components, pair_view)
