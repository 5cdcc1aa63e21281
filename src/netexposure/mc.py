"""Monte Carlo oracle: simulation estimates for every analytic quantity.

Each link owns a counter-based random stream keyed by (seed, link index),
so draws are independent of iteration order, identical across serial and
parallel runs, and cheap to regenerate: consumers stream one link vector
at a time instead of materialising the whole draw matrix. One realisation
per link per sample feeds both the per-netting-set exposures and the
market measures; reductions are in-place numpy sums, deterministic for a
fixed seed.

Directed links draw sign=+1 values, so a Laplace link costs one ziggurat
exponential per sample (|X| of a Laplace(b) variable is Exp(b));
undirected Laplace links add one fair sign bit per sample, taken from the
same Philox stream (``charfn.sample``).
"""

import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .charfn import Distribution, MomentError, sample
from .market import (
    Convention,
    Market,
    NettingSet,
    SIGN_SYMMETRIC,
    netting_sets,
    require_valid,
)

__all__ = [
    "MCEstimate",
    "MarketTotals",
    "mc_expected_exposure",
    "mc_market_totals",
    "market_total_samples",
    "link_draw",
]


@dataclass(frozen=True)
class MCEstimate:
    estimate: float
    stderr: float

    def z_score(self, reference: float) -> float:
        if self.stderr == 0.0 and self.estimate == reference:
            return 0.0
        if not 0.0 < self.stderr < np.inf:
            raise MomentError("the Monte Carlo standard error is "
                              f"{self.stderr:g}, so the z-score is undefined")
        return (self.estimate - reference) / self.stderr


@dataclass(frozen=True)
class MarketTotals:
    bilateral: MCEstimate
    multilateral: MCEstimate | None = None


_THREAD = threading.local()


def _link_rng(seed: int, link_index: int) -> Generator:
    """This thread's generator in the state of a fresh
    ``Philox(key=[seed % 2**64, link_index])``, without the entropy pool
    that building one costs; valid until the thread's next call."""
    if not hasattr(_THREAD, "rng"):
        _THREAD.rng = Generator(Philox(0))
    _THREAD.rng.bit_generator.state = {
        "bit_generator": "Philox", "buffer": (0,) * 4, "buffer_pos": 4,
        "state": {"counter": (0,) * 4, "key": (seed % 2**64, link_index)},
        "has_uint32": 0, "uinteger": 0}
    return _THREAD.rng


def link_draw(m: Market, dist: Distribution, link_index: int, n: int,
              seed: int) -> np.ndarray:
    """The realisation vector of one link, regenerable bit-for-bit.

    Directed links draw the absolute value (the arrow already carries the
    sign); undirected links draw the signed value, read relative to the
    link's source.
    """
    if not dist.two_sided:
        raise ValueError("market positions need a two-sided symmetric "
                         f"distribution, got {dist!r}")
    sign = +1 if m.links[link_index].directed else None
    return sample(dist, _link_rng(seed, link_index), sign=sign, size=n)


def _estimate(values: np.ndarray) -> MCEstimate:
    """Sample mean and standard error; overwrites ``values``."""
    n = values.size
    # an overflow gives an infinite stderr, which z_score reports
    with np.errstate(over="ignore"):
        mean = values.sum() / n
        values -= mean
        values *= values
        se = (float(np.sqrt(values.sum() / (n - 1)) / np.sqrt(n)) if n > 1
              else 0.0)
    return MCEstimate(float(mean), se)


def _set_samples(m: Market, s: NettingSet, dist: Distribution, n: int,
                 seed: int) -> np.ndarray:
    total = np.zeros(n)
    for i, sign in s.items:
        draw = link_draw(m, dist, i, n, seed)
        if sign == SIGN_SYMMETRIC:
            sign = 1 if s.owner == m.links[i].source else -1
        if sign > 0:
            total += draw
        else:
            total -= draw
    return total


def mc_expected_exposure(m: Market, convention: Convention,
                         dist: Distribution, n: int, seed: int
                         ) -> dict[tuple[str, tuple[int, ...]], MCEstimate]:
    """Simulated expected exposure per netting set.

    Keys are (owner, link indices). Deterministic for a fixed seed; the
    standard error is the sample deviation over sqrt(n).
    """
    require_valid(m)
    out = {}
    for owner, sets in netting_sets(m, convention).items():
        for s in sets:
            total = _set_samples(m, s, dist, n, seed)
            np.maximum(total, 0.0, out=total)
            out[(owner, s.link_indices)] = _estimate(total)
    return out


def market_total_samples(m: Market, dist: Distribution, n: int, seed: int,
                         ccp_class: int | None = None
                         ) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-sample market totals (bilateral, and pooled if a CCP class is
    given), vectorising the deterministic measures over realisations.

    Claims of one side being the other's liabilities, the bilateral total
    per sample is the sum of |net pair position| (both perspectives of a
    pair, claims counted once). The pooled class contributes each
    participant's clipped position max[y; 0] against the CCP - half the
    gross twice-counted measure - plus the bilateral rest.
    """
    require_valid(m)
    if ccp_class is not None and not 1 <= ccp_class <= m.n_classes:
        raise ValueError(f"unknown class {ccp_class} "
                         f"(market has {m.n_classes})")
    pair_pos: dict[frozenset, np.ndarray] = {}
    rest_pos: dict[frozenset, np.ndarray] = {}
    vertex_pos = ({v: np.zeros(n) for v in m.participants}
                  if ccp_class is not None else {})

    for i, link in enumerate(m.links):
        draw = link_draw(m, dist, i, n, seed)
        key = frozenset((link.source, link.target))
        credit = link.target if link.directed else link.source
        positive = credit == min(key)
        for pool in ((pair_pos,) if ccp_class is None or link.cls == ccp_class
                     else (pair_pos, rest_pos)):
            y = pool.get(key)
            if y is None:
                pool[key] = draw.copy() if positive else -draw
            elif positive:
                y += draw
            else:
                y -= draw
        if ccp_class is not None and link.cls == ccp_class:
            debit = link.source if link.directed else link.target
            vertex_pos[credit] += draw
            vertex_pos[debit] -= draw

    bilateral = np.zeros(n)
    for y in pair_pos.values():
        bilateral += np.abs(y, out=y)
    pooled = None
    if ccp_class is not None:
        pooled = np.zeros(n)
        for y in vertex_pos.values():
            pooled += np.maximum(y, 0.0, out=y)
        for y in rest_pos.values():
            pooled += np.abs(y, out=y)
    return bilateral, pooled


def mc_market_totals(m: Market, dist: Distribution, n: int, seed: int,
                     ccp_class: int | None = None) -> MarketTotals:
    """Simulated expected market totals with standard errors."""
    bilateral, pooled = market_total_samples(m, dist, n, seed, ccp_class)
    return MarketTotals(
        bilateral=_estimate(bilateral),
        multilateral=_estimate(pooled) if pooled is not None else None,
    )
