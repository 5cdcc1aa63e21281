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

from .charfn import sample
from .laws import Distribution, MomentError
from .market import (
    Convention,
    Market,
    NettingSet,
    SIGN_SYMMETRIC,
    _require_class,
    netting_sets,
    require_valid,
)

__all__ = [
    "MCEstimate",
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


# Draws of an extreme law scale overflow and their sums turn invalid; the
# non-finite estimate or standard error is reported by ``z_score``.
@np.errstate(over="ignore", invalid="ignore")
def _estimate(values: np.ndarray) -> MCEstimate:
    """Sample mean and standard error; overwrites ``values``."""
    n = values.size
    mean = values.sum() / n
    values -= mean
    values *= values
    se = float(np.sqrt(values.sum() / (n - 1)) / np.sqrt(n)) if n > 1 else 0.0
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


@np.errstate(over="ignore", invalid="ignore")
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


@np.errstate(over="ignore", invalid="ignore")
def market_total_samples(m: Market, dist: Distribution, n: int, seed: int,
                         ccp_class: int | None = None) -> np.ndarray:
    """Per-sample market total, netted bilaterally or with class
    ``ccp_class`` cleared through a CCP: |net position| per bilateral pair
    (one side's claims are the other's debts, so a pair counts once), plus
    each participant's clipped cleared-class position max[y; 0] against
    the CCP - half the gross twice-counted measure.

    The cleared class is drawn first, then each pair's links in link
    order; a pair's |net| is added to the total and dropped, so memory is
    the participants' positions and a few sample vectors.
    """
    require_valid(m)
    vertex_pos = {}
    if ccp_class is not None:
        _require_class(m, ccp_class)
        vertex_pos = {v: np.zeros(n) for v in m.participants}
    pair_links: dict[frozenset, list[int]] = {}
    for i, link in enumerate(m.links):
        if link.cls != ccp_class:
            pair_links.setdefault(frozenset((link.source, link.target)),
                                  []).append(i)
            continue
        draw = link_draw(m, dist, i, n, seed)
        credit = link.target if link.directed else link.source
        debit = link.source if link.directed else link.target
        vertex_pos[credit] += draw
        vertex_pos[debit] -= draw

    total = np.zeros(n)
    for y in vertex_pos.values():
        total += np.maximum(y, 0.0, out=y)
    vertex_pos.clear()
    for key, links in pair_links.items():
        y = None
        for i in links:
            draw = link_draw(m, dist, i, n, seed)
            link = m.links[i]
            if (link.target if link.directed else link.source) != min(key):
                np.negative(draw, out=draw)  # y + (-x) rounds as y - x does
            y = draw if y is None else np.add(y, draw, out=y)
            del draw  # the next draw must not find this one still held
        total += np.abs(y, out=y)
    return total


def mc_market_totals(m: Market, dist: Distribution, n: int, seed: int,
                     ccp_class: int | None = None) -> MCEstimate:
    """Simulated expected market total, netted bilaterally or with class
    ``ccp_class`` cleared, and its standard error. Draws are keyed by
    (seed, link), so calls with one seed share them."""
    return _estimate(market_total_samples(m, dist, n, seed, ccp_class))
