"""Monte Carlo oracle: simulation estimates for every analytic quantity.

Each link owns a counter-based random stream keyed by (seed, link index),
so draws are independent of iteration order, identical across serial and
parallel runs, and cheap to regenerate: consumers stream one link vector
at a time instead of materialising the whole draw matrix. One realisation
per link per sample feeds both the per-netting-set exposures and the
market measures; reductions are in-place numpy sums, deterministic for a
fixed seed. Every draw lands in a sample vector that the call allocated
once (``link_draw``'s ``out``), so a call allocates a fixed handful of
vectors however many links it draws.

Directed links draw sign=+1 values, so a Laplace link costs one ziggurat
exponential per sample (|X| of a Laplace(b) variable is Exp(b));
undirected Laplace links add one fair sign bit per sample, taken from the
same Philox stream (``charfn.sample``).
"""

import threading
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .charfn import sample
from .laws import Distribution, MomentError
from .market import (
    Convention,
    Market,
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


class MCEstimate(NamedTuple):
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
              seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """The realisation vector of one link, regenerable bit-for-bit.

    Directed links draw the absolute value (the arrow already carries the
    sign); undirected links draw the signed value, read relative to the
    link's source. The draws fill ``out`` (n float64 values) when it is
    given, with the same bits as a fresh vector.
    """
    if not dist.two_sided:
        raise ValueError("market positions need a two-sided symmetric "
                         f"distribution, got {dist!r}")
    sign = +1 if m.links[link_index].directed else None
    return sample(dist, _link_rng(seed, link_index), sign=sign, size=n,
                  out=out)


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
    # all-zero samples may carry -0.0 (a negated or sign-flipped zero
    # draw), which numpy's maximum and sum need not turn into +0.0; their
    # mean is read as the +0.0 of sums started from zeros
    return MCEstimate(float(mean) + 0.0, se)


def _signed_sum(m: Market, dist: Distribution, n: int, seed: int,
                members: list[tuple[int, bool]], acc: np.ndarray,
                buf: np.ndarray) -> np.ndarray:
    """Sum into ``acc`` of the draws of ``members``, (link index, negated)
    pairs, at least one: the first is drawn into ``acc`` itself and each
    later one into ``buf``. Only the sign of a zero sum can differ from
    adding the draws to zeros."""
    (i, negated), *rest = members
    link_draw(m, dist, i, n, seed, acc)
    if negated:
        np.negative(acc, out=acc)
    for i, negated in rest:
        link_draw(m, dist, i, n, seed, buf)
        if negated:
            acc -= buf  # y - x rounds as y + (-x) does
        else:
            acc += buf
    return acc


@np.errstate(over="ignore", invalid="ignore")
def mc_expected_exposure(m: Market, convention: Convention,
                         dist: Distribution, n: int, seed: int
                         ) -> dict[tuple[str, tuple[int, ...]], MCEstimate]:
    """Simulated expected exposure per netting set.

    Keys are (owner, link indices). Deterministic for a fixed seed; the
    standard error is the sample deviation over sqrt(n).
    """
    require_valid(m)
    acc, buf = np.empty(n), np.empty(n)
    out = {}
    for owner, sets in netting_sets(m, convention).items():
        for s in sets:
            members = [(i, s.owner != m.links[i].source
                        if sign == SIGN_SYMMETRIC else sign < 0)
                       for i, sign in s.items]
            total = _signed_sum(m, dist, n, seed, members, acc, buf)
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
    order; a pair's |net| is added to the total, so memory is the
    participants' positions and three sample vectors: the total, one
    pair's net and one draw.
    """
    require_valid(m)
    buf = np.empty(n)
    vertex_pos = {}
    if ccp_class is not None:
        _require_class(m, ccp_class)
        vertex_pos = {v: np.zeros(n) for v in m.participants}
    pairs: dict[frozenset, list[tuple[int, bool]]] = {}
    for i, (u, w, cls, directed, _) in enumerate(m.links):
        credit, debit = (w, u) if directed else (u, w)
        if cls != ccp_class:
            # a pair's net is read from its smaller participant's side
            pairs.setdefault(frozenset((credit, debit)), []).append(
                (i, credit > debit))
            continue
        link_draw(m, dist, i, n, seed, buf)
        vertex_pos[credit] += buf
        vertex_pos[debit] -= buf

    total = np.zeros(n)
    for y in vertex_pos.values():
        total += np.maximum(y, 0.0, out=y)
    vertex_pos.clear()
    pair = np.empty(n)
    for members in pairs.values():
        total += np.abs(_signed_sum(m, dist, n, seed, members, pair, buf),
                        out=pair)
    return total


def mc_market_totals(m: Market, dist: Distribution, n: int, seed: int,
                     ccp_class: int | None = None) -> MCEstimate:
    """Simulated expected market total, netted bilaterally or with class
    ``ccp_class`` cleared, and its standard error. Draws are keyed by
    (seed, link), so calls with one seed share them."""
    return _estimate(market_total_samples(m, dist, n, seed, ccp_class))
