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
same Philox stream (``sample``).
"""

import math
import threading
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .laws import (Distribution, Exponential, Gamma, LaplaceSym, MomentError,
                   NormalSym, UniformSym, _require_two_sided)
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
    "sample",
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


def _laplace_sample(scale: float, rng: np.random.Generator,
                    sign: int | None, out: np.ndarray) -> None:
    """Laplace(scale) draws into ``out``, as an exponential magnitude
    times a sign.

    |X| of a Laplace(b) variable is Exp(b), so each draw costs one
    ziggurat exponential. Unsigned draws take one fair sign bit each from
    the same generator's raw 64-bit words (read as little-endian bytes,
    so the stream is the same on either byte order) and are multiplied by
    1 - 2 * bit, which flips only the sign. That factor is an int8 array:
    a float64 one would cost as much again as the exponential draw.
    """
    rng.standard_exponential(out=out)
    factor = scale if sign is None else sign * scale
    if factor != 1.0:
        out *= factor
    if sign is None:
        flat = out.reshape(-1)
        words = rng.bit_generator.random_raw((flat.size + 63) // 64)
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                             count=flat.size, bitorder="little")
        flat *= 1 - 2 * bits.view(np.int8)


# an extreme scale overflows the draws to inf, silently, as in numpy's
# own samplers
@np.errstate(over="ignore")
def sample(spec: Distribution, rng: np.random.Generator,
           sign: int | None = None, size: int | None = None,
           out: np.ndarray | None = None):
    """Draw from the law, or from sign*|X| when a sign is given.

    Normal, uniform, gamma and exponential draws scale numpy's standard
    draw in place, bit for bit numpy's ``normal``, ``uniform``, ``gamma``
    and ``exponential``.

    Args:
        spec: catalog law.
        rng: caller-owned numpy generator.
        sign: +1 or -1 to draw the signed absolute value; only legal for
            two-sided laws.
        size: number of draws or an array shape (None for a scalar).
        out: C-contiguous float64 array to draw into, as in numpy; its
            shape replaces ``size``, and it is returned.
    """
    if sign is not None and not spec.two_sided:
        raise ValueError("signed absolute values are defined only for "
                         "two-sided (symmetric) distributions")
    x = np.empty(1 if size is None else size) if out is None else out
    if isinstance(spec, LaplaceSym):
        _laplace_sample(spec.scale, rng, sign, x)
        sign = None  # drawn with the magnitudes
    elif isinstance(spec, NormalSym):
        rng.standard_normal(out=x)
        x *= spec.sigma
    elif isinstance(spec, UniformSym):
        if not 2.0 * spec.half_width < math.inf:
            raise MomentError(f"the support of {spec!r} overflows a float")
        rng.random(out=x)
        x *= 2.0 * spec.half_width
        x -= spec.half_width
    elif isinstance(spec, Gamma):
        rng.standard_gamma(spec.shape, out=x)
        x *= spec.scale
    elif isinstance(spec, Exponential):
        rng.standard_exponential(out=x)
        x *= spec.scale
    else:
        raise TypeError(f"unknown distribution spec: {spec!r}")
    if sign is not None:
        np.abs(x, out=x)
        if sign < 0:
            np.negative(x, out=x)
    return x[0] if out is None and size is None else x


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
    _require_two_sided(dist)
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
