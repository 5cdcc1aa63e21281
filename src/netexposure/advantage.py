"""Does central clearing of one derivative class reduce expected exposure?

Clearing class k through a CCP replaces the bilateral pair portfolios by
per-participant pooled positions in that class. It helps if and only if
the pooled total plus the bilateral rest is strictly below the all-
bilateral total. For arbitrary networks both sides are full sums over the
exposure engine; complete graphs admit a representative-participant
comparison

    E_{N-1}  <  (N-1) * (E_K - E_{K-1})

where E_M is the expected exposure of a balanced M-link pool. For the
Laplace and uniform laws E_M is exactly rational (``exact_exposure``),
which makes the minimal-participants table bit-reproducible; the normal
law reduces to the integer test 4K(N-1) < N^2.
"""

from fractions import Fraction
from functools import cache, partial
from typing import NamedTuple

from .exposure import (
    exact_exposure,
    expected_bilateral_market,
    expected_multilateral_market,
)
from .laws import DEFAULT_TOL, Distribution, LaplaceSym, NormalSym
from .market import Market

__all__ = [
    "laplace_expected",
    "normal_complete_threshold",
    "complete_graph_advantage",
    "min_participants_table",
    "ccp_advantage",
    "AdvantageReport",
]

_TIE_REL_TOL = 1e-11
_TABLE_N_CAP = 100_000
_TABLE_K_CAP = 30


def __getattr__(name: str):
    """hilbert_deriv_at_zero, bound on first access (PEP 562) as
    ``transforms`` loads numpy; uncalled, bench/spans.py wraps it."""
    if name != "hilbert_deriv_at_zero":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import transforms
    return globals().setdefault(name, transforms.hilbert_deriv_at_zero)


def laplace_expected(m: int) -> Fraction:
    """Exact expected exposure of a balanced pool of m unit-Laplace
    positions: (m / 4^m) * C(2m, m).

    Equals Gamma(1/2 + m) / (sqrt(pi) * Gamma(m)) (checked in the tests).
    m = 0 is the empty pool with exposure 0.
    """
    if m < 0:
        raise ValueError("pool size must be nonnegative")
    return exact_exposure(LaplaceSym(), 0, 0, m)


def normal_complete_threshold(n: int, k: int) -> bool:
    """Exact integer form of the complete-graph criterion for normal
    positions: advantageous iff K < N^2 / (4(N-1))."""
    return complete_graph_advantage(n, k, NormalSym())


def _clearing_gain(n: int, k: int, dist: Distribution,
                   pool) -> Fraction | int:
    """(N-1) (E_K - E_{K-1}) - E_{N-1}, or N^2 - 4K(N-1) for the normal
    law, as an exact number: positive when clearing helps, 0 on a tie.
    ``pool(M)`` is E_M."""
    if isinstance(dist, NormalSym):
        return n * n - 4 * k * (n - 1)
    pooled, e_k, e_k1 = map(pool, (n - 1, k, k - 1))
    if pooled is None:
        raise ValueError(f"the comparison needs a two-sided law, got {dist!r}")
    return (n - 1) * (e_k - e_k1) - pooled


def complete_graph_advantage(n: int, k: int, dist: Distribution) -> bool:
    """Strict advantageousness of clearing one of k classes on the
    complete graph with n participants."""
    if n < 3:
        raise ValueError("need at least 3 participants")
    if k < 1:
        raise ValueError("need at least one derivative class")
    pool = partial(exact_exposure, dist, 0, 0)
    return _clearing_gain(n, k, dist, pool) > 0


def min_participants_table(dist: Distribution, k_max: int) -> list[int]:
    """Smallest market size making central clearing worthwhile, per class
    count 1..k_max.

    Ties count as worthwhile: with a single class the two-participant
    market clears equally well either way, and the table reports that
    boundary as 2. Entries are monotone nondecreasing in the class count.
    """
    if not 1 <= k_max <= _TABLE_K_CAP:
        raise ValueError(f"k_max must be in 1..{_TABLE_K_CAP}")
    table = []
    n = 2
    pool = cache(partial(exact_exposure, dist, 0, 0))  # each E_M once
    for k in range(1, k_max + 1):
        # monotone in k, so resume the scan where the last class stopped
        while _clearing_gain(n, k, dist, pool) < 0:
            n += 1
            if n > _TABLE_N_CAP:
                raise RuntimeError("no advantageous market size found "
                                   f"below {_TABLE_N_CAP} for k={k}")
        table.append(n)
    return table


class AdvantageReport(NamedTuple):
    cls: int
    with_ccp: float
    without_ccp: float
    advantageous: bool
    tie: bool


def ccp_advantage(m: Market, dist: Distribution, cls: int,
                  tol: float = DEFAULT_TOL) -> AdvantageReport:
    """Compare expected market exposure with and without a CCP in one
    class; strict inequality decides, and ties are flagged rather than
    counted as an advantage."""
    with_report = expected_multilateral_market(m, dist, cls, tol)
    without_report = expected_bilateral_market(m, dist, tol)
    with_ccp = with_report.market_total
    without = without_report.market_total
    if (with_report.market_total_exact is not None
            and without_report.market_total_exact is not None):
        tie = with_report.market_total_exact == without_report.market_total_exact
        advantageous = with_report.market_total_exact < without_report.market_total_exact
    else:
        scale = max(1.0, abs(with_ccp), abs(without))
        tie = abs(with_ccp - without) <= _TIE_REL_TOL * scale
        advantageous = (not tie) and with_ccp < without
    return AdvantageReport(cls=cls, with_ccp=with_ccp, without_ccp=without,
                           advantageous=advantageous, tie=tie)
