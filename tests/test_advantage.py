"""Central-clearing advantageousness: exact rationals, thresholds, the
minimal-participants table, and network-level comparisons."""

import math
from fractions import Fraction

import pytest

from netexposure import (
    LaplaceSym,
    Link,
    Market,
    NormalSym,
    UniformSym,
    ccp_advantage,
    complete_graph_advantage,
    laplace_expected,
    min_participants_table,
    normal_complete_threshold,
)
from netexposure.charfn import cf_product, charfn_of
from netexposure.exposure import exact_exposure
from netexposure.transforms import hilbert_deriv_at_zero
from conftest import complete_market, triangle_directed, two_tier


# ---------------------------------------------------------------------------
# Exact pool expectations
# ---------------------------------------------------------------------------

def test_laplace_expected_small_values():
    assert laplace_expected(0) == 0
    assert laplace_expected(1) == Fraction(1, 2)
    assert laplace_expected(2) == Fraction(3, 4)
    assert laplace_expected(3) == Fraction(15, 16)


def test_gamma_function_identity_up_to_twenty():
    for m in range(1, 21):
        binomial = float(laplace_expected(m))
        gamma_form = math.exp(math.lgamma(0.5 + m) - math.lgamma(m)) \
            / math.sqrt(math.pi)
        assert abs(gamma_form - binomial) <= 1e-12 * binomial


def test_gamma_function_identity_over_table_pool_sizes():
    # every pool size the full table (k_max = 30, N up to 118) evaluates
    assert min_participants_table(LaplaceSym(1.0), 30)[-1] == 118
    for m in range(1, 118):
        binomial = float(laplace_expected(m))
        gamma_form = math.exp(math.lgamma(0.5 + m) - math.lgamma(m)) \
            / math.sqrt(math.pi)
        assert abs(gamma_form - binomial) <= 1e-12 * binomial, m


def test_pool_values_increasing_and_concave():
    values = [laplace_expected(m) for m in range(0, 31)]
    diffs = [b - a for a, b in zip(values, values[1:])]
    assert all(b > a for a, b in zip(values[1:], values[2:]))
    assert all(d2 < d1 for d1, d2 in zip(diffs[1:], diffs[2:]))


def test_laplace_expected_rejects_negative():
    with pytest.raises(ValueError):
        laplace_expected(-1)


# ---------------------------------------------------------------------------
# Complete-graph closed forms
# ---------------------------------------------------------------------------

def test_normal_threshold_examples():
    assert normal_complete_threshold(7, 2)       # 49/24 > 2
    assert not normal_complete_threshold(6, 2)   # 36/20 = 1.8 < 2
    for n in range(3, 41):
        assert normal_complete_threshold(n, 1)   # N^2/(4(N-1)) > 1


def test_normal_threshold_requires_three_participants():
    with pytest.raises(ValueError):
        normal_complete_threshold(2, 1)


def test_laplace_advantage_table_boundaries():
    assert complete_graph_advantage(6, 2, LaplaceSym(1.0))
    assert not complete_graph_advantage(5, 2, LaplaceSym(1.0))
    assert complete_graph_advantage(18, 5, LaplaceSym(1.0))
    assert not complete_graph_advantage(17, 5, LaplaceSym(1.0))


def test_normal_route_matches_generic_threshold():
    for n in range(3, 41):
        for k in range(1, 11):
            assert complete_graph_advantage(n, k, NormalSym(1.0)) \
                == normal_complete_threshold(n, k)


def test_generic_pool_route_matches_closed_forms():
    def pool(dist, m):
        f = cf_product([charfn_of(dist)] * m)
        return 0.5 * hilbert_deriv_at_zero(f, 1e-9)

    for m in (1, 2, 5, 8):
        assert pool(LaplaceSym(1.0), m) == pytest.approx(
            float(exact_exposure(LaplaceSym(1.0), 0, 0, m)), abs=1e-9)
        assert pool(UniformSym(1.0), m) == pytest.approx(
            float(exact_exposure(UniformSym(1.0), 0, 0, m)), abs=1e-9)
        assert pool(NormalSym(1.0), m) == pytest.approx(
            0.5 * math.sqrt(2 * m / math.pi), abs=1e-12)


def test_scale_invariance_of_the_decision():
    for n, k in ((5, 2), (6, 2), (10, 3)):
        assert complete_graph_advantage(n, k, LaplaceSym(1.0)) \
            == complete_graph_advantage(n, k, LaplaceSym(3.0))
        assert complete_graph_advantage(n, k, NormalSym(1.0)) \
            == complete_graph_advantage(n, k, NormalSym(0.2))


@pytest.mark.parametrize("half_width", [5e-324, 1e-300, 1e-3, 1e3, 1e12])
def test_uniform_table_does_not_depend_on_the_half_width(half_width):
    # E_M is proportional to the half width, and an absolute tol far above
    # or below it must not decide the comparison
    assert min_participants_table(UniformSym(half_width), 3) \
        == min_participants_table(UniformSym(1.0), 3) == [2, 9, 12]
    assert complete_graph_advantage(12, 3, UniformSym(half_width)) \
        == complete_graph_advantage(12, 3, UniformSym(1.0))


def test_advantage_requires_valid_sizes():
    with pytest.raises(ValueError):
        complete_graph_advantage(2, 1, LaplaceSym(1.0))
    with pytest.raises(ValueError):
        complete_graph_advantage(5, 0, LaplaceSym(1.0))


# ---------------------------------------------------------------------------
# Minimal-participants table
# ---------------------------------------------------------------------------

def test_laplace_table_reproduces_reference_row():
    table = min_participants_table(LaplaceSym(1.0), 10)
    assert table == [2, 6, 10, 14, 18, 22, 26, 30, 34, 38]


def test_normal_table_first_cells():
    table = min_participants_table(NormalSym(1.0), 5)
    assert table[0] == 2           # single class: the boundary tie
    assert table[1] == 7           # smallest N with N^2 > 8(N-1)
    assert table == [2, 7, 11, 15, 19]


FULL_TABLE_TAIL = list(range(14, 119, 4))  # k = 4..30 for Laplace


@pytest.mark.parametrize("dist,head,shift", [
    (LaplaceSym(1.0), [2, 6, 10], 0),
    (LaplaceSym(2.5), [2, 6, 10], 0),
    (UniformSym(1.0), [2, 9, 12], 2),
    (UniformSym(0.3), [2, 9, 12], 2),
    (NormalSym(1.0), [2, 7, 11], 1),
])
def test_full_tables_at_kmax_30(dist, head, shift):
    # every row pinned whole: N = 4k + 2 (Laplace), 4k + 4 (uniform) and
    # 4k + 3 (normal) from k = 4 on
    expected = head + [n + shift for n in FULL_TABLE_TAIL]
    assert min_participants_table(dist, 30) == expected


def test_table_monotone_nondecreasing():
    for dist in (LaplaceSym(1.0), NormalSym(1.0)):
        table = min_participants_table(dist, 12)
        assert all(b >= a for a, b in zip(table, table[1:]))


def test_table_kmax_cap():
    with pytest.raises(ValueError):
        min_participants_table(LaplaceSym(1.0), 31)
    with pytest.raises(ValueError):
        min_participants_table(LaplaceSym(1.0), 0)


# ---------------------------------------------------------------------------
# Arbitrary networks
# ---------------------------------------------------------------------------

def test_two_tier_ccp_not_advantageous():
    report = ccp_advantage(two_tier(False), LaplaceSym(1.0), 1)
    assert report.without_ccp == pytest.approx(7.5)
    assert report.with_ccp == pytest.approx(8.875)
    assert not report.advantageous
    assert not report.tie


def test_triangle_single_class_ccp_helps():
    # single-link bilateral portfolios have no offsetting: every creditor
    # carries the full mean, so pooling the balanced circle wins
    report = ccp_advantage(triangle_directed(), LaplaceSym(1.0), 1)
    assert report.without_ccp == pytest.approx(3.0)
    assert report.with_ccp == pytest.approx(1.5)
    assert report.advantageous and not report.tie


def test_single_pair_single_class_is_a_tie():
    m = Market(("v", "w"), 1, (Link("v", "w", 1, False),))
    report = ccp_advantage(m, LaplaceSym(1.0), 1)
    assert report.tie
    assert not report.advantageous
    assert report.with_ccp == report.without_ccp == pytest.approx(1.0)


def test_network_route_agrees_with_complete_graph_closed_form():
    for n in (3, 4, 5, 6):
        for k in (1, 2, 3):
            market = complete_market(n, k)
            network = ccp_advantage(market, LaplaceSym(1.0), 1)
            closed = complete_graph_advantage(n, k, LaplaceSym(1.0))
            assert network.advantageous == closed, (n, k)


def test_large_normal_market_advantageous():
    # N=20, K=2: threshold 400/76 > 2
    assert complete_graph_advantage(20, 2, NormalSym(1.0))
    market = complete_market(20, 2)
    report = ccp_advantage(market, NormalSym(1.0), 1)
    assert report.advantageous
