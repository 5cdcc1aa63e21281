"""Netting-set characteristic functions, expected exposures, and
market-level aggregation."""

import copy
import itertools
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netexposure import (
    Bilateral,
    LaplaceSym,
    Link,
    Market,
    Multilateral,
    NettingSet,
    NormalSym,
    UniformSym,
    Exponential,
    Gamma,
    ccp_advantage,
    enumerate_orientations,
    eulerian_shortcut,
    exact_exposure,
    expected_bilateral_market,
    expected_exposure,
    expected_market,
    expected_multilateral_market,
    exposure_cf,
    mc_expected_exposure,
    netting_set_cf,
    netting_sets,
    parse_market,
)
from netexposure.charfn import _richardson_central
from netexposure.exposure import _finite
from netexposure.laws import MomentError
from netexposure.transforms import _abs_mean, hilbert_deriv_at_zero
from conftest import (
    complete_market,
    illustrative_market,
    path_market,
    triangle_directed,
    triangle_undirected,
    two_tier,
    two_vertex_market,
)
from test_golden import GOLDEN, render
from test_market import random_custom, shaped_markets


def expected_exposure_via_cf(f, tol: float = 1e-7) -> float:
    """Expectation extracted from the clipped position's own c.f. by
    Richardson finite differences: the four-step route, an independent
    cross-check of the derivative form."""
    phi_max = exposure_cf(f, tol=tol * 0.01)
    slope = _richardson_central(phi_max.fn, (0.4, 0.2, 0.1, 0.05, 0.025))
    return float((complex(slope) / 1j).real)


def hub_market(n_plus: int, n_minus: int, n_sym: int = 0) -> Market:
    """Star around 'o' with the requested claim/debt/undirected mix."""
    links = []
    leaves = []
    for i in range(n_plus):
        leaves.append(f"c{i}")
        links.append(Link(f"c{i}", "o", 1, True))   # leaf owes the hub
    for i in range(n_minus):
        leaves.append(f"d{i}")
        links.append(Link("o", f"d{i}", 1, True))   # hub owes the leaf
    for i in range(n_sym):
        leaves.append(f"s{i}")
        links.append(Link("o", f"s{i}", 1, False))
    return Market(("o", *leaves), 1, tuple(links))


def hub_set(m: Market) -> NettingSet:
    return netting_sets(m, Multilateral(1))["o"][0]


# ---------------------------------------------------------------------------
# Netting-set characteristic functions
# ---------------------------------------------------------------------------

def test_single_undirected_laplace_link():
    m = two_vertex_market(1)
    s = netting_sets(m, Bilateral())["v"][0]
    f = netting_set_cf(m, s, LaplaceSym(1.0))
    assert complex(f(1.0)) == pytest.approx(0.5)
    assert f.even_real


def test_balanced_laplace_pair_collapses():
    m = hub_market(1, 1)
    f = netting_set_cf(m, hub_set(m), LaplaceSym(1.0))
    ts = np.linspace(-5, 5, 21)
    assert np.max(np.abs(f(ts) - 1.0 / (1.0 + ts**2))) < 1e-14
    assert f.even_real


def test_balanced_uniform_pair():
    m = hub_market(1, 1)
    f = netting_set_cf(m, hub_set(m), UniformSym(1.0))
    for t in (0.5, 1.0, 3.0):
        want = (2.0 - 2.0 * math.cos(t)) / t**2
        assert complex(f(t)) == pytest.approx(want, abs=1e-14)
    assert complex(f(0.0)) == pytest.approx(1.0, abs=1e-14)
    assert f.even_real


def test_empty_set_constant_one():
    m = two_vertex_market(1)
    empty = NettingSet(owner="v", items=())
    with pytest.warns(UserWarning, match="empty"):
        f = netting_set_cf(m, empty, LaplaceSym(1.0))
    assert complex(f(2.0)) == pytest.approx(1.0)


def test_one_sided_market_dist_rejected():
    m = two_vertex_market(1)
    s = netting_sets(m, Bilateral())["v"][0]
    with pytest.raises(ValueError, match="two-sided"):
        netting_set_cf(m, s, Gamma(1.0, 2.0))


def test_structure_tags_propagate():
    m = hub_market(2, 1)
    f = netting_set_cf(m, hub_set(m), LaplaceSym(1.0))
    orders = {p.location.imag: p.order for p in f.rational.poles}
    assert orders == {-1.0: 2, 1.0: 1}
    g = netting_set_cf(hub_market(0, 0, 3),
                       hub_set(hub_market(0, 0, 3)), NormalSym(2.0))
    # three unit variances at the law's scale: sigma^2 * 3 = 12
    assert (g.gaussian_variance, g.scale) == (3.0, 2.0)


# ---------------------------------------------------------------------------
# Exposure characteristic function
# ---------------------------------------------------------------------------

def test_exposure_cf_single_laplace():
    m = two_vertex_market(1)
    s = netting_sets(m, Bilateral())["v"][0]
    f = exposure_cf(netting_set_cf(m, s, LaplaceSym(1.0)))
    for t in (0.5, 1.0, 2.0):
        want = 0.5 * (1 + 1 / (1 + t * t)) + 0.5j * t / (1 + t * t)
        assert complex(f(t)) == pytest.approx(want, abs=1e-12)
    assert complex(f(0.0)) == pytest.approx(1.0, abs=1e-12)


def test_exposure_cf_balanced_pair_closed_form():
    m = hub_market(1, 1)
    f = exposure_cf(netting_set_cf(m, hub_set(m), LaplaceSym(1.0)))
    for t in (0.5, 1.0, -2.0):
        want = (2j + t) / (2j + 2 * t)
        assert complex(f(t)) == pytest.approx(want, abs=1e-12)


def test_exposure_cf_of_degenerate_position():
    from netexposure.charfn import cf_product

    f = exposure_cf(cf_product([]))
    for t in (0.0, 1.0, 3.0):
        assert complex(f(t)) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# Expected exposure of single sets
# ---------------------------------------------------------------------------

def test_single_laplace_exposure_is_half():
    m = two_vertex_market(1)
    s = netting_sets(m, Bilateral())["v"][0]
    e = expected_exposure(m, s, LaplaceSym(1.0))
    assert e.exact == Fraction(1, 2)
    assert e.method == "closed-form"


def test_three_element_laplace_set():
    m = hub_market(0, 0, 3)
    e = expected_exposure(m, hub_set(m), LaplaceSym(1.0))
    assert e.exact == Fraction(15, 16)


def test_uniform_balanced_pair_is_one_sixth():
    m = hub_market(1, 1)
    e = expected_exposure(m, hub_set(m), UniformSym(1.0))
    assert e.exact == Fraction(1, 6)
    assert e.value == pytest.approx(1.0 / 6.0, abs=1e-7)
    assert e.method == "closed-form"


def test_all_debt_set_is_worthless():
    m = hub_market(0, 3)
    e = expected_exposure(m, hub_set(m), LaplaceSym(1.0))
    assert e.value == 0.0 and e.exact == 0


@pytest.mark.parametrize("dist", [Gamma(2.0, 1.0), Exponential(1.0)],
                         ids=repr)
@pytest.mark.parametrize("n_plus, n_minus, n_sym",
                         [(1, 0, 0), (3, 0, 0), (0, 1, 0), (0, 4, 0),
                          (0, 0, 1), (0, 0, 3), (1, 1, 0), (2, 1, 0),
                          (1, 2, 1), (0, 2, 2)])
def test_one_sided_laws_are_rejected_for_every_set(dist, n_plus, n_minus,
                                                   n_sym):
    # an all-debt set would be exactly 0 under any law, but a one-sided
    # law is no market position law at all
    m = hub_market(n_plus, n_minus, n_sym)
    with pytest.raises(ValueError, match="two-sided"):
        expected_exposure(m, hub_set(m), dist)


@pytest.mark.parametrize("sigma", [1.0, 0.3, 7.0, 12.512581759178156,
                                   1e-100, 1e100])
def test_one_sign_normal_sets_keep_their_closed_forms_to_the_bit(sigma):
    dist = NormalSym(sigma)
    for k in range(1, 41):
        markets = hub_market(k, 0), hub_market(0, k), hub_market(0, 0, k)
        claims, debts, undirected = (expected_exposure(m, hub_set(m), dist)
                                     for m in markets)
        want = 0.5 * math.sqrt(2.0 * (k * (sigma * sigma)) / math.pi)
        assert claims.value.hex() == (k * dist.abs_mean).hex()
        assert undirected.value.hex() == want.hex()
        assert debts.value.hex() == (0.0).hex()
        assert debts.exact == 0 and type(debts.exact) is Fraction
        for e in (claims, debts, undirected):
            assert (e.method, e.error) == ("closed-form", 0.0)
        # the c.f. route these sets took before gave the same bits:
        # 1/2 (claims - debts) E|X| + 1/2 dH(0) of the set's c.f.
        for m, e, plus in ((markets[0], claims, k),
                           (markets[2], undirected, 0)):
            slope = hilbert_deriv_at_zero(netting_set_cf(m, hub_set(m), dist))
            via_cf = 0.5 * plus * dist.abs_mean + 0.5 * slope
            assert e.value.hex() == via_cf.hex()


def test_all_claim_set_pays_full_mean():
    m = hub_market(3, 0)
    for dist, mean in ((LaplaceSym(1.0), 1.0),
                       (NormalSym(1.0), math.sqrt(2 / math.pi)),
                       (UniformSym(1.0), 0.5)):
        e = expected_exposure(m, hub_set(m), dist)
        assert e.value == pytest.approx(3 * mean, abs=1e-12)


def test_laplace_scale_enters_linearly():
    m = hub_market(1, 1)
    e1 = expected_exposure(m, hub_set(m), LaplaceSym(1.0))
    e2 = expected_exposure(m, hub_set(m), LaplaceSym(2.5))
    assert e2.value == pytest.approx(2.5 * e1.value, abs=1e-12)


def test_normal_balanced_pair_against_mc():
    m = hub_market(1, 1)
    e = expected_exposure(m, hub_set(m), NormalSym(1.0))
    mc = mc_expected_exposure(m, Multilateral(1), NormalSym(1.0),
                              400_000, 2024)[("o", hub_set(m).link_indices)]
    assert abs(e.value - mc.estimate) < 4 * mc.stderr


def test_unbalanced_mixed_sets_against_mc():
    for dist in (LaplaceSym(1.0), NormalSym(1.0)):
        for np_, nm in ((2, 1), (1, 2), (3, 1)):
            m = hub_market(np_, nm)
            e = expected_exposure(m, hub_set(m), dist)
            mc = mc_expected_exposure(
                m, Multilateral(1), dist, 400_000,
                911)[("o", hub_set(m).link_indices)]
            assert abs(e.value - mc.estimate) < 4 * mc.stderr, (dist, np_, nm)


def test_exposures_are_nonnegative():
    for np_, nm, ns in ((0, 4, 0), (1, 3, 0), (2, 2, 1), (0, 1, 2)):
        m = hub_market(np_, nm, ns)
        e = expected_exposure(m, hub_set(m), LaplaceSym(1.0))
        assert e.value >= 0.0


def test_adding_debt_never_increases_exposure():
    # stochastic dominance: one more liability keeps the net lower
    for dist in (LaplaceSym(1.0), NormalSym(1.0)):
        for np_, nm in ((1, 0), (1, 1), (2, 1), (3, 2)):
            lo = expected_exposure(hub_market(np_, nm + 1),
                                   hub_set(hub_market(np_, nm + 1)), dist)
            hi = expected_exposure(hub_market(np_, nm),
                                   hub_set(hub_market(np_, nm)), dist)
            assert lo.value <= hi.value + 1e-9


def test_debt_monotonicity_confirmed_by_mc():
    rng = np.random.default_rng(5150)
    for trial in range(6):
        np_ = int(rng.integers(1, 4))
        nm = int(rng.integers(0, 3))
        dist = LaplaceSym(1.0) if trial % 2 else NormalSym(1.0)
        base = hub_market(np_, nm)
        extended = hub_market(np_, nm + 1)
        e_base = expected_exposure(base, hub_set(base), dist)
        e_ext = expected_exposure(extended, hub_set(extended), dist)
        assert e_ext.value <= e_base.value + 1e-9
        mc_base = mc_expected_exposure(
            base, Multilateral(1), dist, 200_000,
            trial)[("o", hub_set(base).link_indices)]
        mc_ext = mc_expected_exposure(
            extended, Multilateral(1), dist, 200_000,
            trial)[("o", hub_set(extended).link_indices)]
        band = 4 * (mc_base.stderr + mc_ext.stderr)
        assert mc_ext.estimate <= mc_base.estimate + band
        assert abs(mc_base.estimate - e_base.value) < 4 * mc_base.stderr
        assert abs(mc_ext.estimate - e_ext.value) < 4 * mc_ext.stderr


def test_via_cf_route_agrees_with_derivative_route():
    for np_, nm, ns, dist in ((1, 1, 0, LaplaceSym(1.0)),
                              (2, 1, 0, LaplaceSym(1.0)),
                              (0, 0, 2, NormalSym(1.0)),
                              (2, 2, 0, NormalSym(1.0))):
        m = hub_market(np_, nm, ns)
        s = hub_set(m)
        direct = expected_exposure(m, s, dist).value
        via_cf = expected_exposure_via_cf(netting_set_cf(m, s, dist))
        assert via_cf == pytest.approx(direct, abs=1e-6), (np_, nm, ns)


# ---------------------------------------------------------------------------
# Balance shortcut
# ---------------------------------------------------------------------------

def test_shortcut_on_triangle_vertex():
    tri = triangle_directed()
    s = netting_sets(tri, Multilateral(1))["v1"][0]
    assert eulerian_shortcut(tri, s, LaplaceSym(1.0)) == pytest.approx(
        0.5, abs=1e-9)


def test_shortcut_on_undirected_pair():
    m = hub_market(0, 0, 2)
    assert eulerian_shortcut(m, hub_set(m), LaplaceSym(1.0)) \
        == pytest.approx(0.75, abs=1e-9)


def test_shortcut_not_applicable_unbalanced():
    m = hub_market(2, 1)
    assert eulerian_shortcut(m, hub_set(m), LaplaceSym(1.0)) is None


def test_shortcut_not_applicable_mixed_items():
    m = hub_market(1, 1, 1)
    assert eulerian_shortcut(m, hub_set(m), LaplaceSym(1.0)) is None


def general_formula_value(f, tol=1e-7) -> float:
    """1/2 E(Y) + 1/2 dH(0) with the mean taken by finite differences,
    independent of any balance assumption."""
    import dataclasses

    from netexposure import cf_mean, hilbert_deriv_at_zero

    blind = dataclasses.replace(f, mean=None, even_real=False,
                                side=None)
    mean = cf_mean(dataclasses.replace(blind, rational=None,
                                       gaussian_variance=None))
    return 0.5 * mean + 0.5 * hilbert_deriv_at_zero(f, tol)


def test_shortcut_agrees_with_general_route():
    for np_, nm, ns in ((1, 1, 0), (2, 2, 0), (0, 0, 3)):
        m = hub_market(np_, nm, ns)
        s = hub_set(m)
        f = netting_set_cf(m, s, LaplaceSym(1.0))
        short = eulerian_shortcut(m, s, LaplaceSym(1.0))
        assert short == pytest.approx(general_formula_value(f), abs=1e-8)
        # the four-step composition through the clipped c.f. is a fully
        # independent route, accurate to its finite-difference floor
        assert short == pytest.approx(expected_exposure_via_cf(f), abs=1e-6)


# ---------------------------------------------------------------------------
# Whole markets
# ---------------------------------------------------------------------------

def test_illustrative_market_exact_total():
    rep = expected_multilateral_market(illustrative_market(),
                                       LaplaceSym(1.0), ccp_class=1)
    assert rep.market_total_exact == Fraction(95, 16)
    assert rep.market_total == pytest.approx(95 / 16, abs=1e-12)
    sizes = sorted(len(e.links) for e in rep.per_netting_set)
    assert sizes == [1, 1, 1, 1, 1, 1, 1, 2, 2, 3]


def test_path_non_additivity():
    rep = expected_multilateral_market(path_market(), UniformSym(1.0),
                                       ccp_class=1)
    per = rep.per_participant
    assert per["u"] == 0.0
    assert per["w"] == pytest.approx(0.5, abs=1e-12)
    assert per["v"] == pytest.approx(1.0 / 6.0, abs=1e-7)
    # netting the two legs is strictly better than splitting them
    assert abs(per["v"] - (per["w"] + per["u"])) > 0.3


def test_two_tier_directed_bilateral_total():
    rep = expected_bilateral_market(two_tier(True), LaplaceSym(1.0))
    assert rep.market_total_exact == Fraction(5)
    assert len(rep.per_netting_set) == 10  # both perspectives of 5 pairs
    assert all(e.exact == Fraction(1, 2) for e in rep.per_netting_set)


def test_two_tier_undirected_totals():
    m = two_tier(False)
    bil = expected_bilateral_market(m, LaplaceSym(1.0))
    assert bil.market_total_exact == Fraction(15, 2)
    ccp = expected_multilateral_market(m, LaplaceSym(1.0), ccp_class=1)
    assert ccp.market_total_exact == Fraction(71, 8)
    assert ccp.components["multilateral"] == pytest.approx(3.875)
    assert ccp.components["bilateral_rest"] == pytest.approx(5.0)


def test_pair_view_counts_claims_once():
    rep = expected_bilateral_market(two_tier(True), LaplaceSym(1.0))
    assert len(rep.pair_view) == 5
    for value in rep.pair_view.values():
        assert value == pytest.approx(1.0)  # both perspectives, 1/2 each


def test_normal_bilateral_closed_form():
    for sigma in (0.5, 1.0, 2.0):
        for k in (1, 2, 5):
            m = two_vertex_market(k)
            rep = expected_bilateral_market(m, NormalSym(sigma))
            want = sigma * math.sqrt(k / (2 * math.pi))
            assert rep.per_participant["v"] == pytest.approx(want, abs=1e-7)


def test_normal_multilateral_closed_form():
    for sigma in (0.5, 2.0):
        for n in (3, 5, 10):
            m = complete_market(n, 1)
            rep = expected_multilateral_market(m, NormalSym(sigma),
                                               ccp_class=1)
            want = sigma * math.sqrt((n - 1) / (2 * math.pi))
            for v in m.participants:
                assert rep.per_participant[v] == pytest.approx(want,
                                                               abs=1e-7)


def test_report_additivity_invariants():
    rep = expected_multilateral_market(illustrative_market(),
                                       LaplaceSym(1.0), ccp_class=1)
    by_owner = {}
    for e in rep.per_netting_set:
        by_owner[e.owner] = by_owner.get(e.owner, 0.0) + e.value
    for v, total in rep.per_participant.items():
        assert total == pytest.approx(by_owner.get(v, 0.0), abs=1e-12)
    assert rep.market_total == pytest.approx(
        sum(rep.per_participant.values()), abs=1e-12)
    assert all(e.value >= 0 for e in rep.per_netting_set)


def test_triangle_orientation_totals():
    eulerian_totals = []
    other_totals = []
    from netexposure import is_eulerian

    for om in enumerate_orientations(triangle_undirected(), 1):
        total = expected_multilateral_market(
            om, LaplaceSym(1.0), ccp_class=1).market_total_exact
        (eulerian_totals if is_eulerian(om, 1) else other_totals).append(total)
    assert eulerian_totals == [Fraction(3, 2)] * 2
    assert other_totals == [Fraction(5, 2)] * 6


def test_orientation_averaging_small_graphs():
    # undirected expectation equals the mean over all orientations
    cases = [
        (triangle_undirected(), 1),
        (Market(("a", "b", "c", "d"), 1,
                (Link("a", "b", 1, False), Link("b", "c", 1, False),
                 Link("c", "d", 1, False), Link("d", "a", 1, False))), 1),
        (path_market_undirected(), 1),
    ]
    for m, cls in cases:
        undirected = expected_multilateral_market(
            m, LaplaceSym(1.0), ccp_class=cls).market_total
        oriented = [expected_multilateral_market(om, LaplaceSym(1.0),
                                                 ccp_class=cls).market_total
                    for om in enumerate_orientations(m, cls)]
        assert undirected == pytest.approx(np.mean(oriented), abs=1e-7)


def path_market_undirected() -> Market:
    return Market(("u", "v", "w"), 1,
                  (Link("u", "v", 1, False), Link("v", "w", 1, False)))


def test_eulerian_orientations_minimise_triangle_total():
    from netexposure import is_eulerian

    totals = {}
    for om in enumerate_orientations(triangle_undirected(), 1):
        totals[is_eulerian(om, 1)] = totals.get(is_eulerian(om, 1), [])
        totals[is_eulerian(om, 1)].append(
            expected_multilateral_market(om, LaplaceSym(1.0),
                                         ccp_class=1).market_total)
    assert max(totals[True]) < min(totals[False])


def test_expected_market_custom_convention():
    from netexposure import Custom

    m = two_vertex_market(2)
    conv = Custom(sets=(("v", (0, 1)), ("w", (0,)), ("w", (1,))))
    rep = expected_market(m, LaplaceSym(1.0), conv)
    # v nets both classes (3/4); w holds two single sets (1/2 each)
    assert rep.market_total_exact == Fraction(3, 4) + 2 * Fraction(1, 2)


# ---------------------------------------------------------------------------
# Signature cache and the E|Y| route
# ---------------------------------------------------------------------------

CONFTEST_MARKETS = (
    illustrative_market(), path_market(), triangle_directed(),
    triangle_undirected(), two_tier(True), two_tier(False),
    complete_market(4, 2), two_vertex_market(3),
)


def directed_complete_market(n: int, k: int) -> Market:
    """Complete digraph, each class oriented by its own rotation, so the
    sets mix claims and debts in many proportions."""
    parts = tuple(f"p{i}" for i in range(n))
    links = tuple(Link(parts[i], parts[j], c, True)
                  if (i + j * c) % 3 else Link(parts[j], parts[i], c, True)
                  for c in range(1, k + 1)
                  for i in range(n) for j in range(i + 1, n))
    return Market(parts, k, links)


def signature(s: NettingSet) -> tuple[int, int, int]:
    return s.signs.count(+1), s.signs.count(-1), s.signs.count(0)


@pytest.mark.parametrize("dist", [LaplaceSym(1.0), NormalSym(1.0),
                                  UniformSym(1.0)], ids=repr)
@pytest.mark.parametrize("convention", [Bilateral(), Multilateral(1)],
                         ids=repr)
def test_cached_report_equals_uncached_sets(dist, convention):
    for m in CONFTEST_MARKETS + (directed_complete_market(4, 2),):
        report = expected_market(m, dist, convention)
        sets = netting_sets(m, convention)
        uncached = tuple(expected_exposure(m, s, dist)
                         for v in m.participants for s in sets.get(v, []))
        assert report.per_netting_set == uncached
        exact = [e.exact for e in uncached]
        if all(x is not None for x in exact):
            assert report.market_total_exact == sum(exact, Fraction(0))


@pytest.mark.parametrize("dist", [LaplaceSym(1.0), LaplaceSym(0.1),
                                  UniformSym(1 / 3), UniformSym(2.5)],
                         ids=repr)
@pytest.mark.parametrize("convention", [Bilateral(), Multilateral(1)],
                         ids=repr)
def test_exact_total_equals_one_by_one_sum(convention, dist):
    # the total is summed once per signature, in integers over the least
    # common denominator, which non-dyadic scales make unequal; the sets'
    # own exact values added one at a time must give the same Fraction
    for m in CONFTEST_MARKETS + (complete_market(12, 3),):
        report = expected_market(m, dist, convention)
        if any(e.exact is None for e in report.per_netting_set):
            assert report.market_total_exact is None
            continue
        one_by_one = Fraction(0)
        for e in report.per_netting_set:
            one_by_one += e.exact
        assert report.market_total_exact == one_by_one
        assert report.market_total == pytest.approx(float(one_by_one),
                                                    rel=1e-12)


def set_by_set_report(m, dist, convention):
    """Every field of a market report, each set valued by its own
    ``expected_exposure`` call and added set by set in participant order."""
    rows, per_participant, pairs = [], {}, {}
    rest = "bilateral" if isinstance(convention, Bilateral) else \
        "bilateral_rest"
    # a pooled class lists both components, the pool first, on any layout
    components = {"multilateral": 0.0, "bilateral_rest": 0.0} \
        if isinstance(convention, Multilateral) else {}
    for v, sets in netting_sets(m, convention).items():
        per_participant[v] = 0.0
        for s in sets:
            e = expected_exposure(m, s, dist)
            rows.append(e)
            per_participant[v] += e.value
            prefix, _, peer = e.kind.partition(":")
            if prefix == "multilateral":
                components["multilateral"] = (
                    components.get("multilateral", 0.0) + e.value)
            elif prefix == "bilateral":
                components[rest] = components.get(rest, 0.0) + e.value
                pair = tuple(sorted((v, peer)))
                pairs[pair] = pairs.get(pair, 0.0) + e.value
    exact = None
    if rows and all(e.exact is not None for e in rows):
        exact = sum((e.exact for e in rows), Fraction(0))
    return (tuple(rows), sum(e.value for e in rows), exact, per_participant,
            components, pairs)


@settings(max_examples=120, deadline=None)
@given(shaped_markets(), st.sampled_from([LaplaceSym, NormalSym, UniformSym]),
       st.sampled_from([0.5, 1.0, 2.5]), st.randoms(use_true_random=False))
def test_census_report_equals_set_by_set_sums(m, law, scale, rng):
    dist = law(scale)
    conventions = [Bilateral(), random_custom(m, rng),
                   *map(Multilateral, range(1, m.n_classes + 1))]
    for convention in conventions:
        report = expected_market(m, dist, convention)
        totals = (report.market_total, report.market_total_exact,
                  report.per_participant, report.components,
                  report.pair_view)
        reference = set_by_set_report(m, dist, convention)
        # floats compared with ==: the same sums in the same order
        assert totals == reference[1:]
        assert list(report.components) == list(reference[4])
        assert report.per_netting_set == reference[0]
    for cls in range(1, m.n_classes + 1):
        got = ccp_advantage(m, dist, cls)
        _, with_ccp, with_exact, *_ = set_by_set_report(m, dist,
                                                        Multilateral(cls))
        _, without, without_exact, *_ = set_by_set_report(m, dist,
                                                          Bilateral())
        assert (got.with_ccp, got.without_ccp) == (with_ccp, without)
        if with_exact is not None:
            assert (got.tie, got.advantageous) == (
                with_exact == without_exact, with_exact < without_exact)
        else:
            tie = abs(with_ccp - without) <= 1e-11 * max(
                1.0, abs(with_ccp), abs(without))
            assert (got.tie, got.advantageous) == (
                tie, not tie and with_ccp < without)


def test_market_evaluations_value_each_signature_once(monkeypatch):
    # the work shape the benchmark's trace checks: one set evaluation per
    # distinct signature for the totals, and one per set once rows are read
    from netexposure import exposure

    calls = []
    original = exposure.expected_exposure

    def counting(m, s, *args, **kwargs):
        calls.append(s)
        return original(m, s, *args, **kwargs)

    def census(m, convention):
        return {signature(s) for sets in netting_sets(m, convention).values()
                for s in sets}

    monkeypatch.setattr(exposure, "expected_exposure", counting)
    m = complete_market(12, 3)
    ccp_advantage(m, LaplaceSym(1.0), 1)
    assert sorted(map(signature, calls)) == sorted(
        [*census(m, Multilateral(1)), *census(m, Bilateral())])
    m = directed_complete_market(6, 3)
    for convention in (Multilateral(1), Bilateral()):
        calls.clear()
        report = expected_market(m, NormalSym(1.0), convention)
        assert sorted(map(signature, calls)) == sorted(census(m, convention))
        rows = report.per_netting_set
        sets = [s for v in m.participants
                for s in netting_sets(m, convention)[v]]
        assert sorted(calls) == sorted(sets)  # each set exactly once
        assert [e.links for e in rows] == [s.link_indices for s in sets]
        calls.clear()
        assert report.per_netting_set is rows and calls == []


def test_report_rows_survive_a_copy(monkeypatch):
    # a market's rows are built on first read, one call per set, and kept:
    # a _replace copy shares them whichever is read first, reading rows
    # leaves per_netting_set whole, and pickle and deepcopy carry them
    from netexposure import exposure

    calls = []
    original = exposure.expected_exposure

    def counting(m, s, *args, **kwargs):
        calls.append(s)
        return original(m, s, *args, **kwargs)

    monkeypatch.setattr(exposure, "expected_exposure", counting)
    m = directed_complete_market(6, 3)
    sets = [s for v, owned in netting_sets(m, Multilateral(1)).items()
            for s in owned]

    def evaluate():
        return expected_market(m, NormalSym(1.0), Multilateral(1))

    want = evaluate().per_netting_set
    assert [e.links for e in want] == [s.link_indices for s in sets]
    for first in range(2):
        calls.clear()
        r = evaluate()
        pair = [r, r._replace(convention="x")]
        assert len(calls) < len(sets)  # the census only: rows stay lazy
        assert pair[first].per_netting_set == want
        assert pair[1 - first].per_netting_set == want
        assert sorted(calls) == sorted(sets)  # each set exactly once
    r = evaluate()
    assert tuple(r.rows) == want and r.per_netting_set == want
    for r in (evaluate(), evaluate()._replace(convention="x")):
        pickled = pickle.loads(pickle.dumps(r))
        copied = copy.deepcopy(r)
        assert pickled.per_netting_set == copied.per_netting_set == want
        assert tuple(pickled.rows) == tuple(copied.rows) == want
        assert pickled[2:] == copied[2:] == r[2:]
        assert r.per_netting_set == want


@pytest.mark.parametrize("others", [0, 2])
@pytest.mark.parametrize("slot", ["plus", "minus", "sym"])
@pytest.mark.parametrize("dist", [LaplaceSym(1.0), UniformSym(1.0),
                                  NormalSym(1.0)], ids=repr)
def test_exact_exposure_names_a_negative_count(dist, slot, others):
    counts = {"plus": others, "minus": others, "sym": others, slot: -1}
    with pytest.raises(ValueError, match=f"negative {slot} count: -1"):
        exact_exposure(dist, **counts)


UNIFORM_EXACT = {(1, 1): Fraction(1, 6), (1, 2): Fraction(1, 24),
                 (2, 1): Fraction(13, 24), (1, 3): Fraction(1, 120),
                 (2, 2): Fraction(7, 30), (3, 1): Fraction(121, 120)}


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
def test_uniform_sets_match_exact_rationals(tol):
    for (np_, nm), exact in UNIFORM_EXACT.items():
        m = hub_market(np_, nm)
        s = hub_set(m)
        e = expected_exposure(m, s, UniformSym(1.0), tol)
        assert e.exact == exact and e.method == "closed-form", (np_, nm)
        # the general two-term formula on the set's c.f. agrees within
        # its own error bound
        deriv, error = _abs_mean(netting_set_cf(m, s, UniformSym(1.0)).fn,
                                 tol)
        value = 0.5 * (np_ - nm) * UniformSym(1.0).abs_mean + 0.5 * deriv
        err = 0.5 * error
        assert abs(value - exact) <= min(1e-9, err), (np_, nm)
        assert 0 < err <= 0.5 * tol


def residue_tier_slope(f) -> float:
    """d/dw of the residue-calculus transform at 0, by Richardson
    extrapolation of central differences."""
    from netexposure import hilbert_rational

    table = [(hilbert_rational(f, h) - hilbert_rational(f, -h)).real / (2 * h)
             for h in (1e-2, 5e-3, 2.5e-3)]
    r1, r2 = (4 * table[1] - table[0]) / 3, (4 * table[2] - table[1]) / 3
    return (16 * r2 - r1) / 15


def test_laplace_sets_match_residue_tier():
    for np_ in range(4):
        for nm in range(4):
            for ns in range(3):
                if np_ + nm + ns == 0:
                    continue
                m = hub_market(np_, nm, ns)
                s = hub_set(m)
                e = expected_exposure(m, s, LaplaceSym(1.0), 1e-9)
                assert e.method == "closed-form" and e.error == 0.0
                assert e.value == float(e.exact)
                f = netting_set_cf(m, s, LaplaceSym(1.0))
                want = 0.5 * (np_ - nm) + 0.5 * residue_tier_slope(f)
                assert e.value == pytest.approx(want, abs=1e-9), (np_, nm, ns)
                assert abs(e.value - want) <= e.error + 1e-12


# (claims, debts, undirected) with a = claims + undirected <= 30 and
# b = debts + undirected <= 30
signatures = st.integers(0, 30).flatmap(lambda ns: st.tuples(
    st.integers(0, 30 - ns), st.integers(0, 30 - ns), st.just(ns))).filter(
    lambda sig: sum(sig) > 0)


@settings(max_examples=200, deadline=None)
@given(sig=signatures, law=st.sampled_from([LaplaceSym(1.0),
                                            UniformSym(1.0)]))
def test_exact_exposure_matches_the_transform_routes(sig, law):
    np_, nm, ns = sig
    m = hub_market(np_, nm, ns)
    s = hub_set(m)
    exact = exact_exposure(law, np_, nm, ns)
    assert expected_exposure(m, s, law).exact == exact
    f = netting_set_cf(m, s, law)
    if isinstance(law, LaplaceSym) and max(np_, nm) + ns <= 15:
        # the residue-tier slope is a Richardson difference whose
        # truncation error grows with the pole order (past 1e-9 at 16)
        deriv = residue_tier_slope(f)
    else:
        deriv = hilbert_deriv_at_zero(f, 1e-9)
    want = 0.5 * (np_ - nm) * law.abs_mean + 0.5 * deriv
    assert abs(float(exact) - want) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(b=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
@example(b=0.1)
@example(b=1 / 3)
@example(b=5e-324)
@example(b=1e300)
@example(b=1.7e308)
def test_exact_exposure_is_the_unit_value_times_the_scale(b):
    # the scale's integer ratio enters numerator and denominator directly;
    # at scale 1.0 that route and a product with Fraction(b) agree trivially
    for law in (LaplaceSym, UniformSym):
        for sig in itertools.product(range(13), repeat=3):
            if sum(sig) <= 12:
                assert exact_exposure(law(b), *sig) == \
                    exact_exposure(law(1.0), *sig) * Fraction(b), (law, sig)


def test_finite_rejects_exactly_the_values_above_the_float_maximum():
    top = Fraction(sys.float_info.max)
    assert _finite(top) == sys.float_info.max
    assert _finite(-top) == -sys.float_info.max
    # top + 1 and top + 2**969 round down to the maximum, yet are above it
    for x in (top + 1, top + 2 ** 969, 2 * top, -(top + 1), math.inf,
              -math.inf, math.nan):
        with pytest.raises(MomentError):
            _finite(x)


@pytest.mark.parametrize("dist", [LaplaceSym(1.0), UniformSym(1.0)],
                         ids=repr)
def test_exact_exposure_against_mc(dist):
    for sig in ((2, 1, 1), (1, 2, 2), (3, 0, 2), (0, 2, 3), (4, 2, 0)):
        m = hub_market(*sig)
        mc = mc_expected_exposure(m, Multilateral(1), dist, 400_000,
                                  911)[("o", hub_set(m).link_indices)]
        exact = float(exact_exposure(dist, *sig))
        assert abs(exact - mc.estimate) < 4 * mc.stderr, sig


def test_one_derivative_per_distinct_signature(monkeypatch):
    # E|Y| of a normal set that is neither exact nor of one sign comes from
    # the cosine series, once per distinct signature up to mirroring (a
    # set's claims and debts swapped); no set takes the slope of a
    # transform
    import netexposure.exposure as exposure
    import netexposure.transforms as transforms

    calls = []
    for module, name in ((exposure, "hilbert_deriv_at_zero"),
                         (transforms, "_normal_abs_mean")):
        def counting(*args, _name=name, _original=getattr(module, name),
                     **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    m = directed_complete_market(6, 3)
    for convention in (Bilateral(), Multilateral(1)):
        calls.clear()
        report = expected_market(m, NormalSym(1.0), convention)
        sets = [s for v in m.participants
                for s in netting_sets(m, convention).get(v, [])]
        served = [signature(s) for s, e in zip(sets, report.per_netting_set)
                  if e.method != "closed-form"]
        mirrored = {(min(a, b), max(a, b), c) for a, b, c in served}
        assert calls == ["_normal_abs_mean"] * len(mirrored)
        assert 0 < len(set(served)) < len(served)
        # every Laplace and uniform set is exact: no derivative at all
        for dist in (UniformSym(1.0), LaplaceSym(1.0)):
            calls.clear()
            report = expected_market(m, dist, convention)
            assert calls == []
            assert all(e.method == "closed-form" and e.exact is not None
                       for e in report.per_netting_set)


def test_mirrored_signatures_share_one_series(monkeypatch):
    # E|Y| of (a, b, c) has the bits of (b, a, c), so one market
    # evaluation runs the series once for both; the reports keep their bytes
    import netexposure.transforms as transforms

    calls = []
    original = transforms._normal_abs_mean

    def counting(a, b, c, tol):
        calls.append((a, b, c))
        return original(a, b, c, tol)

    monkeypatch.setattr(transforms, "_normal_abs_mean", counting)
    mf = parse_market(GOLDEN / "normal-5.json")
    for convention, name, series in (
            (Bilateral(), "bilateral", {(1, 2, 0)}),
            (Multilateral(1), "multilateral", {(1, 3, 0), (1, 1, 0),
                                               (2, 2, 0)})):
        calls.clear()
        report = expected_market(mf.market, mf.dist, convention)
        sets = [s for v in mf.market.participants
                for s in netting_sets(mf.market, convention).get(v, [])]
        served = {signature(s) for s, e in zip(sets, report.per_netting_set)
                  if e.method != "closed-form"}
        assert {(b, a, c) for a, b, c in served} == served  # both ways
        assert len(calls) == len(series)
        assert {(min(a, b), max(a, b), c) for a, b, c in calls} == series
        golden = GOLDEN / f"normal-5.analyze-{name}-json.out"
        assert render("normal-5", f"analyze-{name}-json") == \
            golden.read_text(encoding="utf-8")


def test_market_evaluations_build_no_characteristic_function(monkeypatch):
    # every market set is valued from its signature and the law alone
    from netexposure import Custom, advantage, charfn, exposure, transforms

    def forbidden(*args, **kwargs):
        raise AssertionError("a market evaluation reached a c.f.")

    for module in (advantage, charfn, exposure, transforms):
        for name in ("netting_set_cf", "charfn_of", "cf_product",
                     "pos_abs_cf", "hilbert_deriv_at_zero"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    hub = hub_market(2, 1, 2)  # links 0, 1 claims; 2 debt; 3, 4 undirected
    custom = Custom(sets=(("o", (0, 1)), ("o", (2, 3)), ("o", (4,)),
                          ("c0", (0,)), ("c1", (1,)), ("d0", (2,)),
                          ("s0", (3,)), ("s1", (4,))))
    cases = [(m, convention) for m in CONFTEST_MARKETS
             + (directed_complete_market(5, 2),)
             for convention in (Bilateral(), *map(Multilateral, range(
                 1, m.n_classes + 1)))] + [(hub, custom)]
    for dist in (LaplaceSym(1.0), UniformSym(1.0), NormalSym(1.0)):
        values = [e for m, convention in cases
                  for e in expected_market(m, dist, convention)
                  .per_netting_set]
        assert values
    # the normal sets included claims only and undirected only
    assert {(e.method, e.exact) for e in values} >= {("closed-form", None),
                                                     ("numeric", None)}


@pytest.mark.parametrize("dist", [LaplaceSym(1.0), LaplaceSym(0.3),
                                  UniformSym(1.0), UniformSym(2.5)],
                         ids=repr)
@pytest.mark.parametrize("n_plus, n_minus, n_sym",
                         [(1, 1, 0), (2, 2, 0), (3, 3, 0), (0, 0, 1),
                          (0, 0, 4)])
def test_shortcut_is_the_exact_value_on_laplace_and_uniform_sets(
        dist, n_plus, n_minus, n_sym):
    m = hub_market(n_plus, n_minus, n_sym)
    short = eulerian_shortcut(m, hub_set(m), dist)
    exact = float(exact_exposure(dist, n_plus, n_minus, n_sym))
    assert short.hex() == exact.hex()


def test_empty_set_warns_and_is_worth_exactly_zero():
    with pytest.warns(UserWarning, match="empty netting set for 'v'"):
        e = expected_exposure(path_market(), NettingSet("v", (), "custom"),
                              LaplaceSym(1.0))
    assert (e.value, e.method, e.exact) == (0.0, "closed-form", Fraction(0))


@pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan], ids=repr)
def test_normal_market_names_a_tol_that_is_not_positive(tol):
    # its E|Y| series divides by tol and takes its log
    with pytest.raises(ValueError, match="tol must be > 0"):
        expected_market(triangle_directed(), NormalSym(), Multilateral(1),
                        tol)


@pytest.mark.parametrize("tol", [0.0, -1e-7, math.nan], ids=repr)
def test_laplace_market_never_reads_tol(tol):
    m, convention = triangle_directed(), Multilateral(1)
    got, want = (expected_market(m, LaplaceSym(), convention, t)
                 for t in (tol, 1e-9))
    assert got.per_netting_set == want.per_netting_set
    assert got.market_total == want.market_total
