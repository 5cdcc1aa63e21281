"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every tolerance is pinned here; the Monte Carlo checks run at a million
samples with fixed seeds and a four-standard-error band.
"""

import dataclasses
import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from netexposure import (
    Bilateral,
    Gamma,
    LaplaceSym,
    Link,
    Market,
    Multilateral,
    NormalSym,
    UniformSym,
    ccp_advantage,
    cf_mean,
    cf_product,
    charfn_of,
    complete_graph_advantage,
    enumerate_orientations,
    eulerian_shortcut,
    expected_bilateral_market,
    expected_exposure,
    expected_multilateral_market,
    hilbert_deriv_at_zero,
    hilbert_eval,
    is_eulerian,
    laplace_expected,
    mc_expected_exposure,
    mc_market_totals,
    min_participants_table,
    neg_abs_cf,
    netting_set_cf,
    netting_sets,
    normal_complete_threshold,
    pos_abs_cf,
)
from conftest import (
    complete_market,
    illustrative_market,
    path_market,
    triangle_directed,
    triangle_undirected,
    two_tier,
    two_vertex_market,
)

MC_SAMPLES = 1_000_000
MC_SEED = 20240811


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {text}")
        raise
    print(f"criterion {num:2d}: PASS - {text}")


def general_route_value(f) -> float:
    """Half the finite-difference mean plus half the transform slope:
    the generic expectation path with no rational shortcut."""
    blind = dataclasses.replace(f, mean=None, even_real=False, side=None,
                                rational=f.rational,
                                gaussian_variance=f.gaussian_variance)
    mean = cf_mean(dataclasses.replace(blind, rational=None,
                                       gaussian_variance=None))
    return 0.5 * mean + 0.5 * hilbert_deriv_at_zero(f)


def test_criterion_1_illustrative_market_regression():
    with criterion(1, "illustrative market totals 95/16 exactly "
                      "(rational path) and to 1e-7 (numeric path)"):
        m = illustrative_market()
        report = expected_multilateral_market(m, LaplaceSym(1.0),
                                              ccp_class=1)
        assert report.market_total_exact == Fraction(95, 16)
        assert report.market_total == 7 * 0.5 + 2 * 0.75 + 15 / 16
        numeric_total = 0.0
        for sets in netting_sets(m, Multilateral(1)).values():
            for s in sets:
                numeric_total += general_route_value(
                    netting_set_cf(m, s, LaplaceSym(1.0)))
        assert numeric_total == pytest.approx(95 / 16, abs=1e-7)


def test_criterion_2_path_non_additivity():
    with criterion(2, "uniform path: 1/6 middle, 1/2 end, 0 start, and "
                      "1/6 != 1/2 + 0"):
        report = expected_multilateral_market(path_market(),
                                              UniformSym(1.0), ccp_class=1)
        per = report.per_participant
        assert per["u"] == 0.0
        assert per["w"] == pytest.approx(0.5, abs=1e-12)
        assert per["v"] == pytest.approx(1.0 / 6.0, abs=1e-7)
        assert abs(per["v"] - (per["w"] + per["u"])) > 1e-3


def test_criterion_3_two_tier_markets():
    with criterion(3, "two-tier: directed total 5, undirected 7.5, "
                      "with CCP 8.875, CCP not advantageous"):
        directed = expected_bilateral_market(two_tier(True),
                                             LaplaceSym(1.0))
        assert directed.market_total_exact == Fraction(5)
        undirected = two_tier(False)
        bil = expected_bilateral_market(undirected, LaplaceSym(1.0))
        assert bil.market_total == pytest.approx(7.5, abs=1e-12)
        ccp = expected_multilateral_market(undirected, LaplaceSym(1.0),
                                           ccp_class=1)
        assert ccp.market_total == pytest.approx(8.875, abs=1e-12)
        verdict = ccp_advantage(undirected, LaplaceSym(1.0), 1)
        assert not verdict.advantageous


def test_criterion_4_triangle_orientations():
    with criterion(4, "triangle: balanced orientations 3/2, the six "
                      "others 5/2, undirected 9/4 = orientation mean"):
        totals = []
        for om in enumerate_orientations(triangle_undirected(), 1):
            total = expected_multilateral_market(
                om, LaplaceSym(1.0), ccp_class=1).market_total
            totals.append(total)
            want = 1.5 if is_eulerian(om, 1) else 2.5
            assert total == pytest.approx(want, abs=1e-12)
        assert sorted(totals).count(1.5) == 2
        undirected = expected_multilateral_market(
            triangle_undirected(), LaplaceSym(1.0), ccp_class=1)
        assert undirected.market_total == pytest.approx(9 / 4, abs=1e-12)
        assert undirected.market_total == pytest.approx(np.mean(totals),
                                                        abs=1e-9)


SIGMAS = (0.5, 1.0, 2.0)
KS = (1, 2, 5)
NS = (3, 5, 10)


def test_criterion_5_normal_closed_forms():
    with criterion(5, "normal closed forms sigma*sqrt(K/2pi) and "
                      "sigma*sqrt((N-1)/2pi) over the parameter grid"):
        for sigma in SIGMAS:
            for k in KS:
                rep = expected_bilateral_market(two_vertex_market(k),
                                                NormalSym(sigma))
                want = sigma * math.sqrt(k / (2 * math.pi))
                for e in rep.per_netting_set:
                    assert e.value == pytest.approx(want, abs=1e-7)
            for n in NS:
                rep = expected_multilateral_market(
                    complete_market(n, 1), NormalSym(sigma), ccp_class=1)
                want = sigma * math.sqrt((n - 1) / (2 * math.pi))
                for v, value in rep.per_participant.items():
                    assert value == pytest.approx(want, abs=1e-7)


def test_criterion_6_advantage_table():
    with criterion(6, "minimal-participants row 2,6,...,38 bit-exact and "
                      "the normal threshold on {3..40}x{1..10}"):
        table = min_participants_table(LaplaceSym(1.0), 10)
        assert table == [2, 6, 10, 14, 18, 22, 26, 30, 34, 38]
        for n in range(3, 41):
            for k in range(1, 11):
                assert complete_graph_advantage(n, k, NormalSym(1.0)) \
                    == normal_complete_threshold(n, k)
                assert normal_complete_threshold(n, k) \
                    == (4 * k * (n - 1) < n * n)


def _hilbert_cases():
    laplace = charfn_of(LaplaceSym(1.0))
    normal = charfn_of(NormalSym(1.0))
    return [
        ("laplace", laplace),
        ("laplace^2", cf_product([laplace] * 2)),
        ("laplace^3 (order-3 pole)", cf_product([laplace] * 3)),
        ("laplace(b=2.5)", charfn_of(LaplaceSym(2.5))),
        ("exponential = pos-abs laplace", pos_abs_cf(laplace)),
        ("neg-abs laplace", neg_abs_cf(laplace)),
        ("pos-abs gamma(1,2)", pos_abs_cf(charfn_of(Gamma(1.0, 2.0)))),
        ("neg-abs gamma(1,2)", neg_abs_cf(charfn_of(Gamma(1.0, 2.0)))),
        ("gamma(2,0.5)", charfn_of(Gamma(2.0, 0.5))),
        ("normal", normal),
        ("normal^4", cf_product([normal] * 4)),
        ("exponential^3", cf_product([pos_abs_cf(laplace)] * 3)),
    ]


def test_criterion_7_hilbert_cross_validation():
    with criterion(7, "closed-form transforms match numeric principal "
                      "value to 1e-7 on twelve catalog cases"):
        cases = _hilbert_cases()
        assert len(cases) == 12
        grid = (-3.0, -1.0, -0.1, 0.1, 1.0, 3.0)
        for name, f in cases:
            for w in grid:
                closed = hilbert_eval(f, w).value
                numeric = hilbert_eval(f, w, tol=1e-8, method="pv").value
                assert abs(closed - numeric) < 1e-7, (name, w)
        # the two worked signed-gamma transforms, pinned explicitly
        pos = pos_abs_cf(charfn_of(Gamma(1.0, 2.0)))
        neg = neg_abs_cf(charfn_of(Gamma(1.0, 2.0)))
        for w in grid:
            d = 1.0 + 4.0 * w * w
            assert hilbert_eval(pos, w).value == pytest.approx(
                2 * w / d - 1j / d, abs=1e-13)
            assert hilbert_eval(neg, w).value == pytest.approx(
                2 * w / d + 1j / d, abs=1e-13)


def random_directed_set(rng) -> tuple[Market, object]:
    size = int(rng.integers(1, 7))
    signs = rng.integers(0, 2, size=size)  # 1 claim, 0 debt
    links = []
    leaves = []
    for i, claim in enumerate(signs):
        leaves.append(f"x{i}")
        if claim:
            links.append(Link(f"x{i}", "o", 1, True))
        else:
            links.append(Link("o", f"x{i}", 1, True))
    m = Market(("o", *leaves), 1, tuple(links))
    return m, netting_sets(m, Multilateral(1))["o"][0]


def test_criterion_8_theorem_suite():
    with criterion(8, "zero mean iff balanced signs, and the parity "
                      "shortcut equals the general formula (200 sets)"):
        rng = np.random.default_rng(1312)
        checked_shortcut = 0
        for trial in range(200):
            dist = LaplaceSym(1.0) if trial % 2 == 0 else NormalSym(1.0)
            m, s = random_directed_set(rng)
            f = netting_set_cf(m, s, dist)
            plus = sum(1 for _, sign in s.items if sign == +1)
            minus = len(s.items) - plus
            blind = dataclasses.replace(f, mean=None, even_real=False,
                                        side=None, rational=None,
                                        gaussian_variance=None)
            mean = cf_mean(blind)
            if plus == minus:
                assert abs(mean) < 1e-9
            else:
                assert abs(mean) > 1e-3
            short = eulerian_shortcut(m, s, dist)
            assert (short is not None) == (plus == minus)
            if short is not None:
                assert short == pytest.approx(general_route_value(f),
                                              abs=1e-8)
                checked_shortcut += 1
        assert checked_shortcut > 20


def _analytic_mc_pairs():
    """(market, convention class, analytic report, label) for criteria
    1-4 values."""
    pairs = [
        (illustrative_market(), LaplaceSym(1.0), 1, "illustrative"),
        (path_market(), UniformSym(1.0), 1, "uniform path"),
        (two_tier(False), LaplaceSym(1.0), 1, "two-tier undirected"),
        (triangle_directed(), LaplaceSym(1.0), 1, "triangle balanced"),
        (triangle_undirected(), LaplaceSym(1.0), 1, "triangle undirected"),
    ]
    return pairs


def test_criterion_9_mc_concordance():
    with criterion(9, "analytic values of criteria 1-5 inside four "
                      "standard errors at a million samples"):
        # per-netting-set agreement for the tier-1 markets
        for m, dist, cls, label in _analytic_mc_pairs():
            report = expected_multilateral_market(m, dist, ccp_class=cls)
            estimates = mc_expected_exposure(m, Multilateral(cls), dist,
                                             MC_SAMPLES, MC_SEED)
            for e in report.per_netting_set:
                mc = estimates[(e.owner, e.links)]
                band = max(4 * mc.stderr, 1e-12)
                assert abs(e.value - mc.estimate) <= band, (label, e)
        # market totals, both netting types
        directed = two_tier(True)
        total = mc_market_totals(directed, LaplaceSym(1.0), MC_SAMPLES,
                                 MC_SEED)
        assert abs(total.estimate - 5.0) <= 4 * total.stderr
        # one seed: the bilateral and pooled totals share their draws
        undirected = two_tier(False)
        total = mc_market_totals(undirected, LaplaceSym(1.0), MC_SAMPLES,
                                 MC_SEED)
        assert abs(total.estimate - 7.5) <= 4 * total.stderr
        pooled = mc_market_totals(undirected, LaplaceSym(1.0), MC_SAMPLES,
                                  MC_SEED, ccp_class=1)
        assert abs(pooled.estimate - 8.875) <= 4 * pooled.stderr
        tri_pooled = mc_market_totals(triangle_directed(), LaplaceSym(1.0),
                                      MC_SAMPLES, MC_SEED, ccp_class=1)
        assert abs(tri_pooled.estimate - 1.5) <= 4 * tri_pooled.stderr
        # one non-balanced orientation entails 5/2
        skew = Market(("v1", "v2", "v3"), 1,
                      (Link("v1", "v2", 1, True), Link("v3", "v2", 1, True),
                       Link("v1", "v3", 1, True)))
        skew_pooled = mc_market_totals(skew, LaplaceSym(1.0), MC_SAMPLES,
                                       MC_SEED, ccp_class=1)
        assert abs(skew_pooled.estimate - 2.5) <= 4 * skew_pooled.stderr
        # normal closed forms across the criterion-5 grid
        for sigma in SIGMAS:
            for k in KS:
                m = two_vertex_market(k)
                est = mc_expected_exposure(m, Bilateral(),
                                           NormalSym(sigma),
                                           MC_SAMPLES, MC_SEED)
                want = sigma * math.sqrt(k / (2 * math.pi))
                for mc in est.values():
                    assert abs(mc.estimate - want) <= 4 * mc.stderr
            for n in NS:
                m = complete_market(n, 1)
                est = mc_expected_exposure(m, Multilateral(1),
                                           NormalSym(sigma),
                                           MC_SAMPLES, MC_SEED)
                want = sigma * math.sqrt((n - 1) / (2 * math.pi))
                for mc in est.values():
                    assert abs(mc.estimate - want) <= 4 * mc.stderr
        # seed determinism of the oracle itself
        again = mc_market_totals(directed, LaplaceSym(1.0), MC_SAMPLES,
                                 MC_SEED)
        assert again == mc_market_totals(directed, LaplaceSym(1.0),
                                         MC_SAMPLES, MC_SEED)


def test_criterion_10_gamma_identities():
    with criterion(10, "gamma-function identity for M=1..20 and pooled "
                       "gamma expectations m*alpha*beta"):
        for m in range(1, 21):
            binomial = float(laplace_expected(m))
            gamma_form = math.exp(math.lgamma(0.5 + m) - math.lgamma(m)) \
                / math.sqrt(math.pi)
            assert abs(gamma_form - binomial) <= 1e-12 * binomial
        for m in (1, 3, 5):
            for alpha in (1.0, 2.0):
                for beta in (0.5, 2.0):
                    f = cf_product([charfn_of(Gamma(alpha, beta))] * m)
                    want = m * alpha * beta
                    assert cf_mean(f) == pytest.approx(want, abs=1e-9)
                    exposure = 0.5 * cf_mean(f) \
                        + 0.5 * hilbert_deriv_at_zero(f)
                    assert exposure == pytest.approx(want, abs=1e-9)
                    # finite differences stay inside their design target
                    blind = dataclasses.replace(f, mean=None)
                    assert cf_mean(blind) == pytest.approx(
                        want, rel=1e-7)
