"""Transform engine: residue calculus, Dawson, analytic-signal rule, and
the principal-value quadrature that cross-checks them all."""

import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netexposure import (
    Exponential,
    Gamma,
    LaplaceSym,
    NormalSym,
    UniformSym,
    cf_product,
    charfn_of,
    dawson,
    hilbert_deriv_at_zero,
    hilbert_eval,
    hilbert_gaussian,
    hilbert_one_sided,
    hilbert_rational,
    neg_abs_cf,
    pos_abs_cf,
)
from netexposure.charfn import CharFn, Pole, RationalForm
from netexposure.transforms import (
    _XD_BOUND,
    ToleranceError,
    TruncationError,
    _normal_abs_mean,
    _pv,
)

OMEGA_GRID = (-3.0, -1.0, -0.1, 0.1, 1.0, 3.0)


# ---------------------------------------------------------------------------
# Dawson function
# ---------------------------------------------------------------------------

def dawson_quadrature_oracle(x: float) -> float:
    """Direct adaptive quadrature of the defining integral.

    quad reports roundoff warnings on the violently growing integrand,
    but only the exp(-x^2)-scaled error matters for the final value.
    """
    import warnings

    from scipy.integrate import IntegrationWarning, quad

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        inner, err = quad(lambda s: math.exp(s * s), 0.0, x,
                          epsabs=1e-14, epsrel=1e-14, limit=200)
    assert err * math.exp(-x * x) < 1e-12
    return math.exp(-x * x) * inner


def test_dawson_at_zero():
    assert dawson(0.0) == 0.0


def test_dawson_small_x_taylor():
    for x in (1e-3, 5e-4, -1e-3, 2e-4):
        want = x - (2.0 / 3.0) * x**3
        assert abs(dawson(x) - want) < 1e-12


def test_dawson_f1_against_quadrature_oracle():
    assert abs(dawson(1.0) - dawson_quadrature_oracle(1.0)) < 1e-12


@pytest.mark.parametrize("x", [0.25, 0.8, 1.7, 3.0, 4.0, 5.5, 5.9, 6.0,
                               6.1, 7.5, 10.0, 25.0])
def test_dawson_accuracy_incl_switchover(x):
    # the series/continued-fraction handover sits at 6; both sides are
    # validated against the quadrature oracle
    oracle = dawson_quadrature_oracle(x)
    assert abs(dawson(x) - oracle) < 1e-12


def test_dawson_is_odd():
    xs = np.linspace(0.1, 12.0, 40)
    assert np.max(np.abs(dawson(-xs) + dawson(xs))) == 0.0


def test_dawson_derivative_at_zero_is_one():
    h = 1e-6
    assert (dawson(h) - dawson(-h)) / (2 * h) == pytest.approx(1.0,
                                                               abs=1e-10)


def test_dawson_against_scipy():
    from scipy.special import dawsn

    xs = np.linspace(-30.0, 30.0, 301)
    assert np.max(np.abs(dawson(xs) - dawsn(xs))) < 1e-13
    # one-signed arrays stop the series on their own, for either sign
    for xs in (np.linspace(0.01, 0.5, 50), np.linspace(-6.0, -0.01, 50)):
        assert np.max(np.abs(dawson(xs) - dawsn(xs))) < 1e-13
        assert dawson(float(xs[0])) == pytest.approx(dawsn(xs[0]), abs=1e-13)


def test_dawson_relative_accuracy():
    # the E|Y| series' rounding bound takes Dawson's relative error to be
    # under 12 eps. scipy's dawsn agrees to that from 0.25 up (across the
    # series/continued-fraction switch too); below, the alternating
    # Taylor series sum (-2 x^2)^k x / (2k+1)!! is exact in floats.
    from scipy.special import dawsn

    eps = np.finfo(float).eps
    xs = np.concatenate([np.linspace(0.25, 12.0, 40001),
                         np.geomspace(12.0, 1e6, 501)])
    assert np.max(np.abs(dawson(xs) / dawsn(xs) - 1.0)) < 12 * eps
    for x in np.geomspace(1e-6, 0.25, 101):
        terms, term = [], x
        for k in range(20):
            terms.append(term)
            term *= -2.0 * x * x / (2 * k + 3)
        assert abs(dawson(x) / math.fsum(terms) - 1.0) < 12 * eps


def test_x_dawson_bound_one_point_check():
    # C e^(x^2)/x - integral_0^x e^(s^2) ds has its one minimum at
    # x* = sqrt(C / (2C - 1)), so x D(x) <= C everywhere iff x* D(x*) <= C
    from scipy.special import dawsn

    c = _XD_BOUND
    x_star = math.sqrt(c / (2 * c - 1))
    assert x_star * dawsn(x_star) < c and x_star * dawson(x_star) < c
    xs = np.linspace(0.0, 50.0, 200001)
    assert np.max(xs * dawsn(xs)) == pytest.approx(0.642375, abs=1e-6)


# ---------------------------------------------------------------------------
# Residue engine
# ---------------------------------------------------------------------------

def test_residue_simple_pole_pair():
    f = charfn_of(LaplaceSym(1.0))
    for w in OMEGA_GRID:
        assert hilbert_rational(f, w) == pytest.approx(w / (1 + w * w),
                                                       abs=1e-14)


def test_residue_order_three_pole():
    f = cf_product([charfn_of(LaplaceSym(1.0))] * 3)

    def closed(w):
        d = (1 + w * w) ** 3
        return 15 * w / (8 * d) + 5 * w**3 / (4 * d) + 3 * w**5 / (8 * d)

    for w in OMEGA_GRID:
        assert hilbert_rational(f, w) == pytest.approx(closed(w), abs=1e-13)


def test_residue_neg_abs_gamma():
    f = neg_abs_cf(charfn_of(Gamma(1.0, 2.0)))
    for w in OMEGA_GRID:
        want = 2 * w / (1 + 4 * w * w) + 1j / (1 + 4 * w * w)
        assert hilbert_rational(f, w) == pytest.approx(want, abs=1e-14)


def test_residue_pos_abs_gamma_matches_one_sided():
    f = pos_abs_cf(charfn_of(Gamma(1.0, 2.0)))
    for w in OMEGA_GRID:
        want = 2 * w / (1 + 4 * w * w) - 1j / (1 + 4 * w * w)
        assert hilbert_rational(f, w) == pytest.approx(want, abs=1e-14)
        assert hilbert_one_sided(f, w) == pytest.approx(want, abs=1e-14)


def test_residue_rejects_real_axis_pole():
    bad = CharFn(fn=lambda t: 1.0 / (np.asarray(t, dtype=complex) - 2.0),
                 rational=RationalForm(1.0, (Pole(2.0 + 0j, 1),)))
    with pytest.raises(ValueError, match="real axis"):
        hilbert_rational(bad, 0.5)


def test_residue_rejects_nondecaying():
    # a constant: no pole, so no decay at infinity
    bad = CharFn(
        fn=lambda t: np.ones_like(np.asarray(t, dtype=complex)),
        rational=RationalForm(1.0, ()),
    )
    with pytest.raises(ValueError, match="vanish"):
        hilbert_rational(bad, 0.5)


def test_residue_order_two_upper_pole_against_pv():
    # manufactured function with one order-2 pole in each half-plane;
    # exercises the derivative formula for higher-order residues
    form = RationalForm(1.0, (Pole(1 + 2j, 2), Pole(1 - 2j, 2)))
    f = CharFn(fn=form, rational=form)
    for w in (-1.5, 0.7, 2.0):
        closed = hilbert_rational(f, w)
        numeric = hilbert_eval(f, w, tol=1e-10, method="pv").value
        assert closed == pytest.approx(numeric, abs=1e-9)


# ---------------------------------------------------------------------------
# Gaussian / Dawson tier
# ---------------------------------------------------------------------------

def test_gaussian_closed_form():
    for k, sigma in ((1, 1.0), (4, 0.5), (9, 2.0)):
        v = k * sigma**2
        for w in OMEGA_GRID:
            want = (2 / math.sqrt(math.pi)) * dawson(
                w * math.sqrt(k) * sigma / math.sqrt(2))
            assert hilbert_gaussian(v, w) == pytest.approx(want, abs=1e-15)


def test_gaussian_closed_form_on_arrays():
    # the array call, the c.f.'s attached transform, equals the scalar
    # calls of the Dawson tier to the last bit, on both Dawson branches
    ws = np.linspace(-40.0, 40.0, 801)
    for v in (1.0, 12.512581759178156 * 12.512581759178156, 0.64):
        got = hilbert_gaussian(v, ws)
        want = np.array([hilbert_gaussian(v, float(w)) for w in ws])
        assert np.array_equal(got, want)


def test_gaussian_odd_and_zero_at_zero():
    assert hilbert_gaussian(2.0, 0.0) == 0.0
    for w in (0.5, 1.0, 2.0):
        assert hilbert_gaussian(3.0, -w) == pytest.approx(
            -hilbert_gaussian(3.0, w), abs=1e-15)


def test_gaussian_derivative_at_zero():
    # chain rule gives sqrt(2/pi) for unit variance; cross-checked with a
    # numeric derivative of the principal-value route
    f = charfn_of(NormalSym(1.0))
    assert hilbert_deriv_at_zero(f) == pytest.approx(math.sqrt(2 / math.pi),
                                                     abs=1e-12)
    stripped = dataclasses.replace(f, gaussian_variance=None)

    def central(h):
        plus = hilbert_eval(stripped, h, 1e-10, method="pv").value
        minus = hilbert_eval(stripped, -h, 1e-10, method="pv").value
        return (plus.real - minus.real) / (2 * h)

    d1, d2, d3 = central(0.1), central(0.05), central(0.025)
    r1, r2 = (4 * d2 - d1) / 3, (4 * d3 - d2) / 3
    extrapolated = (16 * r2 - r1) / 15
    assert extrapolated == pytest.approx(math.sqrt(2 / math.pi), abs=1e-7)


# ---------------------------------------------------------------------------
# One-sided rule
# ---------------------------------------------------------------------------

def test_one_sided_powers_of_exponential():
    b = 1.0
    for m in (1, 2, 5):
        f = cf_product([pos_abs_cf(charfn_of(LaplaceSym(b)))] * m)
        for w in OMEGA_GRID:
            want = -1j * (1 - 1j * b * w) ** (-m)
            assert hilbert_one_sided(f, w) == pytest.approx(want, abs=1e-14)


def test_one_sided_at_zero():
    f = pos_abs_cf(charfn_of(LaplaceSym(1.0)))
    assert hilbert_one_sided(f, 0.0) == pytest.approx(-1j)


def test_one_sided_rejects_mixed():
    pos = pos_abs_cf(charfn_of(LaplaceSym(1.0)))
    neg = neg_abs_cf(charfn_of(LaplaceSym(1.0)))
    with pytest.raises(ValueError, match="analytic signal"):
        hilbert_one_sided(cf_product([pos, neg]), 1.0)


# ---------------------------------------------------------------------------
# Numeric principal value
# ---------------------------------------------------------------------------

def test_pv_lorentzian():
    f = charfn_of(LaplaceSym(1.0))
    got = hilbert_eval(f, 1.0, tol=1e-8, method="pv").value
    assert got == pytest.approx(0.5, abs=1e-8)


def test_pv_gaussian():
    f = charfn_of(NormalSym(1.0))
    want = (2 / math.sqrt(math.pi)) * dawson(1 / math.sqrt(2))
    got = hilbert_eval(f, 1.0, tol=1e-9, method="pv").value
    assert got == pytest.approx(want, abs=1e-9)


def test_pv_uniform_pair_product():
    # balanced one-sided uniform pair: 4 sin^2(t/2) / t^2
    pos = pos_abs_cf(charfn_of(UniformSym(1.0)))
    neg = neg_abs_cf(charfn_of(UniformSym(1.0)))
    f = cf_product([pos, neg])
    got = hilbert_eval(f, 1.0, tol=1e-8, method="pv").value
    assert got == pytest.approx(2 * (1 - math.sin(1.0)), abs=1e-8)


def test_pv_against_quadpack_cauchy():
    # extra oracle: QUADPACK's dedicated Cauchy-weight integrator
    from scipy.integrate import quad

    f = charfn_of(LaplaceSym(1.0))
    for w in (0.5, 1.0, 2.0):
        ref, _ = quad(lambda t: 1.0 / (1.0 + t * t), -300.0, 300.0,
                      weight="cauchy", wvar=w, limit=400)
        # H{f}(w) = -(1/pi) PV int f(t)/(t-w) dt
        ref = -ref / math.pi
        got = hilbert_eval(f, w, 1e-9, method="pv").value
        assert got == pytest.approx(ref, abs=1e-6)


def test_pv_rejects_nondecaying():
    f = CharFn(fn=lambda t: np.ones_like(np.asarray(t, dtype=float)))
    with pytest.raises(ValueError, match="decay"):
        hilbert_eval(f, 0.0, tol=1e-8, method="pv").value


def test_pv_tolerance_error_carries_achieved(monkeypatch):
    import netexposure.transforms as hb

    monkeypatch.setattr(hb, "_PV_MAX_PANELS", 40)
    f = charfn_of(UniformSym(1.0))  # oscillatory 1/t decay: hard
    with pytest.raises(ToleranceError) as exc:
        hb.hilbert_eval(f, 1.0, tol=1e-9, method="pv").value
    assert exc.value.achieved > 0


@pytest.mark.parametrize("tol", [1e-7, 1e-10])
@pytest.mark.parametrize("omega", [1e2, 1e4, 1e6, 1e9, 1e12, -1e6])
def test_pv_far_from_zero_stays_within_tol(omega, tol):
    # in the folded integrand the c.f.'s mass sits at u = |w|, so the mesh
    # is graded there as well as at 0
    from scipy.special import dawsn

    cases = [
        (charfn_of(NormalSym(1.0)),
         2 / math.sqrt(math.pi) * dawsn(omega / math.sqrt(2))),
        (charfn_of(LaplaceSym(1.0)), omega / (1 + omega * omega)),
        (cf_product([charfn_of(UniformSym(1.0))] * 2),
         (2 * omega - math.sin(2 * omega)) / (2 * omega * omega)),
    ]
    for f, want in cases:
        got = hilbert_eval(f, omega, tol, method="pv")
        assert abs(got.value - want) <= tol and got.error <= tol


def test_pv_beyond_the_truncation_limit_takes_no_sample():
    def fn(t):
        raise AssertionError("sampled")

    for omega in (1e13, -1e13, 1e308):
        with pytest.raises(TruncationError) as exc:
            hilbert_eval(CharFn(fn=fn), omega, method="pv")
        assert f"|omega| = {abs(omega):g} is beyond" in str(exc.value)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def test_dispatch_routes():
    laplace2 = cf_product([charfn_of(LaplaceSym(1.0))] * 2)
    assert hilbert_eval(laplace2, 1.0).method == "residue"
    normal3 = cf_product([charfn_of(NormalSym(1.0))] * 3)
    assert hilbert_eval(normal3, 1.0).method == "dawson"
    uniform2 = cf_product([charfn_of(UniformSym(1.0))] * 2)
    assert hilbert_eval(uniform2, 1.0, tol=1e-7).method == "pv"
    uniform = charfn_of(UniformSym(1.0))
    assert hilbert_eval(uniform, 1.0).method == "closed-form"
    onesided = cf_product([pos_abs_cf(charfn_of(NormalSym(1.0)))] * 2)
    assert hilbert_eval(onesided, 1.0).method == "onesided"


def test_dispatch_method_override():
    f = charfn_of(LaplaceSym(1.0))
    auto = hilbert_eval(f, 1.0)
    forced = hilbert_eval(f, 1.0, tol=1e-9, method="pv")
    assert forced.method == "pv"
    assert forced.value == pytest.approx(auto.value, abs=1e-8)
    assert forced.error > 0
    assert type(forced.error) is float and type(auto.error) is float


def test_method_agreement_on_grid():
    # each closed form against the numeric principal value
    cases = [
        charfn_of(LaplaceSym(1.0)),
        cf_product([charfn_of(LaplaceSym(1.0))] * 3),
        charfn_of(NormalSym(1.0)),
        cf_product([charfn_of(NormalSym(0.5))] * 4),
        pos_abs_cf(charfn_of(Gamma(1.0, 2.0))),
        neg_abs_cf(charfn_of(Gamma(1.0, 2.0))),
        pos_abs_cf(charfn_of(LaplaceSym(1.0))),
    ]
    for f in cases:
        for w in OMEGA_GRID:
            closed = hilbert_eval(f, w).value
            numeric = hilbert_eval(f, w, tol=1e-8, method="pv").value
            assert abs(closed - numeric) < 1e-7, (f, w)


def test_parity_of_even_real_transforms():
    for f in (charfn_of(LaplaceSym(1.0)),
              cf_product([charfn_of(NormalSym(1.0))] * 2),
              cf_product([charfn_of(UniformSym(1.0))] * 2)):
        assert hilbert_eval(f, 0.0).value == 0
        for w in (0.25, 1.0, 2.5):
            plus = hilbert_eval(f, w, tol=1e-8).value
            minus = hilbert_eval(f, -w, tol=1e-8).value
            assert minus == pytest.approx(-plus, abs=1e-7)


def test_conjugation_commutes():
    pos = pos_abs_cf(charfn_of(Gamma(1.0, 2.0)))
    neg = neg_abs_cf(charfn_of(Gamma(1.0, 2.0)))  # the conjugate function
    for w in OMEGA_GRID:
        assert hilbert_eval(neg, w).value == pytest.approx(
            np.conjugate(hilbert_eval(pos, w).value), abs=1e-14)


def test_double_transform_negates():
    # H{H{phi}} = -phi on the catalog class; t/(1+t^2), the transform of
    # the unit Laplace c.f., is 1/2 / (t - i) + 1/2 / (t + i), and the
    # transform is linear, so the residue tier takes one pole at a time
    halves = [RationalForm(0.5, (Pole(p, 1),)) for p in (1j, -1j)]
    for w in (0.3, 1.0, -2.0):
        twice = sum(hilbert_rational(CharFn(fn=h, rational=h), w)
                    for h in halves)
        assert twice == pytest.approx(-1.0 / (1 + w * w), abs=1e-13)
    # same statement through the numeric route
    g = CharFn(fn=lambda t: np.asarray(t) / (1 + np.asarray(t) ** 2)
               .astype(complex))
    for w in (0.5, 1.5):
        got = hilbert_eval(g, w, tol=1e-8, method="pv").value
        assert got == pytest.approx(-1.0 / (1 + w * w), abs=1e-7)


def assert_residue_matches_pv(f, omega):
    pv = hilbert_eval(f, omega, method="pv")
    value = hilbert_eval(f, omega, method="residue").value
    assert abs(value - pv.value) <= pv.error + 1e-12 * max(1.0, abs(pv.value))


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


omegas = st.builds(lambda sign, w: sign * w, st.sampled_from([-1, 1]),
                   log_uniform(1e-3, 1e3))
# where the constant (1/b^2)^p and the leading coefficient (b/2)^p of the
# pole at i/b are both normal floats, the residue tier answers; outside it
# refuses (CHANGES.md)
NORMAL_LOG10 = (math.log10(sys.float_info.min), math.log10(sys.float_info.max))


@settings(max_examples=60, deadline=None)
@given(log_uniform(1, 1000).map(round), log_uniform(1e-3, 1.5), omegas)
@example(50, 1e-3, 1e3)  # small terms of the old expansion underflowed
@example(1000, 1.0, 1.0)  # its binomial coefficients overflowed
def test_residue_matches_pv_on_laplace_powers(power, scale, omega):
    f = cf_product([charfn_of(LaplaceSym(scale))] * power)
    lo, hi = NORMAL_LOG10
    if all(lo < power * math.log10(x) < hi for x in (scale ** -2, scale / 2)):
        assert_residue_matches_pv(f, omega)
    else:
        with pytest.raises(ToleranceError, match="floating-point range"):
            hilbert_eval(f, omega, method="residue")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6), log_uniform(1e-2, 1e2),
       st.sampled_from([pos_abs_cf, neg_abs_cf]), omegas)
def test_residue_matches_pv_on_one_sided_powers(shape, power, scale, side,
                                                 omega):
    # shape 1 is the exponential law; the positive side has no pole in the
    # upper half plane, the negative one its pole of order shape * power
    law = Exponential(scale) if shape == 1 else Gamma(float(shape), scale)
    f = cf_product([side(charfn_of(law))] * power)
    assert_residue_matches_pv(f, omega)


@settings(max_examples=30, deadline=None)
@given(log_uniform(1e-3, 1.5), st.floats(0.02, 3), omegas)
def test_residue_matches_pv_on_two_laplace_scales(scale, log_ratio, omega):
    # four simple poles; a second scale near the first cancels digits
    # (error about eps b^2 / |b^2 - b'^2|), so the two stay apart
    other = scale * 10 ** -log_ratio
    f = cf_product([charfn_of(LaplaceSym(b)) for b in (scale, other)])
    assert len(f.rational.poles) == 4
    assert_residue_matches_pv(f, omega)


# ---------------------------------------------------------------------------
# Derivative at zero
# ---------------------------------------------------------------------------

def test_deriv_at_zero_rational_values():
    f1 = charfn_of(LaplaceSym(1.0))
    assert hilbert_deriv_at_zero(f1) == pytest.approx(1.0, abs=1e-9)
    f3 = cf_product([f1] * 3)
    assert hilbert_deriv_at_zero(f3) == pytest.approx(15.0 / 8.0, abs=1e-9)


def test_deriv_at_zero_gaussian_market_value():
    for n, sigma in ((4, 1.0), (10, 0.5)):
        f = cf_product([charfn_of(NormalSym(sigma))] * (n - 1))
        want = sigma * math.sqrt(2 * (n - 1) / math.pi)
        assert hilbert_deriv_at_zero(f) == pytest.approx(want, abs=1e-12)


def test_deriv_at_zero_one_sided():
    f = pos_abs_cf(charfn_of(LaplaceSym(1.0)))
    assert hilbert_deriv_at_zero(f) == pytest.approx(1.0, abs=1e-12)
    g = neg_abs_cf(charfn_of(LaplaceSym(2.0)))
    assert hilbert_deriv_at_zero(g) == pytest.approx(2.0, abs=1e-12)


def test_deriv_at_zero_uniform_pair_via_pv():
    # closed form of the pair transform is 2(t - sin t)/t^2: slope 1/3
    pos = pos_abs_cf(charfn_of(UniformSym(1.0)))
    neg = neg_abs_cf(charfn_of(UniformSym(1.0)))
    f = cf_product([pos, neg])
    f = dataclasses.replace(f, even_real=True)
    assert hilbert_deriv_at_zero(f, tol=1e-7) == pytest.approx(
        1.0 / 3.0, abs=1e-7)


# ---------------------------------------------------------------------------
# E|Y| of a normal signature by the Fourier-cosine series
# ---------------------------------------------------------------------------

def normal_abs_mean_reference(a: int, b: int, c: int) -> float:
    """E|Y| = (2/pi) integral_0^inf (1 - Re phi(t)) / t^2 dt by scipy, with
    1 - Re phi formed from log phi so that it keeps its relative accuracy
    near t = 0 (1 - Re phi itself cancels there)."""
    import warnings

    from scipy.integrate import IntegrationWarning, quad
    from scipy.special import dawsn

    def one_minus_re_phi(t):
        d = (2 / math.sqrt(math.pi)) * dawsn(t / math.sqrt(2))
        log_mod = 0.5 * math.log1p(math.expm1(-t * t) + d * d)
        x = (a + b) * log_mod - 0.5 * c * t * t
        y = (a - b) * math.atan2(d, math.exp(-t * t / 2))
        return 2 * math.sin(y / 2) ** 2 - math.cos(y) * math.expm1(x)

    edges = (0, 0.5, 1, 2, 4, 8, 16, 64, 256, 1024, 1e4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        head = math.fsum(
            quad(lambda t: one_minus_re_phi(t) / (t * t), lo, hi,
                 epsabs=1e-15, epsrel=1e-13, limit=400)[0]
            for lo, hi in zip(edges, edges[1:]))
        tail = quad(lambda t: (1 - one_minus_re_phi(t)) / (t * t), 1e4,
                    math.inf, epsabs=1e-17, limit=200)[0]
    return 2 / math.pi * (head + 1e-4 - tail)


@pytest.mark.parametrize("tol", [1e4, 1e-7, 1e-9, 1e-12])
def test_normal_series_balanced_pair_within_its_bound(tol):
    # E|Z_1| - |Z_2|| = 4 (sqrt 2 - 1) / sqrt(2 pi); a loose tol is
    # served as tol 1
    value, bound = _normal_abs_mean(1, 1, 0, tol)
    exact = 4 * (math.sqrt(2) - 1) / math.sqrt(2 * math.pi)
    assert abs(value - exact) <= bound <= tol


def test_normal_series_random_signatures_within_their_bounds():
    import random

    rng = random.Random(17)
    signatures = set()
    while len(signatures) < 110:
        a, b, c = (rng.randint(0, 30) for _ in range(3))
        # the signatures a market sends here: not all undirected, not
        # claims only, not debts only
        if (a or b) and (b or c) and (a or c):
            signatures.add((a, b, c))
    for a, b, c in sorted(signatures):
        want = normal_abs_mean_reference(a, b, c)
        for tol in (1e-7, 1e-9):
            value, bound = _normal_abs_mean(a, b, c, tol)
            assert abs(value - want) <= bound <= tol, (a, b, c, tol)
            assert _normal_abs_mean(b, a, c, tol) == (value, bound)


def test_normal_series_checks_its_rounding_floor_first(monkeypatch):
    import netexposure.transforms as tr

    calls = []
    monkeypatch.setattr(tr, "dawson", lambda x: calls.append(x))
    with pytest.raises(ToleranceError, match="rounding floor"):
        _normal_abs_mean(2, 1, 0, 1e-15)
    assert calls == []


@pytest.mark.parametrize("omega", [1.0, 0.0])
def test_forced_method_must_be_applicable(omega):
    # at 0 too, where an even c.f.'s transform needs no route
    laplace = charfn_of(LaplaceSym(1.0))
    with pytest.raises(ValueError, match="Gaussian"):
        hilbert_eval(laplace, omega, method="dawson")
    with pytest.raises(ValueError, match="rational"):
        hilbert_eval(charfn_of(NormalSym(1.0)), omega, method="residue")
    with pytest.raises(ValueError, match="analytic signal"):
        hilbert_eval(laplace, omega, method="onesided")
    with pytest.raises(ValueError, match="no closed-form"):
        hilbert_eval(laplace, omega, method="closed-form")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        hilbert_eval(laplace, omega, method="bogus")


@pytest.mark.parametrize("f, route", [
    (cf_product([charfn_of(LaplaceSym(1.0))] * 2), "residue"),
    (cf_product([charfn_of(NormalSym(1.0))] * 3), "dawson"),
    (pos_abs_cf(charfn_of(NormalSym(1.0))), "onesided"),
    (charfn_of(UniformSym(1.0)), "closed-form"),
    (cf_product([charfn_of(UniformSym(1.0))] * 2), "pv"),
    (cf_product([]), "closed-form"),
], ids=["laplace2", "normal3", "pos-normal", "uniform", "uniform2", "one"])
def test_array_transform_follows_the_route_table(f, route):
    # the array form used inside c.f.s equals the routed transform at
    # every point, to the last bit
    from netexposure.transforms import _hilbert_fn

    ws = np.array([[-1.5, 0.0], [0.4, 2.0]])
    values = _hilbert_fn(f)(ws)
    assert np.shape(values) == ws.shape
    for w, value in zip(ws.ravel(), np.ravel(values)):
        result = hilbert_eval(f, float(w))
        assert result.method == route
        assert value == result.value, (route, w)


def test_gaussian_product_transform_is_the_closed_form_on_arrays():
    from netexposure.transforms import _hilbert_fn

    f = cf_product([charfn_of(NormalSym(0.8))] * 3)
    assert f.hilbert_closed_form is None and f.gaussian_variance is not None
    ws = np.array([[-3.0, -0.4, 0.0], [0.25, 1.0, 7.5]])
    values = _hilbert_fn(f)(ws)
    assert values.shape == ws.shape
    for w, value in zip(ws.ravel(), values.ravel()):
        assert abs(value - hilbert_eval(f, float(w)).value) <= 1e-15


def test_negative_one_sided_transform_is_plus_i_f():
    f = neg_abs_cf(charfn_of(Gamma(2.0, 0.5)))
    assert f.side == -1
    assert neg_abs_cf(f) is f
    for w in OMEGA_GRID:
        assert hilbert_one_sided(f, w) == 1j * complex(f.fn(w))
