"""Catalog characteristic functions, their algebra, and sampling."""

import math
import re
import zlib

import numpy as np
import pytest

from netexposure import (
    Exponential,
    Gamma,
    LaplaceSym,
    NormalSym,
    UniformSym,
    cf_mean,
    cf_product,
    charfn_of,
    neg_abs_cf,
    pos_abs_cf,
    sample,
)
from netexposure.charfn import CharFn, MomentError

CATALOG = [
    LaplaceSym(1.0),
    LaplaceSym(2.5),
    NormalSym(1.0),
    NormalSym(0.5),
    UniformSym(1.0),
    UniformSym(3.0),
    Gamma(1.0, 2.0),
    Gamma(2.0, 0.5),
    Gamma(1.7, 1.0),  # non-integer shape: branch cut, no pole list
    Exponential(1.0),
]


# ---------------------------------------------------------------------------
# Catalog values
# ---------------------------------------------------------------------------

def test_laplace_cf_value():
    f = charfn_of(LaplaceSym(1.0))
    assert f(1.0) == pytest.approx(0.5)
    assert f(2.0) == pytest.approx(1.0 / 5.0)


def test_gamma_1_2_cf_value():
    f = charfn_of(Gamma(1.0, 2.0))
    assert f(1.0) == pytest.approx(0.2 + 0.4j)  # 1/(1-2i)


def test_normalisation_at_zero():
    for spec in CATALOG:
        f = charfn_of(spec)
        assert complex(f(0.0)) == pytest.approx(1.0 + 0j, abs=1e-14)


def test_nonpositive_parameters_rejected():
    with pytest.raises(ValueError):
        LaplaceSym(0.0)
    with pytest.raises(ValueError):
        NormalSym(-1.0)
    with pytest.raises(ValueError):
        Gamma(1.0, 0.0)
    with pytest.raises(ValueError):
        UniformSym(-2.0)


def test_uniform_removable_singularity():
    f = charfn_of(UniformSym(1.0))
    assert complex(f(0.0)) == pytest.approx(1.0 + 0j, abs=1e-15)
    # the Taylor branch agrees with the exact form across the switch
    ts = np.array([1e-7, 1e-5, 9.9e-5, 1.01e-4, 1e-3])
    exact = np.array([math.sin(t) / t for t in ts])
    assert np.max(np.abs(f(ts) - exact)) < 1e-12
    assert f(2.0) == pytest.approx(math.sin(2.0) / 2.0)


def test_structure_tags():
    assert charfn_of(LaplaceSym(1.0)).rational is not None
    assert charfn_of(NormalSym(1.0)).gaussian_variance == 1.0
    assert charfn_of(Gamma(2.0, 0.5)).rational is not None
    assert charfn_of(Gamma(1.7, 1.0)).rational is None
    assert charfn_of(Gamma(1.7, 1.0)).side == +1
    assert charfn_of(UniformSym(1.0)).even_real
    assert charfn_of(Exponential(2.0)).side == +1


def test_laplace_pole_locations():
    # the unit function 1/(1 + x^2) has the poles +-i; the scale b dilates
    # them to +-i/b in t
    f = charfn_of(LaplaceSym(2.0))
    locations = sorted(p.location.imag for p in f.rational.poles)
    assert locations == [-1.0, 1.0]
    assert (f.rational.constant, f.scale) == (1.0, 2.0)
    assert f(0.5) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Hermitian / parity properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", CATALOG, ids=str)
def test_hermitian_property(spec):
    f = charfn_of(spec)
    rng = np.random.default_rng(20240811)
    ts = rng.uniform(-10.0, 10.0, size=100)
    left = f(-ts)
    right = np.conjugate(f(ts))
    assert np.max(np.abs(left - right)) < 1e-12


@pytest.mark.parametrize("spec", CATALOG, ids=str)
def test_signed_abs_hermitian(spec):
    if not spec.two_sided:
        return
    for builder in (pos_abs_cf, neg_abs_cf):
        f = builder(charfn_of(spec))
        ts = np.linspace(-8.0, 8.0, 41)
        assert np.max(np.abs(f(-ts) - np.conjugate(f(ts)))) < 1e-12


def test_even_real_vanishing_imaginary_part():
    for spec in (LaplaceSym(1.0), NormalSym(2.0), UniformSym(1.5)):
        f = charfn_of(spec)
        ts = np.linspace(-20.0, 20.0, 101)
        assert np.max(np.abs(np.imag(f(ts)))) == 0.0


# ---------------------------------------------------------------------------
# Products
# ---------------------------------------------------------------------------

def test_product_is_pointwise_product():
    fs = [charfn_of(LaplaceSym(1.0)), charfn_of(NormalSym(1.0)),
          pos_abs_cf(charfn_of(LaplaceSym(2.0)))]
    prod = cf_product(fs)
    ts = np.linspace(-5.0, 5.0, 23)
    direct = fs[0](ts) * fs[1](ts) * fs[2](ts)
    assert np.max(np.abs(prod(ts) - direct)) < 1e-14


def test_repeated_factor_evaluated_once_per_call():
    calls = []

    def counting(t):
        calls.append(t)
        return np.exp(-np.abs(t)) + 0j

    f = CharFn(fn=counting)
    other = pos_abs_cf(charfn_of(NormalSym(1.0)))
    prod = cf_product([f, other, f, f, other, f])
    ts = np.linspace(-3.0, 3.0, 11)
    values = prod(ts)
    prod(0.5)
    assert len(calls) == 2
    # same factors multiplied in the same order: equal to the last bit
    direct = counting(ts)
    for g in (other, f, f, other, f):
        direct = direct * g(ts)
    assert np.array_equal(values, direct)


def test_laplace_square_product():
    f = charfn_of(LaplaceSym(1.0))
    prod = cf_product([f, f])
    assert prod(1.0) == pytest.approx(0.25)
    # pole orders merge: +-i each of order 2
    orders = {p.location.imag: p.order for p in prod.rational.poles}
    assert orders == {1.0: 2, -1.0: 2}


def test_gaussian_variance_adds_exactly():
    k = 4
    f = charfn_of(NormalSym(1.5))
    prod = cf_product([f] * k)
    # unit variances add; the common scale stays the law's
    assert (prod.gaussian_variance, prod.scale) == (k, 1.5)
    assert prod(1.0) == pytest.approx(math.exp(-0.5 * k * 1.5**2))


def test_empty_product_is_one():
    one = cf_product([])
    assert one(0.3) == pytest.approx(1.0 + 0j)
    assert one.even_real


def test_one_sidedness_preserved_only_same_side():
    pos = pos_abs_cf(charfn_of(LaplaceSym(1.0)))
    neg = neg_abs_cf(charfn_of(LaplaceSym(1.0)))
    assert cf_product([pos, pos]).side == +1
    assert cf_product([neg, neg]).side == -1
    assert cf_product([pos, neg]).side is None


@pytest.mark.parametrize("spec, mean", [
    # E|X1 + X2|: the sum's density is (1 + |x|) e^-|x| / 4
    (LaplaceSym(1.0), 1.5),
    (NormalSym(1.0), 2.0 / math.sqrt(math.pi)),
    # the sum is triangular on [-2, 2]
    (UniformSym(1.0), 2.0 / 3.0),
], ids=str)
def test_product_of_laws_is_no_catalog_law(spec, mean):
    f = cf_product([charfn_of(spec)] * 2)
    assert f.dist is None
    assert pos_abs_cf(f).mean == pytest.approx(mean, abs=1e-7)


# ---------------------------------------------------------------------------
# Signed absolute values
# ---------------------------------------------------------------------------

def test_pos_abs_laplace_is_exponential():
    f = pos_abs_cf(charfn_of(LaplaceSym(1.0)))
    ts = np.linspace(-4.0, 4.0, 33)
    want = 1.0 / (1.0 - 1j * ts)
    assert np.max(np.abs(f(ts) - want)) < 1e-14
    assert f.side == +1


def test_neg_abs_laplace():
    f = neg_abs_cf(charfn_of(LaplaceSym(1.0)))
    ts = np.linspace(-4.0, 4.0, 33)
    assert np.max(np.abs(f(ts) - 1.0 / (1.0 + 1j * ts))) < 1e-14


def test_neg_abs_is_conjugate_of_pos_abs():
    for spec in (LaplaceSym(1.0), NormalSym(1.0), UniformSym(1.0)):
        pos = pos_abs_cf(charfn_of(spec))
        neg = neg_abs_cf(charfn_of(spec))
        ts = np.linspace(-6.0, 6.0, 25)
        assert np.max(np.abs(neg(ts) - np.conjugate(pos(ts)))) < 1e-13


def test_neg_abs_of_one_sided_gamma():
    f = neg_abs_cf(charfn_of(Gamma(1.0, 2.0)))
    ts = np.linspace(-3.0, 3.0, 13)
    want = 1.0 / (1.0 + 2j * ts)
    assert np.max(np.abs(f(ts) - want)) < 1e-14
    assert f.side == -1
    assert f.mean == pytest.approx(-2.0)


def test_pos_abs_normal_dawson_imaginary_part():
    # independent oracle: principal-value transform of exp(-t^2/2)
    from netexposure.transforms import hilbert_eval

    base = charfn_of(NormalSym(1.0))
    f = pos_abs_cf(base)
    for t in (0.5, 1.0, 2.0):
        val = complex(f(t))
        assert val.real == pytest.approx(math.exp(-0.5 * t * t), abs=1e-14)
        pv = hilbert_eval(base, t, tol=1e-10, method="pv").value
        assert val.imag == pytest.approx(pv.real, abs=1e-9)


def test_pos_abs_at_zero_is_one():
    for spec in (LaplaceSym(1.0), NormalSym(1.0), UniformSym(2.0)):
        assert complex(pos_abs_cf(charfn_of(spec))(0.0)) \
            == pytest.approx(1.0 + 0j, abs=1e-14)


def test_pos_abs_requires_even_real():
    with pytest.raises(ValueError):
        pos_abs_cf(neg_abs_cf(charfn_of(LaplaceSym(1.0))))


def test_analytic_signal_relation_on_grid():
    # Im(phi_pos)(t) = H{Re(phi_pos)}(t) within the quadrature tolerance;
    # the slowly decaying oscillatory sinc gets the looser setting
    from netexposure.transforms import hilbert_eval

    for spec, tol in ((LaplaceSym(1.0), 1e-9), (UniformSym(1.0), 1e-7),
                      (NormalSym(1.0), 1e-9),
                      (NormalSym(12.512581759178156), 1e-9)):
        f = pos_abs_cf(charfn_of(spec))
        base = charfn_of(spec)
        for t in (0.3, 1.0, 2.5):
            pv = hilbert_eval(base, t, tol=tol, method="pv").value
            assert complex(f(t)).imag == pytest.approx(pv.real, abs=1e-6)


def test_pos_abs_real_part_is_the_base_cf():
    # the analytic signal keeps phi itself as its real part, to the last
    # bit; this sigma has sigma**2 != sigma*sigma in floating point
    base = charfn_of(NormalSym(12.512581759178156))
    f = pos_abs_cf(base)
    ts = np.linspace(-0.4, 0.4, 401)
    assert np.array_equal(f(ts).real, base(ts).real)
    for t in ts[::40]:
        assert complex(f(t)).real == complex(base(t)).real


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------

def test_even_real_mean_is_zero():
    assert cf_mean(charfn_of(LaplaceSym(1.0))) == 0.0
    assert cf_mean(charfn_of(UniformSym(2.0))) == 0.0


def test_mean_of_exponential_by_quadrature_oracle():
    # direct integration of x * exp(-x) over (0, inf)
    from scipy.integrate import quad

    oracle, _ = quad(lambda x: x * math.exp(-x), 0.0, np.inf)
    f = pos_abs_cf(charfn_of(LaplaceSym(1.0)))
    assert cf_mean(f) == pytest.approx(oracle, abs=1e-12)


def test_mean_of_gamma_products():
    for m in (1, 3, 5):
        for alpha in (1.0, 2.0):
            for beta in (0.5, 2.0):
                f = cf_product([charfn_of(Gamma(alpha, beta))] * m)
                assert cf_mean(f) == pytest.approx(m * alpha * beta,
                                                   abs=1e-9)


def test_mean_finite_difference_route():
    # strip the metadata so cf_mean has to differentiate
    import dataclasses

    f = pos_abs_cf(charfn_of(LaplaceSym(1.0)))
    blind = dataclasses.replace(f, mean=None, side=None, rational=None)
    assert cf_mean(blind) == pytest.approx(1.0, abs=1e-9)


def test_mean_symmetry_pos_neg():
    for spec in (LaplaceSym(1.0), NormalSym(1.0), UniformSym(1.0),
                 LaplaceSym(0.5)):
        pos = pos_abs_cf(charfn_of(spec))
        neg = neg_abs_cf(charfn_of(spec))
        assert cf_mean(pos) == pytest.approx(-cf_mean(neg), abs=1e-12)


def test_moment_error_on_nonvanishing_imaginary_residue():
    from netexposure.charfn import CharFn

    # not Hermitian: the derivative at 0 is i + 0.1, so phi'(0)/i has a
    # residual imaginary part of -0.1
    bogus = CharFn(fn=lambda t: np.exp(1j * np.asarray(t))
                   * (1.0 + 0.1 * np.asarray(t)))
    with pytest.raises(MomentError):
        cf_mean(bogus)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_negative_abs_samples_are_negative():
    rng = np.random.default_rng(7)
    x = sample(LaplaceSym(1.0), rng, sign=-1, size=1000)
    assert np.all(x < 0)


def test_positive_abs_samples_are_positive():
    rng = np.random.default_rng(8)
    x = sample(UniformSym(1.0), rng, sign=+1, size=1000)
    assert np.all(x > 0)
    assert np.all(x <= 1.0)


def test_sign_rejected_for_one_sided():
    rng = np.random.default_rng(9)
    with pytest.raises(ValueError):
        sample(Gamma(1.0, 2.0), rng, sign=+1)


def test_normal_sample_mean_clt_bound():
    n = 10**6
    rng = np.random.default_rng(123)
    x = sample(NormalSym(1.0), rng, size=n)
    assert abs(np.mean(x)) < 4.0 / math.sqrt(n)


def test_gamma_sample_mean():
    n = 10**6
    rng = np.random.default_rng(321)
    x = sample(Gamma(1.0, 2.0), rng, size=n)
    se = np.std(x) / math.sqrt(n)
    assert abs(np.mean(x) - 2.0) < 4.0 * se


@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_laplace_sample_matches_laplace_cdf(scale):
    from scipy import stats

    x = sample(LaplaceSym(scale), np.random.default_rng(41), size=50_000)
    assert stats.kstest(x, stats.laplace(scale=scale).cdf).pvalue > 1e-3


def test_laplace_sample_signs_are_fair():
    n = 200_000
    x = sample(LaplaceSym(1.0), np.random.default_rng(42), size=n)
    assert abs(np.mean(x < 0) - 0.5) < 4.0 * math.sqrt(0.25 / n)


@pytest.mark.parametrize("sign", [+1, -1])
def test_signed_laplace_sample_is_exponential(sign):
    from scipy import stats

    x = sample(LaplaceSym(2.5), np.random.default_rng(43), sign=sign,
               size=50_000)
    assert np.all(sign * x >= 0)
    assert stats.kstest(sign * x, stats.expon(scale=2.5).cdf).pvalue > 1e-3


@pytest.mark.parametrize("sign", [None, +1, -1])
def test_laplace_sample_shapes(sign):
    rng = np.random.default_rng(44)
    scalar = sample(LaplaceSym(1.0), rng, sign=sign)
    assert np.ndim(scalar) == 0 and isinstance(scalar, float)
    grid = sample(LaplaceSym(1.0), rng, sign=sign, size=(3, 70))
    assert grid.shape == (3, 70)
    if sign is None:
        # 210 draws use four raw words of sign bits, across the rows
        assert 0 < np.sum(grid < 0) < grid.size
    else:
        assert np.all(sign * grid >= 0)


NUMPY_SAMPLERS = {
    NormalSym: lambda d, rng, n: rng.normal(0.0, d.sigma, n),
    UniformSym: lambda d, rng, n: rng.uniform(-d.half_width, d.half_width, n),
    Gamma: lambda d, rng, n: rng.gamma(d.shape, d.scale, n),
    Exponential: lambda d, rng, n: rng.exponential(d.scale, n),
}


@pytest.mark.parametrize("spec", CATALOG, ids=str)
def test_sample_into_out_keeps_the_bits(spec):
    # a caller-owned buffer gets the bits of a fresh draw, and every law
    # but Laplace (which draws Exp magnitudes) has numpy's own sampler's
    n, seed = 4097, 61
    for sign in (None, +1, -1) if spec.two_sided else (None,):
        fresh = sample(spec, np.random.default_rng(seed), sign=sign, size=n)
        buf = np.full(n, np.nan)
        got = sample(spec, np.random.default_rng(seed), sign=sign, out=buf)
        assert got is buf
        assert got.tobytes() == fresh.tobytes()
        if type(spec) in NUMPY_SAMPLERS:
            want = NUMPY_SAMPLERS[type(spec)](
                spec, np.random.default_rng(seed), n)
            if sign is not None:
                want = sign * np.abs(want)
            assert fresh.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [LaplaceSym(1e308), NormalSym(1e308),
                                  Gamma(2.0, 1e308), Exponential(1e308)],
                         ids=str)
def test_sample_overflows_to_inf_without_a_warning(spec):
    # the suite turns every RuntimeWarning into an error
    x = sample(spec, np.random.default_rng(3), size=1000)
    assert np.isinf(x).any() and not np.isnan(x).any()


@pytest.mark.parametrize("spec", CATALOG, ids=str)
def test_empirical_cf_matches_evaluator(spec):
    n = 10**5
    rng = np.random.default_rng(zlib.crc32(str(spec).encode()))
    x = sample(spec, rng, size=n)
    f = charfn_of(spec)
    for t in (0.5, 1.0, 2.0):
        empirical = np.mean(np.exp(1j * t * x))
        assert abs(empirical - complex(f(t))) < 5.0 / math.sqrt(n)


def test_pos_abs_generic_fallback():
    # an even-real function with all structure stripped goes through the
    # per-point transform route; compare against the catalog closed form
    import dataclasses

    base = charfn_of(LaplaceSym(1.0))
    anonymous = dataclasses.replace(base, rational=None, dist=None)
    generic = pos_abs_cf(anonymous)
    exact = pos_abs_cf(base)
    assert generic.side == +1
    assert generic.mean == pytest.approx(1.0, abs=1e-7)
    for t in (0.4, 1.0, 2.0):
        assert complex(generic(t)) == pytest.approx(complex(exact(t)),
                                                    abs=1e-7)


def _old_sinc_even(c, t):
    """sin(ct)/(ct) as the evaluator wrote it before sharing its helper."""
    t = np.asarray(t, dtype=float)
    x = c * t
    out = np.empty(x.shape, dtype=complex)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 1.0 - xs * xs / 6.0
    xb = x[~small]
    out[~small] = np.sin(xb) / xb
    return out if out.shape else out[()]


def _old_sinc_hilbert(c, w):
    w = np.asarray(w, dtype=float)
    x = c * w
    out = np.empty(x.shape, dtype=float)
    small = np.abs(x) < 1e-4
    xs = x[small]
    out[small] = 0.5 * xs - xs**3 / 24.0
    xb = x[~small]
    out[~small] = (1.0 - np.cos(xb)) / xb
    return out if out.shape else out[()]


def _hexes(values):
    return [(float(v.real).hex(), float(v.imag).hex())
            for v in np.atleast_1d(values)]


@pytest.mark.parametrize("c", [1.0, 3.0, 1e-6, 2.5e5])
def test_sinc_evaluators_match_their_inline_formulas(c):
    from netexposure.transforms import _hilbert_fn

    # |c*t| on both sides of the 1e-4 cut, at 0 and at both signs; the
    # unit sinc and its transform, dilated by the half width c
    f = charfn_of(UniformSym(c))
    assert f.scale == c
    ts = np.array([0.0, 1e-9, -3e-5, 9.99e-5, 1e-4, -1.0001e-4, 0.5, -2.0,
                   7.0, 1e3]) / c
    for new, old in ((f, _old_sinc_even), (_hilbert_fn(f), _old_sinc_hilbert)):
        assert _hexes(new(ts)) == _hexes(old(c, ts))
        for t in ts:
            got, want = new(t), old(c, t)
            assert np.ndim(got) == np.ndim(want) == 0
            assert type(got) is type(want)
            assert _hexes(got) == _hexes(want)


@pytest.mark.parametrize("c", [1e307, 1.7e308])
def test_sinc_evaluators_reject_an_overflowing_argument(c):
    from netexposure.transforms import _hilbert_fn

    even = charfn_of(UniformSym(c))
    odd = _hilbert_fn(even)
    for fn, name in ((even, "t"), (odd, "omega")):
        with pytest.raises(MomentError, match=re.escape(
                f"scale {c:g} times |{name}| = 64 leaves the floating-point "
                "range")):
            fn(np.array([0.0, 64.0]))
    assert even(0.0) == 1.0 and odd(0.0) == 0.0  # c * 0 is in range
