"""Hilbert transforms of characteristic functions, and E|Y| from them.

Five routes for the transform, in the order ``_route`` tries them:

* the analytic-signal rule for one-sided functions: -i*f (positive side),
  +i*f (negative side), exact wherever it applies;
* residue calculus for the factored rational functions c / prod_j
  (t - p_j)^(m_j) (at least one pole, none on the real axis): H{f}(w) =
  2i * sum of residues of f(z)/(w-z) over upper-half-plane poles, minus
  i*f(w) for the simple real pole at w;
* the Dawson-function form for Gaussian shapes;
* the closed form a catalog c.f. carries (uniform: (1 - cos cw)/(cw));
* adaptive principal-value quadrature of the folded integrand
  [f(w-u) - f(w+u)] / u on [0, T], the universal fallback and the
  cross-check for every closed form.

Its slope at zero is E|Y|: analytic for Gaussian and one-sided functions,
else one regular quadrature, E|Y| = (2/pi) * integral_0^inf
(1 - Re phi(t)) / t^2 dt, on the principal value's adaptive panels; a
normal netting set's E|Y| is a bounded Fourier-cosine series instead
(``_normal_abs_mean``). For a symmetric X with c.f. phi, the c.f. of |X|
is the analytic signal phi + i*H{phi}.

Every numeric path takes an absolute tolerance; a call without one uses
DEFAULT_TOL, which is also the CLI's --tol default.
"""

import math
import sys
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable

import numpy as np

from .charfn import (
    CharFn,
    Exponential,
    LaplaceSym,
    Pole,
    RationalForm,
    _dilate,
    cf_mean,
    charfn_of,
)
from .laws import DEFAULT_TOL, ROUTES, TruncationError

__all__ = [
    "dawson",
    "hilbert_rational",
    "hilbert_gaussian",
    "hilbert_one_sided",
    "hilbert_eval",
    "hilbert_deriv_at_zero",
    "pos_abs_cf",
    "neg_abs_cf",
    "HilbertResult",
    "ToleranceError",
]


class ToleranceError(RuntimeError):
    """Quadrature could not reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class HilbertResult:
    value: complex
    method: str  # one of ROUTES
    error: float  # estimated absolute error (0.0 for exact closed forms)


# ---------------------------------------------------------------------------
# Dawson function
# ---------------------------------------------------------------------------

# The scaled power series exp(-x^2) * sum x^(2k+1)/(k!(2k+1)) has only
# positive terms, so there is no cancellation; it stays at machine accuracy
# well past the switchover. Its terms shrink once k exceeds x^2, and by
# k = 140 they are far below machine epsilon of the sum for |x| <= 6.5.
# The terms a block of at most 512 points needs (113 at |x| = 6.5, 13 at
# 0.5) are built and summed at once, as a (terms x points) matrix (about
# 0.5 MB): a market's normal grid has about 20 series points, for which a
# term-by-term loop would pay up to 100 rounds of numpy calls; a block of
# small points skips the subnormal tail terms. The backward-evaluated
# continued fraction
# 0.5/(x - (1/2)/(x - 1/(x - (3/2)/(x - ...)))) converges to full precision
# only for |x| >= ~6.5 (at 6.09 it is 4e-13 off), so the handover sits
# at 6.5 (validated in the tests against scipy and direct quadrature).
_DAWSON_SWITCH = 6.5
_DAWSON_SERIES_TERMS = 140
_DAWSON_BLOCK = 512
_DAWSON_CF_DEPTH = 48
_EPS = np.finfo(float).eps


@cache
def _dawson_rows(x: float) -> int:
    """How many series terms points up to |x| need: a term-by-term loop on
    x alone, stopping at the first k > x^2 with k % 4 == 0 at which the
    next term is at most eps times the partial sum. That ratio,
    x^(2k+3)/(k+1)! over sum_{j<=k} x^(2j+1)/(j!(2j+1)), grows with |x|,
    so every smaller point has met the rule by then too. Callers pass x
    rounded up to a quarter, so at most 27 counts are ever computed."""
    xx = x * x
    term, acc = x, 0.0
    for k in range(_DAWSON_SERIES_TERMS):
        acc += term / (2 * k + 1)
        term *= xx / (k + 1)
        if k > xx and k % 4 == 0 and term <= _EPS * acc:
            return k + 1
    return _DAWSON_SERIES_TERMS


def _dawson_series(xs: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """sum x^(2k+1)/(k!(2k+1)) at the points ``xs``, whose squares are
    ``xx``, over the k < _dawson_rows(max |x| rounded up to a quarter).

    A loop that adds term by term and stops at the first k > max x^2 with
    k % 4 == 0 at which every next term is at most eps times its partial
    sum gets the same bits: past that stop each term adds at most eps/11
    times the sum (the next term is at most eps times it, is divided by
    2k + 3 >= 11, and the terms shrink past k = x^2), less than half an
    ulp.
    """
    top = math.ceil(4.0 * float(np.max(np.abs(xs)))) / 4.0
    k = np.arange(_dawson_rows(top))[:, None]
    terms = np.empty((k.size, xs.size))  # term_k = term_(k-1) x^2/k
    terms[0] = xs
    np.divide(xx, k[1:], out=terms[1:])
    np.multiply.accumulate(terms, out=terms)
    terms /= 2 * k + 1
    terms[0] += 0.0  # a sum started at +0.0: F(-0) = +0
    return np.add.accumulate(terms, out=terms)[-1]


def dawson(x):
    """Dawson integral F(x) = exp(-x^2) * integral_0^x exp(s^2) ds.

    Odd, F'(0) = 1, relative error under 12 eps. Accepts scalars or
    arrays.
    """
    scalar = np.isscalar(x) or np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty_like(x)

    small = np.abs(x) <= _DAWSON_SWITCH
    xs = x[small]
    if xs.size:
        xx = xs * xs
        acc = np.concatenate([
            _dawson_series(xs[j:j + _DAWSON_BLOCK], xx[j:j + _DAWSON_BLOCK])
            for j in range(0, xs.size, _DAWSON_BLOCK)])
        out[small] = np.exp(-xx) * acc

    xb = x[~small]
    if xb.size:
        frac = np.zeros_like(xb)
        for k in range(_DAWSON_CF_DEPTH, 0, -1):
            frac = (0.5 * k) / (xb - frac)
        out[~small] = 0.5 / (xb - frac)

    return out[0] if scalar else out


def hilbert_gaussian(variance: float, omega):
    """Transform of exp(-v t^2 / 2): (2/sqrt(pi)) * F(w * sqrt(v/2)), at
    a scalar or an array of points."""
    if variance < 0:
        raise ValueError("variance must be nonnegative")
    return (2.0 / math.sqrt(math.pi)) * dawson(
        omega * math.sqrt(0.5 * variance))


# ---------------------------------------------------------------------------
# Residue engine
# ---------------------------------------------------------------------------

def _series_mul(a: list[complex], b: list[complex],
                order: int) -> list[complex]:
    out = [0j] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai == 0:
            continue
        for j in range(min(len(b), order + 1 - i)):
            out[i + j] += ai * b[j]
    return out


def _upper_residue(form: RationalForm, pole: Pole, omega: float) -> complex:
    """Residue of f(z)/(omega - z) = -c / ((z - omega) prod_j (z - p_j)^(m_j))
    at its pole p of order m: the (m-1)-th Taylor coefficient around p of -c
    times each other factor (z - a)^(-n), expanded by the ratio recurrence
    of its binomial series (coefficient and power apart overflow at high
    orders). OverflowError when c or a (p - a)^(-n) loses its digits below
    the normal range."""
    p, order = pole.location, pole.order - 1
    series = [-form.constant] + [0j] * order
    others = [(q.location, q.order) for q in form.poles if q.location != p]
    for a, n in [(omega, 1), *others]:
        fac = [(p - a) ** -n]
        if min(abs(fac[0]), abs(form.constant)) < sys.float_info.min:
            raise OverflowError("leading coefficient below the normal range")
        for k in range(1, order + 1):
            fac.append(fac[-1] * -(n + k - 1) / (k * (p - a)))
        series = _series_mul(series, fac, order)
    return series[order]


def hilbert_rational(f: CharFn, omega: float) -> complex:
    """Residue-calculus transform of a factored rational function: its
    unit form's at scale * omega.

    Requires at least one pole, so that the function vanishes at infinity,
    and every pole off the real axis. ToleranceError when the residues
    leave the normal floating-point range (|omega| near the float limit).
    """
    if reason := _unfit(f, "residue"):
        raise ValueError(reason)
    form, total, w = f.rational, 0j, _dilate(f.scale, omega, "|omega|")
    try:
        for p in form.poles:
            if p.location.imag > 0:
                total += 2j * _upper_residue(form, p, w)
        # simple real pole at w contributes i * Res = -i * f(w),
        # imaginary for a real f, whose transform is real
        if not f.even_real:
            with np.errstate(all="ignore"):
                total += -1j * complex(form(w))
    except (ZeroDivisionError, OverflowError):
        total = complex("nan")
    if not np.isfinite(total):
        raise ToleranceError("residue sum outside the floating-point range",
                             math.inf)
    return complex(total.real) if f.even_real else total


# ---------------------------------------------------------------------------
# One-sided (analytic signal) rule, and the c.f.s of |X| and -|X|
# ---------------------------------------------------------------------------

def hilbert_one_sided(f: CharFn, omega: float) -> complex:
    """Transform of a one-sided c.f. (or a same-side product of them):
    -i*f(w) for positive support, +i*f(w) for negative support."""
    if reason := _unfit(f, "onesided"):
        raise ValueError(reason)
    w = _dilate(f.scale, omega, "|omega|")
    return (-1j if f.side == +1 else 1j) * complex(f.fn(w))


def _conjugate_cf(f: CharFn) -> CharFn:
    """Mirror a characteristic function: the c.f. of -X is conj(f(t))."""
    inner = f.fn
    return replace(
        f, fn=lambda t: np.conjugate(inner(t)),
        rational=f.rational.conjugate() if f.rational is not None else None,
        side=-f.side if f.side is not None else None,
        mean=-f.mean if f.mean is not None else None,
        hilbert_closed_form=None)


def pos_abs_cf(base: CharFn) -> CharFn:
    """C.f. of the positive absolute value |X| of a symmetric variable.

    The result is the analytic signal of the input: the real part equals
    the input and the imaginary part is its Hilbert transform, the law's
    closed form when it has one (Dawson for the normal law, (1 - cos cw)
    / (cw) for the uniform) and quadrature otherwise. Laplace inputs give
    the exponential law instead, whose rational form the residue tier
    uses; a one-sided input is returned unchanged.
    """
    if base.side == +1:
        return base
    if not base.even_real:
        raise ValueError("positive absolute value needs a real, even c.f. "
                         "(symmetric distribution) or a one-sided one")
    if isinstance(base.dist, LaplaceSym):
        return replace(charfn_of(Exponential(base.dist.scale)),
                       dist=base.dist)

    transform = _hilbert_fn(replace(base, scale=1.0))

    def fn(x):
        return base.fn(x) + 1j * np.real(transform(x))

    mean = (base.dist.abs_mean if base.dist is not None
            else hilbert_deriv_at_zero(base))
    return CharFn(fn=fn, side=+1, mean=mean, dist=base.dist, scale=base.scale)


def neg_abs_cf(base: CharFn) -> CharFn:
    """C.f. of the negative absolute value -|X|; the complex conjugate of
    the positive one. A one-sided positive input is mirrored directly."""
    if base.side == -1:
        return base
    if base.side == +1:
        return _conjugate_cf(base)
    return _conjugate_cf(pos_abs_cf(base))


# ---------------------------------------------------------------------------
# Numeric principal value
# ---------------------------------------------------------------------------

_GL_LO_X, _GL_LO_W = np.polynomial.legendre.leggauss(16)
_GL_HI_X, _GL_HI_W = np.polynomial.legendre.leggauss(32)

_PV_MAX_PANELS = 300_000
# E|Y| rounds without a new lowest error estimate that end it (_abs_mean):
# converging ones go at most 7 such rounds, stalled ones 17 or more
_STALL_ROUNDS = 12
# error per unit of integrated magnitude that rounding alone can leave
_ROUNDING_FLOOR = 64 * _EPS
_PV_TMAX = 1e13
_PV_MESH_RATIO = 1.25
_TAIL_POINTS = np.array([-1.4689, -1.2917, -1.131, -1.0,
                         1.0, 1.131, 1.2917, 1.4689])


def _truncate(fn: Callable, omega: float, T: float,
              small: Callable[[float], float]) -> tuple[float, float]:
    """Double T until max |f| sampled at omega +- T * (1 .. 1.47) is below
    small(T); returns T and that magnitude."""
    while True:
        mag = float(np.max(np.abs(fn(omega + T * _TAIL_POINTS))))
        if mag < small(T):
            return T, mag
        T *= 2.0
        if T > _PV_TMAX:
            raise TruncationError("function does not decay within the "
                                  f"truncation limit _PV_TMAX = {_PV_TMAX:g}")


def _panel_integrals(g: Callable, lo: np.ndarray, hi: np.ndarray):
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts_lo = mid[:, None] + half[:, None] * _GL_LO_X[None, :]
    pts_hi = mid[:, None] + half[:, None] * _GL_HI_X[None, :]
    v_lo = (g(pts_lo.ravel()).reshape(pts_lo.shape)
            * _GL_LO_W[None, :]).sum(axis=1) * half
    v_hi = (g(pts_hi.ravel()).reshape(pts_hi.shape)
            * _GL_HI_W[None, :]).sum(axis=1) * half
    return v_hi, np.abs(v_hi - v_lo)


def _adaptive(g: Callable, T: float, tol: float, scale: float, peak: float,
              patience: float = math.inf):
    """scale * integral of g on [0, T] and its error estimate, refined
    until that is below tol/2: Gauss-Legendre 16/32 pairs (interior nodes
    only) on a mesh graded geometrically away from 0 and from ``peak``,
    bisecting the worst quarter each round.

    ToleranceError once _PV_MAX_PANELS panels are spent, past ``patience``
    rounds without a new lowest error estimate, or once tol/2 is below the
    rounding floor of the integral's magnitude, which no refinement reaches.
    """
    steps = [0.0, 0.5]
    while steps[-1] < T:
        steps.append(steps[-1] * _PV_MESH_RATIO + 0.5)
    steps = np.array(steps)
    if peak > 0.5:  # inside the first panel, the mesh from 0 resolves it
        steps = np.concatenate([steps, peak - steps, peak + steps])
    edges = np.unique(np.clip(steps, 0.0, T))
    lo, hi = edges[:-1], edges[1:]
    vals, errs = _panel_integrals(g, lo, hi)

    n_evaluated = lo.size
    best, stale = math.inf, 0
    while (achieved := scale * errs.sum()) > 0.5 * tol:
        best, stale = (achieved, 0) if achieved < best else (best, stale + 1)
        floor = _ROUNDING_FLOOR * scale * np.abs(vals).sum()
        if (n_evaluated > _PV_MAX_PANELS or stale > patience
                or floor > 0.5 * tol):
            raise ToleranceError(
                f"quadrature stalled at estimated error {achieved:.3e} "
                f"(requested {tol:.3e}, rounding floor {floor:.3e})",
                achieved)
        k = max(1, lo.size // 4)
        thresh = np.partition(errs, -k)[-k]
        mask = errs >= thresh
        mid = 0.5 * (lo[mask] + hi[mask])
        new_lo = np.concatenate([lo[mask], mid])
        new_hi = np.concatenate([mid, hi[mask]])
        new_vals, new_errs = _panel_integrals(g, new_lo, new_hi)
        n_evaluated += new_lo.size
        lo = np.concatenate([lo[~mask], new_lo])
        hi = np.concatenate([hi[~mask], new_hi])
        vals = np.concatenate([vals[~mask], new_vals])
        errs = np.concatenate([errs[~mask], new_errs])
    return scale * vals.sum(), scale * errs.sum()


def _pv(f: CharFn, omega: float, tol: float):
    """Folded PV quadrature at w = scale * omega; (value, error estimate).

    The singularity is removed analytically by folding: the integrand
    [f(w-u) - f(w+u)]/u extends continuously to u=0 (limit -2 f'(w)), so
    interior-node Gauss-Legendre panels need no special treatment there.
    The truncation point grows from 64 + |w|, TruncationError at once if
    past _PV_TMAX, until the sampled tail is below tol/100: the discarded
    tail is then at most 2*|f(T)|/pi for anything decaying at least like 1/t.
    """
    fn, w = f.fn, _dilate(f.scale, omega, "|omega|")
    T = 64.0 + abs(w)
    if T > _PV_TMAX:
        at = "" if f.scale == 1.0 else f"scale {f.scale:g} times "
        raise TruncationError(f"{at}|omega| = {abs(omega):g} is beyond the "
                              f"truncation limit _PV_TMAX = {_PV_TMAX:g}")
    T, mag = _truncate(fn, w, T, lambda T: tol / 100.0)

    def g(u):
        return (fn(w - u) - fn(w + u)) / u

    value, error = _adaptive(g, T, tol, 1.0 / math.pi, abs(w))
    return value, error + 2.0 * mag / math.pi


def _abs_mean(fn: Callable, tol: float):
    """E|Y| from the c.f. of Y; returns (value, error estimate).

    E|Y| = (2/pi) * integral_0^inf (1 - Re phi(t)) / t^2 dt (von Bahr,
    1965). The integrand tends to E(Y^2)/2 at 0, so the panels need no
    special treatment there. Past the truncation point T the constant
    part integrates to 2/(pi T) exactly, and the rest is bounded by
    (2/pi) * max|phi| / T, with T grown until that bound is below
    tol/100. A tol below the rounding floor stops before any truncation.
    Its rounding noise, about eps/t^2, grows as the panel at 0 is bisected
    (PV's, about eps/u, does not), so a stall ends after _STALL_ROUNDS
    rounds without a new lowest error estimate.
    """
    if tol < _ROUNDING_FLOOR:
        raise ToleranceError(f"E|Y| quadrature: tol {tol:.3e} is below the "
                             f"rounding floor {_ROUNDING_FLOOR:.3e} per unit "
                             "of the law's scale", _ROUNDING_FLOOR)
    T, mag = _truncate(fn, 0.0, 64.0, lambda T: math.pi * tol * T / 200.0)

    def g(t):
        return (1.0 - fn(t).real) / (t * t)

    value, error = _adaptive(g, T, tol, 2.0 / math.pi, 0.0, _STALL_ROUNDS)
    tail = 2.0 / (math.pi * T)
    return value + tail, error + tail * mag


# x D(x) <= C for x > 0 (the sup is 0.642375): h(x) = C exp(x^2) / x -
# integral_0^x exp(s^2) ds has h' = exp(x^2) (2C - 1 - C / x^2), so its one
# minimum is at x* = sqrt(C / (2C - 1)), and h(x*) >= 0 is x* D(x*) <= C
_XD_BOUND = 0.643


def _normal_abs_mean(a: int, b: int, c: int, tol: float):
    """E|Y| and its error bound for Y = |Z_1| + ... + |Z_a| - |Z'_1| - ...
    - |Z'_b| + W_1 + ... + W_c over n = a + b + c standard normals (a
    set's claims, debts and undirected links; a + b >= 2 or c >= 1): the
    cosine series of the triangle wave that is |y| on [-L, L] (Fang and
    Oosterlee, 2008), E|Y| = L/2 - (4L/pi^2) sum_{k odd <= K} Re phi(k
    pi/L) / k^2, plus a tail, bounded by Gaussian concentration (Y is
    sqrt(n)-Lipschitz); the terms past K, bounded by |psi(t)| <= A/t for
    the c.f. psi of |Z| (from _XD_BOUND); and rounding, 16 eps (n + 1) L,
    at most tol/4 (else ToleranceError before any term is summed). L and
    K put the first two at max(tol/2048, rounding); terms are cheap next
    to Dawson's power series, paid once per call. (b, a, c): same bits.
    """
    if not tol > 0:  # also nan; inf is clamped to 1
        raise ValueError(f"tol must be > 0, got {tol}")
    n, m, tol = a + b + c, a + b, min(tol, 1.0)
    # erfc(x) <= exp(-x^2) sets u; the tail bound itself keeps the erfc
    u = math.sqrt(2 * n * math.log(4096 * math.sqrt(2 * math.pi * n) / tol))
    L = abs(a - b) * math.sqrt(2 / math.pi) + u
    tail = 2 * math.sqrt(2 * math.pi * n) * math.erfc(u / math.sqrt(2 * n))
    rounding = 16 * _EPS * (n + 1) * L
    if rounding > tol / 4:
        raise ToleranceError(f"E|Y| series: requested {tol:.3e} is below "
                             f"the rounding floor {4 * rounding:.3e} (per "
                             "unit of the law's scale)", rounding)
    beta = c * math.pi ** 2 / (2 * L * L)

    def remainder(K: int) -> float:
        # terms k > K are <= (A L / pi)^m k^-(m+2) exp(-beta k^2), which
        # decreases, so their sum is <= half its integral from K
        t = K * math.pi / L  # >= 1, where t^2 exp(-t^2) decreases
        A = math.sqrt(t * t * math.exp(-t * t) + 8 * _XD_BOUND ** 2 / math.pi)
        w = min(1 / (m + 1), 1 / (2 * beta * K * K)) if beta else 1 / (m + 1)
        return (2 * L / (math.pi ** 2 * K) * (A * L / (math.pi * K)) ** m
                * math.exp(-beta * K * K) * w)

    K = int(L) | 1
    while remainder(K) > max(tol / 2048, rounding):
        K = 2 * K + 1
    k = np.arange(1, K + 1, 2, dtype=float)
    t = k * (math.pi / L)
    psi = np.exp(-0.5 * t * t) + 1j * (2 / math.sqrt(math.pi)) * dawson(
        t / math.sqrt(2))
    re_phi = ((psi.real ** 2 + psi.imag ** 2) ** min(a, b)
              * (psi ** abs(a - b)).real * np.exp(-0.5 * c * t * t))
    value = L / 2 - 4 * L / math.pi ** 2 * float(np.sum(re_phi / (k * k)))
    return value, tail + remainder(K) + rounding


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def _unfit(f: CharFn, method: str) -> str:
    """Why ``method`` cannot transform f; empty when it can."""
    if method not in ROUTES:
        return f"unknown method {method!r}"
    if method == "residue":
        if f.rational is None:
            return "characteristic function carries no rational form"
        if not f.rational.poles:
            return "rational function does not vanish at infinity"
        for p in f.rational.poles:
            if p.location.imag == 0:
                return f"pole on the real axis: {p.location}"
    if method == "dawson" and f.gaussian_variance is None:
        return "not a Gaussian characteristic function"
    if method == "onesided" and f.side not in (+1, -1):
        return "not an analytic signal: mixed or two-sided structure"
    if method == "closed-form" and f.hilbert_closed_form is None:
        return "no closed-form transform attached"
    return ""


def _route(f: CharFn) -> str:
    """The first of ROUTES that applies to f's structure tags."""
    return next(method for method in ROUTES if not _unfit(f, method))


def hilbert_eval(f: CharFn, omega: float, tol: float = DEFAULT_TOL,
                 method: str = "auto") -> HilbertResult:
    """Transform with method provenance and an error estimate.

    ``method`` is one of ROUTES, or "auto" for the first that applies
    (``_route``); a forced route that does not apply, or a non-finite
    omega, raises ValueError.
    """
    if not math.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if method == "auto":
        method = _route(f)
    elif reason := _unfit(f, method):
        raise ValueError(reason)
    if f.even_real and omega == 0.0:
        # odd transform of an even function
        return HilbertResult(0j, method, 0.0)
    if method == "residue":
        return HilbertResult(hilbert_rational(f, omega), "residue", 0.0)
    if method == "onesided":
        return HilbertResult(hilbert_one_sided(f, omega), "onesided", 0.0)
    if method == "pv":
        value, err = _pv(f, omega, tol)
        return HilbertResult(complex(value), "pv", float(err))
    return HilbertResult(complex(_hilbert_fn(f, tol, method)(omega)), method,
                         0.0)


def _hilbert_fn(f: CharFn, tol: float = DEFAULT_TOL, route: str = ""):
    """H{f} at a scalar or an array of points, by ``route`` or else
    ``_route``: the attached closed form and Dawson's take arrays, the
    unit function's at scale * omega; the other routes go point by point
    through ``hilbert_eval``."""
    route = route or _route(f)
    if route in ("closed-form", "dawson"):
        unit = (f.hilbert_closed_form if route == "closed-form"
                else partial(hilbert_gaussian, f.gaussian_variance))
        return lambda w: unit(_dilate(f.scale, w, "|omega|"))
    return np.vectorize(lambda w: hilbert_eval(f, float(w), tol).value,
                        otypes=[complex])


# ---------------------------------------------------------------------------
# Derivative of the transform at zero
# ---------------------------------------------------------------------------

def hilbert_deriv_at_zero(f: CharFn, tol: float = DEFAULT_TOL) -> float:
    """d/dw H{f}(w) at w = 0, which is E|Y| for the variable Y with c.f. f
    (E(max[Y; 0]) = 1/2 E(Y) + 1/2 dH(0) and max[Y; 0] = 1/2 (Y + |Y|)).

    sqrt(2 v b^2 / pi) for Gaussian variance v at scale b (b^2 normal),
    |mean| for one-sided functions, else b times the unit slope: sqrt(2v/pi)
    or _abs_mean of the unit function at tol/b (its error estimate dropped).
    """
    b, v = f.scale, f.gaussian_variance
    if v is not None and sys.float_info.min <= b * b < math.inf:
        return math.sqrt(2.0 * (v * (b * b)) / math.pi)
    if f.side in (+1, -1):
        return float(abs(cf_mean(f)))
    unit = (math.sqrt(2.0 * v / math.pi) if v is not None
            else _abs_mean(f.fn, tol / b)[0])
    return float(_dilate(b, unit))

