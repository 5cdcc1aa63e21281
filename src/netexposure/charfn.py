"""Characteristic-function algebra of the catalog laws.

This module gives each law of the catalog (``laws``) its characteristic
function, with enough structural metadata (poles, Gaussian variance,
one-sidedness, parity) for downstream transforms to pick closed forms, and
the algebra on them: products and first-moment extraction. The Monte Carlo
oracle (``mc``) draws the laws' samples itself.
"""

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .laws import (Distribution, Exponential, Gamma, LaplaceSym, MomentError,
                   NormalSym, UniformSym)

__all__ = [
    "Pole",
    "RationalForm",
    "CharFn",
    "charfn_of",
    "cf_product",
    "cf_mean",
]


# ---------------------------------------------------------------------------
# Characteristic functions with structural metadata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    location: complex
    order: int


@dataclass(frozen=True)
class RationalForm:
    """Factored rational function  c / prod_j (t - p_j)^(m_j).

    Every rational c.f. of the catalog (Laplace powers, integer-shape
    gamma laws, their mirrors and products) has a constant numerator. The
    pole list is the exact catalog data; nothing here is obtained by root
    finding.
    """

    constant: complex
    poles: tuple[Pole, ...]

    def __call__(self, t):
        t = np.asarray(t, dtype=complex)
        den = np.ones_like(t)
        for p in self.poles:
            den = den * (t - p.location) ** p.order
        return self.constant / den

    def conjugate(self) -> "RationalForm":
        return RationalForm(
            constant=self.constant.conjugate(),
            poles=tuple(Pole(p.location.conjugate(), p.order) for p in self.poles),
        )


@dataclass(frozen=True)
class CharFn:
    """An evaluable characteristic function plus structural metadata.

    Attributes:
        fn: vectorised unit function, real x (scalar or ndarray) -> complex.
        rational: exact factored rational form, when the function is one.
        gaussian_variance: v such that the function is exp(-v x^2 / 2).
        side: +1 if the underlying variable is supported on (0, inf),
            -1 for (-inf, 0), None otherwise.
        even_real: True when the function is real-valued and even
            (equivalently, the variable is symmetric).
        mean: first moment of the underlying variable, when known exactly.
        dist: catalog law this function came from, if any.
        hilbert_closed_form: known closed form of the transform
            H{fn}(x), attached for catalog entries that have one but do
            not fit the rational/Gaussian/one-sided tiers.
        scale: the law's scale b. The c.f. is fn(b t), and every tag but
            ``mean`` describes fn: H{f}(omega) = H{fn}(b omega).
    """

    fn: Callable = field(repr=False)
    rational: RationalForm | None = None
    gaussian_variance: float | None = None
    side: int | None = None
    even_real: bool = False
    mean: float | None = None
    dist: Distribution | None = None
    hilbert_closed_form: Callable | None = field(default=None, repr=False)
    scale: float = 1.0

    def __call__(self, t):
        return self.fn(_dilate(self.scale, t))


def _dilate(scale: float, t, name: str = "|t|"):
    """scale * t at scalar or array t, the only place a scale meets an
    argument; MomentError where that leaves the float range at a finite t."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        x = scale * t
    if (overflow := np.isinf(x) & np.isfinite(t)).any():
        raise MomentError(f"scale {scale:g} times {name} = "
                          f"{np.max(np.abs(t[overflow])):g} leaves the "
                          "floating-point range")
    return x if x.shape else x[()]


def _near_zero(dtype, series: Callable, away: Callable, x):
    """g(x): ``series`` (its Taylor series) for |x| < 1e-4, else ``away``."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=dtype)
    small = np.abs(x) < 1e-4
    out[small] = series(x[small])
    out[~small] = away(x[~small])
    return out if out.shape else out[()]


# sin(x)/x, and its transform (1 - cos x) / x, odd in x
_sinc_even = partial(_near_zero, complex, lambda x: 1.0 - x * x / 6.0,
                     lambda x: np.sin(x) / x)
_sinc_hilbert = partial(_near_zero, float, lambda x: 0.5 * x - x**3 / 24.0,
                        lambda x: (1.0 - np.cos(x)) / x)
# the Laplace unit function 1/((x - i)(x + i)), which is 1/(1 + x*x) to the bit
_LAPLACE = RationalForm(constant=1.0, poles=(Pole(1j, 1), Pole(-1j, 1)))


def _normal(x):
    with np.errstate(over="ignore"):  # exp(-inf) = 0 far out
        return np.exp(-0.5 * x * x).astype(complex)


def _gamma_cf(shape: float, dist: Distribution) -> CharFn:
    """(1 - i x)^(-alpha); rational with an exact pole list when the
    shape is an integer, branch-cut one-sided function otherwise."""

    def fn(x):  # the power underflows to 0 where |x|^alpha overflows
        return np.exp(-shape * np.log1p(-1j * np.asarray(x, complex)))

    # 1 - i x = -i (x + i), so an integer shape has the constant i^alpha
    rational = (RationalForm(1j ** (int(shape) % 4), (Pole(-1j, int(shape)),))
                if float(shape).is_integer() else None)
    return CharFn(fn=fn, rational=rational, side=+1, mean=dist.abs_mean,
                  dist=dist, scale=dist.scale)


def charfn_of(spec: Distribution) -> CharFn:
    """Characteristic function of a catalog law, with structure tags of
    its unit function and the law's scale.

    Laplace gives a rational function with the exact pole pair +-i;
    the normal law is tagged by its variance 1 (its transform is Dawson's
    closed form); gamma laws are one-sided (rational when the shape
    is an integer); the symmetric uniform is even-real with a known
    closed-form transform of its sinc shape.
    """
    if isinstance(spec, LaplaceSym):
        return CharFn(fn=_LAPLACE, rational=_LAPLACE, even_real=True,
                      mean=0.0, dist=spec, scale=spec.scale)
    if isinstance(spec, NormalSym):
        return CharFn(fn=_normal, gaussian_variance=1.0, even_real=True,
                      mean=0.0, dist=spec, scale=spec.sigma)
    if isinstance(spec, UniformSym):
        return CharFn(fn=_sinc_even, even_real=True, mean=0.0, dist=spec,
                      hilbert_closed_form=_sinc_hilbert,
                      scale=spec.half_width)
    if isinstance(spec, (Gamma, Exponential)):  # exponential: shape 1
        return _gamma_cf(getattr(spec, "shape", 1.0), spec)
    raise TypeError(f"unknown distribution spec: {spec!r}")


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------

_CONST_ONE = CharFn(
    fn=lambda t: np.ones(np.shape(t), dtype=complex) if np.shape(t) else 1.0 + 0j,
    even_real=True,
    mean=0.0,
    hilbert_closed_form=lambda w: np.zeros(np.shape(w)) if np.shape(w) else 0.0,
)


def _merge_rational(forms: Sequence[RationalForm]) -> RationalForm:
    # an overflowing constant (inf, or nan from inf times 0) is reported by
    # the residue sum it feeds
    with np.errstate(over="ignore", invalid="ignore"):
        constant = complex(np.prod([f.constant for f in forms]))
    poles: dict[complex, int] = {}
    for f in forms:
        for p in f.poles:
            poles[p.location] = poles.get(p.location, 0) + p.order
    return RationalForm(constant=constant,
                        poles=tuple(Pole(p, m) for p, m in poles.items()))


def _rescaled(f: CharFn, r: float) -> CharFn:
    """f as a factor at scale f.scale / r: its unit function dilated by r,
    and r folded into its tags once (poles p/r, constant c r^-m for the
    total order m, variance v r^2)."""
    form, v = f.rational, f.gaussian_variance
    if form is not None:
        m = sum(p.order for p in form.poles)
        with np.errstate(over="ignore"):  # the residue sum reports it
            c = complex(form.constant * np.float64(r) ** -m)
        form = RationalForm(c, tuple(Pole(p.location / r, p.order)
                                     for p in form.poles))
    return replace(f, fn=replace(f, scale=r), rational=form,
                   gaussian_variance=None if v is None else v * r * r)


def cf_product(factors: Iterable[CharFn]) -> CharFn:
    """Pointwise product, the c.f. of a sum of independent variables.

    It keeps the first factor's scale (another scale is ``_rescaled``).
    Structure tags combine: rational forms merge pole multisets and
    multiply constants, Gaussian variances add, even-real parity and
    one-sidedness survive only if shared by every factor, and known means
    add. A factor repeated k times adds k times its variance and mean, in
    one step. A product of several factors is no catalog law, so it
    carries no ``dist``. The empty product is the constant 1.
    """
    fs = list(factors)
    if not fs:
        return _CONST_ONE
    if len(fs) == 1:
        return fs[0]
    b = fs[0].scale
    fs = [f if f.scale == b else _rescaled(f, f.scale / b) for f in fs]

    # a repeated factor is evaluated once per call; the product keeps
    # the original order, so the result is the same to the last bit
    repeats = Counter(fs)
    slot = {f: k for k, f in enumerate(repeats)}
    order = [slot[f] for f in fs]

    def fn(t):
        values = [f.fn(t) for f in repeats]
        out = values[order[0]]
        for k in order[1:]:
            out = out * values[k]
        return out

    rational = None
    if all(f.rational is not None for f in fs):
        rational = _merge_rational([f.rational for f in fs])
    gaussian = None
    if all(f.gaussian_variance is not None for f in fs):
        gaussian = float(sum(k * f.gaussian_variance
                             for f, k in repeats.items()))
    sides = {f.side for f in fs}
    side = sides.pop() if len(sides) == 1 and None not in sides else None
    mean = None
    if all(f.mean is not None for f in fs):
        mean = float(sum(k * f.mean for f, k in repeats.items()))
    return CharFn(
        fn=fn,
        rational=rational,
        gaussian_variance=gaussian,
        side=side,
        even_real=all(f.even_real for f in fs),
        mean=mean,
        scale=b,
    )


# ---------------------------------------------------------------------------
# Moments
# ---------------------------------------------------------------------------

_FD_STEPS = (1e-2, 5e-3, 2.5e-3)
_IMAG_RESIDUE_TOL = 1e-9


def _richardson_central(fn: Callable, steps: Sequence[float]) -> complex:
    """Richardson-extrapolated central difference of fn at 0."""
    table = [(fn(h) - fn(-h)) / (2.0 * h) for h in steps]
    k = 1
    while len(table) > 1:
        factor = 4.0**k
        table = [(factor * b - a) / (factor - 1.0)
                 for a, b in zip(table, table[1:])]
        k += 1
    return table[0]


def cf_mean(f: CharFn) -> float:
    """First moment via the derivative of the c.f. at zero.

    Uses stored metadata when the structure permits; otherwise a central
    finite difference with Richardson extrapolation. The imaginary residue
    of phi'(0)/i must vanish (below 1e-9), else extraction fails.
    """
    if f.even_real:
        return 0.0
    if f.mean is not None:
        return f.mean
    deriv = _richardson_central(f, _FD_STEPS)
    value = deriv / 1j
    if abs(value.imag) > _IMAG_RESIDUE_TOL:
        raise MomentError(
            f"moment extraction failed: imaginary residue {value.imag:.3e}")
    return float(value.real)
