"""Characteristic-function algebra of the catalog laws.

This module gives each law of the catalog (``laws``) its characteristic
function, with enough structural metadata (poles, Gaussian variance,
one-sidedness, parity) for downstream transforms to pick closed forms, and
the algebra on them: products and first-moment extraction. The Monte Carlo
oracle (``mc``) draws the laws' samples itself.
"""

from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .laws import (Distribution, Exponential, Gamma, LaplaceSym, MomentError,
                   NormalSym, UniformSym, _square)

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
        fn: vectorised evaluator, real t (scalar or ndarray) -> complex.
        rational: exact factored rational form, when the function is one.
        gaussian_variance: v such that the function is exp(-v t^2 / 2).
        side: +1 if the underlying variable is supported on (0, inf),
            -1 for (-inf, 0), None otherwise.
        even_real: True when the function is real-valued and even
            (equivalently, the variable is symmetric).
        mean: first moment of the underlying variable, when known exactly.
        dist: catalog law this function came from, if any.
        hilbert_closed_form: known closed form of the transform
            H{f}(omega), attached for catalog entries that have one but do
            not fit the rational/Gaussian/one-sided tiers.
    """

    fn: Callable = field(repr=False)
    rational: RationalForm | None = None
    gaussian_variance: float | None = None
    side: int | None = None
    even_real: bool = False
    mean: float | None = None
    dist: Distribution | None = None
    hilbert_closed_form: Callable | None = field(default=None, repr=False)

    def __call__(self, t):
        return self.fn(t)


def _of_ct(c: float, dtype, near_zero: Callable, away: Callable, t):
    """g(c*t) at scalar or array t: ``near_zero`` (a Taylor series) for small
    c*t, ``away`` elsewhere; MomentError when c*t overflows at a finite t."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        x = c * t
    overflow = ~np.isfinite(x)
    if overflow.any() and np.isfinite(t[overflow]).any():
        raise MomentError(f"half width {c:g} times t leaves the "
                          "floating-point range")
    out = np.empty(x.shape, dtype=dtype)
    small = np.abs(x) < 1e-4
    out[small] = near_zero(x[small])
    out[~small] = away(x[~small])
    return out if out.shape else out[()]


def _sinc_even(c: float):
    """Evaluator for sin(ct)/(ct), by its Taylor series near 0."""
    return partial(_of_ct, c, complex, lambda x: 1.0 - x * x / 6.0,
                   lambda x: np.sin(x) / x)


def _sinc_hilbert(c: float):
    """Closed form H{sin(ct)/(ct)}(w) = (1 - cos(cw)) / (cw), odd in w."""
    return partial(_of_ct, c, float, lambda x: 0.5 * x - x**3 / 24.0,
                   lambda x: (1.0 - np.cos(x)) / x)


def _gamma_cf(shape: float, scale: float, dist: Distribution) -> CharFn:
    """(1 - i*beta*t)^(-alpha); rational with an exact pole list when the
    shape is an integer, branch-cut one-sided function otherwise."""
    b = scale

    def fn(t):  # the power underflows to 0 where |b t|^alpha overflows
        return np.exp(-shape * np.log1p(-1j * b * np.asarray(t, complex)))

    rational = None
    if float(shape).is_integer():
        order = int(round(shape))
        # 1 - i b t = -i b (t + i/b), so the constant is (i/b)^alpha; its
        # size may overflow to inf, which the residue sum reports
        with np.errstate(over="ignore"):
            size = float(np.float64(1.0 / b) ** order)
        rational = RationalForm(constant=1j ** (order % 4) * size,
                                poles=(Pole(-1j / b, order),))
    return CharFn(
        fn=fn,
        rational=rational,
        side=+1,
        mean=shape * scale,
        dist=dist,
    )


def charfn_of(spec: Distribution) -> CharFn:
    """Characteristic function of a catalog law, with structure tags.

    Laplace gives a rational function with the exact pole pair +-i/b;
    the normal law is tagged by its variance (its transform is Dawson's
    closed form); gamma laws are one-sided (rational when the shape
    is an integer); the symmetric uniform is even-real with a known
    closed-form transform of its sinc shape.
    """
    if isinstance(spec, LaplaceSym):
        b = spec.scale

        def fn(t):
            t = np.asarray(t, dtype=float)
            return (1.0 / (1.0 + (b * t) ** 2)).astype(complex)

        rational = RationalForm(
            constant=1.0 / _square(spec, b),
            poles=(Pole(1j / b, 1), Pole(-1j / b, 1)),
        )
        return CharFn(fn=fn, rational=rational, even_real=True, mean=0.0,
                      dist=spec)
    if isinstance(spec, NormalSym):
        v = _square(spec, spec.sigma)

        def fn(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(over="ignore"):  # exp(-inf) = 0 far out
                return np.exp(-0.5 * v * t * t).astype(complex)

        return CharFn(fn=fn, gaussian_variance=v, even_real=True, mean=0.0,
                      dist=spec)
    if isinstance(spec, UniformSym):
        c = spec.half_width
        return CharFn(
            fn=_sinc_even(c),
            even_real=True,
            mean=0.0,
            dist=spec,
            hilbert_closed_form=_sinc_hilbert(c),
        )
    if isinstance(spec, Gamma):
        return _gamma_cf(spec.shape, spec.scale, spec)
    if isinstance(spec, Exponential):
        return _gamma_cf(1.0, spec.scale, spec)
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


def cf_product(factors: Iterable[CharFn]) -> CharFn:
    """Pointwise product, the c.f. of a sum of independent variables.

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
    deriv = _richardson_central(f.fn, _FD_STEPS)
    value = deriv / 1j
    if abs(value.imag) > _IMAG_RESIDUE_TOL:
        raise MomentError(
            f"moment extraction failed: imaginary residue {value.imag:.3e}")
    return float(value.real)
