"""Distribution catalog and characteristic-function algebra.

Position values on a network link are modelled by a symmetric zero-mean
distribution; a *directed* link carries the positive (claim) or negative
(debt) absolute value of that distribution instead. This module provides
the catalog of supported laws, their characteristic functions with enough
structural metadata (poles, Gaussian variance, one-sidedness, parity) for
downstream transforms to pick closed forms, and the algebra on them:
products, signed absolute values, and first-moment extraction.
"""

import math
from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Distribution",
    "LaplaceSym",
    "NormalSym",
    "UniformSym",
    "Gamma",
    "Exponential",
    "LAWS",
    "Pole",
    "RationalForm",
    "SignedAbs",
    "CharFn",
    "charfn_of",
    "cf_product",
    "pos_abs_cf",
    "neg_abs_cf",
    "cf_mean",
    "sample",
    "MomentError",
]


class MomentError(ValueError):
    """Raised when moment extraction from a characteristic function fails."""


# ---------------------------------------------------------------------------
# Distribution catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Distribution:
    """Base class for catalog entries. ``two_sided`` laws are symmetric
    about 0 with zero mean; one-sided laws have support in (0, inf). A
    law's parameters are its dataclass fields, each positive and finite."""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise ValueError(f"{f.name} must be positive and finite, "
                                 f"got {value!r}")

    @property
    def two_sided(self) -> bool:
        raise NotImplementedError

    @property
    def abs_mean(self) -> float:
        """E|X| for two-sided laws, E(X) for one-sided laws."""
        raise NotImplementedError


def _square(spec: "Distribution", x: float) -> float:
    """x**2 for a scale parameter of ``spec``. The c.f.'s structure (the
    normal variance, the Laplace poles and constant) needs it to be a
    positive normal float."""
    sq = x * x
    if not 2.0 ** -1022 <= sq < math.inf:
        raise MomentError(f"the variance of {spec!r} is outside the "
                          "floating-point range")
    return sq


@dataclass(frozen=True)
class LaplaceSym(Distribution):
    """Symmetric Laplace law with density exp(-|x|/b) / (2b)."""

    scale: float = 1.0

    two_sided = property(lambda self: True)
    abs_mean = property(lambda self: self.scale)


@dataclass(frozen=True)
class NormalSym(Distribution):
    """Centred normal law N(0, sigma)."""

    sigma: float = 1.0

    two_sided = property(lambda self: True)
    abs_mean = property(lambda self: self.sigma * math.sqrt(2.0 / math.pi))


@dataclass(frozen=True)
class UniformSym(Distribution):
    """Uniform law on [-c, c]."""

    half_width: float = 1.0

    two_sided = property(lambda self: True)
    abs_mean = property(lambda self: 0.5 * self.half_width)


@dataclass(frozen=True)
class Gamma(Distribution):
    """Gamma law with shape alpha and scale beta, support (0, inf)."""

    shape: float
    scale: float

    two_sided = property(lambda self: False)
    abs_mean = property(lambda self: self.shape * self.scale)


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential law with mean theta; equals the positive absolute value
    of LaplaceSym(theta)."""

    scale: float = 1.0

    two_sided = property(lambda self: False)
    abs_mean = property(lambda self: self.scale)


# The catalog by the name a market file's ``type`` and the CLI's ``--dist``
# use; a law's fields name its JSON keys and CLI flags.
LAWS = {"laplace": LaplaceSym, "normal": NormalSym, "uniform": UniformSym,
        "gamma": Gamma, "exponential": Exponential}


# ---------------------------------------------------------------------------
# Characteristic functions with structural metadata
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Pole:
    location: complex
    order: int


@dataclass(frozen=True)
class RationalForm:
    """Factored rational function  c * numer(t) / prod_j (t - p_j)^(m_j).

    ``numer`` holds ascending polynomial coefficients. The pole list is the
    exact catalog data; nothing here is obtained by root finding.
    """

    constant: complex
    poles: tuple[Pole, ...]
    numer: tuple[complex, ...] = (1.0 + 0.0j,)

    @property
    def denominator_degree(self) -> int:
        return sum(p.order for p in self.poles)

    @property
    def numerator_degree(self) -> int:
        deg = 0
        for k, c in enumerate(self.numer):
            if c != 0:
                deg = k
        return deg

    def decays(self) -> bool:
        return self.numerator_degree < self.denominator_degree

    def __call__(self, t):
        t = np.asarray(t, dtype=complex)
        num = np.zeros_like(t)
        for c in reversed(self.numer):
            num = num * t + c
        den = np.ones_like(t)
        for p in self.poles:
            den = den * (t - p.location) ** p.order
        return self.constant * num / den

    def conjugate(self) -> "RationalForm":
        return RationalForm(
            constant=self.constant.conjugate(),
            poles=tuple(Pole(p.location.conjugate(), p.order) for p in self.poles),
            numer=tuple(c.conjugate() for c in self.numer),
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
        label: short human-readable description.
    """

    fn: Callable = field(repr=False)
    rational: RationalForm | None = None
    gaussian_variance: float | None = None
    side: int | None = None
    even_real: bool = False
    mean: float | None = None
    dist: Distribution | None = None
    hilbert_closed_form: Callable | None = field(default=None, repr=False)
    label: str = ""

    def __call__(self, t):
        return self.fn(t)


def _sinc_even(c: float):
    """Evaluator for sin(ct)/(ct) with the removable singularity at 0
    handled by its Taylor series for |ct| < 1e-4."""

    def fn(t):
        t = np.asarray(t, dtype=float)
        x = c * t
        out = np.empty(x.shape, dtype=complex)
        small = np.abs(x) < 1e-4
        xs = x[small]
        out[small] = 1.0 - xs * xs / 6.0
        xb = x[~small]
        out[~small] = np.sin(xb) / xb
        return out if out.shape else out[()]

    return fn


def _sinc_hilbert(c: float):
    """Closed form H{sin(ct)/(ct)}(w) = (1 - cos(cw)) / (cw), odd in w."""

    def h(w):
        w = np.asarray(w, dtype=float)
        x = c * w
        out = np.empty(x.shape, dtype=float)
        small = np.abs(x) < 1e-4
        xs = x[small]
        out[small] = 0.5 * xs - xs**3 / 24.0
        xb = x[~small]
        out[~small] = (1.0 - np.cos(xb)) / xb
        return out if out.shape else out[()]

    return h


def _gamma_cf(shape: float, scale: float, label: str,
              dist: Distribution | None) -> CharFn:
    """(1 - i*beta*t)^(-alpha); rational with an exact pole list when the
    shape is an integer, branch-cut one-sided function otherwise."""
    b = scale

    def fn(t):
        t = np.asarray(t, dtype=complex)
        return (1.0 - 1j * b * t) ** (-shape)

    rational = None
    if float(shape).is_integer():
        order = int(round(shape))
        # 1 - i b t = -i b (t + i/b), so the constant is (i/b)^alpha
        rational = RationalForm(
            constant=(1j / b) ** order,
            poles=(Pole(-1j / b, order),),
        )
    return CharFn(
        fn=fn,
        rational=rational,
        side=+1,
        mean=shape * scale,
        dist=dist,
        label=label,
    )


def _uniform_pos_abs_fn(c: float):
    re = _sinc_even(c)
    im = _sinc_hilbert(c)

    def fn(t):
        return re(t) + 1j * im(t)

    return fn


def charfn_of(spec: Distribution) -> CharFn:
    """Characteristic function of a catalog law, with structure tags.

    Laplace gives a rational function with the exact pole pair +-i/b;
    the normal law is tagged by its variance so transforms can use the
    Dawson closed form; gamma laws are one-sided (rational when the shape
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
                      dist=spec, label=f"laplace(b={b:g})")
    if isinstance(spec, NormalSym):
        v = _square(spec, spec.sigma)

        def fn(t):
            t = np.asarray(t, dtype=float)
            return np.exp(-0.5 * v * t * t).astype(complex)

        return CharFn(fn=fn, gaussian_variance=v, even_real=True, mean=0.0,
                      dist=spec, label=f"normal(sigma={spec.sigma:g})")
    if isinstance(spec, UniformSym):
        c = spec.half_width
        return CharFn(
            fn=_sinc_even(c),
            even_real=True,
            mean=0.0,
            dist=spec,
            hilbert_closed_form=_sinc_hilbert(c),
            label=f"uniform(c={c:g})",
        )
    if isinstance(spec, Gamma):
        return _gamma_cf(spec.shape, spec.scale,
                         f"gamma(a={spec.shape:g},b={spec.scale:g})", spec)
    if isinstance(spec, Exponential):
        return _gamma_cf(1.0, spec.scale, f"exponential(theta={spec.scale:g})",
                         spec)
    raise TypeError(f"unknown distribution spec: {spec!r}")


# ---------------------------------------------------------------------------
# Algebra
# ---------------------------------------------------------------------------

_CONST_ONE = CharFn(
    fn=lambda t: np.ones(np.shape(t), dtype=complex) if np.shape(t) else 1.0 + 0j,
    even_real=True,
    mean=0.0,
    hilbert_closed_form=lambda w: np.zeros(np.shape(w)) if np.shape(w) else 0.0,
    label="1",
)


def _merge_rational(forms: Sequence[RationalForm]) -> RationalForm:
    # an overflowing constant is reported by the residue sum it feeds
    with np.errstate(over="ignore"):
        constant = complex(np.prod([f.constant for f in forms]))
    poles: dict[complex, int] = {}
    for f in forms:
        for p in f.poles:
            poles[p.location] = poles.get(p.location, 0) + p.order
    numer = (1.0 + 0j,)
    for f in forms:
        out = [0j] * (len(numer) + len(f.numer) - 1)
        for i, a in enumerate(numer):
            for j, b in enumerate(f.numer):
                out[i + j] += a * b
        numer = tuple(out)
    return RationalForm(constant=constant,
                        poles=tuple(Pole(p, m) for p, m in poles.items()),
                        numer=numer)


def cf_product(factors: Iterable[CharFn]) -> CharFn:
    """Pointwise product, the c.f. of a sum of independent variables.

    Structure tags combine: rational forms merge pole multisets and
    multiply constants, Gaussian variances add, even-real parity and
    one-sidedness survive only if shared by every factor, and known means
    add. A product of several factors is no catalog law, so it carries no
    ``dist``. The empty product is the constant 1.
    """
    fs = list(factors)
    if not fs:
        return _CONST_ONE
    if len(fs) == 1:
        return fs[0]

    # a repeated factor is evaluated once per call; the product keeps
    # the original order, so the result is the same to the last bit
    distinct = list({id(f.fn): f.fn for f in fs}.values())
    slot = {id(ev): k for k, ev in enumerate(distinct)}
    order = [slot[id(f.fn)] for f in fs]

    def fn(t):
        values = [ev(t) for ev in distinct]
        out = values[order[0]]
        for k in order[1:]:
            out = out * values[k]
        return out

    rational = None
    if all(f.rational is not None for f in fs):
        rational = _merge_rational([f.rational for f in fs])
    gaussian = None
    if all(f.gaussian_variance is not None for f in fs):
        gaussian = float(sum(f.gaussian_variance for f in fs))
    sides = {f.side for f in fs}
    side = sides.pop() if len(sides) == 1 and None not in sides else None
    mean = None
    if all(f.mean is not None for f in fs):
        mean = float(sum(f.mean for f in fs))
    return CharFn(
        fn=fn,
        rational=rational,
        gaussian_variance=gaussian,
        side=side,
        even_real=all(f.even_real for f in fs),
        mean=mean,
        label=" * ".join(f.label or "?" for f in fs),
    )


def _conjugate_cf(f: CharFn) -> CharFn:
    """Mirror a characteristic function: the c.f. of -X is conj(f(t))."""
    inner = f.fn

    def fn(t):
        return np.conjugate(inner(t))

    return CharFn(
        fn=fn,
        rational=f.rational.conjugate() if f.rational is not None else None,
        gaussian_variance=f.gaussian_variance,
        side=-f.side if f.side is not None else None,
        even_real=f.even_real,
        mean=-f.mean if f.mean is not None else None,
        dist=f.dist,
        label=f"mirror({f.label})" if f.label else "",
    )


def pos_abs_cf(base: CharFn) -> CharFn:
    """C.f. of the positive absolute value |X| of a symmetric variable.

    The result is the analytic signal of the input: the real part equals
    the input and the imaginary part is its Hilbert transform. Catalog
    laws get exact closed forms (Laplace -> exponential, normal -> Dawson
    imaginary part, uniform -> one-sided uniform); a one-sided input is
    returned unchanged.
    """
    if base.side == +1:
        return base
    if not base.even_real:
        raise ValueError("positive absolute value needs a real, even c.f. "
                         "(symmetric distribution) or a one-sided one")

    if isinstance(base.dist, LaplaceSym):
        return _gamma_cf(1.0, base.dist.scale,
                         f"pos_abs({base.label})", base.dist)
    if isinstance(base.dist, NormalSym):
        from .transforms import dawson  # deferred: transforms imports charfn

        v = base.dist.sigma**2
        scale = math.sqrt(0.5 * v)

        def fn(t):
            t = np.asarray(t, dtype=float)
            re = np.exp(-0.5 * v * t * t)
            im = (2.0 / math.sqrt(math.pi)) * dawson(scale * t)
            return re + 1j * im

        return CharFn(fn=fn, side=+1, mean=base.dist.abs_mean,
                      dist=base.dist, label=f"pos_abs({base.label})")
    if isinstance(base.dist, UniformSym):
        return CharFn(fn=_uniform_pos_abs_fn(base.dist.half_width), side=+1,
                      mean=base.dist.abs_mean, dist=base.dist,
                      label=f"pos_abs({base.label})")

    # Generic even-real input: imaginary part through the transform engine.
    from .transforms import hilbert, hilbert_deriv_at_zero

    inner = base.fn
    closed = base.hilbert_closed_form

    if closed is not None:
        def fn(t):
            return inner(t) + 1j * np.asarray(closed(t), dtype=float)
    else:
        def fn(t):
            ts = np.atleast_1d(np.asarray(t, dtype=float))
            im = np.array([hilbert(base, float(w)).real for w in ts])
            out = inner(ts) + 1j * im
            return out if np.shape(t) else out[0]

    return CharFn(fn=fn, side=+1, mean=hilbert_deriv_at_zero(base),
                  dist=base.dist, label=f"pos_abs({base.label})")


def neg_abs_cf(base: CharFn) -> CharFn:
    """C.f. of the negative absolute value -|X|; the complex conjugate of
    the positive one. A one-sided positive input is mirrored directly."""
    if base.side == -1:
        return base
    if base.side == +1:
        return _conjugate_cf(base)
    return _conjugate_cf(pos_abs_cf(base))


@dataclass(frozen=True)
class SignedAbs:
    """A directed position: sign * |X| for a symmetric law X.

    Sign +1 is the creditor view (support on the positive half-line),
    -1 the debtor view.
    """

    base: Distribution
    sign: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign!r}")
        if not self.base.two_sided:
            raise ValueError("signed absolute values need a two-sided "
                             f"symmetric base, got {self.base!r}")

    @property
    def mean(self) -> float:
        return self.sign * self.base.abs_mean

    def char_fn(self) -> CharFn:
        return signed_abs_cf(self.base, self.sign)


def signed_abs_cf(spec: Distribution, sign: int) -> CharFn:
    """C.f. of sign * |X| for a catalog law (the per-link building block)."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    f = charfn_of(spec)
    return pos_abs_cf(f) if sign == +1 else neg_abs_cf(f)


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


# ---------------------------------------------------------------------------
# Sampling (feeds the Monte Carlo oracle)
# ---------------------------------------------------------------------------

def _laplace_sample(scale: float, rng: np.random.Generator,
                    sign: int | None, size):
    """Laplace(scale) draws as an exponential magnitude times a sign.

    |X| of a Laplace(b) variable is Exp(b), so each draw costs one
    ziggurat exponential. Unsigned draws take one fair sign bit each from
    the same generator's raw 64-bit words (read as little-endian bytes,
    so the stream is the same on either byte order) and are multiplied by
    1 - 2 * bit, which flips only the sign. That factor is an int8 array:
    a float64 one would cost as much again as the exponential draw.
    """
    x = rng.standard_exponential(1 if size is None else size)
    x *= scale if sign is None else sign * scale
    if sign is None:
        flat = x.reshape(-1)
        words = rng.bit_generator.random_raw((flat.size + 63) // 64)
        bits = np.unpackbits(words.astype("<u8", copy=False).view(np.uint8),
                             count=flat.size, bitorder="little")
        flat *= 1 - 2 * bits.view(np.int8)
    return x[0] if size is None else x


def sample(spec: Distribution, rng: np.random.Generator,
           sign: int | None = None, size: int | None = None):
    """Draw from the law, or from sign*|X| when a sign is given.

    Args:
        spec: catalog law.
        rng: caller-owned numpy generator.
        sign: +1 or -1 to draw the signed absolute value; only legal for
            two-sided laws.
        size: number of draws or an array shape (None for a scalar).
    """
    if sign is not None and not spec.two_sided:
        raise ValueError("signed absolute values are defined only for "
                         "two-sided (symmetric) distributions")
    if isinstance(spec, LaplaceSym):
        return _laplace_sample(spec.scale, rng, sign, size)
    if isinstance(spec, NormalSym):
        x = rng.normal(0.0, spec.sigma, size)
    elif isinstance(spec, UniformSym):
        if not 2.0 * spec.half_width < math.inf:
            raise MomentError(f"the support of {spec!r} overflows a float")
        x = rng.uniform(-spec.half_width, spec.half_width, size)
    elif isinstance(spec, Gamma):
        x = rng.gamma(spec.shape, spec.scale, size)
    elif isinstance(spec, Exponential):
        x = rng.exponential(spec.scale, size)
    else:
        raise TypeError(f"unknown distribution spec: {spec!r}")
    if sign is not None:
        x = sign * np.abs(x)
    return x
