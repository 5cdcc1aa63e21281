"""The law catalog, and the CLI's constants and errors; no numpy.

A link's position is a draw from a symmetric zero-mean law; a directed
link carries its positive (claim) or negative (debt) absolute value.
Laplace and uniform markets are valued exactly from the catalog alone;
the c.f.s (``charfn``), transforms and Monte Carlo oracle load numpy.
"""

import math
from collections import namedtuple

__all__ = ["Distribution", "LaplaceSym", "NormalSym", "UniformSym", "Gamma",
           "Exponential", "LAWS", "MomentError", "ROUTES", "TruncationError"]

DEFAULT_TOL = 1e-7  # for calls that name no tol; also the CLI's --tol default

# the Hilbert transform routes, in the order ``transforms._route`` tries them
ROUTES = ("onesided", "residue", "dawson", "closed-form", "pv")


class TruncationError(ValueError):
    """The integrand is still above its tail bound at ``_PV_TMAX``."""


class MomentError(ValueError):
    """Raised when moment extraction from a characteristic function fails."""


class Distribution:
    """Base class for catalog entries, each a named tuple of its parameters,
    every one positive and finite. ``two_sided`` laws are symmetric about 0
    with zero mean; one-sided laws have support in (0, inf). ``abs_mean``
    is E|X| for two-sided laws, E(X) for one-sided laws. A law equals, and
    hashes like, laws of its own type only, never a plain tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        law = super().__new__(cls, *args, **kwargs)
        for name, value in zip(law._fields, law):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {value!r}")
        return law

    @classmethod
    def _make(cls, iterable):
        """The named tuple's ``_make`` and ``_replace``, through the check."""
        return cls(*iterable)

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), tuple(self)))


def _square(spec: "Distribution", x: float) -> float:
    """x**2 for a scale parameter of ``spec``: a normal market's variance,
    which its closed forms need as a positive normal float."""
    sq = x * x
    if not 2.0 ** -1022 <= sq < math.inf:
        raise MomentError(f"the variance of {spec!r} is outside the "
                          "floating-point range")
    return sq


def _require_two_sided(dist: Distribution) -> None:
    if not dist.two_sided:
        raise ValueError("market positions need a two-sided symmetric "
                         f"distribution, got {dist!r}")


class LaplaceSym(Distribution, namedtuple("LaplaceSym", "scale",
                                          defaults=(1.0,))):
    """Symmetric Laplace law with density exp(-|x|/b) / (2b)."""

    __slots__ = ()
    two_sided = True
    abs_mean = property(lambda self: self.scale)


class NormalSym(Distribution, namedtuple("NormalSym", "sigma",
                                         defaults=(1.0,))):
    """Centred normal law N(0, sigma)."""

    __slots__ = ()
    two_sided = True
    abs_mean = property(lambda self: self.sigma * math.sqrt(2.0 / math.pi))


class UniformSym(Distribution, namedtuple("UniformSym", "half_width",
                                          defaults=(1.0,))):
    """Uniform law on [-c, c]."""

    __slots__ = ()
    two_sided = True
    abs_mean = property(lambda self: 0.5 * self.half_width)


class Gamma(Distribution, namedtuple("Gamma", "shape scale")):
    """Gamma law with shape alpha and scale beta, support (0, inf)."""

    __slots__ = ()
    two_sided = False
    abs_mean = property(lambda self: self.shape * self.scale)


class Exponential(Distribution, namedtuple("Exponential", "scale",
                                           defaults=(1.0,))):
    """Exponential law with mean theta; equals the positive absolute value
    of LaplaceSym(theta)."""

    __slots__ = ()
    two_sided = False
    abs_mean = property(lambda self: self.scale)


# The catalog by the name a market file's ``type`` and the CLI's ``--dist``
# use; a law's ``_fields`` name its JSON keys and CLI flags.
LAWS = {"laplace": LaplaceSym, "normal": NormalSym, "uniform": UniformSym,
        "gamma": Gamma, "exponential": Exponential}
