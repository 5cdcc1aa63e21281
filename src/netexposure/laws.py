"""The law catalog, and the CLI's constants and errors; no numpy.

A link's position is a draw from a symmetric zero-mean law; a directed
link carries its positive (claim) or negative (debt) absolute value.
Laplace and uniform markets are valued exactly from the catalog alone;
the c.f.s (``charfn``), transforms and Monte Carlo oracle load numpy.
"""

import math
from dataclasses import dataclass, fields

__all__ = ["Distribution", "LaplaceSym", "NormalSym", "UniformSym", "Gamma",
           "Exponential", "LAWS", "MomentError", "ROUTES", "TruncationError"]

DEFAULT_TOL = 1e-7  # for calls that name no tol; also the CLI's --tol default

# the Hilbert transform routes, in the order ``transforms._route`` tries them
ROUTES = ("onesided", "residue", "dawson", "closed-form", "pv")


class TruncationError(ValueError):
    """The integrand is still above its tail bound at ``_PV_TMAX``."""


class MomentError(ValueError):
    """Raised when moment extraction from a characteristic function fails."""


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
