"""Exact Hilbert transforms of rational catalog c.f.s, in rational arithmetic.

An oracle for the residue, one-sided and principal-value routes, built
from the law parameters alone (no ``charfn``): every Laplace power and
integer-shape gamma law at one scale b is

    phi(t) = c / prod_j (t - p_j)^(m_j)

with poles +-i/b (Laplace) or -i/b (gamma, exponential; +i/b for the
mirrored -X), so at a rational b and omega the transform

    H{phi}(omega) = 2i * sum of residues of phi(z)/(omega - z) at the poles
                    in the upper half plane - i * phi(omega)

is a Gaussian rational, computed here with ``fractions.Fraction`` only and
rounded once at the end. A Gaussian rational is a pair (re, im).
"""

from fractions import Fraction
from math import comb

ONE, I = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _inv(a):
    norm = a[0] * a[0] + a[1] * a[1]
    return a[0] / norm, -a[1] / norm


def _pow(a, n):
    """a**n for an integer n (negative: of the inverse)."""
    base, out = (a if n >= 0 else _inv(a)), ONE
    for _ in range(abs(n)):
        out = _mul(out, base)
    return out


def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _scale(a, k):
    return a[0] * k, a[1] * k


def law_form(law: str, scale, power: int = 1, shape: int = 1,
             side: str | None = None):
    """(constant, {pole: order}) of the c.f. of a sum of ``power``
    independent copies of the law (one of "laplace", "gamma",
    "exponential") at ``scale``; ``side`` "pos" or "neg" takes the
    law's positive absolute value |X| or its negative -|X| (a Laplace |X|
    is exponential; a gamma law is already positive)."""
    b = Fraction(scale)
    up, down = (Fraction(0), 1 / b), (Fraction(0), -1 / b)
    if law == "laplace" and side is None:
        # (1 + b^2 t^2)^-p = b^-2p (t - i/b)^-p (t + i/b)^-p
        return (b ** (-2 * power), Fraction(0)), {up: power, down: power}
    n = power * (shape if law == "gamma" else 1)
    if side == "neg":
        # (1 + i b t)^-n = (i b)^-n (t - i/b)^-n
        return _pow((Fraction(0), b), -n), {up: n}
    # (1 - i b t)^-n = (-i b)^-n (t + i/b)^-n
    return _pow((Fraction(0), -b), -n), {down: n}


def _series_of_inverse_power(d, n: int, order: int):
    """Taylor coefficients in u of (d + u)^-n up to u^order:
    C(n + k - 1, k) (-1)^k d^(-n-k)."""
    return [_scale(_pow(d, -n - k), (-1) ** k * comb(n + k - 1, k))
            for k in range(order + 1)]


def _series_mul(a, b, order: int):
    out = [(Fraction(0), Fraction(0))] * (order + 1)
    for i, ai in enumerate(a):
        for j in range(order + 1 - i):
            out[i + j] = _add(out[i + j], _mul(ai, b[j]))
    return out


def exact_hilbert(constant, poles: dict, omega):
    """H{c / prod (t - p)^m}(omega) as a Gaussian rational."""
    w = (Fraction(omega), Fraction(0))
    residues = (Fraction(0), Fraction(0))
    for p, m in poles.items():
        if p[1] <= 0:
            continue
        # residue of -c / ((z - w) prod (z - q)^n) at p: the (m-1)-th
        # coefficient of the other factors' series around p, times -c
        series = [_scale(constant, -1)] + [(Fraction(0), Fraction(0))] * (m - 1)
        for a, n in [(w, 1), *((q, k) for q, k in poles.items() if q != p)]:
            series = _series_mul(
                series, _series_of_inverse_power(_sub(p, a), n, m - 1), m - 1)
        residues = _add(residues, series[m - 1])
    value = constant  # phi(omega), the real pole's part
    for p, m in poles.items():
        value = _mul(value, _pow(_sub(w, p), -m))
    return _sub(_mul((Fraction(0), Fraction(2)), residues), _mul(I, value))


def exact_value(law: str, scale, omega, **kwargs) -> complex:
    """The exact transform of ``law_form(law, scale, **kwargs)`` at
    omega, rounded to a complex float (each part correctly rounded)."""
    re, im = exact_hilbert(*law_form(law, scale, **kwargs), omega)
    return complex(float(re), float(im))
