"""Limit laws and classical references: arcsine, Gaussian, moment validity.

The arcsine law on [-sqrt(2), sqrt(2)] is the weak limit of canonically
scaled number-state position distributions.  Its even moments are
C(2m, m) / 2^m and it coincides with the position distribution of a
classical harmonic oscillator of amplitude sqrt(2).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

from .fock import _as_positive, _as_rational, _index

SUPPORT_RADIUS = math.sqrt(2.0)


def arcsine_moment(order: int) -> Fraction:
    """Exact order-n moment of the arcsine law on [-sqrt(2), sqrt(2)].

    Odd moments vanish; the 2m-th moment is C(2m, m) / 2^m.
    """
    _index(order, "moment order")
    if order % 2:
        return Fraction(0)
    m = order // 2
    return Fraction(math.comb(2 * m, m), 2**m)


def arcsine_density(x: float) -> float:
    """Density 1 / (pi * sqrt(2 - x^2)) on the open support, else 0."""
    r = 2.0 - x * x
    if r <= 0.0:
        return 0.0
    return 1.0 / (math.pi * math.sqrt(r))


def arcsine_cdf(x: float) -> float:
    """Distribution function of the arcsine law on [-sqrt(2), sqrt(2)]."""
    if x <= -SUPPORT_RADIUS:
        return 0.0
    if x >= SUPPORT_RADIUS:
        return 1.0
    return 0.5 + math.asin(x / SUPPORT_RADIUS) / math.pi


def vacuum_gaussian_moment(order: int) -> Fraction:
    """Moments of the centered Gaussian with variance 1/2.

    This is the vacuum position distribution of the standard oscillator:
    odd moments vanish and the 2m-th moment is (2m - 1)!! / 2^m.
    """
    _index(order, "moment order")
    if order % 2:
        return Fraction(0)
    m = order // 2
    return Fraction(math.prod(range(1, 2 * m, 2)), 2**m)


def classical_moment(
    amplitude_squared: Union[int, str, Fraction], order: int
) -> Fraction:
    """Exact position moments of a classical oscillator x(t) = A sin(t).

    Takes the squared amplitude A^2 so the even moments
    (A^2)^m * C(2m, m) / 4^m stay rational; odd moments vanish.
    """
    a2 = _as_positive(amplitude_squared, "squared amplitude")
    _index(order, "moment order")
    if order % 2:
        return Fraction(0)
    m = order // 2
    return a2**m * Fraction(math.comb(2 * m, m), 4**m)


def classical_moment_quadrature(
    amplitude: float, order: int, panels: int = 256
) -> float:
    """Time-average of (A sin t)^order over one period, by quadrature.

    Uses the trapezoid rule on the periodic integrand, which reduces to a
    uniform mean over panel points and converges spectrally.  Requires
    panels >= 16.
    """
    if not 0 < amplitude < math.inf:
        raise ValueError(f"amplitude must be positive and finite, got {amplitude!r}")
    _index(order, "moment order")
    _index(panels, "panels", least=16)
    total = 0.0
    try:
        for j in range(panels):
            total += (amplitude * math.sin(2.0 * math.pi * j / panels)) ** order
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(
            f"order {order} quadrature at amplitude {amplitude!r} overflows a float"
        )
    return total / panels


def validate_moments(values: Iterable[Union[int, str, Fraction]]) -> bool:
    """Decide exactly whether a sequence can be moments of a measure.

    Checks positive semidefiniteness of the Hankel matrix H[i][j] =
    m_{i+j} of size M + 1, M = (len - 1) // 2, by symmetric rational
    elimination.  A zero pivot is admissible only if its whole remaining
    row vanishes; leading principal minors alone would not decide PSD.
    """
    moments = [_as_rational(v, f"m_{i}") for i, v in enumerate(values)]
    if not moments:
        raise ValueError("need at least the zeroth moment")
    size = (len(moments) - 1) // 2 + 1
    h = [[moments[i + j] for j in range(size)] for i in range(size)]
    for k in range(size):
        pivot = h[k][k]
        if pivot < 0:
            return False
        if pivot == 0:
            if any(h[k][j] != 0 for j in range(k + 1, size)):
                return False
            continue
        for i in range(k + 1, size):
            factor = h[i][k] / pivot
            if factor == 0:
                continue
            for j in range(k, size):
                h[i][j] -= factor * h[k][j]
    return True
