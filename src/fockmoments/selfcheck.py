"""Built-in consistency suites backing the ``selfcheck`` CLI command.

Each suite recomputes a family of results by two routes that must agree,
or checks a proved structural property, and reports the first
counterexample it finds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .fock import JacobiSequence, LadderWord, Letter, canonical_scale
from .laws import validate_moments
from .moments import (
    moment_by_words,
    moment_envelope,
    moments_by_walk,
    walk_returns,
    word_matrix_element,
)
from .spectral import density_spectrum_sup

# Mid-jump reading of a step CDF against the integrated state density;
# see spectral.density_spectrum_sup for why exact agreement is impossible.
DENSITY_SPECTRUM_TOL = 5e-3


@dataclass(frozen=True)
class SuiteResult:
    name: str
    passed: bool
    checks: int
    counterexample: str | None = None


def _sequences() -> list[tuple[str, JacobiSequence]]:
    return [
        ("standard", JacobiSequence.standard()),
        ("q=0", JacobiSequence.q_deformed(0)),
        ("q=1/2", JacobiSequence.q_deformed(Fraction(1, 2))),
        ("q=1", JacobiSequence.q_deformed(1)),
        (
            "explicit",
            JacobiSequence.explicit(
                [Fraction(n + 1, 2) for n in range(1, 25)]
            ),
        ),
    ]


def _standard_closed_form(n: int, order: int) -> Fraction:
    """<N|X^order|N> for the standard sequence, all in integers.

    m_2m = (2m)!/m! * sum_k C(N,k) C(m,k) 2^k / 4^m, the coefficient of
    t^2m / (2m)! in <N|e^(tX)|N> = e^(t^2/4) L_N(-t^2/2).
    """
    if order % 2:
        return Fraction(0)
    m = order // 2
    total = sum(math.comb(n, k) * math.comb(m, k) << k for k in range(min(n, m) + 1))
    return Fraction(math.perm(2 * m, m) * total, 4**m)


def _suite_engines(fast: bool) -> SuiteResult:
    """Word-sum, level-walk and standard closed-form moments agree identically.

    Each N also gets an explicit list exactly N + max_order/2 long, the
    fewest weights the word engine reads, so the walk must read no more.
    """
    max_n = 3 if fast else 5
    max_order = 6 if fast else 8
    scales = (1,) if fast else (1, 2)
    orders = range(max_order + 1)
    cases = [(label, seq, n) for label, seq in _sequences() for n in range(max_n + 1)]
    for n in range(max_n + 1):
        weights = [Fraction(2 * k + 1, k % 3 + 2) for k in range(n + max_order // 2)]
        cases.append(("minimal explicit", JacobiSequence.explicit(weights), n))
    checks = 0
    for label, seq, n in cases:
        for s in scales:
            walk = moments_by_walk(seq, n, orders, scale=s)
            for order in orders:
                a = moment_by_words(seq, n, order, scale=s)
                b = c = walk[order]
                if label == "standard":
                    c = _standard_closed_form(n, order) / s ** (order // 2)
                checks += 1
                if not a == b == c:
                    return SuiteResult(
                        "engine-equivalence",
                        False,
                        checks,
                        f"{label}, N={n}, order={order}, s={s}: "
                        f"words {a}, walk {b}, closed form {c}",
                    )
    return SuiteResult("engine-equivalence", True, checks)


def _suite_envelope(fast: bool) -> SuiteResult:
    """Canonically scaled standard moments sit inside their envelopes."""
    seq = JacobiSequence.standard()
    max_n = 8 if fast else 16
    orders = (2, 4) if fast else (2, 4, 6, 8)
    checks = 0
    for n in range(1, max_n + 1):
        for order, value in zip(orders, moments_by_walk(seq, n, orders, scale=n)):
            lower, upper = moment_envelope(n, order)
            checks += 1
            if not lower <= value <= upper:
                return SuiteResult(
                    "envelope-containment",
                    False,
                    checks,
                    f"N={n}, order={order}: {value} outside [{lower}, {upper}]",
                )
    return SuiteResult("envelope-containment", True, checks)


def _suite_odd(fast: bool) -> SuiteResult:
    """Odd diagonal walk powers and odd word sums vanish exactly.

    Uses walk_returns, which takes no parity shortcut, and sums matrix
    elements over every word of each odd length.
    """
    max_n = 4 if fast else 8
    max_order = 5 if fast else 9
    checks = 0
    for label, seq in _sequences():
        for n in range(max_n + 1):
            walk = walk_returns(seq, n, max_order)
            for order in range(1, max_order + 1, 2):
                checks += 1
                if walk[order] != 0:
                    return SuiteResult(
                        "odd-vanishing",
                        False,
                        checks,
                        f"{label}, N={n}, order={order}: walk power {walk[order]}",
                    )
    # every word of odd length is orthogonal to its starting state
    lengths = (1, 3) if fast else (1, 3, 5)
    for label, seq in _sequences():
        for n in range(0, max_n + 1, 2):
            for length in lengths:
                for bits in itertools.product(
                    (Letter.ANNIHILATE, Letter.CREATE), repeat=length
                ):
                    element = word_matrix_element(seq, n, LadderWord(bits))
                    checks += 1
                    if element != 0:
                        return SuiteResult(
                            "odd-vanishing",
                            False,
                            checks,
                            f"{label}, N={n}, word "
                            f"{LadderWord(bits).to_string()}: element {element}",
                        )
    return SuiteResult("odd-vanishing", True, checks)


def _suite_hankel(fast: bool) -> SuiteResult:
    """Every produced moment sequence is positive semidefinite."""
    max_n = 3 if fast else 5
    max_order = 6 if fast else 8
    checks = 0
    for label, seq in _sequences():
        for n in range(max_n + 1):
            scales = [Fraction(1)]
            if n >= 1 and canonical_scale(seq, n) != 1:
                scales.append(canonical_scale(seq, n))
            for s in scales:
                values = moments_by_walk(seq, n, range(max_order + 1), scale=s)
                checks += 1
                if not validate_moments(values):
                    return SuiteResult(
                        "hankel-psd",
                        False,
                        checks,
                        f"{label}, N={n}, s={s}: Hankel matrix not PSD",
                    )
    return SuiteResult("hankel-psd", True, checks)


def _suite_density_spectrum(fast: bool) -> SuiteResult:
    """Spectral reconstruction matches the integrated state density."""
    cases = ((0, 96, 8000), (2, 96, 8000)) if fast else (
        (0, 128, 20000),
        (2, 128, 20000),
        (5, 128, 20000),
    )
    checks = 0
    for n, extra, panels in cases:
        sup = density_spectrum_sup(n, n + extra, panels=panels)
        checks += 1
        if sup > DENSITY_SPECTRUM_TOL:
            return SuiteResult(
                "density-spectrum",
                False,
                checks,
                f"N={n}, K={n + extra}: sup CDF distance {sup:.3e} > "
                f"{DENSITY_SPECTRUM_TOL:.0e}",
            )
    return SuiteResult("density-spectrum", True, checks)


_SUITES = (
    _suite_engines,
    _suite_envelope,
    _suite_odd,
    _suite_hankel,
    _suite_density_spectrum,
)


def run_selfcheck(fast: bool = False) -> list[SuiteResult]:
    """Run all suites and return their results in a fixed order."""
    return [suite(fast) for suite in _SUITES]
