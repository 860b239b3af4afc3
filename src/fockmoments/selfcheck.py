"""Built-in consistency suites backing the ``selfcheck`` CLI command.

Each suite recomputes a family of results by two routes that must agree,
or checks a proved structural property.  A suite is a generator taking
``fast`` that yields one verdict per check: None when the check holds,
or the counterexample as a string, built only when the check fails.
``run_selfcheck`` counts each suite's verdicts and stops the suite at its
first counterexample.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple

from .fock import STANDARD, JacobiSequence, canonical_scale
from .laws import validate_moments
from .moments import moment_envelope, moments_by_walk
from .spectral import density_spectrum_sup
from .words import moment_by_words, word_matrix_element

# Mid-jump reading of a step CDF against the state's CDF from the ladder
# identity; see spectral.density_spectrum_sup for why exact agreement fails.
DENSITY_SPECTRUM_TOL = 5e-3


class SuiteResult(NamedTuple):
    name: str
    passed: bool
    checks: int
    counterexample: str | None = None


def _sequences() -> list[tuple[str, JacobiSequence]]:
    return [
        ("standard", STANDARD),
        ("q=0", JacobiSequence.q_deformed(0)),
        ("q=1/2", JacobiSequence.q_deformed(Fraction(1, 2))),
        ("q=1", JacobiSequence.q_deformed(1)),
        ("explicit", JacobiSequence.explicit([Fraction(k, 2) for k in range(2, 26)])),
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


def _suite_engines(fast: bool) -> Iterator[str | None]:
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
    for label, seq, n in cases:
        for s in scales:
            walk = moments_by_walk(seq, n, orders, scale=s)
            for order in orders:
                a = moment_by_words(seq, n, order, scale=s)
                b = c = walk[order]
                if label == "standard":
                    c = _standard_closed_form(n, order) / s ** (order // 2)
                yield None if a == b == c else (
                    f"{label}, N={n}, order={order}, s={s}: "
                    f"words {a}, walk {b}, closed form {c}"
                )


def _suite_envelope(fast: bool) -> Iterator[str | None]:
    """Canonically scaled standard moments sit inside their envelopes."""
    max_n = 8 if fast else 16
    orders = (2, 4) if fast else (2, 4, 6, 8)
    for n in range(1, max_n + 1):
        for order, value in zip(orders, moments_by_walk(STANDARD, n, orders, scale=n)):
            lower, upper = moment_envelope(n, order)
            yield None if lower <= value <= upper else (
                f"N={n}, order={order}: {value} outside [{lower}, {upper}]"
            )


def _suite_odd(fast: bool) -> Iterator[str | None]:
    """Odd walk moments and odd word sums vanish exactly.

    The walk reads every odd order as 0, pass or no pass, so its half checks
    that rule; the word sums take every word of each odd length.
    """
    max_n = 4 if fast else 8
    max_order = 5 if fast else 9
    for label, seq in _sequences():
        for n in range(max_n + 1):
            walk = moments_by_walk(seq, n, range(max_order + 1))
            for order in range(1, max_order + 1, 2):
                yield None if walk[order] == 0 else (
                    f"{label}, N={n}, order={order}: walk power {walk[order]}"
                )
    # every word of odd length is orthogonal to its starting state
    lengths = (1, 3) if fast else (1, 3, 5)
    for label, seq in _sequences():
        for n in range(0, max_n + 1, 2):
            for length in lengths:
                for letters in itertools.product("ac", repeat=length):
                    word = "".join(letters)
                    element = word_matrix_element(seq, n, word)
                    yield None if element == 0 else (
                        f"{label}, N={n}, word {word}: element {element}"
                    )


def _suite_hankel(fast: bool) -> Iterator[str | None]:
    """Every produced moment sequence is positive semidefinite."""
    max_n = 3 if fast else 5
    max_order = 6 if fast else 8
    for label, seq in _sequences():
        for n in range(max_n + 1):
            scales = [Fraction(1)]
            if n >= 1 and canonical_scale(seq, n) != 1:
                scales.append(canonical_scale(seq, n))
            for s in scales:
                values = moments_by_walk(seq, n, range(max_order + 1), scale=s)
                yield None if validate_moments(values) else (
                    f"{label}, N={n}, s={s}: Hankel matrix not PSD"
                )


def _suite_density_spectrum(fast: bool) -> Iterator[str | None]:
    """Spectral reconstruction matches the state's distribution function."""
    cases = ((0, 96), (2, 96)) if fast else ((0, 128), (2, 128), (5, 128))
    for n, extra in cases:
        sup = density_spectrum_sup(n, n + extra)
        yield None if not sup > DENSITY_SPECTRUM_TOL else (
            f"N={n}, K={n + extra}: sup CDF distance {sup:.3e} > "
            f"{DENSITY_SPECTRUM_TOL:.0e}"
        )


_SUITES = (
    ("engine-equivalence", _suite_engines),
    ("envelope-containment", _suite_envelope),
    ("odd-vanishing", _suite_odd),
    ("hankel-psd", _suite_hankel),
    ("density-spectrum", _suite_density_spectrum),
)


def _run_suite(
    name: str, suite: Callable[[bool], Iterator[str | None]], fast: bool
) -> SuiteResult:
    """Count the suite's verdicts, stopping at its first counterexample."""
    checks = 0
    for verdict in suite(fast):
        checks += 1
        if verdict is not None:
            return SuiteResult(name, False, checks, verdict)
    return SuiteResult(name, True, checks)


def run_selfcheck(fast: bool = False) -> list[SuiteResult]:
    """Run all suites and return their results in a fixed order."""
    return [_run_suite(name, suite, fast) for name, suite in _SUITES]
