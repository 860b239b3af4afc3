"""Acceptance gate: eleven end-to-end criteria, one pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
lines as they print).  Each criterion states its tolerance inline;
exact comparisons use rational equality with zero tolerance.
"""

import contextlib
import itertools
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import fockmoments
from fockmoments.fock import JacobiSequence, STANDARD
from fockmoments.laws import (
    arcsine_moment,
    classical_moment,
    classical_moment_quadrature,
    vacuum_gaussian_moment,
    validate_moments,
)
from fockmoments.moments import moment_envelope, moments_by_walk
from fockmoments.spectral import (
    hermite_density_grid,
    ks_distance_to_arcsine,
    reconstruct_state_measure,
)
from fockmoments.words import moment_by_words, word_matrix_element

SEQUENCES = [
    ("standard", STANDARD),
    ("q=0", JacobiSequence.q_deformed(0)),
    ("q=1/2", JacobiSequence.q_deformed(Fraction(1, 2))),
    ("q=1", JacobiSequence.q_deformed(1)),
    ("explicit", JacobiSequence.explicit([Fraction(n + 1, 2) for n in range(1, 40)])),
]


@contextlib.contextmanager
def report(num: int, name: str):
    ok = False
    try:
        yield
        ok = True
    finally:
        print(f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {name}")


def run_cmd(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "fockmoments", *args],
        capture_output=True,
        # the package from this source tree, installed or not; a warning fails
        env={
            **os.environ,
            "PYTHONPATH": str(Path(fockmoments.__file__).parents[1]),
            "PYTHONWARNINGS": "error",
        },
        timeout=300,
    )


def test_criterion_01_arcsine_targets():
    with report(1, "arcsine target moments 1, 3/2, 5/2, 35/8"):
        assert arcsine_moment(2) == Fraction(1)
        assert arcsine_moment(4) == Fraction(3, 2)
        assert arcsine_moment(6) == Fraction(5, 2)
        assert arcsine_moment(8) == Fraction(35, 8)


def test_criterion_02_scaled_moments_converge_within_envelope():
    with report(2, "envelope containment and 1e-2 convergence at N=1000"):
        start = time.monotonic()
        diffs: dict[tuple[int, int], Fraction] = {}
        orders = (2, 4, 6, 8)
        for n in (10, 100, 1000):
            values = moments_by_walk(STANDARD, n, orders, scale=n)
            for order, value in zip(orders, values):
                lower, upper = moment_envelope(n, order)
                assert lower <= value <= upper
                diffs[(n, order)] = abs(value - arcsine_moment(order))
        for order in (2, 4, 6, 8):
            assert diffs[(1000, order)] <= Fraction(1, 100)
            assert diffs[(1000, order)] < diffs[(100, order)]
        assert time.monotonic() - start <= 10.0


def test_criterion_03_engine_equivalence_500_identities():
    with report(3, "word and tridiagonal engines agree on 500+ cases"):
        start = time.monotonic()
        identities = 0
        for _, seq in SEQUENCES:
            for n in range(0, 9):
                for scale in (1, 2):
                    by_walk = moments_by_walk(seq, n, range(0, 11), scale=scale)
                    for order, value in enumerate(by_walk):
                        assert moment_by_words(seq, n, order, scale=scale) == value
                        identities += 1
        assert identities >= 500
        assert time.monotonic() - start <= 60.0


def test_criterion_04_odd_moments_vanish():
    with report(4, "odd moments vanish exactly for N <= 20, order <= 11"):
        odd = (1, 3, 5, 7, 9, 11)
        for _, seq in SEQUENCES:
            for n in range(0, 21):
                assert moments_by_walk(seq, n, odd) == [0] * len(odd)
                # asked beside order 12, which runs the walk pass, the odd
                # orders are still 0 by the parity rule
                assert moments_by_walk(seq, n, (*odd, 12))[:-1] == [0] * len(odd)
                for order in odd:
                    assert moment_by_words(seq, n, order) == 0


def test_criterion_05_per_word_sandwich():
    with report(5, "every balanced word element inside its sandwich"):
        for m in range(1, 6):
            words = [
                "".join("a" if i in spots else "c" for i in range(2 * m))
                for spots in itertools.combinations(range(2 * m), m)
            ]
            for n in range(m, 9):
                lower = math.prod(range(n - m + 1, n + 1))
                upper = math.prod(range(n + 1, n + m + 1))
                for word in words:
                    element = word_matrix_element(STANDARD, n, word)
                    assert lower <= element <= upper


def test_criterion_06_q_zero_realizes_arcsine_exactly():
    with report(6, "q=0 scaled moments equal arcsine moments for N >= m"):
        seq = JacobiSequence.q_deformed(0)
        from fockmoments.fock import canonical_scale

        for m in range(1, 6):
            for n in range(max(m, 1), 9):
                assert canonical_scale(seq, n) == 1
                value = moments_by_walk(seq, n, [2 * m], scale=1)[0]
                assert value == arcsine_moment(2 * m)


def test_criterion_07_vacuum_law():
    np = pytest.importorskip("numpy")
    with report(7, "vacuum moments (2m-1)!!/2^m and density normalization"):
        vacuum = [vacuum_gaussian_moment(2 * m) for m in range(0, 9)]
        assert moments_by_walk(STANDARD, 0, range(0, 17, 2)) == vacuum
        assert [moment_by_words(STANDARD, 0, 2 * m) for m in range(0, 9)] == vacuum
        xs = np.linspace(-10.0, 10.0, 400_001)
        dens = np.array(hermite_density_grid(0, xs.tolist()))
        assert abs(np.trapezoid(dens, xs) - 1.0) <= 1e-8
        assert abs(np.trapezoid(xs**2 * dens, xs) - 0.5) <= 1e-8


def test_criterion_08_spectral_fidelity_and_ks_decrease():
    with report(8, "spectral moments to 1e-9 and decreasing KS distance"):
        start = time.monotonic()
        for n in range(0, 11):
            measure = reconstruct_state_measure(STANDARD, n, n + 64, scale=1)
            assert abs(math.fsum(w for _, w in measure.atoms) - 1.0) <= 1e-12
            for order, value in enumerate(moments_by_walk(STANDARD, n, range(0, 13))):
                exact = float(value)
                got = measure.moment(order)
                if exact == 0.0:
                    # odd moments cancel exactly; relative error of a
                    # cancelling sum is measured against its absolute
                    # moment sum(w |x|^order), the quantity the 1e-9
                    # relative tolerance can act on at a zero target
                    absolute = math.fsum(
                        w * abs(x) ** order for x, w in measure.atoms
                    )
                    assert abs(got) <= 1e-9 * absolute
                else:
                    assert abs(got - exact) <= 1e-9 * abs(exact)
        previous = None
        for n in (5, 20, 80, 200):
            measure = reconstruct_state_measure(
                STANDARD, n, 2 * n + 64, scale=n
            )
            ks = ks_distance_to_arcsine(measure)
            if previous is not None:
                assert ks < previous
            previous = ks
        assert time.monotonic() - start <= 30.0


def test_criterion_09_classical_correspondence():
    with report(9, "classical A^2=2 moments equal arcsine, quadrature 1e-12"):
        amplitude = math.sqrt(2.0)
        for order in range(0, 17):
            exact = classical_moment(2, order)
            assert exact == arcsine_moment(order)
            quad = classical_moment_quadrature(amplitude, order)
            assert abs(quad - float(exact)) <= 1e-12


def test_criterion_10_hankel_psd_for_all_sequences():
    with report(10, "all produced moment sequences pass the exact PSD check"):
        from fockmoments.fock import canonical_scale

        for _, seq in SEQUENCES:
            for n in range(0, 11):
                scales = [Fraction(1)]
                if n >= 1:
                    scales.append(canonical_scale(seq, n))
                for s in scales:
                    assert validate_moments(moments_by_walk(seq, n, range(11), s))


def test_criterion_11_cli_determinism_and_selfcheck():
    with report(11, "byte-identical CLI reruns and green selfcheck"):
        fixed = [
            ("moments", "--N", "4", "--orders", "4", "--scale", "4"),
            ("converge", "--N", "1,10,100", "--orders", "2,4,6,8"),
            ("reconstruct", "--N", "3", "--K", "40", "--format", "json"),
            ("classical", "--A2", "2", "--orders", "0,2,4", "--format", "csv"),
            ("selfcheck", "--fast"),
        ]
        for args in fixed:
            first = run_cmd(*args)
            second = run_cmd(*args)
            assert first.returncode == second.returncode == 0, args
            assert first.stdout == second.stdout, args
        value_line = run_cmd("moments", "--N", "4", "--orders", "4", "--scale", "4")
        assert b"123/64" in value_line.stdout
        start = time.monotonic()
        full = run_cmd("selfcheck")
        elapsed = time.monotonic() - start
        assert full.returncode == 0
        assert elapsed < 60.0
