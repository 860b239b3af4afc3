import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from fockmoments.fock import CapExceeded, JacobiSequence, STANDARD
from fockmoments.laws import arcsine_cdf
from fockmoments.moments import moments_by_walk
from fockmoments.spectral import (
    DiscreteMeasure,
    EIGEN_DIM_CAP,
    EigensolverFailure,
    Tridiagonal,
    TruncationTooSmall,
    density_cdf,
    density_spectrum_sup,
    eigendecompose,
    hermite_density_grid,
    ks_distance_to_arcsine,
    lossless_order,
    reconstruct_state_measure,
    truncated_position_matrix,
)

Q_HALF = JacobiSequence.q_deformed(Fraction(1, 2))


def test_truncated_position_matrix_standard():
    tri = truncated_position_matrix(STANDARD, 3)
    assert tri.diag == (0.0, 0.0, 0.0)
    assert tri.offdiag == pytest.approx((math.sqrt(0.5), 1.0))
    with pytest.raises(ValueError):
        truncated_position_matrix(STANDARD, 0)


def test_eigendecompose_dimension_one():
    assert eigendecompose(Tridiagonal(diag=(0.0,), offdiag=()), row=0) == (
        (0.0,), (1.0,)
    )


def test_eigendecompose_two_levels():
    # X restricted to two levels has eigenvalues +-sqrt(1/2), each seen
    # with weight 1/2 from either basis row
    values, weights = eigendecompose(truncated_position_matrix(STANDARD, 2), row=0)
    b = math.sqrt(0.5)
    assert values == pytest.approx((-b, b), abs=1e-12)
    assert weights == pytest.approx((0.5, 0.5), abs=1e-12)


def test_eigendecompose_three_levels_hand_values():
    # char poly x(x^2 - 3/2): eigenvalues -sqrt(3/2), 0, sqrt(3/2); the
    # null vector (b2, 0, -b1)/|.| puts weight 2/3 on row 0, symmetry
    # splits the rest evenly
    values, weights = eigendecompose(truncated_position_matrix(STANDARD, 3), row=0)
    r = math.sqrt(1.5)
    assert values == pytest.approx((-r, 0.0, r), abs=1e-12)
    assert weights == pytest.approx((1 / 6, 2 / 3, 1 / 6), abs=1e-12)


# a growing explicit list with an uneven step, long enough for K = 449
EXPLICIT = JacobiSequence.explicit(
    [Fraction(k * (k % 4 + 1), 3) for k in range(1, 450)]
)


def _scipy_check(tri, row, atol):
    evals, evecs = scipy.linalg.eigh_tridiagonal(
        np.array(tri.diag), np.array(tri.offdiag)
    )
    values, weights = eigendecompose(tri, row=row)
    assert np.allclose(values, evals, rtol=0.0, atol=atol)
    assert np.allclose(weights, evecs[row, :] ** 2, rtol=0.0, atol=atol)


def test_eigendecompose_matches_scipy():
    for seq, dim, row in ((STANDARD, 10, 0), (STANDARD, 50, 3), (Q_HALF, 40, 5), (STANDARD, 200, 7)):
        _scipy_check(truncated_position_matrix(seq, dim), row, 1e-10)
    # zero diagonals of odd and even dimension, tracked from odd and even rows
    for seq in (STANDARD, Q_HALF, EXPLICIT):
        for dim in (2, 3, 17, 64, 129):
            for row in {0, 1, dim // 2, dim - 2, dim - 1}:
                _scipy_check(truncated_position_matrix(seq, dim), row, 1e-10)
    # weights spanning 10^-30 to 10^30, and lists that stress the sweep:
    # squares past the float range, neighbours 10^477 apart (rotations of
    # two zeros) and diagonal entries negligible but not zero; eigenvalues
    # to 1e-14 of the largest, whichever row is tracked
    exponents = [
        [(7 * k) % 61 - 30 for k in range(1, 80)],
        [308] * 8,
        [-27, 141, -164, 264, -213, -126, 58],
        [-198, 26, -236, -198, -194],
    ]
    for powers in exponents:
        dim = len(powers) + 1
        seq = JacobiSequence.explicit([Fraction(10) ** p for p in powers])
        tri = truncated_position_matrix(seq, dim)
        evals = scipy.linalg.eigh_tridiagonal(
            np.array(tri.diag), np.array(tri.offdiag), eigvals_only=True
        )
        for row in range(dim):
            values, _ = eigendecompose(tri, row=row)
            err = np.abs(np.array(values) - evals).max()
            assert err <= 1e-14 * np.abs(evals).max()


def test_eigendecompose_exact_zero_couplings():
    # a weight that is 0.0 as a float splits the matrix; zeros on the
    # bidiagonal's diagonal are rotated out from the left or the right
    for dim in (4, 5, 8, 9):
        for gap in range(dim - 1):
            offdiag = [1.0 + 0.25 * k for k in range(dim - 1)]
            offdiag[gap] = 0.0
            evals, evecs = scipy.linalg.eigh_tridiagonal(
                np.zeros(dim), np.array(offdiag)
            )
            for row in range(dim):
                values, weights = eigendecompose(
                    Tridiagonal(diag=(0.0,) * dim, offdiag=tuple(offdiag)), row
                )
                assert np.allclose(values, evals, rtol=0.0, atol=1e-12)
                # eigenvalues repeat, so compare the measures by moments
                for order in range(8):
                    ours = math.fsum(w * x**order for x, w in zip(values, weights))
                    assert ours == pytest.approx(
                        float(np.sum(evecs[row] ** 2 * evals**order)),
                        abs=1e-13 * (1.0 + evals[-1]) ** order,
                    )


def test_eigendecompose_sweep_limit(monkeypatch):
    # the solver stops with EigensolverFailure once past the limit
    import fockmoments.spectral

    monkeypatch.setattr(fockmoments.spectral, "_MAX_SWEEPS", 0)
    with pytest.raises(EigensolverFailure, match="within 0 sweeps"):
        eigendecompose(truncated_position_matrix(STANDARD, 9), row=2)
    # a NaN never deflates; the limit still ends the iteration
    monkeypatch.undo()
    with pytest.raises(EigensolverFailure, match="within 50 sweeps"):
        eigendecompose(Tridiagonal(diag=(0.0,) * 3, offdiag=(math.nan, 1.0)), row=0)


def test_eigendecompose_spectra_symmetric_and_normalized():
    for dim in (5, 33, 128):
        vals, weights = eigendecompose(truncated_position_matrix(STANDARD, dim), row=0)
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for i in range(dim):
            assert vals[i] == pytest.approx(-vals[dim - 1 - i], abs=1e-10)
        assert math.fsum(weights) == pytest.approx(1.0, abs=1e-12)


def test_eigendecompose_validation():
    tri = truncated_position_matrix(STANDARD, 4)
    with pytest.raises(ValueError):
        eigendecompose(tri, row=4)
    with pytest.raises(ValueError):
        eigendecompose(tri, row=-1)
    with pytest.raises(ValueError):
        eigendecompose(Tridiagonal(diag=(0.0, 0.0), offdiag=()), row=0)
    with pytest.raises(ValueError, match="matrix dimension must be >= 1, got 0"):
        eigendecompose(Tridiagonal(diag=(), offdiag=()), row=0)
    # the eigensolver takes the zero diagonal of a position matrix only
    with pytest.raises(ValueError, match="zero diagonal"):
        eigendecompose(Tridiagonal(diag=(0.0, 1.0, 0.0), offdiag=(1.0, 1.0)), row=0)
    big = Tridiagonal(
        diag=(0.0,) * (EIGEN_DIM_CAP + 1), offdiag=(1.0,) * EIGEN_DIM_CAP
    )
    with pytest.raises(CapExceeded):
        eigendecompose(big, row=0)


def test_discrete_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=())
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=((0.0, 0.6), (0.0, 0.4)))
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=((0.0, 1.5), (1.0, -0.5)))
    with pytest.raises(ValueError):
        DiscreteMeasure(atoms=((0.0, 0.5), (1.0, 0.4)))


def test_discrete_measure_accessors():
    measure = DiscreteMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))
    assert measure.moment(0) == pytest.approx(1.0)
    assert measure.moment(1) == pytest.approx(0.0)
    assert measure.moment(2) == pytest.approx(1.0)
    assert measure.cdf(-2.0) == 0.0
    assert measure.cdf(-1.0) == pytest.approx(0.5)
    assert measure.cdf(0.5) == pytest.approx(0.5)
    assert measure.cdf(1.0) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        measure.moment(-1)


def test_reconstruct_requires_headroom():
    with pytest.raises(TruncationTooSmall):
        reconstruct_state_measure(STANDARD, 5, 6)
    with pytest.raises(ValueError):
        reconstruct_state_measure(STANDARD, 5, 20, scale=0)
    # the minimum allowed dimension works
    measure = reconstruct_state_measure(STANDARD, 5, 7)
    assert len(measure.atoms) == 7
    # a weight that underflows to 0.0 leaves both eigenvalues at 0, one atom
    tiny = JacobiSequence.explicit(["1e-400"])
    assert reconstruct_state_measure(tiny, 0, 2).atoms == ((0.0, 1.0),)


def test_reconstruct_vacuum_variance():
    measure = reconstruct_state_measure(STANDARD, 0, 50)
    assert measure.moment(2) == pytest.approx(0.5, abs=1e-12)
    assert measure.moment(1) == pytest.approx(0.0, abs=1e-12)


def test_reconstruct_scaling_divides_locations():
    plain = reconstruct_state_measure(STANDARD, 2, 30, scale=1)
    scaled = reconstruct_state_measure(STANDARD, 2, 30, scale=4)
    for (x1, w1), (x2, w2) in zip(plain.atoms, scaled.atoms):
        assert x2 == pytest.approx(x1 / 2.0, abs=1e-14)
        assert w2 == pytest.approx(w1, abs=1e-14)


def test_lossless_order_boundary():
    # the truncated walk matches exact moments up to 2(K - 1 - N) and
    # deviates visibly just beyond
    n, dim = 3, 6
    assert lossless_order(n, dim) == 4
    measure = reconstruct_state_measure(STANDARD, n, dim)
    exact = moments_by_walk(STANDARD, n, (0, 2, 4, 6))
    for order, value in zip((0, 2, 4), exact):
        assert measure.moment(order) == pytest.approx(float(value), rel=1e-12)
    exact6 = float(exact[3])
    assert abs(measure.moment(6) - exact6) > 1e-6 * exact6


def test_reconstructed_moments_match_exact():
    for n in (0, 1, 4):
        dim = n + 40
        measure = reconstruct_state_measure(STANDARD, n, dim, scale=1)
        for order, exact in enumerate(moments_by_walk(STANDARD, n, range(0, 13))):
            assert measure.moment(order) == pytest.approx(
                float(exact), rel=1e-10, abs=1e-10
            )


def test_reconstruct_q_sequence():
    seq = Q_HALF
    measure = reconstruct_state_measure(seq, 2, 40, scale=1)
    for order, exact in zip((2, 4, 6), moments_by_walk(seq, 2, (2, 4, 6))):
        assert measure.moment(order) == pytest.approx(float(exact), rel=1e-10)


def test_reconstructed_moments_match_exact_at_high_orders():
    # the far atoms of a low state carry tiny weights that dominate its
    # high moments, so this pins their relative accuracy; the atoms come
    # in exact +-x pairs, so every odd moment is exactly 0
    for seq in (STANDARD, Q_HALF, EXPLICIT):
        for n in (0, 1, 56, 57):
            for dim in (448, 449):
                measure = reconstruct_state_measure(seq, n, dim)
                orders = range(0, min(lossless_order(n, dim), 64) + 1, 2)
                exact = moments_by_walk(seq, n, orders)
                for order, value in zip(orders, exact):
                    assert measure.moment(order) == pytest.approx(
                        float(value), rel=1e-10
                    )
                    assert measure.moment(order + 1) == 0.0


def test_hermite_state_density_values():
    # ground state: exp(-x^2)/sqrt(pi)
    xs = (0.0, -1.3, 0.2, 2.5)
    origin, *others = hermite_density_grid(0, xs)
    assert origin == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-14)
    for x, value in zip(xs[1:], others):
        assert value == pytest.approx(
            math.exp(-x * x) / math.sqrt(math.pi), rel=1e-13
        )
    # first excited state vanishes at the origin
    assert hermite_density_grid(1, (0.0,)) == [pytest.approx(0.0, abs=1e-30)]


def test_hermite_state_density_matches_scipy():
    xs = (-2.1, -0.4, 0.0, 0.9, 3.3)
    for n in (1, 2, 3, 6):
        poly = scipy.special.hermite(n)
        norm = 2.0**n * math.gamma(n + 1) * math.sqrt(math.pi)
        for x, value in zip(xs, hermite_density_grid(n, xs)):
            expected = poly(x) ** 2 * math.exp(-x * x) / norm
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-13)


def test_hermite_state_density_normalization_and_variance():
    # total mass 1 and second moment N + 1/2, the exact operator value
    for n in (0, 1, 5, 40):
        xs = np.linspace(-14.0, 14.0, 200_001)
        dens = np.array(hermite_density_grid(n, xs.tolist()))
        assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-8)
        assert np.trapezoid(xs**2 * dens, xs) == pytest.approx(
            n + 0.5, abs=1e-6
        )


def _pointwise_density(n, x):
    # the recurrence one point at a time, as the grid must reproduce it
    phi_prev = 0.0
    phi = math.exp(-0.5 * x * x) / math.pi**0.25
    for k in range(n):
        b_next = math.sqrt((k + 1) / 2.0)
        b_here = math.sqrt(k / 2.0)
        phi_prev, phi = phi, (x * phi - b_here * phi_prev) / b_next
    return phi * phi


def test_hermite_density_grid_matches_pointwise_bit_for_bit():
    xs = [-31.0, -7.25, -1.0, 0.0, 1e-300, 0.5, 2, 3.75, 40.0]
    for n in (0, 1, 2, 7, 60, 200):
        expected = [_pointwise_density(n, x) for x in xs]
        assert hermite_density_grid(n, xs) == expected
        assert [hermite_density_grid(n, (x,))[0] for x in xs] == expected
    assert hermite_density_grid(3, []) == []
    with pytest.raises(CapExceeded):
        hermite_density_grid(201, [0.0])


def test_hermite_state_density_cap():
    with pytest.raises(CapExceeded):
        hermite_density_grid(201, (0.0,))
    assert hermite_density_grid(200, (0.1,))[0] >= 0.0


def test_density_cdf_monotone_and_total():
    xs = [(-10.0 + 20.0 * i / 2000) for i in range(2001)]
    cdf = density_cdf(2, xs)
    assert cdf[0] == 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-8)
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    with pytest.raises(ValueError):
        density_cdf(2, [0.0])
    with pytest.raises(ValueError):
        density_cdf(2, [0.0, 0.0])


def test_ks_distance_hand_case():
    # two atoms at +-1 with mass 1/2: F jumps 0 -> 1/2 -> 1 while the
    # arcsine CDF passes 1/4 and 3/4: distance exactly 1/4
    measure = DiscreteMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))
    assert ks_distance_to_arcsine(measure) == pytest.approx(0.25, abs=1e-12)


def test_ks_distance_decreases_with_resolution():
    prev = None
    for n in (5, 20, 80):
        measure = reconstruct_state_measure(STANDARD, n, 2 * n + 64, scale=n)
        ks = ks_distance_to_arcsine(measure)
        if prev is not None:
            assert ks < prev
        prev = ks


def test_reconstructed_odd_moments_vanish_at_canonical_scale():
    # at canonical scale the cancelling odd sums stay below 1e-10; the
    # unscaled ones only cancel to machine epsilon relative to the
    # absolute moment, which grows like |x|^order
    for n in (1, 4, 10):
        measure = reconstruct_state_measure(STANDARD, n, n + 64, scale=n)
        for order in (1, 3, 5, 7, 9, 11):
            assert abs(measure.moment(order)) <= 1e-10


def test_reconstructed_odd_moments_cancel_to_conditioning():
    measure = reconstruct_state_measure(STANDARD, 10, 74, scale=1)
    for order in (1, 3, 5, 7, 9, 11):
        absolute = math.fsum(w * abs(x) ** order for x, w in measure.atoms)
        assert abs(measure.moment(order)) <= 1e-12 * absolute


def test_density_spectrum_sup_needs_a_panel():
    with pytest.raises(ValueError, match="panels must be >= 1, got 0"):
        density_spectrum_sup(0, 10, panels=0)


def test_density_spectrum_sup_small():
    assert density_spectrum_sup(0, 96, panels=6000) < 5e-3
    assert density_spectrum_sup(2, 98, panels=6000) < 5e-3
