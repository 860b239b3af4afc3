import decimal
import hashlib
import math
import random
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest

from fockmoments import spectral
from fockmoments.fock import CapExceeded, JacobiSequence, STANDARD, state_index
from fockmoments.laws import arcsine_cdf
from fockmoments.moments import moments_by_walk
from fockmoments.selfcheck import DENSITY_SPECTRUM_TOL, run_selfcheck
from fockmoments.spectral import (
    DiscreteMeasure,
    EIGEN_DIM_CAP,
    EigensolverFailure,
    Tridiagonal,
    TruncationTooSmall,
    _state_cdf,
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
    np = pytest.importorskip("numpy")
    linalg = pytest.importorskip("scipy.linalg")
    evals, evecs = linalg.eigh_tridiagonal(
        np.array(tri.diag), np.array(tri.offdiag)
    )
    values, weights = eigendecompose(tri, row=row)
    assert np.allclose(values, evals, rtol=0.0, atol=atol)
    assert np.allclose(weights, evecs[row, :] ** 2, rtol=0.0, atol=atol)


def test_eigendecompose_matches_scipy():
    np = pytest.importorskip("numpy")
    linalg = pytest.importorskip("scipy.linalg")
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
        evals = linalg.eigh_tridiagonal(
            np.array(tri.diag), np.array(tri.offdiag), eigvals_only=True
        )
        for row in range(dim):
            values, _ = eigendecompose(tri, row=row)
            err = np.abs(np.array(values) - evals).max()
            assert err <= 1e-14 * np.abs(evals).max()


def test_eigendecompose_exact_zero_couplings():
    # a weight that is 0.0 as a float splits the matrix; zeros on the
    # bidiagonal's diagonal are rotated out from the left or the right
    np = pytest.importorskip("numpy")
    linalg = pytest.importorskip("scipy.linalg")
    for dim in (4, 5, 8, 9):
        for gap in range(dim - 1):
            offdiag = [1.0 + 0.25 * k for k in range(dim - 1)]
            offdiag[gap] = 0.0
            evals, evecs = linalg.eigh_tridiagonal(
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


def _graded_offdiags(count, seed):
    """Seeded off-diagonals from 2^-100 to 2^100, some sorted, some with
    zeros: splits, frees and resumed scans that smooth sequences skip."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(3, 60)
        off = [
            math.ldexp(0.5 + 0.5 * rng.random(), rng.randint(-100, 100))
            if rng.random() >= 0.04 else 0.0
            for _ in range(dim - 1)
        ]
        if rng.random() < 0.3:
            off.sort(reverse=rng.random() < 0.5)
        yield Tridiagonal(diag=(0.0,) * dim, offdiag=tuple(off)), rng.randrange(dim)


def _outcome_draws(count, seed):
    """Seeded off-diagonals from 2^-600 to 2^600, whose squares leave the
    float range, with inf, NaN and 0.0 mixed in: draws that fail as well
    as draws that solve."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(2, 40)
        span = rng.choice((100, 600))
        special = rng.choice((0.0, 0.0, 0.02, 0.1))
        off = [
            rng.choice((math.inf, math.nan, 0.0)) if rng.random() < special
            else math.ldexp(0.5 + 0.5 * rng.random(), rng.randint(-span, span))
            for _ in range(dim - 1)
        ]
        if rng.random() < 0.3:
            off.sort(reverse=rng.random() < 0.5)
        if rng.random() < 0.2:
            off[rng.randrange(dim - 1)] = rng.choice((math.inf, math.nan))
        yield Tridiagonal(diag=(0.0,) * dim, offdiag=tuple(off)), rng.randrange(dim)


def _underflow_draws(count, seed):
    """Seeded off-diagonals with subnormal and near-underflow couplings
    beside 2^+-600 ones and zeros: chases in which a rotation's hypot
    underflows to 0 inside either loop, zero prefix or not, on either
    side."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(3, 30)
        sort = rng.random()
        off = []
        for _ in range(dim - 1):
            u = rng.random()
            if u < 0.05:
                off.append(0.0)
            elif u < 0.3:
                mantissa = 0.5 + 0.5 * rng.random()
                off.append(math.ldexp(mantissa, rng.randint(-1074, -1000)))
            elif u < 0.5:
                off.append(1e-300 * rng.random())
            else:
                off.append(math.ldexp(0.5 + 0.5 * rng.random(), rng.randint(-600, 600)))
        if sort < 0.3:
            off.sort(reverse=rng.random() < 0.5)
        yield Tridiagonal(diag=(0.0,) * dim, offdiag=tuple(off)), rng.randrange(dim)


def _outcome(tri, row):
    try:
        return repr(eigendecompose(tri, row))
    except EigensolverFailure as exc:
        return f"{type(exc).__name__}: {exc}"


# SHA-256 of the repr of every eigendecompose result in each group: the
# solver's exact floats, to be kept by any change that claims the same bits.
# The K = 1536 and 1024 groups are the benchmark's largest solves, with the
# tracked row on either side of the bidiagonal; at K = 1535 the virtual
# level's zero is freed by rotations that reach row 300.  The odd-K groups
# have the tracked row on either side too: row 300 of K = 1535 and row 200
# of K = 449 on one, and the other group's rows, README's default
# `reconstruct --N 5` (K = 69) among them, on the other.  The outcomes
# and underflow groups hold the exception and message where a draw fails;
# the underflow draws reach each division guard of the chase loops.
PINNED_SOLVER_DIGESTS = {
    "standard K=448":
        "552b0ecd678b4275b65461e1433355a0c5f940506cb7efeab626773b81d932f7",
    "standard K=449":
        "789b3e74cdffb876d7f744a7f828e1f926432d967e2a22d06ad95be90dba6975",
    "q=1/2 K=512":
        "f5d331ad5396fb33b0a355d59b90aecb4dfac0d4a77aaff92959e6cb0cb20442",
    "graded":
        "e4d5fda997617013631b273464a3d97230cfa41a939b2c81323d0ef8f434a3b4",
    "standard K=1536":
        "ac60f2e95b33c604095d48af859ce415d049c38147519b33840b9acb57eb8738",
    "q=1/2 K=1024":
        "e4bcdad76fa322db05dab44f33b24efd7a32670f9917bc5aeb9fdc6d6f710ac3",
    "standard K=1535":
        "aca0e6ff82d993590250a8c1dab6410b90c905f23b86710a28f1d869c8a8a2bd",
    "outcomes":
        "c086b4c4b48d448191b4bb3dedfb77234b13fee4ce143f980e9d35146f188856",
    "odd K other side":
        "4fb0686eee672535819b7e33c06475ea7ab076c1929dbae24a9920eac1eb0dea",
    "underflow":
        "4fb524c4aceda641b4680b8b903879e9bca08b8c27290766f4733b458ff36773",
}


def test_eigendecompose_bits_pinned():
    groups = {
        "standard K=448": [
            (truncated_position_matrix(STANDARD, 448), row) for row in (0, 56, 447)
        ],
        "standard K=449": [(truncated_position_matrix(STANDARD, 449), 200)],
        "q=1/2 K=512": [(truncated_position_matrix(Q_HALF, 512), 3)],
        "graded": list(_graded_offdiags(200, seed=1965)),
        "standard K=1536": [
            (truncated_position_matrix(STANDARD, 1536), row) for row in (119, 300)
        ],
        "q=1/2 K=1024": [
            (truncated_position_matrix(Q_HALF, 1024), row) for row in (288, 289)
        ],
        "standard K=1535": [(truncated_position_matrix(STANDARD, 1535), 300)],
        "outcomes": list(_outcome_draws(300, seed=1969)),
        "odd K other side": [
            (truncated_position_matrix(STANDARD, 1535), 301),
            (truncated_position_matrix(STANDARD, 449), 201),
            (truncated_position_matrix(STANDARD, 69), 5),
        ],
        "underflow": list(_underflow_draws(100, seed=25)),
    }
    digests = {}
    for name, cases in groups.items():
        text = "\n".join(_outcome(tri, row) for tri, row in cases)
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == PINNED_SOLVER_DIGESTS


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
    # an infinite coupling gives NaN weights, whose NaN sum fails the mass
    # guard
    for row in (0, 2):
        with pytest.raises(EigensolverFailure, match="sum to nan"):
            eigendecompose(Tridiagonal(diag=(0.0,) * 3, offdiag=(1.0, math.inf)), row)
    # with 2 levels there is no sweep and the weights stay finite, so the
    # non-finite eigenvalues themselves fail
    for coupling in (math.nan, math.inf):
        with pytest.raises(EigensolverFailure, match="not all finite"):
            eigendecompose(Tridiagonal(diag=(0.0,) * 2, offdiag=(coupling,)), row=0)


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
    # NaN compares False both ways: a guard asks whether a weight is in
    # bounds, not whether it is out
    with pytest.raises(ValueError, match="must be >= 0, got nan"):
        DiscreteMeasure(atoms=((0.0, math.nan),))
    with pytest.raises(ValueError, match="must be >= 0, got nan"):
        DiscreteMeasure(atoms=((-1.0, 1.0), (1.0, math.nan)))
    # a location must be finite, and a sum past the float range is a
    # bad total, not an OverflowError
    with pytest.raises(ValueError, match="must be finite, got nan with weight 1.0"):
        DiscreteMeasure(atoms=((math.nan, 1.0),))
    with pytest.raises(ValueError, match="must be finite, got -inf with weight 0.5"):
        DiscreteMeasure(atoms=((-math.inf, 0.5), (math.inf, 0.5)))
    with pytest.raises(ValueError, match="must be finite, got inf with weight 0.5"):
        DiscreteMeasure(atoms=((0.0, 0.5), (math.inf, 0.5)))
    with pytest.raises(ValueError, match="atom weights sum to inf, not 1"):
        DiscreteMeasure(atoms=((0.0, 1e308), (1.0, 1e308)))


def test_discrete_measure_accessors():
    measure = DiscreteMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))
    assert measure.moment(0) == pytest.approx(1.0)
    assert measure.moment(1) == pytest.approx(0.0)
    assert measure.moment(2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        measure.moment(-1)


def test_discrete_measure_moment_overflow_names_the_order():
    # a power past the float range is refused like a quadrature's
    wide = DiscreteMeasure([(-2.0, 0.5), (2.0, 0.5)])
    assert wide.moment(1000) == 2.0**1000
    with pytest.raises(ValueError, match="^order 2000 moment overflows a float$"):
        wide.moment(2000)


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


def _sturm_counter(seq, dim):
    """A function of a rational x: the number of eigenvalues of the
    dim-level position matrix above x, from exact integer Sturm counts.

    With x = p/q, d the common denominator of omega_k / 2 and
    a_k = d omega_k / 2, P_0 = 1, P_1 = pd and
    P_(k+1) = pd P_k - a_k q^2 d P_(k-1) give P_k = (qd)^k det(x - X_k),
    whose sign changes count the eigenvalues above x; a zero P_k takes
    the sign before it (Wilkinson, The Algebraic Eigenvalue Problem, 1965).
    """
    halves = [seq.omega(k) / 2 for k in range(1, dim)]
    d = math.lcm(*(h.denominator for h in halves))
    weights = [h.numerator * (d // h.denominator) for h in halves]

    def above(x):
        p, q = x.as_integer_ratio()
        pd, qqd = p * d, q * q * d
        terms = [1, pd]
        for a in weights:
            terms.append(pd * terms[-1] - a * qqd * terms[-2])
        changes, positive = 0, True
        for t in terms:
            if t and (t > 0) != positive:
                changes += 1
                positive = not positive
        return changes

    return above


def _even_gauss_moments(values, squared, count):
    """Sum w x^k over the atoms at k = 0, 2, .., 2 (count - 1), exact: each
    float is an integer over a power of two, kept as (integer, exponent)."""
    nums, exps, steps = [], [], []
    for x, w in zip(values, squared):
        (xn, xd), (wn, wd) = x.as_integer_ratio(), w.as_integer_ratio()
        nums.append(wn)
        exps.append(wd.bit_length() - 1)
        steps.append((xn * xn, 2 * (xd.bit_length() - 1)))
    sums = []
    for _ in range(count):
        den = max(exps)
        sums.append(Fraction(sum(n << den - e for n, e in zip(nums, exps)), 1 << den))
        nums = [n * sq for n, (sq, _) in zip(nums, steps)]
        exps = [e + s for e, (_, s) in zip(exps, steps)]
    return sums


def test_solver_against_exact_arithmetic():
    # every gap between consecutive computed eigenvalues holds the right
    # count, so each eigenvalue is the only one between its neighbours'
    # midpoints
    def certify(seq, dim, gaps):
        values, _ = eigendecompose(truncated_position_matrix(seq, dim), 0)
        above = _sturm_counter(seq, dim)
        for g in gaps:
            cut = (Fraction(values[g]) + Fraction(values[g + 1])) / 2
            assert above(cut) == dim - 1 - g, (seq, dim, g)

    for seq in (STANDARD, Q_HALF, EXPLICIT):
        certify(seq, 200, range(199))
    # the benchmark's largest solve: both extreme gaps and 16 between
    certify(STANDARD, 1536, [0, *(1534 * j // 17 for j in range(1, 17)), 1534])
    # the atoms, read as exact dyadics, reproduce the exact moments (the
    # Gauss rule of the truncation, Golub & Welsch 1969), at K = 200 and
    # 201 and at the served K = 1536: row 119, the benchmark's spectral
    # workload's K = 1536 row at seed 1, and row 300, the largest it draws.
    # The worst gaps measured are 1.0e-13 at q = 1/2, K = 201, row 100,
    # and 3.8e-14 and 1.3e-13 at K = 1536, rows 119 and 300; the bound is
    # 1e-12.  Odd sums are 0 by the +-x pairs, which other tests pin.
    cases = [
        (seq, dim, rows)
        for seq in (STANDARD, Q_HALF, EXPLICIT)
        for dim, rows in ((200, (0, 37, 99)), (201, (3, 100)))
    ]
    for seq, dim, rows in [*cases, (STANDARD, 1536, (119, 300))]:
        tri = truncated_position_matrix(seq, dim)
        for row in rows:
            values, squared = eigendecompose(tri, row)
            orders = range(0, min(lossless_order(row, dim), 64) + 1, 2)
            exact = moments_by_walk(seq, row, orders)
            sums = _even_gauss_moments(values, squared, len(orders))
            for k, got, want in zip(orders, sums, exact):
                assert abs(got - want) <= want / 10**12, (seq, dim, row, k)


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
    special = pytest.importorskip("scipy.special")
    xs = (-2.1, -0.4, 0.0, 0.9, 3.3)
    for n in (1, 2, 3, 6):
        poly = special.hermite(n)
        norm = 2.0**n * math.gamma(n + 1) * math.sqrt(math.pi)
        for x, value in zip(xs, hermite_density_grid(n, xs)):
            expected = poly(x) ** 2 * math.exp(-x * x) / norm
            assert value == pytest.approx(expected, rel=1e-10, abs=1e-13)


def test_hermite_state_density_normalization_and_variance():
    # total mass 1 and second moment N + 1/2, the exact operator value
    np = pytest.importorskip("numpy")
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
    # phi_0 is subnormal at 37.7, 38.0 and 38.3
    xs = [-31.0, -7.25, -1.0, 0.0, 1e-300, 0.5, 2, 3.75, 37.7, 38.0, 38.3, 40.0]
    for n in (0, 1, 2, 7, 60, 200):
        expected = [_pointwise_density(n, x) for x in xs]
        if n == 200:
            # the one value here that is not 0.0 where phi_0 is subnormal:
            # the plain recurrence above starts from 48 bits of phi_0, the
            # grid from 2^log2(exp(-x^2/2)); 60 digits give
            # 5.96122832959717e-309
            expected[xs.index(37.7)] = 5.961228329596604e-309
        assert hermite_density_grid(n, xs) == expected
        assert [hermite_density_grid(n, (x,))[0] for x in xs] == expected
    assert hermite_density_grid(3, []) == []


# SHA-256 of repr(hermite_density_grid(n, grid)) on a 257-point grid and of
# the repr of its 50 results on seeded grids: the recurrence's arithmetic,
# pinned bit for bit
GRID_DIGESTS = {
    0: ("ecdc5ff0f30fb554ea328a8f58c1eed9ab35615c4f7ea2f8a2b0ad4be736abe0",
        "48fba86f3b821c7a46cd5d602e3b7d8559acfd1f709fbf305387a4d918ddec86"),
    56: ("2225d9d6f8ad2d276fdbd97c992a510d3986157ae44e274627094ed491e12ebb",
         "34395c3bd58d031ad2afb8119da65490539b3ccdd87bd0f6609c8424748fe446"),
    200: ("d435bbac31cf53b699d2d16dcd3020a3263dd125b48a913842ffee2e00d4cad4",
          "df7f6d163606101d54eee6a8b72dad62421d783b0fcd684a3be98b5c98ea5c1b"),
}


# the same digests of _state_cdf(n, grid), the ladder identity's arithmetic
CDF_DIGESTS = {
    0: ("04c1ac3938f1a2d0c7a6b3aa9a345eb4b7b22209f9a1f526e43be32c7e6e9220",
        "9c47fcbf3e2504832a1075de8ba588ddc233f14786458d748a05775f2e77e616"),
    5: ("7348543cce7b07bd87f84941b29d99f920f29da12fccf35bb765a768d5b79291",
        "55fcfdd4bbca2599e95648b200c69b40e5c8be98d6d9bd6adb7f3646aa9c0a73"),
    60: ("4ad9762a855a5f6b11f8402832049631836fc966824bf854294b7b9c61d526d9",
         "72ab5a770bf1c8b21718322abc1ccdcd08773cdbe9f8ba3c3da7f6691478df22"),
    200: ("217f5e36a938c35421f1ef6384205e142af4ce0f870ca1416bf3d32ad375f35a",
          "0621298986f4c529a4ab350fc78eba8e3982c7bfe4ec83b2096a9f6bd344a819"),
}


def _digest_grids():
    grid = [-25.0 + 50.0 * i / 256 for i in range(257)]
    rng = random.Random(19)
    seeded = [
        [rng.uniform(-30.0, 30.0) for _ in range(rng.randint(1, 60))]
        for _ in range(50)
    ]
    return grid, seeded


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()


def test_hermite_density_grid_digests_are_unchanged():
    grid, seeded = _digest_grids()
    for n, (on_grid, on_seeded) in GRID_DIGESTS.items():
        assert _digest(hermite_density_grid(n, grid)) == on_grid
        assert _digest([hermite_density_grid(n, xs) for xs in seeded]) == on_seeded


def test_state_cdf_digests_are_unchanged():
    grid, seeded = _digest_grids()
    for n, (on_grid, on_seeded) in CDF_DIGESTS.items():
        assert _digest(_state_cdf(n, grid)) == on_grid
        assert _digest([_state_cdf(n, xs) for xs in seeded]) == on_seeded


def test_hermite_state_density_cap():
    # the density checks a K-level reconstruction, so the eigensolver's
    # cap bounds its level
    with pytest.raises(
        CapExceeded, match=f"^density level {EIGEN_DIM_CAP + 1} exceeds the cap"
    ):
        hermite_density_grid(EIGEN_DIM_CAP + 1, [0.0])
    assert hermite_density_grid(EIGEN_DIM_CAP, (0.1,))[0] >= 0.0


def test_hermite_density_keeps_its_mass_past_the_float_range_of_phi_0():
    # phi_0 underflows past |x| ~ 38.6 while level 1000 reaches
    # sqrt(2001) ~ 44.7; the trapezoid rule at spacing h is exact to
    # rounding, as the density has no frequency near 2 pi / h = 314 (its
    # spectrum ends near 2 sqrt(2001) ~ 89)
    xs = [-60.0 + 0.02 * i for i in range(6001)]
    values = hermite_density_grid(1000, xs)
    mass = 0.02 * (math.fsum(values) - 0.5 * (values[0] + values[-1]))
    assert abs(mass - 1.0) <= 1e-10


def test_hermite_density_moments_match_the_exact_walk():
    # the trapezoid rule on a smooth, fast-decaying integrand is exact to
    # rounding once h is below the density's oscillation (Trefethen &
    # Weideman 2014), so its even moments to order 40 match the exact ones
    # at N = 56, the benchmark's --density row, and at N = 1000.  The
    # worst gaps measured are 2.8e-15 (907 points) and 8.7e-14 (4,619
    # points); each bound is ten times that, rounded up.
    for n, bound in ((56, 3e-14), (1000, 1e-12)):
        root = math.sqrt(2 * n + 1)
        h = min(0.05, 0.7 * math.pi / (2 * root))
        m = math.ceil((root + 12) / h)
        xs = [i * h for i in range(-m, m + 1)]
        values = hermite_density_grid(n, xs)
        orders = range(0, 41, 2)
        for k, want in zip(orders, moments_by_walk(STANDARD, n, orders)):
            got = h * math.fsum(v * x**k for v, x in zip(values, xs))
            assert abs(got - want) <= bound * want, (n, k)


def test_hermite_density_is_zero_far_out():
    # a level grows there by more than 2^300 in one step
    assert hermite_density_grid(50, [1e200, 1e150, -1e100, 1e30]) == [0.0] * 4
    # and 0.0 at +-inf, the limit, at every level
    for n in (0, 1, 5):
        assert hermite_density_grid(n, [-math.inf, 0.5, math.inf]) == [
            0.0, _pointwise_density(n, 0.5), 0.0
        ]
    assert _state_cdf(50, [1e150, -1e100]) == [1.0, 0.0]


def _decimal_density(n, x):
    # phi_n(x)^2 by the same recurrence in 40-digit decimal arithmetic,
    # whose exponent range no level leaves
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        pi = Decimal("3.141592653589793238462643383279502884197")
        x = Decimal(x)
        phi_prev, phi = Decimal(0), (-x * x / 2).exp() / pi.sqrt().sqrt()
        for k in range(n):
            b_next = (Decimal(k + 1) / 2).sqrt()
            b_here = (Decimal(k) / 2).sqrt()
            phi_prev, phi = phi, (x * phi - b_here * phi_prev) / b_next
        return phi * phi


def test_hermite_density_matches_decimal_where_phi_0_underflows():
    xs = [-89.5, -61.25, -45.0, -39.0, 40.5, 52.3, 75.0, 89.5]
    for x, value in zip(xs, hermite_density_grid(4000, xs)):
        expected = _decimal_density(4000, x)
        assert value > 0.0
        assert abs(Decimal(value) - expected) <= Decimal("1e-10") * expected, x


def _density_cdf(state, xs):
    # cumulative trapezoid integral of the state density along a whole
    # grid, as lists: the reference density_spectrum_sup must match bit
    # for bit
    n = state_index(state)
    if len(xs) < 2:
        raise ValueError("need at least two grid points")
    values = hermite_density_grid(n, xs)
    out = [0.0]
    acc = 0.0
    for i in range(1, len(xs)):
        step = xs[i] - xs[i - 1]
        if step <= 0:
            raise ValueError("grid must strictly increase")
        acc += 0.5 * (values[i] + values[i - 1]) * step
        out.append(acc)
    return out


def _density_spectrum_sup_by_lists(state, dim, panels):
    # density_spectrum_sup over a materialized grid and integral
    n = state_index(state)
    measure = reconstruct_state_measure(STANDARD, n, dim, scale=1)
    lo = measure.atoms[0][0] - 2.0
    hi = measure.atoms[-1][0] + 2.0
    xs = [lo + (hi - lo) * i / panels for i in range(panels + 1)]
    cdf = _density_cdf(n, xs)

    def interp(x):
        width = (hi - lo) / panels
        j = min(int((x - lo) / width), panels - 1)
        t = (x - xs[j]) / (xs[j + 1] - xs[j])
        return cdf[j] * (1.0 - t) + cdf[j + 1] * t

    best = 0.0
    cum = 0.0
    for x, w in measure.atoms:
        mid = cum + 0.5 * w
        cum += w
        best = max(best, abs(mid - interp(x)))
    return best


def test_density_cdf_monotone_and_total():
    xs = [(-10.0 + 20.0 * i / 2000) for i in range(2001)]
    cdf = _density_cdf(2, xs)
    assert cdf[0] == 0.0
    assert cdf[-1] == pytest.approx(1.0, abs=1e-8)
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))
    with pytest.raises(ValueError):
        _density_cdf(2, [0.0])
    with pytest.raises(ValueError):
        _density_cdf(2, [0.0, 0.0])


def test_density_spectrum_sup_matches_list_reference():
    # the trapezoid reference at 8,000 and 20,000 panels lies within about
    # 1.5e-6 of the exact distribution function
    cases = [(0, 96, 8000), (2, 98, 8000), (0, 128, 20000), (2, 130, 20000),
             (5, 133, 20000)]
    for n, dim, panels in cases:
        reference = _density_spectrum_sup_by_lists(n, dim, panels)
        assert density_spectrum_sup(n, dim) == pytest.approx(reference, abs=1e-5)


def test_state_cdf_matches_quadrature():
    integrate = pytest.importorskip("scipy.integrate")
    # F_N(x) against the integral of phi_N^2 from -40, where the density
    # is 0.0, summed over half-unit steps up to x
    xs = [-20.0 + 0.5 * i for i in range(83)]
    for n in (0, 1, 3, 10, 60, 200):
        def density(t):
            return hermite_density_grid(n, (t,))[0]

        parts = []
        expected = []
        for a, b in zip([-40.0] + xs, xs):
            value, _ = integrate.quad(
                density, a, b, epsabs=1e-14, epsrel=1e-12, limit=200
            )
            parts.append(value)
            expected.append(math.fsum(parts))
        for x, f, g in zip(xs, _state_cdf(n, xs), expected):
            assert abs(f - g) <= 1e-12, (n, x)


def test_density_spectrum_sup_checks_the_level_before_the_eigensolve(monkeypatch):
    def eigensolve(*args, **kwargs):
        raise AssertionError("the eigensolver ran")

    monkeypatch.setattr(spectral, "reconstruct_state_measure", eigensolve)
    with pytest.raises(ValueError, match="^number state index must be an int"):
        density_spectrum_sup(2.0, 300)


def _peak_bytes(call):
    # the most memory the call held beyond what was allocated before it
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def test_density_spectrum_sup_memory_does_not_follow_the_grid():
    # the reference's grid of 20,000 panels held as lists takes about 2.6 MB
    assert _peak_bytes(lambda: density_spectrum_sup(5, 133)) < 500_000


def test_full_selfcheck_memory_is_bounded():
    # no suite materializes a grid or a table that grows with its cases
    assert _peak_bytes(lambda: run_selfcheck(fast=False)) < 500_000


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


def test_density_spectrum_sup_small():
    assert density_spectrum_sup(0, 96) < 5e-3
    assert density_spectrum_sup(2, 98) < 5e-3


def test_density_spectrum_sup_past_the_float_range_of_phi_0():
    # the outer atoms of K = 1064 lie past |x| ~ 38.6
    assert density_spectrum_sup(1000, 1064) <= DENSITY_SPECTRUM_TOL
