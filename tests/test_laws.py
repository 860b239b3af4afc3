import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmoments.laws import (
    SUPPORT_RADIUS,
    arcsine_cdf,
    arcsine_density,
    arcsine_moment,
    classical_moment,
    classical_moment_quadrature,
    vacuum_gaussian_moment,
    validate_moments,
)


def test_arcsine_moment_values():
    # C(2m, m) / 2^m for m = 0..4
    assert arcsine_moment(0) == 1
    assert arcsine_moment(2) == 1
    assert arcsine_moment(4) == Fraction(3, 2)
    assert arcsine_moment(6) == Fraction(5, 2)
    assert arcsine_moment(8) == Fraction(35, 8)
    for order in (1, 3, 5, 9):
        assert arcsine_moment(order) == 0
    with pytest.raises(ValueError):
        arcsine_moment(-2)


def test_arcsine_moments_by_quadrature():
    # independent check: substituting x = sqrt(2) sin(t) removes the edge
    # singularity, leaving the smooth integral of (sqrt(2) sin t)^n / pi
    np = pytest.importorskip("numpy")
    ts = np.linspace(-math.pi / 2, math.pi / 2, 200_001)
    for order in (2, 4, 6, 8):
        est = np.trapezoid((SUPPORT_RADIUS * np.sin(ts)) ** order / math.pi, ts)
        assert est == pytest.approx(float(arcsine_moment(order)), abs=1e-8)


def test_arcsine_cdf_values():
    assert arcsine_cdf(-2.0) == 0.0
    assert arcsine_cdf(2.0) == 1.0
    assert arcsine_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    # asin(1/sqrt(2)) = pi/4, so F(1) = 3/4
    assert arcsine_cdf(1.0) == pytest.approx(0.75, abs=1e-12)
    assert arcsine_cdf(-1.0) == pytest.approx(0.25, abs=1e-12)


def test_arcsine_cdf_monotone_and_matches_density():
    xs = [(-1.35 + 2.7 * i / 200) for i in range(201)]
    values = [arcsine_cdf(x) for x in xs]
    assert all(b >= a for a, b in zip(values, values[1:]))
    h = 1e-6
    for x in (-1.2, -0.5, 0.0, 0.3, 1.0):
        slope = (arcsine_cdf(x + h) - arcsine_cdf(x - h)) / (2 * h)
        assert slope == pytest.approx(arcsine_density(x), rel=1e-6)


def test_arcsine_density_outside_support():
    assert arcsine_density(1.5) == 0.0
    assert arcsine_density(-7.0) == 0.0


def test_vacuum_gaussian_moments():
    # (2m - 1)!! / 2^m
    assert vacuum_gaussian_moment(0) == 1
    assert vacuum_gaussian_moment(2) == Fraction(1, 2)
    assert vacuum_gaussian_moment(4) == Fraction(3, 4)
    assert vacuum_gaussian_moment(6) == Fraction(15, 8)
    assert vacuum_gaussian_moment(8) == Fraction(105, 16)
    assert vacuum_gaussian_moment(3) == 0
    with pytest.raises(ValueError):
        vacuum_gaussian_moment(-1)


def test_vacuum_gaussian_moments_by_quadrature():
    # independent check against the explicit density exp(-x^2)/sqrt(pi)
    np = pytest.importorskip("numpy")
    xs = np.linspace(-9.0, 9.0, 400_001)
    dens = np.exp(-(xs**2)) / math.sqrt(math.pi)
    for order in (0, 2, 4, 6):
        est = np.trapezoid(xs**order * dens, xs)
        assert est == pytest.approx(float(vacuum_gaussian_moment(order)), abs=1e-10)


def test_classical_moment_values():
    assert classical_moment(4, 2) == 2
    assert classical_moment(4, 0) == 1
    assert classical_moment(4, 3) == 0
    # A^2 = 2 reproduces the arcsine moments exactly
    for order in range(0, 17):
        assert classical_moment(2, order) == arcsine_moment(order)
    with pytest.raises(ValueError):
        classical_moment(0, 2)
    with pytest.raises(ValueError):
        classical_moment("-1", 2)
    with pytest.raises(ValueError):
        classical_moment(2, -1)


def test_classical_quadrature_matches_closed_form():
    amplitude = math.sqrt(2.0)
    for order in range(0, 17):
        quad = classical_moment_quadrature(amplitude, order)
        assert abs(quad - float(classical_moment(2, order))) <= 1e-12
    # low harmonics are exact even at the minimum panel count
    assert classical_moment_quadrature(1.0, 2, panels=16) == pytest.approx(
        0.5, abs=1e-14
    )


def test_classical_quadrature_validation():
    with pytest.raises(ValueError):
        classical_moment_quadrature(1.0, 2, panels=8)
    with pytest.raises(ValueError):
        classical_moment_quadrature(-1.0, 2)
    with pytest.raises(ValueError):
        classical_moment_quadrature(1.0, -2)
    # NaN passes a plain "<= 0" test, and both gave a result or an overflow
    for amplitude in (math.nan, math.inf, 0.0):
        for order in (0, 2):
            with pytest.raises(
                ValueError,
                match=rf"^amplitude must be positive and finite, got {amplitude!r}$",
            ):
                classical_moment_quadrature(amplitude, order)


def test_validate_moments_accepts_genuine_sequences():
    assert validate_moments([1])
    assert validate_moments([arcsine_moment(n) for n in range(17)])
    assert validate_moments([vacuum_gaussian_moment(n) for n in range(13)])
    # point mass at 1: all moments 1, a PSD case with zero pivots
    assert validate_moments([1, 1, 1, 1, 1])
    # mix of point mass at 1 and extra mass spread at +-1 keeps PSD
    assert validate_moments([1, 1, 1, 1, 2])
    assert validate_moments(["1", "0", "1/2"])


def test_validate_moments_rejects_impossible_sequences():
    assert not validate_moments([1, 0, -1])
    # violates m4 >= m2^2 (Cauchy-Schwarz)
    assert not validate_moments([1, 0, 1, 0, Fraction(1, 2)])
    # zero pivot with a nonzero row is indefinite
    assert not validate_moments([0, 1, 0])
    assert not validate_moments([1, 1, 1, 1, 0])
    # m2 < m1^2: the second pivot turns negative only once the first row
    # is eliminated from the second
    assert not validate_moments([1, 6, 1, 2, Fraction(4, 3)])


def test_validate_moments_names_the_bad_moment():
    for values, message in (
        ([1, 0.5, 2], "m_1: floats are not exact, pass a 'p/q' string instead of 0.5"),
        ([1, 0, True], "m_2: expected a rational number, got a bool"),
        (["1", "x"], "m_1: not a rational 'p/q' string: 'x'"),
    ):
        with pytest.raises(ValueError) as info:
            validate_moments(values)
        assert str(info.value) == message


def _det(rows):
    """Exact determinant by expansion along the first row."""
    if not rows:
        return Fraction(1)
    return sum(
        (-1) ** j * rows[0][j] * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        for j in range(len(rows))
    )


def _psd_by_principal_minors(moments):
    """A symmetric matrix is PSD exactly when every principal minor, not
    only every leading one, is >= 0."""
    size = (len(moments) - 1) // 2 + 1
    return all(
        _det([[moments[i + j] for j in picked] for i in picked]) >= 0
        for k in range(1, size + 1)
        for picked in itertools.combinations(range(size), k)
    )


_SMALL = st.fractions(min_value=-2, max_value=6, max_denominator=3)


@st.composite
def _moment_lists(draw):
    """Up to five moments: of a measure on a few rational points, that
    measure's moments with one nudged, or any small rationals."""
    length = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(("measure", "nudged", "any")))
    if kind == "any":
        return draw(st.lists(_SMALL, min_size=length, max_size=length))
    atoms = draw(st.lists(
        st.tuples(
            st.fractions(min_value=-2, max_value=2, max_denominator=3),
            st.fractions(min_value=0, max_value=1, max_denominator=4),
        ),
        min_size=1, max_size=3,
    ))
    moments = [sum(w * x**k for x, w in atoms) for k in range(length)]
    if kind == "nudged":
        moments[draw(st.integers(0, length - 1))] += draw(_SMALL)
    return moments


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_moment_lists())
def test_validate_moments_agrees_with_principal_minors(moments):
    assert validate_moments(moments) == _psd_by_principal_minors(moments)


def test_validate_moments_validation():
    with pytest.raises(ValueError):
        validate_moments([])
    with pytest.raises(ValueError):
        validate_moments([0.5])
