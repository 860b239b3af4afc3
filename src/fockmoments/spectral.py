"""Spectral reconstruction of number-state position distributions.

Truncating the position operator to the first K levels gives a symmetric
tridiagonal matrix; diagonalizing it and reading off the N-th row of the
eigenvector matrix yields a discrete probability measure (eigenvalue
locations, squared-component weights) that reproduces the exact state
moments up to order 2 (K - 1 - N) and converges weakly to the arcsine
law under canonical scaling.

The eigensolver is the classical implicit-shift QL iteration for
symmetric tridiagonal matrices.  Only one row of the eigenvector matrix
is ever needed, so plane rotations are accumulated into a single row
vector and memory stays O(K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

from .fock import (
    CapExceeded,
    JacobiSequence,
    as_fraction,
    state_index,
)
from .laws import arcsine_cdf

# Largest truncation the dense-free QL path will accept; O(K^2) rotations
# in pure Python get slow beyond this.
EIGEN_DIM_CAP = 4096

# hermite_density_grid recursion depth guard
DENSITY_LEVEL_CAP = 200

_WEIGHT_SUM_TOL = 1e-12


class TruncationTooSmall(ValueError):
    """The truncation dimension is too small for the requested state."""


class EigensolverFailure(RuntimeError):
    """The QL iteration did not converge or lost orthonormality."""


class Tridiagonal(NamedTuple):
    """A symmetric tridiagonal matrix as (diagonal, off-diagonal) floats."""

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]


def _check_dim_cap(dim: int) -> None:
    """Raise CapExceeded when a truncation is over the eigensolver cap."""
    if dim > EIGEN_DIM_CAP:
        raise CapExceeded(
            f"truncation dimension {dim} exceeds the eigensolver cap "
            f"{EIGEN_DIM_CAP}"
        )


def _check_density_cap(n: int) -> None:
    """Raise CapExceeded when a density level is over the recursion cap."""
    if n > DENSITY_LEVEL_CAP:
        raise CapExceeded(
            f"density level {n} exceeds the cap {DENSITY_LEVEL_CAP}"
        )


def truncated_position_matrix(seq: JacobiSequence, dim: int) -> Tridiagonal:
    """The position operator X = (a + a*) / sqrt(2) on the first dim levels.

    The diagonal is zero and the off-diagonal entries are
    sqrt(omega_n / 2), n = 1 .. dim - 1.  The eigensolver cap is checked
    before any weight is read.
    """
    if dim < 1:
        raise ValueError(f"truncation dimension must be >= 1, got {dim}")
    _check_dim_cap(dim)
    off = tuple(math.sqrt(float(seq.omega(n)) / 2.0) for n in range(1, dim))
    return Tridiagonal(diag=(0.0,) * dim, offdiag=off)


@dataclass(frozen=True)
class TridiagonalSpectrum:
    """Eigenvalues of a tridiagonal matrix with one eigenvector row.

    squared_components[j] is the squared j-th entry of the tracked row of
    the orthogonal eigenvector matrix; the squares sum to 1.
    """

    dimension: int
    row: int
    eigenvalues: tuple[float, ...]
    squared_components: tuple[float, ...]


def eigendecompose(matrix: Tridiagonal, row: int) -> TridiagonalSpectrum:
    """Implicit-shift QL diagonalization with single-row accumulation.

    Returns eigenvalues in ascending order and the squared entries of the
    requested row of the eigenvector matrix.  Deflation uses the
    machine-epsilon test |e_m| + |d_m| + |d_m+1| == |d_m| + |d_m+1|, and
    each eigenvalue gets at most 50 implicit QL sweeps.
    """
    dim = len(matrix.diag)
    if dim < 1:
        raise ValueError("matrix must have dimension >= 1")
    if len(matrix.offdiag) != dim - 1:
        raise ValueError(
            f"off-diagonal length {len(matrix.offdiag)} does not match "
            f"dimension {dim}"
        )
    _check_dim_cap(dim)
    if not 0 <= row < dim:
        raise ValueError(f"row {row} outside 0..{dim - 1}")

    d = [float(x) for x in matrix.diag]
    e = [float(x) for x in matrix.offdiag] + [0.0]
    zr = [0.0] * dim
    zr[row] = 1.0

    for l in range(dim):
        sweeps = 0
        while True:
            for m in range(l, dim - 1):
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(e[m]) + dd == dd:
                    break
            else:
                m = dim - 1
            if m == l:
                break
            sweeps += 1
            if sweeps > 50:
                raise EigensolverFailure(
                    f"QL iteration did not converge for eigenvalue {l} "
                    f"within 50 sweeps"
                )
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            early = False
            for i in range(m - 1, l - 1, -1):
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    # rotation annihilated prematurely; restart the sweep
                    d[i + 1] -= p
                    e[m] = 0.0
                    early = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                f = zr[i + 1]
                zr[i + 1] = s * zr[i] + c * f
                zr[i] = c * zr[i] - s * f
            if early:
                continue
            d[l] -= p
            e[l] = g
            e[m] = 0.0

    pairs = sorted(zip(d, (z * z for z in zr)))
    eigenvalues = tuple(val for val, _ in pairs)
    squared = tuple(w for _, w in pairs)
    total = math.fsum(squared)
    if abs(total - 1.0) > _WEIGHT_SUM_TOL:
        raise EigensolverFailure(
            f"eigenvector row lost orthonormality: squared components sum "
            f"to {total!r}"
        )
    return TridiagonalSpectrum(
        dimension=dim, row=row, eigenvalues=eigenvalues, squared_components=squared
    )


@dataclass(frozen=True)
class DiscreteMeasure:
    """A finitely supported probability measure on the real line.

    Atoms are (location, weight) pairs with strictly increasing
    locations, nonnegative weights, and total mass 1 within 1e-12.
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("a discrete measure needs at least one atom")
        last = None
        for x, w in self.atoms:
            if last is not None and not x > last:
                raise ValueError(f"atom locations must strictly increase at {x!r}")
            if w < 0.0:
                raise ValueError(f"atom weight must be >= 0, got {w!r} at {x!r}")
            last = x
        total = math.fsum(w for _, w in self.atoms)
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")

    @property
    def locations(self) -> tuple[float, ...]:
        return tuple(x for x, _ in self.atoms)

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for _, w in self.atoms)

    def moment(self, order: int) -> float:
        if order < 0:
            raise ValueError(f"moment order must be >= 0, got {order}")
        return math.fsum(w * x**order for x, w in self.atoms)

    def cdf(self, x: float) -> float:
        """Right-continuous distribution function."""
        return math.fsum(w for loc, w in self.atoms if loc <= x)

    def to_csv(self) -> str:
        lines = ["location,weight"]
        lines.extend(f"{x!r},{w!r}" for x, w in self.atoms)
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "locations": [x for x, _ in self.atoms],
            "weights": [w for _, w in self.atoms],
        }


def lossless_order(state: int, dim: int) -> int:
    """Largest moment order the K-level truncation reproduces exactly.

    A power of the one-step level walk starting and ending at N feels the
    truncation only beyond order 2 (K - 1 - N).
    """
    n = state_index(state)
    return 2 * (dim - 1 - n)


def reconstruct_state_measure(
    seq: JacobiSequence,
    state: int,
    dim: int,
    scale: Union[int, str, Fraction] = 1,
) -> DiscreteMeasure:
    """Discrete position distribution of the N-th state from K levels.

    Diagonalizes the K-level truncation of X and reads the N-th
    eigenvector row: the measure puts weight |<e_N, v_j>|^2 at
    eigenvalue_j / sqrt(s).  Requires dim >= N + 2 so at least one level
    above the state survives truncation.
    """
    n = state_index(state)
    s = as_fraction(scale)
    if s <= 0:
        raise ValueError(f"scale must be positive, got {s}")
    if dim < n + 2:
        raise TruncationTooSmall(
            f"truncation dimension {dim} is below state + 2 = {n + 2}"
        )
    spectrum = eigendecompose(truncated_position_matrix(seq, dim), row=n)
    root = math.sqrt(float(s))
    atoms: list[tuple[float, float]] = []
    for lam, w in zip(spectrum.eigenvalues, spectrum.squared_components):
        x = lam / root
        if atoms and atoms[-1][0] == x:
            atoms[-1] = (x, atoms[-1][1] + w)
        else:
            atoms.append((x, w))
    return DiscreteMeasure(atoms=tuple(atoms))


def hermite_density_grid(
    state: int, xs: Sequence[float]
) -> list[float]:
    """Position density of the N-th standard-oscillator number state at xs.

    Evaluates the weighted orthonormal recurrence
    phi_0 = exp(-x^2/2) / pi^(1/4),
    b_{n+1} phi_{n+1} = x phi_n - b_n phi_{n-1} with b_n = sqrt(n / 2),
    and returns phi_N(x)^2 at every point.  The weighted form stays
    bounded where the bare Hermite recurrence would overflow.  Each level
    is one pass over the grid, with the arithmetic of a one-point call.
    """
    n = state_index(state)
    _check_density_cap(n)
    norm = math.pi**0.25
    phi_prev = [0.0] * len(xs)
    phi = [math.exp(-0.5 * x * x) / norm for x in xs]
    for k in range(n):
        b_next = math.sqrt((k + 1) / 2.0)
        b_here = math.sqrt(k / 2.0)
        phi_prev, phi = phi, [
            (x * p - b_here * q) / b_next for x, p, q in zip(xs, phi, phi_prev)
        ]
    return [p * p for p in phi]


def hermite_state_density(state: int, x: float) -> float:
    """Position density of the N-th standard-oscillator number state at x;
    see ``hermite_density_grid``."""
    return hermite_density_grid(state, (x,))[0]


def ks_distance_to_arcsine(measure: DiscreteMeasure) -> float:
    """Kolmogorov-Smirnov distance between a discrete measure and the
    arcsine law.

    Against a continuous CDF the supremum is attained at an atom, from
    the left or the right, so scanning atoms is exact.
    """
    best = 0.0
    cum = 0.0
    for x, w in measure.atoms:
        target = arcsine_cdf(x)
        best = max(best, abs(cum - target))
        cum += w
        best = max(best, abs(cum - target))
    return best


def density_cdf(state: int, xs: Sequence[float]) -> list[float]:
    """Cumulative trapezoid integral of the state density along a grid."""
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


def density_spectrum_sup(
    state: int, dim: int, panels: int = 20000
) -> float:
    """Sup distance between spectral and density CDFs of a standard state.

    Compares the K-level reconstructed measure against the integrated
    Hermite density at every atom, reading the step CDF at mid-jump (the
    average of its left and right limits).  A step function cannot track
    a continuous CDF more closely than half its largest jump, so this
    mid-jump reading is the honest discretization-aware comparison.
    """
    n = state_index(state)
    measure = reconstruct_state_measure(
        JacobiSequence.standard(), n, dim, scale=1
    )
    lo = measure.atoms[0][0] - 2.0
    hi = measure.atoms[-1][0] + 2.0
    xs = [lo + (hi - lo) * i / panels for i in range(panels + 1)]
    cdf = density_cdf(n, xs)

    def interp(x: float) -> float:
        # linear interpolation of the integrated density
        if x <= xs[0]:
            return 0.0
        if x >= xs[-1]:
            return cdf[-1]
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
