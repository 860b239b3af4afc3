"""Spectral reconstruction of number-state position distributions.

Truncating the position operator to the first K levels gives a symmetric
tridiagonal matrix; diagonalizing it and reading off the N-th row of the
eigenvector matrix yields a discrete probability measure (eigenvalue
locations, squared-component weights) that reproduces the exact state
moments up to order 2 (K - 1 - N) and converges weakly to the arcsine
law under canonical scaling.

The position matrix has a zero diagonal: X moves a level by one, so
with the levels sorted by parity it is [[0, B^T], [B, 0]] with B
bidiagonal and half the size.  Its eigenvalues are the pairs +-sigma of
the singular values of B, which makes every reconstructed measure
exactly symmetric, and the weights are squared singular-vector entries
(Golub & Kahan 1965; Golub & Welsch 1969).  The eigensolver therefore
runs implicit-shift Golub-Kahan QR on B and takes zero-diagonal
matrices only.  Only one row of the eigenvector matrix is ever needed,
so plane rotations are accumulated into a single row vector and memory
stays O(K).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from .fock import (
    EigensolverFailure,
    JacobiSequence,
    STANDARD,
    TruncationTooSmall,
    _Value,
    _as_positive,
    _index,
    state_index,
    to_float,
)
from .laws import arcsine_cdf

# Largest truncation K the eigensolver will accept, and so the largest density
# level, which only checks a K-level reconstruction; O(K^2) rotations in pure
# Python get slow beyond this.  The bidiagonal SVD works at ceil(K/2).
EIGEN_DIM_CAP = 4096

_WEIGHT_SUM_TOL = 1e-12

# Most implicit sweeps the eigensolver spends on one singular value
# before giving up; a NaN or a stalled shift never deflates
_MAX_SWEEPS = 50


class Tridiagonal(NamedTuple):
    """A symmetric tridiagonal matrix as (diagonal, off-diagonal) floats."""

    diag: tuple[float, ...]
    offdiag: tuple[float, ...]


def truncated_position_matrix(seq: JacobiSequence, dim: int) -> Tridiagonal:
    """The position operator X = (a + a*) / sqrt(2) on the first dim levels.

    The diagonal is zero and the off-diagonal entries are
    sqrt(omega_n / 2), n = 1 .. dim - 1.  The eigensolver cap is checked
    before any weight is read; a weight too large for a float raises
    ValueError.
    """
    _index(dim, "truncation dimension", least=1, cap=EIGEN_DIM_CAP)
    off = tuple(
        math.sqrt(to_float(seq.omega(n), f"weight omega_{n}") / 2.0)
        for n in range(1, dim)
    )
    return Tridiagonal(diag=(0.0,) * dim, offdiag=off)


def _free_zero(
    d: list[float],
    e: list[float],
    lo: int,
    hi: int,
    zr: list[float],
    right: bool,
) -> None:
    """Rotate the first zero diagonal entry of the bidiagonal block lo..hi
    free (Golub & Van Loan, Sec. 8.6.2).

    A zero above the last place frees its row by rotations from the
    left; a zero only in the last place frees its column by rotations
    from the right.  Either way an off-diagonal entry of the block
    becomes exactly 0, so the block splits, and the zero stays where it
    was.
    """
    i = d.index(0.0, lo, hi + 1)
    if i < hi:
        f = e[i]
        e[i] = 0.0
        for j in range(i + 1, hi + 1):
            if f == 0.0:
                break
            r = math.hypot(d[j], f)
            c = d[j] / r
            s = f / r
            d[j] = r
            if not right:
                zr[j], zr[i] = c * zr[j] + s * zr[i], c * zr[i] - s * zr[j]
            if j < hi:
                f = -s * e[j]
                e[j] *= c
        return
    f = e[hi - 1]
    e[hi - 1] = 0.0
    for j in range(hi - 1, lo - 1, -1):
        if f == 0.0:
            break
        r = math.hypot(d[j], f)
        c = d[j] / r
        s = f / r
        d[j] = r
        if right:
            zr[j], zr[hi] = c * zr[j] + s * zr[hi], c * zr[hi] - s * zr[j]
        if j > lo:
            f = -s * e[j - 1]
            e[j - 1] *= c


def _golub_kahan(
    offdiag: Sequence[float], row: int
) -> tuple[list[float], list[float]]:
    """Eigenvalues and one squared eigenvector row of a zero-diagonal
    tridiagonal matrix, from the SVD of its bidiagonal parity block.

    Take the levels from the far end, so that the largest weights of a
    growing sequence come first and the bulge chase starts there, the
    order that keeps implicit shifts accurate on a graded matrix; for an
    odd dimension put first a virtual level coupled to nothing.  Split by
    parity, the matrix is then [[0, B^T], [B, 0]] with B upper
    bidiagonal: diagonal c_1, c_3, ... and superdiagonal
    c_2, c_4, ..., where c_1, c_2, ... are the off-diagonal entries read
    from the far end, after the virtual 0.  A singular value sigma of B
    with vectors u, v gives the eigenvalues +-sigma with eigenvectors
    (v, +-u) / sqrt(2), so the tracked level, a column of B (an entry of
    v) or a row (an entry of u), has weight v_i^2 / 2 or u_i^2 / 2 at
    both (Golub & Kahan 1965).  The virtual level's zero column is a
    structural zero singular value; its left vector is the null vector
    of the odd-dimension matrix, so it gives the eigenvalue 0 once, with
    the full weight u_i^2 (0 for a level of the other parity).
    Implicit-shift Golub-Kahan QR (Golub & Van Loan, Sec. 8.6) deflates
    from the small end, tracking only the row of U or V that holds the
    level.  The chase down the block l..m writes each d[k] and e[k-1],
    l < k < m, as a hypot, and applies to them at once the split test
    |e[k-1]| + |d[k-1]| + |d[k]| == |d[k-1]| + |d[k]|, so the next sweep
    starts at the largest k that passes, or rescans only from l down;
    the blocks are those of a full scan before every sweep.  The tracked
    row zr starts as a unit vector, and a chase step turns its entries
    k - 1, k (a row of U, the left rotation) or k, k + 1 (a column of B,
    the right one), k increasing; so zr is zero below an index top, which
    a sweep through top lowers by one and a freed zero lowers to l.  The
    steps whose pair lies below top leave zr alone, as two zeros turn
    into +-0.0 and weights are squares (a NaN rotation leaves d[m] NaN,
    which never deflates); the rest run in a loop written once per side.
    Returns the eigenvalues and squared entries, unsorted.
    """
    dim = len(offdiag) + 1
    c = [float(x) for x in reversed(offdiag)]
    if dim % 2:
        c.insert(0, 0.0)
    d = c[0::2]
    e = c[1::2]
    n = len(d)
    # position of the tracked level from the far end: even positions are
    # the columns of B, odd ones its rows
    pos = len(c) - row
    right = pos % 2 == 0
    zr = [0.0] * n
    top = pos // 2
    zr[top] = 1.0
    hypot = math.hypot

    m = n - 1
    sweeps = 0
    # the largest split the last chase found in its block, 0 for none, -1
    # once d or e changed outside a chase
    l = split = -1
    while m > 0:
        dd = abs(d[m - 1]) + abs(d[m])
        if abs(e[m - 1]) + dd == dd:
            m -= 1
            sweeps = 0
            continue
        # with no split found the chase changed only d[l] of what the scan
        # below reads at l and under, so it resumes there
        if 0 < split < m:
            l = split
        elif split or l >= m:
            l = m - 1
        while l > 0:
            dd = abs(d[l - 1]) + abs(d[l])
            if abs(e[l - 1]) + dd == dd:
                break
            l -= 1
        # freeing a zero counts as a sweep too, so that no input, NaN
        # included, keeps the loop going past the limit
        sweeps += 1
        if sweeps > _MAX_SWEEPS:
            raise EigensolverFailure(
                f"Golub-Kahan iteration did not converge for singular value "
                f"{m} within {_MAX_SWEEPS} sweeps"
            )
        if sweeps > 3:
            # slow to deflate: a diagonal entry negligible beside its
            # neighbours stalls the shifted step, so set such entries to 0
            for i in range(l, m + 1):
                nb = abs(e[i - 1]) if i > l else 0.0
                if i < m:
                    nb += abs(e[i])
                if abs(d[i]) + nb == nb:
                    d[i] = 0.0
        if 0.0 in d[l:m + 1]:
            _free_zero(d, e, l, m, zr, right)
            split = -1
            top = min(top, l)
            continue
        # Wilkinson shift sigma^2: the eigenvalue of the trailing 2x2 block
        # of B^T B nearer its last diagonal entry, taken in units of the
        # block's largest entry so that no square overflows
        a = d[m - 1]
        b = e[m - 1]
        f = e[m - 2] if m - 1 > l else 0.0
        g = d[m]
        unit = max(abs(a), abs(b), abs(f), abs(g))
        a /= unit
        b /= unit
        f /= unit
        g /= unit
        t12 = a * b
        t22 = g * g + b * b
        delta = 0.5 * (a * a + f * f - t22)
        den = delta + math.copysign(hypot(delta, t12), delta)
        mu = t22 - t12 * t12 / den if den else t22
        sigma = unit * math.sqrt(max(mu, 0.0))
        # the first rotation turns (d_l^2 - sigma^2, d_l e_l), taken here
        # divided by max(|d_l|, sigma)
        dk = d[l]
        ek = e[l]
        unit = max(abs(dk), sigma)
        y = (abs(dk) - sigma) * ((abs(dk) + sigma) / unit)
        h = dk * (ek / unit)
        # dk, ek hold the current d[k], e[k] and z the current zr[k]; the
        # loop turns rows k - 1, k from the left, then columns k, k + 1 from
        # the right, so the first and the last rotation stand outside it
        r = hypot(y, h)
        cs = y / r if r else 1.0
        sn = h / r if r else 0.0
        dk1 = d[l + 1]
        f = cs * dk + sn * ek
        ek = cs * ek - sn * dk
        h = sn * dk1
        dk1 *= cs
        z = zr[l]
        if right:
            b = zr[l + 1]
            zr[l], z = cs * z + sn * b, cs * b - sn * z
        # once d[k - 1] is written, it, prev = d[k - 2] and off = e[k - 2]
        # are final and nonnegative: test the split at k - 1 there; off
        # starts as a NaN, which fails the test at l.  A step before `live`
        # would turn two zero entries of zr, so it leaves zr alone
        split, prev, off = 0, 0.0, math.nan
        live = max(l + 1, min(top - right, m))
        for k in range(l + 1, live):
            # zero the bulge h against f.  In the loops a try, which costs
            # nothing until r is 0, stands in for a test of r
            r = hypot(f, h)
            try:
                cs, sn = f / r, h / r
            except ZeroDivisionError:
                cs, sn = 1.0, 0.0
            d[k - 1] = r
            y = cs * ek + sn * dk1
            dk = cs * dk1 - sn * ek
            ek = e[k]
            h = sn * ek
            ek *= cs
            dd = prev + r
            if off + dd == dd:
                split = k - 1
            prev = r
            # zero h against y
            r = hypot(y, h)
            try:
                cs, sn = y / r, h / r
            except ZeroDivisionError:
                cs, sn = 1.0, 0.0
            e[k - 1] = off = r
            dk1 = d[k + 1]
            f = cs * dk + sn * ek
            ek = cs * ek - sn * dk
            h = sn * dk1
            dk1 *= cs
        # the same steps, turning zr with the right or the left rotation
        if right:
            for k in range(live, m):
                r = hypot(f, h)
                try:
                    cs, sn = f / r, h / r
                except ZeroDivisionError:
                    cs, sn = 1.0, 0.0
                d[k - 1] = r
                y = cs * ek + sn * dk1
                dk = cs * dk1 - sn * ek
                ek = e[k]
                h = sn * ek
                ek *= cs
                dd = prev + r
                if off + dd == dd:
                    split = k - 1
                prev = r
                r = hypot(y, h)
                try:
                    cs, sn = y / r, h / r
                except ZeroDivisionError:
                    cs, sn = 1.0, 0.0
                e[k - 1] = off = r
                dk1 = d[k + 1]
                f = cs * dk + sn * ek
                ek = cs * ek - sn * dk
                h = sn * dk1
                dk1 *= cs
                b = zr[k + 1]
                zr[k], z = cs * z + sn * b, cs * b - sn * z
        else:
            for k in range(live, m):
                r = hypot(f, h)
                try:
                    cs, sn = f / r, h / r
                except ZeroDivisionError:
                    cs, sn = 1.0, 0.0
                d[k - 1] = r
                y = cs * ek + sn * dk1
                dk = cs * dk1 - sn * ek
                ek = e[k]
                h = sn * ek
                ek *= cs
                b = zr[k]
                zr[k - 1], z = cs * z + sn * b, cs * b - sn * z
                dd = prev + r
                if off + dd == dd:
                    split = k - 1
                prev = r
                r = hypot(y, h)
                try:
                    cs, sn = y / r, h / r
                except ZeroDivisionError:
                    cs, sn = 1.0, 0.0
                e[k - 1] = off = r
                dk1 = d[k + 1]
                f = cs * dk + sn * ek
                ek = cs * ek - sn * dk
                h = sn * dk1
                dk1 *= cs
        r = hypot(f, h)
        cs = f / r if r else 1.0
        sn = h / r if r else 0.0
        d[m - 1] = r
        if not right:
            b = zr[m]
            zr[m - 1], z = cs * z + sn * b, cs * b - sn * z
        dd = prev + r
        if off + dd == dd:
            split = m - 1
        zr[m] = z
        d[m] = cs * dk1 - sn * ek
        e[m - 1] = cs * ek + sn * dk1
        if l < top <= m:
            top -= 1

    values: list[float] = []
    squared: list[float] = []
    odd = dim % 2  # d[0] is then the structural zero
    for sigma, z in zip(d[odd:], zr[odd:]):
        sigma = abs(sigma)
        values += (-sigma, sigma)
        squared += (0.5 * z * z,) * 2
    if odd:
        values.append(0.0)
        squared.append(zr[0] * zr[0])
    return values, squared


def eigendecompose(
    matrix: Tridiagonal, row: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Eigenvalues of a symmetric tridiagonal matrix with one squared
    eigenvector row.

    Returns (eigenvalues, squared_components): the eigenvalues in
    ascending order, and the squared entries of the requested row of the
    eigenvector matrix at each of them, which sum to 1; a row that does
    not, or an eigenvalue that is not finite, raises EigensolverFailure.
    The diagonal must be zero, as every position matrix's is; any other
    diagonal raises ValueError.
    The half-size bidiagonal SVD of ``_golub_kahan`` deflates on the
    machine-epsilon test |e_m| + |d_m| + |d_m+1| == |d_m| + |d_m+1| and
    gives each singular value at most ``_MAX_SWEEPS`` (50) implicit
    sweeps.
    """
    dim = _index(len(matrix.diag), "matrix dimension", least=1, cap=EIGEN_DIM_CAP)
    if len(matrix.offdiag) != dim - 1:
        raise ValueError(
            f"off-diagonal length {len(matrix.offdiag)} does not match "
            f"dimension {dim}"
        )
    if any(matrix.diag):
        raise ValueError("eigendecompose takes a zero diagonal only")
    if _index(row, "row") >= dim:
        raise ValueError(f"row {row} outside 0..{dim - 1}")

    values, squared = _golub_kahan(matrix.offdiag, row)
    pairs = sorted(zip(values, squared))
    eigenvalues = tuple(val for val, _ in pairs)
    squared = tuple(w for _, w in pairs)
    total = math.fsum(squared)
    # written so that a NaN total fails too
    if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:
        raise EigensolverFailure(
            f"eigenvector row lost orthonormality: squared components sum "
            f"to {total!r}"
        )
    if not all(map(math.isfinite, eigenvalues)):
        raise EigensolverFailure(f"eigenvalues are not all finite: {eigenvalues!r}")
    return eigenvalues, squared


class DiscreteMeasure(_Value):
    """A finitely supported probability measure on the real line.

    Atoms are (location, weight) pairs with finite, strictly increasing
    locations, nonnegative weights, and total mass 1 within 1e-12; any
    iterable of pairs is stored as a tuple of tuples.
    """

    __slots__ = ("atoms",)

    def __init__(self, atoms: Iterable[tuple[float, float]]) -> None:
        atoms = tuple(map(tuple, atoms))
        if not atoms:
            raise ValueError("a discrete measure needs at least one atom")
        last = None
        for x, w in atoms:
            if not math.isfinite(x):
                raise ValueError(
                    f"atom location must be finite, got {x!r} with weight {w!r}"
                )
            if last is not None and not x > last:
                raise ValueError(f"atom locations must strictly increase at {x!r}")
            # a NaN weight or total fails these tests too
            if not w >= 0.0:
                raise ValueError(f"atom weight must be >= 0, got {w!r} at {x!r}")
            last = x
        try:
            total = math.fsum(w for _, w in atoms)
        except OverflowError:
            total = math.inf
        if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights sum to {total!r}, not 1")
        object.__setattr__(self, "atoms", atoms)

    def moment(self, order: int) -> float:
        _index(order, "moment order")
        try:
            return math.fsum(w * x**order for x, w in self.atoms)
        except OverflowError:
            raise ValueError(f"order {order} moment overflows a float") from None


def lossless_order(state: int, dim: int) -> int:
    """Largest moment order the K-level truncation reproduces exactly.

    A power of the one-step level walk starting and ending at N feels the
    truncation only beyond order 2 (K - 1 - N), so K must hold the state:
    K >= N + 1.
    """
    n = state_index(state)
    return 2 * (_index(dim, "truncation dimension", least=n + 1) - 1 - n)


def _check_truncation(n: int, dim: int) -> None:
    """K >= N + 2, then K within the eigensolver's cap."""
    if _index(dim, "truncation dimension", least=1) < n + 2:
        raise TruncationTooSmall(
            f"truncation dimension {dim} is below state + 2 = {n + 2}"
        )
    _index(dim, "truncation dimension", cap=EIGEN_DIM_CAP)


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
    s = _as_positive(scale, "scale")
    _check_truncation(n, dim)
    matrix = truncated_position_matrix(seq, dim)
    root = math.sqrt(to_float(s, "scale"))
    if root == 0.0:
        raise ValueError("scale is too small for a float")
    eigenvalues, squared = eigendecompose(matrix, row=n)
    atoms: list[tuple[float, float]] = []
    for lam, w in zip(eigenvalues, squared):
        x = lam / root
        if atoms and atoms[-1][0] == x:
            atoms[-1] = (x, atoms[-1][1] + w)
        else:
            atoms.append((x, w))
    return DiscreteMeasure(atoms)


def _hermite_levels(
    n: int, xs: Sequence[float]
) -> Iterator[tuple[list[float], list[float], list[int]]]:
    """phi_0 .. phi_n of the standard oscillator at xs, one level at a time.

    The weighted orthonormal recurrence phi_0 = exp(-x^2/2) / pi^(1/4),
    b_{k+1} phi_{k+1} = x phi_k - b_k phi_{k-1} with b_k = sqrt(k / 2),
    stays bounded where the bare Hermite one would overflow; each point
    gets the arithmetic of a one-point call.  Yields (phi_k, phi_{k-1}, e):
    at xs[i] both levels are the floats times 2^e[i].  Where phi_0 is not
    a normal float (|x| > ~37.6, unless x^2 overflows) it starts from
    log2 exp(-x^2/2), and both levels shed 2^300 while one passes it, so
    a square never overflows (Bunck, BIT 49, 2009); elsewhere e[i] = 0.
    """
    norm = math.pi**0.25
    phi_prev = [0.0] * len(xs)
    phi = [math.exp(-0.5 * x * x) / norm for x in xs]
    e = [0] * len(xs)
    deep = [i for i, (x, p) in enumerate(zip(xs, phi))
            if p < sys.float_info.min and math.isfinite(x * x)]
    for i in deep:
        log2_exp = -0.5 * xs[i] * xs[i] / math.log(2.0)
        e[i] = math.floor(log2_exp)
        phi[i] = 2.0 ** (log2_exp - e[i]) / norm
    yield phi, phi_prev, e
    for k in range(n):
        b_next = math.sqrt((k + 1) / 2.0)
        b_here = math.sqrt(k / 2.0)
        phi_prev, phi = phi, [
            (x * p - b_here * q) / b_next for x, p, q in zip(xs, phi, phi_prev)
        ]
        for i in deep:
            while abs(phi[i]) > 2.0**300:
                phi[i] = math.ldexp(phi[i], -300)
                phi_prev[i] = math.ldexp(phi_prev[i], -300)
                e[i] += 300
        yield phi, phi_prev, e


def hermite_density_grid(state: int, xs: Sequence[float]) -> list[float]:
    """Position density phi_N(x)^2 of the N-th standard state at xs."""
    n = _index(state, "density level", cap=EIGEN_DIM_CAP)
    for phi, _, e in _hermite_levels(n, xs):
        pass
    return [math.ldexp(p * p, 2 * k) for p, k in zip(phi, e)]


def _state_cdf(n: int, xs: Sequence[float]) -> list[float]:
    """F_N, the distribution function of phi_N^2, at xs, exactly.

    The ladder relations give d/dx (phi_k phi_{k-1}) =
    sqrt(2k) (phi_{k-1}^2 - phi_k^2), so
    F_N(x) = erfc(-x) / 2 - sum_{k=1..N} phi_k(x) phi_{k-1}(x) / sqrt(2k).
    """
    cdf = [0.5 * math.erfc(-x) for x in xs]
    levels = _hermite_levels(n, xs)
    next(levels)
    for k, (phi, prev, e) in enumerate(levels, 1):
        root = math.sqrt(2.0 * k)
        cdf = [f - math.ldexp(p * q, 2 * j) / root
               for f, p, q, j in zip(cdf, phi, prev, e)]
    return cdf


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


def density_spectrum_sup(state: int, dim: int) -> float:
    """Sup distance between spectral and density CDFs of a standard state.

    Reads the K-level reconstructed measure's step CDF at mid-jump, the
    average of its left and right limits, against the exact F_N at every
    atom.  A step function cannot track a continuous CDF more closely
    than half its largest jump, so this is the honest comparison.  The
    state index is checked before the eigensolve.
    """
    n = state_index(state)
    atoms = reconstruct_state_measure(STANDARD, n, dim, scale=1).atoms
    best = cum = 0.0
    for (_, w), f in zip(atoms, _state_cdf(n, [x for x, _ in atoms])):
        best = max(best, abs(cum + 0.5 * w - f))
        cum += w
    return best
