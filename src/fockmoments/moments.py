"""Exact position moments of number states, by the one exact kernel.

The position observable is X = (a + a*) / sqrt(2).  Its moments in the
N-th number state are computed by one integer pass of the tridiagonal
level walk (``moments_by_walk``, the linear-algebra route), exact over
the rationals; the convergence table and its envelope are built on it.
The combinatorial route, summing matrix elements of all balanced ladder
words (``words.moment_by_words``), lives in its own module, so that an
exact call never compiles it.  Both must agree identically; keeping both
is the point, they cross-check each other.

Moments can be rescaled by a positive variance s, replacing X with
X / sqrt(s).  Under the canonical scale s = omega_N the even moments of
the standard oscillator are sandwiched between explicit rational bounds
around the arcsine moments.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Union

from .fock import (
    JacobiSequence,
    _as_positive,
    _index,
    _quoted,
    canonical_scale,
    state_index,
)


# Largest even order the walk runs to: order 3,000 at N = 0 takes about a
# second, and the time grows about cubically
_WALK_ORDER_CAP = 100_000


def moments_by_walk(
    seq: JacobiSequence,
    state: int,
    orders: Iterable[int],
    scale: Union[int, str, Fraction] = 1,
) -> list[Fraction]:
    """Moments (B^n)[N][N] / s^(n/2) at each of orders, from one walk pass.

    In the number basis X is symmetric tridiagonal with zero diagonal and
    diagonally similar to B, with ones above the diagonal and omega_k / 2
    below; both have the same diagonal powers.  (B^j)[N][N] sums, over
    the level walks of length j from N back to N, the product of
    omega_k / 2 over the up steps k - 1 -> k (Flajolet, Discrete Math.
    32, 1980).  Each step moves the level by one, so no walk of odd
    length returns: every odd order is 0 without the pass, as in
    moment_by_words.  The pass runs to the largest even order asked for,
    M, and an M above 100,000 raises CapExceeded before it.  A walk of
    length <= M stays within M/2 of N, so only omega up to N + M/2 is
    read, and step j computes only the levels within M - j of N whose
    distance from N has j's parity.  The up weights are integers
    W_k = d omega_k / 2, d their common denominator, so (B^j)[N][N] is
    the integer at level N over d^(j/2); a Fraction is built only at the
    orders asked for.  orders may be any iterable; it is read once.
    """
    s = _as_positive(scale, "scale")
    orders = [_index(k, "moment order") for k in orders]
    n = state_index(state)
    top = max((k for k in orders if k % 2 == 0), default=0)
    _index(top, "moment order", cap=_WALK_ORDER_CAP)
    lo, hi = max(0, n - top // 2), n + top // 2
    halves = [seq.omega(k) / 2 for k in range(lo + 1, hi + 1)]
    d = math.lcm(*(w.denominator for w in halves))
    # up[i] weighs the step into window level lo + i from the level below
    up = [0] + [w.numerator * (d // w.denominator) for w in halves]
    width, at = hi - lo + 1, n - lo
    # vec[1 + i] holds level lo + i, between one zero pad at each end
    vec = [0] * (width + 2)
    vec[1 + at] = 1
    # returns[j] is d^(j/2) (B^j)[N][N]
    returns = [1]
    for j in range(1, top + 1):
        reach = min(j, top - j)
        a, b = max(at - reach, (at + j) % 2), at + reach
        steps = zip(up[a : b + 1 : 2], vec[a : b + 1 : 2], vec[a + 2 : b + 3 : 2])
        vec = [0] * (width + 2)
        vec[a + 1 : b + 2 : 2] = [w * below + above for w, below, above in steps]
        returns.append(vec[1 + at])
    return [
        Fraction(returns[k] * s.denominator ** (k // 2), (d * s.numerator) ** (k // 2))
        if k % 2 == 0
        else Fraction(0)
        for k in orders
    ]


def moment_envelope(state: int, order: int) -> tuple[Fraction, Fraction]:
    """Sandwich bounds for standard-oscillator moments at canonical scale.

    For the standard sequence at scale s = N the 2m-th moment lies in

        M_2m * N (N-1) ... (N-m+1) / N^m  <=  moment  <=
        M_2m * (N+1) (N+2) ... (N+m) / N^m

    with M_2m the arcsine moment.  Both products have m factors, so both
    bounds approach M_2m at rate O(m^2 / N).  The lower product hits a
    zero factor once m exceeds N, which keeps it a valid (if slack)
    bound.  Returns (lower, upper); requires N >= 1 and an even order.
    """
    n = _index(state, "state level for the envelope", least=1)
    if _index(order, "moment order") % 2:
        raise ValueError(f"envelope is defined for even orders, got {_quoted(order)}")
    from .laws import arcsine_moment  # here, so a moments call never loads laws
    m = order // 2
    target = arcsine_moment(order)
    falling = math.prod(range(n - m + 1, n + 1))
    rising = math.prod(range(n + 1, n + m + 1))
    return target * Fraction(falling, n**m), target * Fraction(rising, n**m)


class ConvergenceRow(NamedTuple):
    """One (state, order) entry of a convergence table."""

    state: int
    order: int
    scale: Fraction
    scaled_moment: Fraction
    target: Fraction
    abs_diff: Fraction
    env_lo: Fraction | None
    env_hi: Fraction | None


def convergence_table(
    seq: JacobiSequence,
    states: Iterable[int],
    orders: Iterable[int],
    scale: Union[str, int, Fraction] = "canonical",
) -> list[ConvergenceRow]:
    """Scaled moments against their arcsine targets over a (N, order) grid.

    scale is either the string "canonical" (per-state s = omega_N, which
    requires every N >= 1) or one fixed positive rational applied to all
    rows.  Rows come out sorted by (N, order).  Envelope columns are
    filled for standard-sequence even orders whenever the row's scale is
    the canonical one, and left empty otherwise.
    """
    from .laws import arcsine_moment
    fixed: Fraction | None
    if isinstance(scale, str) and scale.strip() == "canonical":
        fixed = None
    else:
        fixed = _as_positive(scale, "scale")
    rows = []
    order_list = sorted(set(_index(k, "moment order") for k in orders))
    for n in sorted(set(state_index(x) for x in states)):
        s = canonical_scale(seq, n) if fixed is None else fixed
        enveloped = seq.kind == "standard" and n >= 1 and s == canonical_scale(seq, n)
        values = moments_by_walk(seq, n, order_list, scale=s)
        for order, value in zip(order_list, values):
            target = arcsine_moment(order)
            env_lo = env_hi = None
            if enveloped and order % 2 == 0:
                env_lo, env_hi = moment_envelope(n, order)
            rows.append(
                ConvergenceRow(
                    state=n,
                    order=order,
                    scale=s,
                    scaled_moment=value,
                    target=target,
                    abs_diff=abs(value - target),
                    env_lo=env_lo,
                    env_hi=env_hi,
                )
            )
    return rows
