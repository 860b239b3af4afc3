"""A fixed CPU-bound program that run.py times next to every CLI call.

On a shared host the CPU's speed drifts by about 20% over tens of
seconds, so two runs of the same code can read 20% apart in seconds.
run.py divides each call's latency by the time of this program measured
just before and just after it, and multiplies by a fixed nominal time
(run.REFERENCE_S), which cancels most of that drift.  The
work is the same kind the CLI does: interpreter start-up with a few
stdlib imports, exact big-integer Fraction arithmetic, and a float loop.
It imports nothing from fockmoments, so no change to the program moves
it.  Run it with ``python3 perfbench/reference.py``; it prints nothing.
"""

import argparse  # noqa: F401  (import cost, as the CLI pays it)
import json  # noqa: F401
import math
from fractions import Fraction


def main() -> None:
    # a three-term recurrence in exact rationals, numbers to about 1500 bits
    prev, cur = Fraction(0), Fraction(1)
    for k in range(1, 400):
        prev, cur = cur, cur * Fraction(k + 1, 2) + prev * Fraction(k, 3)
    # a float loop of the kind the QL eigensolver runs
    g = 0.0
    for i in range(60000):
        g = math.hypot(g * 0.5, i * 1e-3) - 0.25 * g
    assert cur > 0 and math.isfinite(g)


if __name__ == "__main__":
    main()
