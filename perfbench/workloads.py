"""Seeded operation lists for the four workloads.

Each workload is a fixed list of slots.  A slot fixes everything that
sets an operation's cost: the command, the sequence kind and its q
denominator, N to within 2%, the orders, K, --density, --plot and the
output format.  The seed picks only what leaves the cost as it is: the
q numerator on exact calls, the explicit weights (from a fixed
denominator cycle), the scale, the row of a reconstruct without
--density, the README-sized calls, and the order of the slots.  So a
workload's wall time hardly moves with the seed while its inputs do.

The slots also fall into cost classes: at most two heavy slots, then one
class of four to ten slots of about the same cost, then cheap calls.
run.py's op_tail_s sits 3.33 slots from the costliest end of the list
and op_p50_s halfway down it, so both fall inside a class, where they
are quantiles of many samples, not on a step between two classes,
where noise would move them a lot.

- exact-standard: ``converge`` grids and ``moments`` order lists on the
  standard sequence, N up to 1000 and orders up to 256, at canonical
  and rational scale, plus a fifth of README-sized calls where
  interpreter start-up dominates.  The Fraction tridiagonal kernel
  dominates the large calls.
- exact-deformed: the same call shapes, smaller, on q = a/b with small b
  and on explicit rational weight lists.  Same kernel, but Fraction size
  grows like b^k, so an integer kernel that wins on the standard
  sequence may lose here.
- spectral: ``reconstruct`` with K from 448 to 1536 on all three kinds,
  in text, csv and json, some with --density and --plot.  The QL
  eigensolver dominates and no exact engine runs.
- crosscheck: ``selfcheck`` (full and --fast) and ``moments --engine
  words`` at orders 12 to 16 on all three kinds.  The only workload
  where the word engine, the Hermite density grid and the Hankel check
  run; it calls the tridiagonal kernel thousands of times at tiny sizes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from oracle import Seq

WORKLOADS = ("exact-standard", "exact-deformed", "spectral", "crosscheck")


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what the benchmark needs to check it."""

    command: str
    seq: Seq | None = None
    states: tuple[int, ...] = ()
    orders: tuple[int, ...] = ()
    scale: str = "1"
    fmt: str = "text"
    engine: str = "tridiagonal"
    dim: int | None = None
    density: bool = False
    plot: str | None = None
    fast: bool = False

    def argv(self) -> list[str]:
        if self.command == "selfcheck":
            return ["selfcheck"] + (["--fast"] if self.fast else [])
        args = [self.command, "--jacobi", self.seq.spec]
        args += ["--N", ",".join(map(str, self.states))]
        if self.command == "reconstruct":
            args += ["--K", str(self.dim)]
        else:
            args += ["--orders", ",".join(map(str, self.orders))]
        args += ["--scale", self.scale, "--format", self.fmt]
        if self.engine != "tridiagonal":
            args += ["--engine", self.engine]
        if self.density:
            args.append("--density")
        if self.plot:
            args += ["--plot", self.plot]
        return args


def _rational(rng: random.Random) -> str:
    return str(Fraction(rng.randint(1, 9), rng.randint(1, 4)))


def _scale(rng: random.Random) -> str:
    return rng.choice(("canonical", "1", _rational(rng)))


def _near(rng: random.Random, n: int) -> int:
    """n moved by at most 2%, which leaves an exact call's cost as it is."""
    return n + rng.randint(-(n // 50), n // 50)


# Explicit weights cycle through these denominators, and each numerator is
# prime to its denominator, so every list of a given length has the same
# denominators, and so about the same Fraction sizes, whatever the seed.
_DENOMINATORS = (1, 2, 3, 4)


def _explicit(rng: random.Random, length: int) -> Seq:
    weights = []
    for i in range(length):
        d = _DENOMINATORS[i % len(_DENOMINATORS)]
        weights.append(Fraction(rng.choice([a for a in range(5, 13) if math.gcd(a, d) == 1]), d))
    return Seq.explicit(weights)


def _q_seq(rng: random.Random, denominator: int) -> Seq:
    """q = a/b with b fixed; the size of [n]_q follows b, not a."""
    a = rng.choice([a for a in range(1, denominator) if math.gcd(a, denominator) == 1])
    return Seq.q_deformed(Fraction(a, denominator))


def _small_ops(rng: random.Random, seq_for, count: int) -> list[Op]:
    """README-sized calls: N <= 10, orders <= 8."""
    ops = []
    for i in range(count):
        seq = seq_for(rng)
        n = rng.randint(1, 10)
        if i % 3 == 2:
            states = tuple(sorted(rng.sample(range(1, 11), 3)))
            ops.append(Op("converge", seq, states, (2, 4, 6, 8), "canonical", rng.choice(("csv", "json"))))
        else:
            orders = tuple(sorted(rng.sample(range(9), rng.randint(3, 5))))
            scale = "canonical" if i % 3 == 0 else _rational(rng)
            ops.append(Op("moments", seq, (n,), orders, scale, rng.choice(("text", "csv", "json"))))
    return ops


def _exact_standard(rng: random.Random, plot) -> list[Op]:
    std = Seq.standard()
    ops = []
    # one heavy call, then ten of one cost class
    for n, orders, fmt in ((1000, (256,), "text"),
                           (1000, (64, 96), "json"), (700, (64, 96), "csv"), (400, (64, 96), "text"),
                           (100, (32, 64, 96), "json"), (50, (128,), "csv"), (10, (160,), "json"),
                           (300, (128,), "text"), (200, (16, 32, 48, 64, 80), "json")):
        ops.append(Op("moments", std, (_near(rng, n),), orders, _scale(rng), fmt))
    # converge grids: N near 1, 10, 100, 1000 and every even order up to 28
    for fmt, drawn in (("csv", True), ("json", False)):
        states = (1, 10, _near(rng, 100), _near(rng, 1000))
        ops.append(Op("converge", std, states, tuple(range(2, 29, 2)),
                      rng.choice(("canonical", _rational(rng))), fmt, plot=plot(len(ops)) if drawn else None))
    return ops + _small_ops(rng, lambda r: std, 3)


def _exact_deformed(rng: random.Random, plot) -> list[Op]:
    ops = []
    # (q denominator, N, orders, format): one heavy call, then the cost class
    for b, n, orders, fmt in ((2, 100, (64, 80), "text"), (3, 60, (64,), "json"),
                              (3, 30, (16, 32, 48, 64), "csv"), (4, 40, (40, 56), "text"),
                              (2, 100, (64,), "json")):
        ops.append(Op("moments", _q_seq(rng, b), (_near(rng, n),), orders, _scale(rng), fmt))
    for b, top, fmt in ((3, 24, "json"), (2, 28, "csv")):
        states = (1, 5, 20, _near(rng, 80))
        ops.append(Op("converge", _q_seq(rng, b), states, tuple(range(2, top + 1, 2)), "canonical", fmt,
                      plot=plot(len(ops)) if b == 2 else None))
    # explicit lists as long as the program's window reads (N + max order)
    states = (1, 8, 30)
    ops.append(Op("converge", _explicit(rng, 30 + 32), states, tuple(range(2, 33, 2)),
                  _rational(rng), "csv", plot=plot(len(ops))))
    for n, orders, fmt in ((60, (64, 80), "text"), (40, (64, 96), "json")):
        ops.append(Op("moments", _explicit(rng, n + max(orders)), (n,), orders,
                      rng.choice(("1", _rational(rng))), fmt))

    def small_seq(r):
        return _q_seq(r, 3) if r.random() < 0.5 else _explicit(r, 20)

    return ops + _small_ops(rng, small_seq, 3)


def _spectral(rng: random.Random, plot) -> list[Op]:
    # (K, --jacobi, --density, --plot, format): two heavy calls, then nine of
    # one cost class.  QL cost grows like K^2, and a slot fixes q, because
    # the spectrum it gives sets the number of sweeps.
    slots = [(1536, "standard", False, False, "text"), (1024, "q=1/2", False, False, "csv")]
    slots += [(448, "standard", True, True, "csv"), (448, "standard", True, False, "text"),
              (448, "standard", False, False, "json"), (448, "q=2/3", False, False, "json"),
              (448, "q=3/4", False, False, "text"), (448, "q=1/3", False, False, "csv"),
              (448, "explicit", False, True, "json"), (448, "explicit", False, False, "text"),
              (448, "explicit", False, False, "csv")]
    ops = []
    for i, (k, kind, density, drawn, fmt) in enumerate(slots):
        if kind == "standard":
            seq = Seq.standard()
        elif kind == "explicit":
            seq = _explicit(rng, k - 1)
        else:
            seq = Seq.q_deformed(Fraction(kind[2:]))
        # the --density grid's cost grows with the row, so its row is fixed
        n = k // 8 if density else rng.randint(0, min(300, k // 2))
        scale = "canonical" if n >= 1 and rng.random() < 0.6 else _rational(rng)
        ops.append(Op("reconstruct", seq, (n,), (), scale, fmt, dim=k, density=density,
                      plot=plot(i) if drawn else None))
    return ops


def _crosscheck(rng: random.Random, plot) -> list[Op]:
    ops = [Op("selfcheck")] + [Op("selfcheck", fast=True)] * 2
    # (kind, order, q denominator): four of the costlier class, then five of
    # the cheaper one.  The word engine's cost is C(order, order/2) words
    # times the cost of one weight, which grows with q's denominator.
    for kind, order, b in (("standard", 16, 0), ("standard", 16, 0), ("explicit", 16, 0),
                           ("explicit", 16, 0), ("standard", 14, 0), ("standard", 14, 0),
                           ("explicit", 14, 0), ("explicit", 12, 0), ("q", 12, 2), ("q", 12, 3)):
        # from N >= order/2 on, no word reaches the vacuum and stops early
        n = rng.randint(order // 2, order // 2 + 10)
        if kind == "standard":
            seq = Seq.standard()
        elif kind == "q":
            seq = _q_seq(rng, b)
        else:
            # exactly as long as the walk needs: N + order/2 weights
            seq = _explicit(rng, n + order // 2)
        scale = "canonical" if kind != "explicit" and rng.random() < 0.5 else _rational(rng)
        ops.append(Op("moments", seq, (n,), (order,), scale, rng.choice(("text", "csv", "json")),
                      engine="words"))
    return ops


_BUILDERS = {
    "exact-standard": _exact_standard,
    "exact-deformed": _exact_deformed,
    "spectral": _spectral,
    "crosscheck": _crosscheck,
}


def build(workload: str, seed: int, plot_path) -> list[Op]:
    """The workload's slots for this seed; plot_path(slot) names an SVG file."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _BUILDERS[workload](rng, plot_path)
    rng.shuffle(ops)
    return ops


def known_defect_probe(seed: int) -> list[Op]:
    """Explicit lists exactly as long as the order needs (N + order/2 weights).

    ``moments --jacobi explicit:1,2 --N 0 --orders 4`` should print
    ``4 3/4``; the tridiagonal engine exits 2 because its window reads
    omega_(N + order).  Run outside the timed loop and reported apart,
    so the timed workloads contain no failing operation.
    """
    rng = random.Random(f"probe:{seed}")
    ops = [Op("moments", Seq.explicit([Fraction(1), Fraction(2)]), (0,), (4,), "1", "text")]
    for order in (8, 12):
        n = rng.randint(0, 6)
        ops.append(Op("moments", _explicit(rng, n + order // 2), (n,), (order,), "1", "text"))
    return ops
