"""Expected CLI outputs, computed without the code path being timed.

Exact moments come from two oracles that share no code with the
program's engines: the closed form for the standard sequence,

    <N|X^2m|N> = (2m)!/2^m * sum_k C(N,k) / (k! 2^(m-k) (m-k)!),

and, for every other sequence, one pass of a level walk that only reads
omega_1 .. omega_(N + M/2) and yields every order up to M at once.  The
two agree with each other and with the program's word engine on small
cases (see ``cross_check``).  Spectral outputs are checked against these
exact moments, not against themselves.
"""

from __future__ import annotations

import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from fractions import Fraction

# Float moments of a reconstructed measure are compared with the exact
# moments up to this order (or lossless_order, if smaller).  Higher
# powers of the outermost atoms lose digits to the eigensolver's
# absolute error long before they lose exactness in theory.
SPECTRAL_CHECK_ORDER = 64
SPECTRAL_RELERR_TOL = 1e-8
WEIGHT_SUM_TOL = 1e-12
DENSITY_POINTS = 257


@dataclass(frozen=True)
class Seq:
    """A Jacobi sequence as the benchmark knows it: its --jacobi text and weights."""

    spec: str
    kind: str
    q: Fraction | None = None
    omegas: tuple[Fraction, ...] = field(default=())

    @staticmethod
    def standard() -> "Seq":
        return Seq("standard", "standard")

    @staticmethod
    def q_deformed(q: Fraction) -> "Seq":
        return Seq(f"q={q}", "q", q=q)

    @staticmethod
    def explicit(omegas: list[Fraction]) -> "Seq":
        return Seq(
            "explicit:" + ",".join(str(w) for w in omegas), "explicit", omegas=tuple(omegas)
        )

    def weights(self, count: int) -> list[Fraction]:
        """omega_1 .. omega_count; [n]_q is summed term by term, 1 + q + ... ."""
        if self.kind == "standard":
            return [Fraction(n) for n in range(1, count + 1)]
        if self.kind == "explicit":
            return list(self.omegas[:count])
        out, power, acc = [], Fraction(1), Fraction(0)
        for _ in range(count):
            acc += power
            power *= self.q
            out.append(acc)
        return out

    def canonical_scale(self, n: int) -> Fraction:
        return Fraction(1) if self.kind == "explicit" else self.weights(n)[-1]

    def to_json(self) -> dict:
        if self.kind == "standard":
            return {"kind": "standard"}
        if self.kind == "q":
            return {"kind": "q", "q": str(self.q)}
        return {"kind": "explicit", "omega": [str(w) for w in self.omegas]}


def closed_form_standard(n: int, max_order: int) -> list[Fraction]:
    """<N|X^j|N> for j = 0 .. max_order, standard sequence, closed form.

    Multiplied out over 4^m, the sum above is
    (2m)!/m! * sum_k C(N,k) C(m,k) 2^k / 4^m, all in integers.
    """
    out = []
    for j in range(max_order + 1):
        if j % 2:
            out.append(Fraction(0))
            continue
        m = j // 2
        total = sum(math.comb(n, k) * math.comb(m, k) << k for k in range(min(n, m) + 1))
        out.append(Fraction(total * math.perm(2 * m, m), 4**m))
    return out


def walk_moments(seq: Seq, n: int, max_order: int) -> list[Fraction]:
    """<N|X^j|N> for j = 0 .. max_order in one pass of the level walk.

    An up step from level k carries omega_(k+1)/2 and a down step 1; a
    walk of length j <= max_order that returns to N never leaves
    [N - max_order/2, N + max_order/2], so only those levels are kept.
    The up weights share a denominator d, so each entry is held as an
    integer over d^(number of up steps), which level and step fix.
    """
    half = max_order // 2
    lo, hi = max(0, n - half), n + half
    up = [w / 2 for w in seq.weights(hi)[lo:]]
    d = math.lcm(*(w.denominator for w in up)) if up else 1
    up_int = [w.numerator * (d // w.denominator) for w in up]
    vec = [0] * (hi - lo + 1)
    vec[n - lo] = 1
    out = [Fraction(1)]
    for step in range(1, max_order + 1):
        nxt = [0] * len(vec)
        for i, v in enumerate(vec):
            if v:
                if i + 1 < len(vec):
                    nxt[i + 1] += v * up_int[i]
                if i > 0:
                    nxt[i - 1] += v
        vec = nxt
        out.append(Fraction(vec[n - lo], d ** (step // 2)) if step % 2 == 0 else Fraction(vec[n - lo]))
    return out


class MomentTable:
    """Exact unscaled moments per (sequence, N), computed once per run."""

    def __init__(self) -> None:
        self._cache: dict[tuple[str, int], list[Fraction]] = {}

    def need(self, seq: Seq, n: int, max_order: int) -> None:
        key = (seq.spec, n)
        if key in self._cache and len(self._cache[key]) > max_order:
            return
        if seq.kind == "standard":
            self._cache[key] = closed_form_standard(n, max_order)
        else:
            self._cache[key] = walk_moments(seq, n, max_order)

    def raw(self, seq: Seq, n: int, order: int) -> Fraction:
        return self._cache[(seq.spec, n)][order]

    def scaled(self, seq: Seq, n: int, order: int, scale: Fraction) -> Fraction:
        if order % 2:
            return Fraction(0)
        return self.raw(seq, n, order) / scale ** (order // 2)

    def keys(self) -> list[tuple[str, int]]:
        return list(self._cache)

    def max_order(self, seq: Seq, n: int) -> int:
        return len(self._cache[(seq.spec, n)]) - 1


def cross_check(table: MomentTable, seqs: dict[str, Seq], word_engine, max_order: int = 10) -> list[str]:
    """Compare the oracle with the program's word engine on low orders.

    word_engine(spec, n, order) returns the program's exact unscaled
    moment.  Returns one message per disagreement.
    """
    problems = []
    for spec, n in table.keys():
        seq = seqs[spec]
        top = min(max_order, table.max_order(seq, n))
        if seq.kind == "explicit":
            top = min(top, 2 * (len(seq.omegas) - n))
        for order in range(0, top + 1, 2):
            got = word_engine(spec, n, order)
            if got != table.raw(seq, n, order):
                problems.append(
                    f"oracle {table.raw(seq, n, order)} != word engine {got} "
                    f"for {spec[:40]}, N={n}, order={order}"
                )
    return problems


def resolve_scale(seq: Seq, scale: str, n: int) -> Fraction:
    return seq.canonical_scale(n) if scale == "canonical" else Fraction(scale)


def _json_text(obj: object) -> str:
    return json.dumps(obj, indent=2) + "\n"


def expected_moments(table: MomentTable, op) -> str:
    n = op.states[0]
    s = resolve_scale(op.seq, op.scale, n)
    values = [(order, table.scaled(op.seq, n, order, s)) for order in op.orders]
    if op.fmt == "json":
        return _json_text(
            {
                "jacobi": op.seq.to_json(),
                "N": n,
                "scale": str(s),
                "engine": op.engine,
                "rows": [{"order": order, "value": str(v)} for order, v in values],
            }
        )
    if op.fmt == "csv":
        return "order,value\n" + "".join(f"{order},{v}\n" for order, v in values)
    return "".join(f"{order} {v}\n" for order, v in values)


def arcsine_moment(order: int) -> Fraction:
    if order % 2:
        return Fraction(0)
    m = order // 2
    return Fraction(math.comb(2 * m, m), 2**m)


def envelope(n: int, order: int) -> tuple[Fraction, Fraction]:
    m = order // 2
    target = arcsine_moment(order)
    falling = math.prod(range(n - m + 1, n + 1))
    rising = math.prod(range(n + 1, n + m + 1))
    return target * Fraction(falling, n**m), target * Fraction(rising, n**m)


def expected_converge(table: MomentTable, op) -> tuple[str, int]:
    """Expected stdout and the number of plot series (orders with a nonzero gap)."""
    rows, gapped = [], set()
    for n in sorted(set(op.states)):
        s = resolve_scale(op.seq, op.scale, n)
        for order in sorted(set(op.orders)):
            value = table.scaled(op.seq, n, order, s)
            target = arcsine_moment(order)
            if value != target:
                gapped.add(order)
            lo = hi = None
            if op.seq.kind == "standard" and order % 2 == 0 and n >= 1 and s == n:
                lo, hi = envelope(n, order)
            rows.append(
                {
                    "N": n,
                    "order": order,
                    "scale": str(s),
                    "scaled_moment": str(value),
                    "target": str(target),
                    "abs_diff": str(abs(value - target)),
                    "env_lo": None if lo is None else str(lo),
                    "env_hi": None if hi is None else str(hi),
                }
            )
    if op.fmt == "json":
        text = _json_text({"jacobi": op.seq.to_json(), "scale": op.scale, "rows": rows})
    else:
        lines = ["N,order,scaled_moment,target,abs_diff,env_lo,env_hi"]
        for r in rows:
            cells = [r["N"], r["order"], r["scaled_moment"], r["target"], r["abs_diff"]]
            cells += ["" if r[k] is None else r[k] for k in ("env_lo", "env_hi")]
            lines.append(",".join(str(c) for c in cells))
        text = "\n".join(lines) + "\n"
    return text, len(gapped)


def svg_series(text: str) -> int:
    """Number of polylines in a well-formed SVG document; raises if malformed."""
    root = ET.fromstring(text)
    return sum(1 for el in root.iter() if el.tag.endswith("polyline"))


def arcsine_cdf(x: float) -> float:
    r = math.sqrt(2.0)
    if x <= -r:
        return 0.0
    if x >= r:
        return 1.0
    return 0.5 + math.asin(x / r) / math.pi


def parse_reconstruct(op, out: str) -> tuple[list[tuple[float, float]], list[tuple[float, float]], float]:
    """Atoms, density grid and KS value from a reconstruct output in any format."""
    if op.fmt == "json":
        data = json.loads(out)
        atoms = list(zip(data["locations"], data["weights"]))
        grid = [tuple(p) for p in data.get("density_grid", [])]
        return atoms, grid, data["ks_to_arcsine"]
    lines = out.splitlines()
    if not lines[-1].startswith("ks_to_arcsine = "):
        raise ValueError("missing ks_to_arcsine line")
    ks = float(lines[-1].split("=", 1)[1])
    atoms, grid = [], []
    if op.fmt == "csv":
        sep, sections = ",", {"location,weight": atoms, "x,density": grid}
    else:
        sep, sections = " ", {"# location weight": atoms, "# x density": grid}
    target = atoms
    for line in lines[:-1]:
        if line in sections:
            target = sections[line]
        elif line and not line.startswith("# N = "):
            a, b = line.split(sep)
            target.append((float(a), float(b)))
    return atoms, grid, ks


def check_reconstruct(table: MomentTable, op, out: str) -> tuple[str | None, float]:
    """Validate a reconstruct output; returns (problem or None, worst moment relerr)."""
    n, dim = op.states[0], op.dim
    s = resolve_scale(op.seq, op.scale, n)
    try:
        atoms, grid, ks = parse_reconstruct(op, out)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparsable output: {exc}", 0.0
    if op.fmt == "text" and not out.startswith(f"# N = {n}, K = {dim}, scale = {s}\n"):
        return "wrong text header", 0.0
    if not atoms or any(b[0] <= a[0] for a, b in zip(atoms, atoms[1:])):
        return "atom locations are not strictly increasing", 0.0
    if any(w < 0.0 for _, w in atoms):
        return "negative weight", 0.0
    total = math.fsum(w for _, w in atoms)
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        return f"weights sum to {total!r}", 0.0
    worst = 0.0
    top = min(2 * (dim - 1 - n), SPECTRAL_CHECK_ORDER)
    for order in range(2, top + 1, 2):
        exact = float(table.scaled(op.seq, n, order, s))
        got = math.fsum(w * x**order for x, w in atoms)
        worst = max(worst, abs(got - exact) / exact)
    if worst > SPECTRAL_RELERR_TOL:
        return f"moment relative error {worst:.3e} > {SPECTRAL_RELERR_TOL:.0e}", worst
    best = cum = 0.0
    for x, w in atoms:
        target = arcsine_cdf(x)
        best = max(best, abs(cum - target))
        cum += w
        best = max(best, abs(cum - target))
    if abs(best - ks) > 1e-12:
        return f"ks_to_arcsine {ks!r} != recomputed {best!r}", worst
    if op.density:
        ends = (grid[0][0] - atoms[0][0], grid[-1][0] - atoms[-1][0]) if grid else (1.0,)
        if len(grid) != DENSITY_POINTS or any(abs(e) > 1e-12 * (1 + abs(atoms[-1][0])) for e in ends):
            return "density grid has the wrong points", worst
        if any(not (f >= 0.0 and math.isfinite(f)) for _, f in grid):
            return "density grid has negative or non-finite values", worst
    elif grid:
        return "density grid without --density", worst
    return None, worst


def check_selfcheck(out: str) -> tuple[str | None, int]:
    """Every suite passed; returns (problem or None, total checks reported)."""
    lines = out.splitlines()
    if not lines:
        return "empty output", 0
    suites = lines[:-1]
    checks = 0
    for line in suites:
        if not (line.startswith("ok ") and line.endswith(" checks)")):
            return f"suite line {line!r}", 0
        checks += int(line.rsplit("(", 1)[1].split()[0])
    if not suites or lines[-1] != f"{len(suites)}/{len(suites)} suites passed":
        return f"summary line {lines[-1]!r}", 0
    return None, checks
