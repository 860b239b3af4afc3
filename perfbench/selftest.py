"""Self-test of the benchmark: oracles, and exact trace counters on small fixed cases.

Run from the repository root:

    python3 perfbench/selftest.py

Counts are deterministic, so each is asserted exactly.  ``cells`` is
the Fraction kernel's work model (order x window width, window
[max(0, N - order), N + order]), derived from the arguments.
"""

from __future__ import annotations

import contextlib
import io
import math
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import fockmoments  # noqa: E402
import fockmoments.cli  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def traced(call) -> tuple[dict, str]:
    """Run call() under a fresh tracer; returns (counts per span name, stdout)."""
    tracer = tracing.Tracer()
    out = io.StringIO()
    tracer.install(fockmoments)
    try:
        with contextlib.redirect_stdout(out):
            call()
    finally:
        tracer.uninstall()
    counts = {name: dict(values) for name, values in tracer.counts.items()}
    summary = tracing.summarize(tracer.spans)
    for name, entry in summary.items():
        assert counts[name]["calls"] == entry["calls"], name
        assert entry["self_s"] <= entry["s"] + 1e-9, name
    return counts, out.getvalue()


def cli(*argv):
    def call():
        code = fockmoments.cli.main(list(argv))
        assert code == 0, f"exit code {code} from {argv}"
    return call


def bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def check_oracles() -> None:
    for n in (0, 1, 4, 17):
        assert oracle.closed_form_standard(n, 40) == oracle.walk_moments(oracle.Seq.standard(), n, 40)
    # README: N = 4 at canonical scale 4 has fourth moment 123/64
    assert oracle.closed_form_standard(4, 4)[4] / 16 == Fraction(123, 64)
    # explicit:1,2 --N 0 --orders 4 is 3/4 (ROADMAP item 3)
    assert oracle.walk_moments(oracle.Seq.explicit([Fraction(1), Fraction(2)]), 0, 4)[4] == Fraction(3, 4)
    from fockmoments.moments import moment_by_words

    q = oracle.Seq.q_deformed(Fraction(2, 3))
    walk = oracle.walk_moments(q, 3, 10)
    program = fockmoments.cli.parse_jacobi(q.spec)
    assert all(walk[j] == moment_by_words(program, 3, j) for j in range(0, 11, 2))
    samples = [float(i) for i in range(40)]
    assert run.percentile(samples, 75.0) == 29.0  # ten samples beyond it
    assert run.percentile(samples, 50.0) == 19.0


def check_counters(tmp: Path) -> None:
    std = oracle.closed_form_standard

    counts, _ = traced(cli("moments", "--N", "3", "--orders", "4,6"))
    kernel = counts["moments.tridiagonal_return"]
    assert kernel["calls"] == 2
    assert kernel["cells"] == 4 * 8 + 6 * 10
    assert kernel["result_bits_max"] == max(bits(std(3, 6)[4]), bits(std(3, 6)[6]))

    plot = tmp / "converge.svg"
    counts, _ = traced(cli("converge", "--N", "2,3", "--orders", "2,4", "--plot", str(plot)))
    assert counts["moments.convergence_table"]["calls"] == 1
    assert counts["moments.tridiagonal_return"]["calls"] == 4
    assert counts["moments.tridiagonal_return"]["cells"] == 2 * 5 + 4 * 7 + 2 * 5 + 4 * 8
    assert counts["svgplot.line_plot"]["bytes"] == len(plot.read_bytes())

    counts, _ = traced(cli("moments", "--engine", "words", "--N", "1", "--orders", "6"))
    assert counts["moments.moment_by_words"]["words"] == math.comb(6, 3)
    assert counts["fock.enumerate_balanced_words"]["words"] == math.comb(6, 3)
    assert "moments.tridiagonal_return" not in counts

    counts, _ = traced(cli("reconstruct", "--N", "2", "--K", "8"))
    assert counts["spectral.eigendecompose"] == {"calls": 1, "dim_sum": 8, "dim2_sum": 64}
    assert counts["spectral.ks_distance_to_arcsine"]["calls"] == 1

    counts, _ = traced(lambda: fockmoments.spectral.density_spectrum_sup(1, 16, panels=100))
    assert counts["spectral.density_cdf"] == {"calls": 1, "points": 101}
    assert counts["spectral.eigendecompose"] == {"calls": 1, "dim_sum": 16, "dim2_sum": 256}

    counts, out = traced(cli("selfcheck", "--fast"))
    problem, printed = oracle.check_selfcheck(out)
    assert problem is None, problem
    assert counts["selfcheck.run_selfcheck"]["checks"] == printed
    assert counts["laws.validate_moments"]["hankel_dim_max"] >= 1


def check_uninstall() -> None:
    before = {name: getattr(fockmoments.cli, name) for name in dir(fockmoments.cli)}
    commands = dict(fockmoments.cli._COMMANDS)
    tracer = tracing.Tracer()
    tracer.install(fockmoments)
    assert fockmoments.cli.moment_by_tridiagonal is not before["moment_by_tridiagonal"]
    assert fockmoments.cli._COMMANDS["moments"] is not commands["moments"]
    tracer.uninstall()
    assert {name: getattr(fockmoments.cli, name) for name in dir(fockmoments.cli)} == before
    assert fockmoments.cli._COMMANDS == commands


def main() -> int:
    check_oracles()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        check_counters(Path(tmp))
    check_uninstall()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
