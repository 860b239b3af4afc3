"""The CLI commands that are not exact moments: ``reconstruct``,
``classical`` and ``selfcheck``.

``cli.main`` loads this module only to run one of them, so a ``moments``
or ``converge`` call never compiles it.  Each command reads its flags and
writes its output through ``cli``'s parsers and writers, and checks its
arguments before any work, as the exact commands do.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import SimpleNamespace

from .cli import (
    _json_dumps,
    _note,
    _parse_int_list,
    _parse_scale,
    _parse_single_int,
    _write,
    _write_table,
    parse_jacobi,
)
from .fock import _as_positive, _exact_str, _index, canonical_scale, to_float

# Most sine evaluations, orders x panels, that ``classical`` may spend on
# its quadrature column: 10^7 take a few seconds.
_QUADRATURE_BUDGET = 10**7


def _density_points(
    state: int, scale: Fraction, lo: float, hi: float
) -> list[tuple[float, float]]:
    from .spectral import hermite_density_grid

    # density of the scaled position: sqrt(s) * |phi_N(x sqrt(s))|^2,
    # at 257 points from lo to hi
    root = math.sqrt(float(scale))
    xs = [lo + (hi - lo) * i / 256 for i in range(257)]
    density = hermite_density_grid(state, [x * root for x in xs])
    return [(x, root * v) for x, v in zip(xs, density)]


def cmd_reconstruct(ns: SimpleNamespace) -> int:
    seq = parse_jacobi(ns.jacobi)
    state = _parse_single_int(ns.N, "--N")
    dim = state + 64 if ns.K is None else _parse_single_int(ns.K, "--K", least=1)
    scale = _parse_scale(ns.scale)

    from .spectral import (
        _check_truncation,
        ks_distance_to_arcsine,
        lossless_order,
        reconstruct_state_measure,
    )

    if ns.density and seq.kind != "standard":
        raise ValueError("--density is defined for the standard sequence only")
    # K bounds N, so a canonical scale such as [N]_q is computed for a
    # small N only
    _check_truncation(state, dim)
    scale = canonical_scale(seq, state) if scale == "canonical" else scale
    measure = reconstruct_state_measure(seq, state, dim, scale=scale)
    lossless = lossless_order(state, dim)
    if lossless <= 2:
        _note(f"warning: K = {dim} reproduces moments of N = {state} only "
              f"up to order {lossless}")
    ks = ks_distance_to_arcsine(measure)
    density_pts = None
    if ns.density:
        density_pts = _density_points(
            state, scale, measure.atoms[0][0], measure.atoms[-1][0]
        )
    svg = None
    if ns.plot:
        from .svgplot import _reconstruction_plot

        svg = _reconstruction_plot(measure.atoms, density_pts, state, dim)

    if ns.format == "json":
        payload = {
            "jacobi": seq.to_json(),
            "N": state,
            "K": dim,
            "scale": _exact_str(scale, "--scale"),
            "ks_to_arcsine": ks,
            "locations": [x for x, _ in measure.atoms],
            "weights": [w for _, w in measure.atoms],
        }
        if density_pts is not None:
            payload["density_grid"] = [[x, f] for x, f in density_pts]
        _write(_json_dumps(payload), ns.out)
    elif ns.format == "csv":
        _write_table(ns, None, ("location", "weight"), measure.atoms)
        if density_pts is not None:
            dtext = "x,density\n" + "".join(f"{x!r},{f!r}\n" for x, f in density_pts)
            if ns.out:
                _write(dtext, ns.out + ".density.csv")
            else:
                _write("\n" + dtext)
        _write(f"ks_to_arcsine = {ks!r}\n")  # stdout even under --out
    else:
        lines = [
            f"# N = {state}, K = {dim}, scale = {_exact_str(scale, '--scale')}",
            "# location weight",
        ]
        lines.extend(f"{x!r} {w!r}" for x, w in measure.atoms)
        if density_pts is not None:
            lines.append("# x density")
            lines.extend(f"{x!r} {f!r}" for x, f in density_pts)
        lines.append(f"ks_to_arcsine = {ks!r}")
        _write("\n".join(lines) + "\n", ns.out)

    if svg:
        _write(svg, ns.plot)
    return 0


def cmd_classical(ns: SimpleNamespace) -> int:
    a2 = _as_positive(ns.A2, "--A2")
    orders = _parse_int_list(ns.orders, "--orders")
    panels = _parse_single_int(ns.panels, "--panels", least=16)
    _index(len(orders) * panels, "quadrature work (orders x panels)",
           cap=_QUADRATURE_BUDGET)

    from .laws import classical_moment, classical_moment_quadrature

    amplitude = math.sqrt(to_float(a2, "--A2"))
    if amplitude == 0.0:
        raise ValueError("--A2 is too small for a float")
    rows = []
    for order in orders:
        exact = classical_moment(a2, order)
        quad = classical_moment_quadrature(amplitude, order, panels=panels)
        diff = abs(to_float(exact, f"order {order} moment") - quad)
        rows.append((order, _exact_str(exact, f"order {order} moment"), quad, diff))
    # only JSON prints --A2
    meta = None
    if ns.format == "json":
        meta = {"A2": _exact_str(a2, "--A2"), "panels": panels}
    columns = ("order", "exact", "quadrature", "abs_diff")
    _write_table(ns, meta, columns, rows, lambda r: "{} {} {!r} {:.3e}".format(*r))
    return 0


def cmd_selfcheck(ns: SimpleNamespace) -> int:
    from .selfcheck import run_selfcheck

    results = run_selfcheck(fast=ns.fast)
    passed = sum(r.passed for r in results)
    _write("".join(
        f"ok {r.name} ({r.checks} checks)\n" if r.passed
        else f"FAIL {r.name}: {r.counterexample}\n"
        for r in results
    ) + f"{passed}/{len(results)} suites passed\n")
    return 0 if passed == len(results) else 1
