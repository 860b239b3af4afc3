"""Command line interface.

Subcommands:

- ``moments``: exact scaled moments of one number state
- ``converge``: scaled moments against arcsine targets over a grid of N
- ``reconstruct``: discrete spectral measure of a truncated state
- ``classical``: exact classical-oscillator moments vs quadrature
- ``selfcheck``: internal consistency suites

Each subparser names its command function with ``set_defaults(run=...)``;
the function parses and checks its own arguments before any work.

Exit codes: 0 success, 1 selfcheck failure, 2 invalid configuration,
validation error or an ``--out`` or ``--plot`` path that cannot be
written, 3 computational cap exceeded, a ``reconstruct`` truncation below
K = N + 2, or eigensolver failure.  A ``--plot`` SVG is built and checked
before any output, so a plot that cannot be drawn fails with nothing
written; the file is written last, so when writing it fails the table has
already been written.  Output is a pure function of the arguments; reruns
are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from . import __version__

# only fock here: each command imports the other modules it runs, so a
# call loads no more than it needs
from .fock import (
    CapExceeded,
    EigensolverFailure,
    JacobiSequence,
    TruncationTooSmall,
    _as_positive,
    _exact_str,
    _index,
    canonical_scale,
    to_float,
)


def parse_jacobi(text: str) -> JacobiSequence:
    """Parse a --jacobi value.

    Accepts ``standard``, ``q=<rational>``, ``explicit:<w1,w2,...>`` or a
    JSON object matching the serialized schema.
    """
    t = text.strip()
    try:
        if t == "standard":
            return JacobiSequence.standard()
        if t.startswith("q="):
            return JacobiSequence.q_deformed(t[2:])
        if t.startswith("explicit:"):
            parts = [p.strip() for p in t[len("explicit:"):].split(",") if p.strip()]
            return JacobiSequence.explicit(parts)
        if t.startswith("{"):
            import json

            return JacobiSequence.from_json(json.loads(t))
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"--jacobi: {exc}") from exc
    except RecursionError:  # from json.loads, or the repr of a deep "kind"
        raise ValueError("--jacobi: JSON nests too deeply") from None
    raise ValueError(
        "--jacobi must be 'standard', 'q=<rational>', 'explicit:<list>' "
        f"or a JSON object, got {text!r}"
    )


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    """Comma-separated integers, each checked by ``_index`` under ``flag``."""
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError(f"{flag} must list at least one integer")
    try:
        values = [int(t) for t in items]
    except ValueError as exc:
        raise ValueError(
            f"{flag} must be comma-separated integers, got {text!r}"
        ) from exc
    return tuple(_index(v, flag) for v in values)


def _parse_single_int(text: str, flag: str, least: int = 0) -> int:
    """One integer, checked by ``_index`` under ``flag``."""
    try:
        value = int(text.strip())
    except ValueError as exc:
        raise ValueError(f"{flag} must be an integer, got {text!r}") from exc
    return _index(value, flag, least)


def _parse_scale(text: str) -> Fraction | str:
    """A positive rational, or ``"canonical"``."""
    if text.strip() == "canonical":
        return "canonical"
    return _as_positive(text, "--scale")


def _resolve_scale(scale: Fraction | str, seq: JacobiSequence, state: int) -> Fraction:
    return canonical_scale(seq, state) if scale == "canonical" else scale


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockmoments",
        description=(
            "Exact position moments of oscillator number states, their "
            "arcsine-law limit, and spectral reconstructions."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mo = sub.add_parser("moments", help="exact scaled moments of one state")
    mo.add_argument("--jacobi", default="standard")
    mo.add_argument("--N", default="0", help="state level")
    mo.add_argument("--orders", default="0,1,2,3,4,5,6,7,8")
    mo.add_argument("--scale", default="1", help="positive rational or 'canonical'")
    mo.add_argument(
        "--engine", choices=("tridiagonal", "words"), default="tridiagonal"
    )
    mo.add_argument("--format", choices=("text", "csv", "json"), default="text")
    mo.add_argument("--out", default=None)
    mo.set_defaults(run=cmd_moments)

    co = sub.add_parser("converge", help="moments vs arcsine targets over N")
    co.add_argument("--jacobi", default="standard")
    co.add_argument("--N", default="1,10,100,1000")
    co.add_argument("--orders", default="2,4,6,8")
    co.add_argument("--scale", default="canonical")
    co.add_argument("--format", choices=("csv", "json"), default="csv")
    co.add_argument("--out", default=None)
    co.add_argument("--plot", default=None, help="write an SVG here")
    co.set_defaults(run=cmd_converge)

    re = sub.add_parser("reconstruct", help="spectral measure of one state")
    re.add_argument("--jacobi", default="standard")
    re.add_argument("--N", default="5")
    re.add_argument("--K", default=None, help="truncation dimension, default N + 64")
    re.add_argument("--scale", default="1", help="positive rational or 'canonical'")
    re.add_argument("--density", action="store_true", help="emit the state density")
    re.add_argument("--format", choices=("text", "csv", "json"), default="text")
    re.add_argument("--out", default=None)
    re.add_argument("--plot", default=None, help="write an SVG here")
    re.set_defaults(run=cmd_reconstruct)

    cl = sub.add_parser("classical", help="classical oscillator moments")
    cl.add_argument("--A2", default="2", help="squared amplitude, rational")
    cl.add_argument("--orders", default="0,1,2,3,4,5,6,7,8")
    cl.add_argument("--panels", default="256")
    cl.add_argument("--format", choices=("text", "csv", "json"), default="text")
    cl.add_argument("--out", default=None)
    cl.set_defaults(run=cmd_classical)

    sc = sub.add_parser("selfcheck", help="run internal consistency suites")
    sc.add_argument("--fast", action="store_true")
    sc.set_defaults(run=cmd_selfcheck)

    return parser


def _emit(ns: argparse.Namespace, text: str) -> None:
    if ns.out:
        Path(ns.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_dumps(obj: object) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


def _emit_table(
    ns: argparse.Namespace,
    meta: dict | None,
    columns: Sequence[str],
    rows: Sequence[tuple],
    text_row: Callable[[tuple], str] | None = None,
) -> None:
    """Write rows as JSON (meta plus one object per row), as CSV under a
    header of the columns, or as text, one line per row: the cells joined
    by spaces unless ``text_row`` formats the line.  Only JSON reads meta.
    A None cell is null in JSON and blank in CSV."""
    if ns.format == "json":
        text = _json_dumps(
            {**meta, "rows": [dict(zip(columns, row)) for row in rows]}
        )
    elif ns.format == "csv":
        text = "".join(
            ",".join("" if cell is None else str(cell) for cell in row) + "\n"
            for row in [columns, *rows]
        )
    else:
        text_row = text_row or (lambda row: " ".join(map(str, row)))
        text = "".join(text_row(row) + "\n" for row in rows)
    _emit(ns, text)


def cmd_moments(ns: argparse.Namespace) -> int:
    seq = parse_jacobi(ns.jacobi)
    state = _parse_single_int(ns.N, "--N")
    orders = _parse_int_list(ns.orders, "--orders")
    scale = _parse_scale(ns.scale)

    from .moments import moment_by_words, moments_by_walk

    scale = _resolve_scale(scale, seq, state)
    if ns.engine == "words":  # largest first: a cap fails before any sum
        by_order = {
            k: moment_by_words(seq, state, k, scale=scale)
            for k in sorted(set(orders), reverse=True)
        }
        moments = [by_order[k] for k in orders]
    else:
        moments = moments_by_walk(seq, state, orders, scale=scale)
    # only JSON prints the sequence and the scale
    meta = None
    if ns.format == "json":
        meta = {
            "jacobi": seq.to_json(),
            "N": state,
            "scale": _exact_str(scale, "--scale"),
            "engine": ns.engine,
        }
    rows = [
        (order, _exact_str(v, f"order {order} moment"))
        for order, v in zip(orders, moments)
    ]
    _emit_table(ns, meta, ("order", "value"), rows)
    return 0


def cmd_converge(ns: argparse.Namespace) -> int:
    seq = parse_jacobi(ns.jacobi)
    states = _parse_int_list(ns.N, "--N")
    orders = _parse_int_list(ns.orders, "--orders")
    scale = _parse_scale(ns.scale)

    from .moments import convergence_table

    rows = convergence_table(seq, states, orders, scale=scale)
    svg = None
    if ns.plot:
        from .svgplot import _convergence_plot

        svg = _convergence_plot(rows)
    names = ("scaled_moment", "target", "abs_diff", "env_lo", "env_hi")
    meta = None
    if ns.format == "json":
        # a JSON row carries its own scale
        meta = {"jacobi": seq.to_json(), "scale": _exact_str(scale, "--scale")}
        names = ("scale", *names)
    cells = []
    for r in rows:
        at = f" at N = {r.state}, order {r.order}"
        values = (getattr(r, name) for name in names)
        cells.append((r.state, r.order, *(
            None if v is None else _exact_str(v, name + at)
            for name, v in zip(names, values)
        )))
    _emit_table(ns, meta, ("N", "order", *names), cells)
    if svg:
        Path(ns.plot).write_text(svg, encoding="utf-8")
    elif ns.plot:
        print(
            "note: no nonzero difference at N >= 1, no plot written",
            file=sys.stderr,
        )
    return 0


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


def cmd_reconstruct(ns: argparse.Namespace) -> int:
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
    scale = _resolve_scale(scale, seq, state)
    measure = reconstruct_state_measure(seq, state, dim, scale=scale)
    lossless = lossless_order(state, dim)
    if lossless <= 2:
        print(
            f"warning: K = {dim} reproduces moments of N = {state} only "
            f"up to order {lossless}",
            file=sys.stderr,
        )
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
        _emit(ns, _json_dumps(payload))
    elif ns.format == "csv":
        _emit_table(ns, None, ("location", "weight"), measure.atoms)
        if density_pts is not None:
            dtext = "x,density\n" + "".join(
                f"{x!r},{f!r}\n" for x, f in density_pts
            )
            if ns.out:
                Path(ns.out + ".density.csv").write_text(dtext, encoding="utf-8")
            else:
                sys.stdout.write("\n" + dtext)
        print(f"ks_to_arcsine = {ks!r}")
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
        _emit(ns, "\n".join(lines) + "\n")

    if svg:
        Path(ns.plot).write_text(svg, encoding="utf-8")
    return 0


def cmd_classical(ns: argparse.Namespace) -> int:
    a2 = _as_positive(ns.A2, "--A2")
    orders = _parse_int_list(ns.orders, "--orders")
    panels = _parse_single_int(ns.panels, "--panels", least=16)

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
    _emit_table(ns, meta, columns, rows, lambda r: "{} {} {!r} {:.3e}".format(*r))
    return 0


def cmd_selfcheck(ns: argparse.Namespace) -> int:
    from .selfcheck import run_selfcheck

    results = run_selfcheck(fast=ns.fast)
    failed = 0
    for result in results:
        if result.passed:
            print(f"ok {result.name} ({result.checks} checks)")
        else:
            failed += 1
            print(f"FAIL {result.name}: {result.counterexample}")
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


def main(argv: Sequence[str] | None = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return ns.run(ns)
    except (CapExceeded, EigensolverFailure, TruncationTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
