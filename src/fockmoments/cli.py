"""Command line interface.

Subcommands:

- ``moments``: exact scaled moments of one number state
- ``converge``: scaled moments against arcsine targets over a grid of N
- ``reconstruct``: discrete spectral measure of a truncated state
- ``classical``: exact classical-oscillator moments vs quadrature
- ``selfcheck``: internal consistency suites

Exit codes: 0 success, 1 selfcheck failure, 2 invalid configuration or
validation error, 3 computational cap exceeded or eigensolver failure.
Output is a pure function of the arguments; reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
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
    as_fraction,
    canonical_scale,
    to_float,
)


class ConfigError(ValueError):
    """An invalid command line or configuration value."""


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved CLI invocation."""

    command: str
    jacobi: dict
    states: tuple[int, ...] = ()
    orders: tuple[int, ...] = ()
    scale: str = "1"
    dim: int | None = None
    amplitude_squared: str | None = None
    panels: int = 256
    engine: str = "tridiagonal"
    fmt: str = "text"
    out: str | None = None
    plot: str | None = None
    density: bool = False
    fast: bool = False


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
            return JacobiSequence.q_deformed(as_fraction(t[2:]))
        if t.startswith("explicit:"):
            parts = [p.strip() for p in t[len("explicit:"):].split(",") if p.strip()]
            if not parts:
                raise ConfigError("--jacobi explicit list is empty")
            return JacobiSequence.explicit(parts)
        if t.startswith("{"):
            import json

            return JacobiSequence.from_json(json.loads(t))
    except ConfigError:
        raise
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(f"--jacobi: {exc}") from exc
    raise ConfigError(
        "--jacobi must be 'standard', 'q=<rational>', 'explicit:<list>' "
        f"or a JSON object, got {text!r}"
    )


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ConfigError(f"{flag} must list at least one integer")
    try:
        return tuple(int(t) for t in items)
    except ValueError as exc:
        raise ConfigError(
            f"{flag} must be comma-separated integers, got {text!r}"
        ) from exc


def _parse_single_int(text: str, flag: str) -> int:
    try:
        return int(text.strip())
    except ValueError as exc:
        raise ConfigError(f"{flag} must be an integer, got {text!r}") from exc


def _parse_scale(text: str) -> str:
    t = text.strip()
    if t == "canonical":
        return t
    try:
        value = as_fraction(t)
    except ValueError as exc:
        raise ConfigError(f"--scale: {exc}") from exc
    if value <= 0:
        raise ConfigError(f"--scale must be positive, got {t}")
    return str(value)


def _resolve_scale(cfg: RunConfig, seq: JacobiSequence, state: int) -> Fraction:
    if cfg.scale == "canonical":
        return canonical_scale(seq, state)
    return as_fraction(cfg.scale)


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

    co = sub.add_parser("converge", help="moments vs arcsine targets over N")
    co.add_argument("--jacobi", default="standard")
    co.add_argument("--N", default="1,10,100,1000")
    co.add_argument("--orders", default="2,4,6,8")
    co.add_argument("--scale", default="canonical")
    co.add_argument("--format", choices=("csv", "json"), default="csv")
    co.add_argument("--out", default=None)
    co.add_argument("--plot", default=None, help="write an SVG here")

    re = sub.add_parser("reconstruct", help="spectral measure of one state")
    re.add_argument("--jacobi", default="standard")
    re.add_argument("--N", default="5")
    re.add_argument("--K", default=None, help="truncation dimension, default N + 64")
    re.add_argument("--scale", default="1", help="positive rational or 'canonical'")
    re.add_argument("--density", action="store_true", help="emit the state density")
    re.add_argument("--format", choices=("text", "csv", "json"), default="text")
    re.add_argument("--out", default=None)
    re.add_argument("--plot", default=None, help="write an SVG here")

    cl = sub.add_parser("classical", help="classical oscillator moments")
    cl.add_argument("--A2", default="2", help="squared amplitude, rational")
    cl.add_argument("--orders", default="0,1,2,3,4,5,6,7,8")
    cl.add_argument("--panels", default="256")
    cl.add_argument("--format", choices=("text", "csv", "json"), default="text")
    cl.add_argument("--out", default=None)

    sc = sub.add_parser("selfcheck", help="run internal consistency suites")
    sc.add_argument("--fast", action="store_true")

    return parser


def config_from_args(argv: Sequence[str] | None = None) -> RunConfig:
    ns = build_parser().parse_args(argv)
    command = ns.command
    if command == "selfcheck":
        return RunConfig(
            command="selfcheck", jacobi={"kind": "standard"}, fast=ns.fast
        )
    jacobi = parse_jacobi(ns.jacobi).to_json() if hasattr(ns, "jacobi") else {
        "kind": "standard"
    }
    if command == "moments":
        states = (_parse_single_int(ns.N, "--N"),)
        orders = _parse_int_list(ns.orders, "--orders")
        cfg = RunConfig(
            command=command,
            jacobi=jacobi,
            states=states,
            orders=orders,
            scale=_parse_scale(ns.scale),
            engine=ns.engine,
            fmt=ns.format,
            out=ns.out,
        )
    elif command == "converge":
        cfg = RunConfig(
            command=command,
            jacobi=jacobi,
            states=_parse_int_list(ns.N, "--N"),
            orders=_parse_int_list(ns.orders, "--orders"),
            scale=_parse_scale(ns.scale),
            fmt=ns.format,
            out=ns.out,
            plot=ns.plot,
        )
    elif command == "reconstruct":
        state = _parse_single_int(ns.N, "--N")
        dim = state + 64 if ns.K is None else _parse_single_int(ns.K, "--K")
        cfg = RunConfig(
            command=command,
            jacobi=jacobi,
            states=(state,),
            scale=_parse_scale(ns.scale),
            dim=dim,
            density=ns.density,
            fmt=ns.format,
            out=ns.out,
            plot=ns.plot,
        )
    elif command == "classical":
        try:
            a2 = as_fraction(ns.A2)
        except ValueError as exc:
            raise ConfigError(f"--A2: {exc}") from exc
        if a2 <= 0:
            raise ConfigError(f"--A2 must be positive, got {ns.A2}")
        cfg = RunConfig(
            command=command,
            jacobi={"kind": "standard"},
            orders=_parse_int_list(ns.orders, "--orders"),
            amplitude_squared=str(a2),
            panels=_parse_single_int(ns.panels, "--panels"),
            fmt=ns.format,
            out=ns.out,
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown command {command!r}")

    for n in cfg.states:
        if n < 0:
            raise ConfigError(f"--N values must be >= 0, got {n}")
    for order in cfg.orders:
        if order < 0:
            raise ConfigError(f"--orders values must be >= 0, got {order}")
    if cfg.dim is not None and cfg.dim < 1:
        raise ConfigError(f"--K must be >= 1, got {cfg.dim}")
    return cfg


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        Path(cfg.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_dumps(obj: object) -> str:
    import json

    return json.dumps(obj, indent=2) + "\n"


def _emit_table(
    cfg: RunConfig,
    meta: dict,
    columns: Sequence[str],
    rows: Sequence[tuple],
    text_row: Callable[[tuple], str] | None = None,
) -> None:
    """Write rows as JSON (meta plus one object per row), as CSV under a
    header of the columns, or as text, one line per row: the cells joined
    by spaces unless ``text_row`` formats the line."""
    if cfg.fmt == "json":
        text = _json_dumps(
            {**meta, "rows": [dict(zip(columns, row)) for row in rows]}
        )
    elif cfg.fmt == "csv":
        text = "".join(",".join(map(str, row)) + "\n" for row in [columns, *rows])
    else:
        text_row = text_row or (lambda row: " ".join(map(str, row)))
        text = "".join(text_row(row) + "\n" for row in rows)
    _emit(cfg, text)


def cmd_moments(cfg: RunConfig) -> int:
    from .moments import moment_by_words, moments_by_walk

    seq = JacobiSequence.from_json(cfg.jacobi)
    state = cfg.states[0]
    scale = _resolve_scale(cfg, seq, state)
    if cfg.engine == "words":
        moments = [moment_by_words(seq, state, k, scale=scale) for k in cfg.orders]
    else:
        moments = moments_by_walk(seq, state, cfg.orders, scale=scale)
    meta = {"jacobi": cfg.jacobi, "N": state, "scale": str(scale), "engine": cfg.engine}
    rows = [(order, str(v)) for order, v in zip(cfg.orders, moments)]
    _emit_table(cfg, meta, ("order", "value"), rows)
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    from .moments import convergence_csv, convergence_json, convergence_table

    seq = JacobiSequence.from_json(cfg.jacobi)
    scale = "canonical" if cfg.scale == "canonical" else as_fraction(cfg.scale)
    rows = convergence_table(seq, cfg.states, cfg.orders, scale=scale)
    # plot points before any output, so a difference past the float range
    # fails with nothing written
    series = []
    if cfg.plot:
        for order in sorted(set(cfg.orders)):
            name = f"order {order} abs_diff"
            pts = [
                (float(r.state), to_float(r.abs_diff, f"{name} at N = {r.state}"))
                for r in rows
                if r.order == order and r.abs_diff > 0
            ]
            if pts:
                series.append((f"order {order}", pts))
    if cfg.fmt == "json":
        text = _json_dumps(
            {"jacobi": cfg.jacobi, "scale": cfg.scale, "rows": convergence_json(rows)}
        )
    else:
        text = convergence_csv(rows)
    _emit(cfg, text)
    if series:
        from .svgplot import line_plot

        svg = line_plot(
            series,
            title="Distance to arcsine moments",
            xlabel="N",
            ylabel="|scaled moment - target|",
            loglog=True,
        )
        Path(cfg.plot).write_text(svg, encoding="utf-8")
    elif cfg.plot:
        print(
            "note: all differences are exactly zero, no plot written",
            file=sys.stderr,
        )
    return 0


def _density_points(
    state: int, scale: Fraction, lo: float, hi: float, count: int = 257
) -> list[tuple[float, float]]:
    from .spectral import hermite_density_grid

    # density of the scaled position: sqrt(s) * |phi_N(x sqrt(s))|^2
    root = math.sqrt(float(scale))
    xs = [lo + (hi - lo) * i / (count - 1) for i in range(count)]
    density = hermite_density_grid(state, [x * root for x in xs])
    return [(x, root * v) for x, v in zip(xs, density)]


def cmd_reconstruct(cfg: RunConfig) -> int:
    from .spectral import (
        _check_density_cap,
        ks_distance_to_arcsine,
        lossless_order,
        reconstruct_state_measure,
    )

    seq = JacobiSequence.from_json(cfg.jacobi)
    state = cfg.states[0]
    scale = _resolve_scale(cfg, seq, state)
    assert cfg.dim is not None
    if cfg.density and seq.kind != "standard":
        raise ConfigError("--density is defined for the standard sequence only")
    if cfg.density:
        _check_density_cap(state)  # no eigensolve for a density over the cap
    measure = reconstruct_state_measure(seq, state, cfg.dim, scale=scale)
    if lossless_order(state, cfg.dim) <= 2:
        print(
            f"warning: K = {cfg.dim} reproduces moments of N = {state} only "
            f"up to order {lossless_order(state, cfg.dim)}",
            file=sys.stderr,
        )
    ks = ks_distance_to_arcsine(measure)
    density_pts = None
    if cfg.density:
        density_pts = _density_points(
            state, scale, measure.atoms[0][0], measure.atoms[-1][0]
        )

    if cfg.fmt == "json":
        payload = {
            "jacobi": cfg.jacobi,
            "N": state,
            "K": cfg.dim,
            "scale": str(scale),
            "ks_to_arcsine": ks,
            **measure.to_json(),
        }
        if density_pts is not None:
            payload["density_grid"] = [[x, f] for x, f in density_pts]
        _emit(cfg, _json_dumps(payload))
    elif cfg.fmt == "csv":
        _emit(cfg, measure.to_csv())
        if density_pts is not None:
            dtext = "x,density\n" + "".join(
                f"{x!r},{f!r}\n" for x, f in density_pts
            )
            if cfg.out:
                Path(cfg.out + ".density.csv").write_text(dtext, encoding="utf-8")
            else:
                sys.stdout.write("\n" + dtext)
        print(f"ks_to_arcsine = {ks!r}")
    else:
        lines = [
            f"# N = {state}, K = {cfg.dim}, scale = {scale}",
            "# location weight",
        ]
        lines.extend(f"{x!r} {w!r}" for x, w in measure.atoms)
        if density_pts is not None:
            lines.append("# x density")
            lines.extend(f"{x!r} {f!r}" for x, f in density_pts)
        lines.append(f"ks_to_arcsine = {ks!r}")
        _emit(cfg, "\n".join(lines) + "\n")

    if cfg.plot:
        from .laws import arcsine_density
        from .svgplot import line_plot

        atoms = measure.atoms
        est = []
        for i, (x, w) in enumerate(atoms):
            left = atoms[i - 1][0] if i > 0 else None
            right = atoms[i + 1][0] if i + 1 < len(atoms) else None
            if left is None and right is None:
                gap = 1.0
            elif left is None:
                gap = right - x
            elif right is None:
                gap = x - left
            else:
                gap = (right - left) / 2.0
            est.append((x, w / gap))
        series: list[tuple[str, list[tuple[float, float]]]] = [
            ("reconstruction", est)
        ]
        edge = math.sqrt(2.0) - 0.02
        series.append(
            (
                "arcsine",
                [
                    (x, arcsine_density(x))
                    for x in (-edge + 2 * edge * i / 200 for i in range(201))
                ],
            )
        )
        if density_pts is not None:
            series.append(("state density", density_pts))
        svg = line_plot(
            series,
            title=f"Spectral reconstruction, N = {state}, K = {cfg.dim}",
            xlabel="x",
            ylabel="density",
        )
        Path(cfg.plot).write_text(svg, encoding="utf-8")
    return 0


def cmd_classical(cfg: RunConfig) -> int:
    from .laws import classical_moment, classical_moment_quadrature

    assert cfg.amplitude_squared is not None
    a2 = as_fraction(cfg.amplitude_squared)
    amplitude = math.sqrt(to_float(a2, "--A2"))
    rows = []
    for order in cfg.orders:
        exact = classical_moment(a2, order)
        quad = classical_moment_quadrature(amplitude, order, panels=cfg.panels)
        diff = abs(to_float(exact, f"order {order} moment") - quad)
        rows.append((order, str(exact), quad, diff))
    meta = {"A2": cfg.amplitude_squared, "panels": cfg.panels}
    columns = ("order", "exact", "quadrature", "abs_diff")
    _emit_table(cfg, meta, columns, rows, lambda r: "{} {} {!r} {:.3e}".format(*r))
    return 0


def cmd_selfcheck(cfg: RunConfig) -> int:
    from .selfcheck import run_selfcheck

    results = run_selfcheck(fast=cfg.fast)
    failed = 0
    for result in results:
        if result.passed:
            print(f"ok {result.name} ({result.checks} checks)")
        else:
            failed += 1
            print(f"FAIL {result.name}: {result.counterexample}")
    print(f"{len(results) - failed}/{len(results)} suites passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "moments": cmd_moments,
    "converge": cmd_converge,
    "reconstruct": cmd_reconstruct,
    "classical": cmd_classical,
    "selfcheck": cmd_selfcheck,
}


def run(cfg: RunConfig) -> int:
    if cfg.command not in _COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}")
    return _COMMANDS[cfg.command](cfg)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        cfg = config_from_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return run(cfg)
    except (CapExceeded, EigensolverFailure, TruncationTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())
