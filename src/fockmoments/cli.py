"""Command line interface.

Subcommands:

- ``moments``: exact scaled moments of one number state
- ``converge``: scaled moments against arcsine targets over a grid of N
- ``reconstruct``: discrete spectral measure of a truncated state
- ``classical``: exact classical-oscillator moments vs quadrature
- ``selfcheck``: internal consistency suites

A well-formed command line is read from ``_FLAGS`` without argparse, which
reads any other and writes ``--help``, ``--version`` and every usage error
in its own words.  ``main`` runs ``cmd_<command>``, which checks its
arguments before any work.  This module defines the two exact commands,
``moments`` and ``converge``; ``main`` finds any other in ``cli_float``,
which it loads only then, so an exact call never compiles it.

Exit codes: 0 success, 1 selfcheck failure, 2 invalid configuration, an
``--out`` or ``--plot`` path that cannot be written or a closed stdout
(every byte goes through ``_write``), 3 a cap exceeded, a ``reconstruct``
truncation below K = N + 2, or eigensolver failure.  A ``--plot`` SVG is
built and checked before any output, and written last, after the table.
Output is a pure function of the arguments; reruns are byte-identical.
An error line names a value longer than 80 characters, number or string,
by its size; argparse's usage lines are left as they are.  A diagnostic
that cannot be written to stderr is dropped, never written to stdout, and
the exit code stays the documented one; so is argparse's usage for a
refused argv when stderr is None.  ``_write`` flushes stdout, so a table
that cannot be written exits 2 under any buffering.
"""

from __future__ import annotations

import gc
import io
import sys
from fractions import Fraction
from importlib import import_module
from types import SimpleNamespace
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
    _quoted,
    canonical_scale,
)

# Deepest nesting a --jacobi JSON value may have; a valid one nests 2
# deep.  Where json.loads gives up on a deep value depends on the
# interpreter version and on the stack, so the depth is checked first.
_JSON_DEPTH_CAP = 100


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
            import re
            from itertools import accumulate

            # count brackets outside strings; an unterminated one runs to the end
            bare = re.sub(r'"(?:[^"\\]|\\.)*"?', "", t, flags=re.S)
            steps = ((c in "[{") - (c in "]}") for c in bare)
            if max(accumulate(steps)) > _JSON_DEPTH_CAP:
                raise ValueError("JSON nests too deeply")
            return JacobiSequence.from_json(json.loads(t))
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ValueError(f"--jacobi: {exc}") from exc
    except CapExceeded as exc:
        raise CapExceeded(f"--jacobi: {exc}") from exc
    raise ValueError(
        "--jacobi must be 'standard', 'q=<rational>', 'explicit:<list>' "
        f"or a JSON object, got {_quoted(text)}"
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
            f"{flag} must be comma-separated integers, got {_quoted(text)}"
        ) from exc
    return tuple(_index(v, flag) for v in values)


def _parse_single_int(text: str, flag: str, least: int = 0) -> int:
    """One integer, checked by ``_index`` under ``flag``."""
    try:
        value = int(text.strip())
    except ValueError as exc:
        raise ValueError(f"{flag} must be an integer, got {_quoted(text)}") from exc
    return _index(value, flag, least)


def _parse_scale(text: str) -> Fraction | str:
    """A positive rational, or ``"canonical"``."""
    if text.strip() == "canonical":
        return "canonical"
    return _as_positive(text, "--scale")


# Each command's help line and flags, declared once: build_parser makes
# argparse's parser from them and _parse_canonical reads them.  A flag is
# (name, default, help, choices); a default of False marks a switch.
_FLAGS = {
    "moments": ("exact scaled moments of one state", [
        ("--jacobi", "standard", None, None),
        ("--N", "0", "state level", None),
        ("--orders", "0,1,2,3,4,5,6,7,8", None, None),
        ("--scale", "1", "positive rational or 'canonical'", None),
        ("--engine", "tridiagonal", None, ("tridiagonal", "words")),
        ("--format", "text", None, ("text", "csv", "json")),
        ("--out", None, None, None)]),
    "converge": ("moments vs arcsine targets over N", [
        ("--jacobi", "standard", None, None),
        ("--N", "1,10,100,1000", None, None),
        ("--orders", "2,4,6,8", None, None),
        ("--scale", "canonical", None, None),
        ("--format", "csv", None, ("csv", "json")),
        ("--out", None, None, None),
        ("--plot", None, "write an SVG here", None)]),
    "reconstruct": ("spectral measure of one state", [
        ("--jacobi", "standard", None, None),
        ("--N", "5", None, None),
        ("--K", None, "truncation dimension, default N + 64", None),
        ("--scale", "1", "positive rational or 'canonical'", None),
        ("--density", False, "emit the state density", None),
        ("--format", "text", None, ("text", "csv", "json")),
        ("--out", None, None, None),
        ("--plot", None, "write an SVG here", None)]),
    "classical": ("classical oscillator moments", [
        ("--A2", "2", "squared amplitude, rational", None),
        ("--orders", "0,1,2,3,4,5,6,7,8", None, None),
        ("--panels", "256", None, None),
        ("--format", "text", None, ("text", "csv", "json")),
        ("--out", None, None, None)]),
    "selfcheck": ("run internal consistency suites", [("--fast", False, None, None)]),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(prog="fockmoments", description=(
        "Exact position moments of oscillator number states, their "
        "arcsine-law limit, and spectral reconstructions."))
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _FLAGS.items():
        p = sub.add_parser(command, help=summary)
        for name, default, text, choices in flags:
            if default is False:
                p.add_argument(name, action="store_true", help=text)
            else:
                p.add_argument(name, default=default, help=text, choices=choices)
    return parser


def _parse_canonical(argv: Sequence[str]) -> SimpleNamespace | None:
    """argparse's namespace for ``<command> (--flag value | --switch)*``, every
    flag named in full and every value one of its choices, not starting with
    '-'; None for any other argv, which argparse reads or refuses itself."""
    command = argv[0] if argv and all(isinstance(t, str) for t in argv) else None
    if command not in _FLAGS:
        return None
    flags = {flag[0]: flag for flag in _FLAGS[command][1]}
    ns = SimpleNamespace(command=command, **{n[2:]: f[1] for n, f in flags.items()})
    tokens = iter(argv[1:])
    for name in tokens:
        if name not in flags:
            return None
        _, default, _, choices = flags[name]
        value = default is False or next(tokens, "-")  # a missing value is "-"
        if value is not True and (
                value.startswith("-") or choices and value not in choices):
            return None
        setattr(ns, name[2:], value)  # a repeated flag keeps its last value
    return ns


def _note(line: str) -> None:
    """Write line to stderr, or drop it, as argparse does, when stderr is
    None (fd 2 closed at start) or fails."""
    try:
        sys.stderr.write(line + "\n")
    except (AttributeError, OSError):
        sys.stderr = None  # its buffered line would fail the exit flush


def _write(text: str, path: str | None = None) -> None:
    """Write text to the file at path, or to stdout when path is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    elif sys.stdout is None:
        # Python sets sys.stdout to None when the process starts with fd 1 closed
        raise OSError("stdout is closed")
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()  # fails here, not in the interpreter's exit flush
        except OSError:
            sys.stdout = None  # its buffered bytes would fail the exit flush
            raise


def _json_dumps(obj: object) -> str:
    """``json.dumps(obj, indent=2) + "\\n"`` without importing json, for the
    CLI's documents: str-keyed dicts, lists, None, ints, finite floats
    (DiscreteMeasure and ``classical`` check theirs) and strings that need
    no escape, each ``_exact_str`` of a Fraction or a fixed ASCII name."""
    return _json_value(obj, "\n") + "\n"


def _json_value(value: object, newline: str) -> str:
    # newline ends a line and indents the next one to the value's depth
    if isinstance(value, str):
        return f'"{value}"'
    if value is None:
        return "null"
    inner = newline + "  "
    if isinstance(value, dict):
        items = (f'"{k}": {_json_value(v, inner)}' for k, v in value.items())
        return f"{{{inner}{(',' + inner).join(items)}{newline}}}" if value else "{}"
    if isinstance(value, list):
        items = (_json_value(v, inner) for v in value)
        return f"[{inner}{(',' + inner).join(items)}{newline}]" if value else "[]"
    return repr(value)


def _write_table(
    ns: SimpleNamespace,
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
    _write(text, ns.out)


def cmd_moments(ns: SimpleNamespace) -> int:
    seq = parse_jacobi(ns.jacobi)
    state = _parse_single_int(ns.N, "--N")
    orders = _parse_int_list(ns.orders, "--orders")
    scale = _parse_scale(ns.scale)

    scale = canonical_scale(seq, state) if scale == "canonical" else scale
    if ns.engine == "words":  # largest first: a cap fails before any sum
        from .words import moment_by_words

        by_order = {
            k: moment_by_words(seq, state, k, scale=scale)
            for k in sorted(set(orders), reverse=True)
        }
        moments = [by_order[k] for k in orders]
    else:
        from .moments import moments_by_walk

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
    _write_table(ns, meta, ("order", "value"), rows)
    return 0


def cmd_converge(ns: SimpleNamespace) -> int:
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
        at = f" at N = {_quoted(r.state)}, order {r.order}"
        values = (getattr(r, name) for name in names)
        cells.append((r.state, r.order, *(
            None if v is None else _exact_str(v, name + at)
            for name, v in zip(names, values)
        )))
    _write_table(ns, meta, ("N", "order", *names), cells)
    if svg:
        _write(svg, ns.plot)
    elif ns.plot:
        _note("note: no nonzero difference at N >= 1, no plot written")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)  # as argparse reads it
    if (ns := _parse_canonical(argv)) is None:
        # argparse prints a refused argv's usage to stdout when stderr is
        # None, so a sink takes it; --help and --version write to stdout
        stderr, sys.stderr = sys.stderr, sys.stderr or io.StringIO()
        try:
            ns = SimpleNamespace(**vars(build_parser().parse_args(argv)))
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        finally:
            sys.stderr = stderr
    name = "cmd_" + ns.command
    try:
        # an exact command runs from here, any other from cli_float, loaded
        # only for it; looked up per call, so a wrapper set on the module (a
        # tracer) runs
        run = globals().get(name) or getattr(import_module(".cli_float", __package__), name)
        return run(ns)
    except (CapExceeded, EigensolverFailure, TruncationTooSmall) as exc:
        _note(f"error: {exc}")
        return 3
    except (ValueError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename is not None:  # a path
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_quoted(exc.filename)}"
        _note(f"error: {exc}")
        return 2


def console_main() -> None:
    code = main()
    # the full collections of interpreter finalization, about 5 ms of a
    # short call, skip frozen objects; atexit handlers and stream flushes
    # still run.  main() does not freeze: tests and callers run it in process
    gc.freeze()
    sys.exit(code)
