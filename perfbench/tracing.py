"""Spans and counts around the program's public functions, installed from outside.

``install`` replaces every public function of the layer modules with a
wrapper that records a span (name, start, end, parent span, op id) and,
for the functions in ``COUNTERS``, counts derived from the arguments and
the result.  ``cli`` binds names with ``from .x import y`` and keeps the
command functions in a dict, so each wrapper is put into every module
namespace, and every module-level dict, that holds the original.  The
program's code and output are untouched; ``uninstall`` puts the
originals back.

Per-word and per-point functions, and exact-scalar helpers called once
per cell, are not wrapped: their cost would swamp what is measured.
Their counts are derived from the caller's arguments instead.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import defaultdict

LAYERS = ("cli", "fock", "moments", "laws", "spectral", "selfcheck", "svgplot")

UNWRAPPED = frozenset({
    "word_matrix_element", "hermite_state_density", "arcsine_cdf", "arcsine_density",
    "arcsine_moment", "as_fraction", "fraction_str", "q_integer", "jacobi_weight",
    "state_index", "canonical_scale", "moment_envelope", "console_main",
})


def _level(state) -> int:
    return getattr(state, "index", state)


def _tridiagonal_return(counts, a, result):
    n, order = _level(a["state"]), a["order"]
    if order > 0:
        # the Fraction kernel applies B `order` times on [max(0, N - order), N + order]
        counts["cells"] += order * (n + order - max(0, n - order) + 1)
    bits = max(result.numerator.bit_length(), result.denominator.bit_length())
    counts["result_bits_max"] = max(counts["result_bits_max"], bits)


def _moment_by_words(counts, a, result):
    order = a["order"]
    if order > 0 and order % 2 == 0:
        counts["words"] += math.comb(order, order // 2)


def _eigendecompose(counts, a, result):
    dim = len(a["matrix"].diag)
    counts["dim_sum"] += dim
    counts["dim2_sum"] += dim * dim


def _validate_moments(counts, a, result):
    values = a["values"]
    if hasattr(values, "__len__"):
        size = (len(values) - 1) // 2 + 1
        counts["hankel_dim_max"] = max(counts["hankel_dim_max"], size)


def _add(key: str, amount):
    def count(counts, a, result):
        counts[key] += amount(a, result)
    return count


COUNTERS = {
    "moments.tridiagonal_return": _tridiagonal_return,
    "moments.moment_by_words": _moment_by_words,
    "fock.enumerate_balanced_words": _add("words", lambda a, r: len(r)),
    "spectral.eigendecompose": _eigendecompose,
    "spectral.density_cdf": _add("points", lambda a, r: len(a["xs"])),
    "laws.validate_moments": _validate_moments,
    "selfcheck.run_selfcheck": _add("checks", lambda a, r: sum(x.checks for x in r)),
    "svgplot.line_plot": _add("bytes", lambda a, r: len(r.encode())),
}


class Tracer:
    """Holds spans and counts in memory; nothing is written until the caller asks."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[dict, str, object]] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            counts = self.counts[name]
            counts["calls"] += 1
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                count(counts, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Wrap the public functions of package.<layer> for every layer."""
        modules = [package] + [getattr(package, layer) for layer in LAYERS]
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or attr in UNWRAPPED or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapped = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    self._replace(vars(holder), fn, wrapped)
                    for value in list(vars(holder).values()):
                        if type(value) is dict:
                            self._replace(value, fn, wrapped)

    def _replace(self, mapping: dict, original, wrapped) -> None:
        for key, value in list(mapping.items()):
            if value is original:
                self._undo.append((mapping, key, original))
                mapping[key] = wrapped

    def uninstall(self) -> None:
        for mapping, key, original in reversed(self._undo):
            mapping[key] = original
        self._undo.clear()

    def reset_counts(self) -> None:
        self.counts.clear()


def summarize(spans, first: int = 0) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds, from spans[first:].

    Self time is a span's duration minus the durations of its direct children.
    """
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for name, start, end, parent, _ in spans[first:]:
        entry = out[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start
        if parent >= first:
            out[spans[parent][0]]["self_s"] -= end - start
    return dict(out)
