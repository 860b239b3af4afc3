"""Fock-space primitives: Jacobi sequences and number states.

An interacting Fock space is described here by its Jacobi sequence
``omega_1, omega_2, ...`` of positive rationals, the squared norms of the
ladder coefficients: the annihilator maps level n to level n-1 with weight
``sqrt(omega_n)`` and the creator maps level n to level n+1 with weight
``sqrt(omega_{n+1})``.  The standard oscillator has ``omega_n = n`` and the
q-deformed oscillator has ``omega_n = 1 + q + ... + q^(n-1)``.

Everything in this module is exact: scalars are ``fractions.Fraction`` and
serialize as ``"p/q"`` strings.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Sequence, Union


class CapExceeded(RuntimeError):
    """A computation exceeded an explicit size cap."""


class TruncationTooSmall(ValueError):
    """The truncation dimension is too small for the requested state."""


class EigensolverFailure(RuntimeError):
    """An eigensolver iteration did not converge, or the tracked eigenvector
    row lost orthonormality."""


def as_fraction(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an exact rational input to a Fraction.

    Accepts ints, Fractions, and ``"p/q"`` / ``"p"`` strings.  Floats are
    rejected: their binary expansions would silently contaminate exact
    results.
    """
    if isinstance(value, bool):
        raise ValueError("expected a rational number, got a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational 'p/q' string: {value!r}") from exc
    if isinstance(value, float):
        raise ValueError(
            f"floats are not exact, pass a 'p/q' string instead of {value!r}"
        )
    raise ValueError(f"cannot interpret {type(value).__name__} as a rational")


def to_float(value: Fraction, name: str) -> float:
    """``value`` as a float; ValueError naming it when it is too large."""
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def _exact_str(value: Fraction, name: str) -> str:
    """``str(value)``; CapExceeded naming it when a part has more digits
    than the interpreter converts to a string (``sys.set_int_max_str_digits``,
    4300 by default), a limit that keeps a huge number from being printed."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise CapExceeded(
            f"{name} has more than {limit:,} digits, too many to print"
        ) from None


def _shown(value: Fraction) -> str:
    """``str(value)`` for an error message, or a note of its size when a
    part has more digits than the interpreter converts to a string."""
    try:
        return str(value)
    except ValueError:
        return f"a number of more than {sys.get_int_max_str_digits():,} digits"


def _as_rational(value: Union[int, str, Fraction], name: str) -> Fraction:
    """``as_fraction(value)``, its ValueError prefixed with ``name``."""
    try:
        return as_fraction(value)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _as_positive(value: Union[int, str, Fraction], name: str) -> Fraction:
    """The one rule for a positive rational (a scale, A^2, a weight):
    ``as_fraction(value)``, or a ValueError naming it."""
    v = _as_rational(value, name)
    if v <= 0:
        raise ValueError(f"{name} must be positive, got {_shown(v)}")
    return v


def _as_q(value: Union[int, str, Fraction]) -> Fraction:
    """``value`` as a deformation q; ValueError unless it lies in [0, 1]."""
    q = _as_rational(value, "q")
    if not 0 <= q <= 1:
        raise ValueError(f"q must lie in [0, 1], got {_shown(q)}")
    return q


def q_integer(n: int, q: Union[int, str, Fraction]) -> Fraction:
    """The q-integer [n]_q = 1 + q + ... + q^(n-1), exactly.

    ``q`` must lie in [0, 1].  [0]_q = 0, and [n]_1 = n.
    """
    qf = _as_q(q)
    _index(n, "q-integer index")
    if qf == 1:
        return Fraction(n)
    # geometric sum (1 - q^n) / (1 - q)
    return (1 - qf**n) / (1 - qf)


# the fields each kind's JSON description takes besides "kind"
_JSON_FIELDS = {"standard": (), "q": ("q",), "explicit": ("omega",)}


class _Value:
    """A value whose fields are its ``__slots__``: immutable, hashable,
    picklable, equal only to the same class with equal fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot change field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


class JacobiSequence(_Value):
    """A positive rational Jacobi sequence omega_1, omega_2, ...

    kind is one of:

    - ``"standard"``: omega_n = n
    - ``"q"``: omega_n = [n]_q for a rational deformation q in [0, 1]
    - ``"explicit"``: a finite list of positive rationals

    The constructor alone decides what a sequence may hold: ``q`` and
    each weight ``omega_i`` obey the rational rule, and any non-empty
    iterable of weights but a string becomes a tuple.
    """

    __slots__ = ("kind", "q", "omegas")

    def __init__(
        self, kind: str, q: Union[int, str, Fraction, None] = None, omegas: Sequence = ()
    ) -> None:
        if isinstance(omegas, str):
            raise ValueError(f"weights must be a list, got {omegas!r}")
        omegas = tuple(omegas)
        if kind == "standard":
            if q is not None or omegas:
                raise ValueError("standard sequences take no parameters")
        elif kind == "q":
            if q is None:
                raise ValueError("q-deformed sequences need a deformation q")
            if omegas:
                raise ValueError("q-deformed sequences take no explicit list")
            q = _as_q(q)
        elif kind == "explicit":
            if q is not None:
                raise ValueError("explicit sequences take no deformation q")
            if not omegas:
                raise ValueError("explicit list is empty")
            weights = enumerate(omegas, 1)
            omegas = tuple(_as_positive(w, f"omega_{i}") for i, w in weights)
        else:
            raise ValueError(f"unknown Jacobi sequence kind: {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "omegas", omegas)

    @staticmethod
    def standard() -> "JacobiSequence":
        return JacobiSequence(kind="standard")

    @staticmethod
    def q_deformed(q: Union[int, str, Fraction]) -> "JacobiSequence":
        return JacobiSequence(kind="q", q=q)

    @staticmethod
    def explicit(omegas: Sequence[Union[int, str, Fraction]]) -> "JacobiSequence":
        return JacobiSequence(kind="explicit", omegas=omegas)

    def omega(self, n: int) -> Fraction:
        """The weight omega_n, for n >= 1."""
        _index(n, "Jacobi weight index", least=1)
        if self.kind == "standard":
            return Fraction(n)
        if self.kind == "q":
            return q_integer(n, self.q)
        if n > len(self.omegas):
            raise ValueError(
                f"explicit sequence has {len(self.omegas)} weights, "
                f"omega_{n} is undefined"
            )
        return self.omegas[n - 1]

    @staticmethod
    def from_json(obj: dict) -> "JacobiSequence":
        """Build a sequence from its JSON description.

        Schema: ``{"kind": "standard"}``, ``{"kind": "q", "q": "1/2"}``, or
        ``{"kind": "explicit", "omega": ["1", "3/2", "2"]}``.  Rationals are
        strings.  A field that the kind does not take is rejected, and
        the constructor decides the rest.
        """
        if not isinstance(obj, dict):
            raise ValueError("Jacobi sequence description must be an object")
        kind = obj.get("kind")
        if not isinstance(kind, str) or kind not in _JSON_FIELDS:
            raise ValueError(f"unknown Jacobi sequence kind: {kind!r}")
        for name in obj:
            if name not in ("kind", *_JSON_FIELDS[kind]):
                raise ValueError(f"kind {kind!r} takes no field {name!r}")
        if kind == "explicit":
            if not isinstance(obj.get("omega"), list):
                raise ValueError("kind 'explicit' requires a list field 'omega'")
        return JacobiSequence(kind, obj.get("q"), obj.get("omega", ()))

    def to_json(self) -> dict:
        """JSON description, inverse of ``from_json``."""
        if self.kind == "standard":
            return {"kind": "standard"}
        if self.kind == "q":
            return {"kind": "q", "q": _exact_str(self.q, "q")}
        omegas = enumerate(self.omegas, 1)
        return {
            "kind": "explicit",
            "omega": [_exact_str(w, f"weight omega_{i}") for i, w in omegas],
        }


STANDARD = JacobiSequence.standard()


def canonical_scale(seq: JacobiSequence, state: int) -> Fraction:
    """The natural normalization for the number state at level N.

    For the standard oscillator this is N, for the q-deformed one the
    q-integer [N]_q; both are omega_N, the variance scale under which
    the state's position moments approach the arcsine law.  Explicit
    sequences carry no such asymptotic rule, so their canonical scale
    is 1 and callers override it when they want something else.
    """
    n = _index(state, "state level for the canonical scale", least=1)
    if seq.kind == "explicit":
        return Fraction(1)
    return seq.omega(n)


def _index(value: int, name: str, least: int = 0, cap: int | None = None) -> int:
    """``value`` when it is an int, not a bool, from ``least`` up to ``cap``.

    The one rule for every integer argument: a number state, an order, a
    dimension, a row, a panel count.  Anything else raises ValueError
    naming it, and a value above ``cap`` raises CapExceeded.
    """
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    if cap is not None and value > cap:
        raise CapExceeded(f"{name} {value} exceeds the cap {cap}")
    return value


def state_index(state: int) -> int:
    """Validate a number-state level: a non-negative int, not a bool."""
    return _index(state, "number state index")
