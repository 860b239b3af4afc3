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

import re
import sys
from fractions import Fraction
from typing import Sequence, Union

# Largest decimal exponent a rational string may write: Fraction expands it
# into an integer of that many digits, which takes 0.3 s at 10^6
_EXPONENT_CAP = 10**6
# a decimal of the form Fraction reads, its exponent's digits grouped
_EXPONENT = (r"(?i)\s*[-+]?(?=\.?\d)\d*(?:_\d+)*(?:\.(?:\d+(?:_\d+)*)?)?"
             r"e[-+]?(\d+(?:_\d+)*)\s*")


class CapExceeded(RuntimeError):
    """A computation exceeded an explicit size cap."""


class TruncationTooSmall(ValueError):
    """The truncation dimension is too small for the requested state."""


class EigensolverFailure(RuntimeError):
    """An eigensolver iteration did not converge, the tracked eigenvector
    row lost orthonormality, or an eigenvalue is not finite."""


def _quoted(value: object) -> str:
    """A value in a message, never raising: ``str`` of a number, ``repr`` of
    the rest, or its size past 80 characters (a string's length) or digits."""
    number = isinstance(value, (int, Fraction))
    try:
        text = str(value) if number else repr(value)
    except ValueError:
        return f"a number of more than {sys.get_int_max_str_digits():,} digits"
    size = len(value) if isinstance(value, str) else len(text)
    if size <= 80:
        return text
    if number:
        return f"a number of {sum(c.isdigit() for c in text):,} digits"
    kind = "string" if isinstance(value, str) else type(value).__name__
    return f"a {kind} of {size:,} characters"


def as_fraction(value: Union[int, str, Fraction]) -> Fraction:
    """Coerce an exact rational input to a Fraction.

    Accepts ints, Fractions, and ``"p/q"`` / ``"p"`` / decimal strings, but
    a decimal exponent above 10^6 raises CapExceeded.  Floats are rejected:
    their binary expansions would silently contaminate exact results.
    """
    if isinstance(value, bool):
        raise ValueError("expected a rational number, got a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        # _EXPONENT's (?i)e matches only "e" and "E": skip compiling it without one
        exponent = ("e" in value or "E" in value) and re.fullmatch(_EXPONENT, value)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > 7 or int(digits or 0) > _EXPONENT_CAP:  # 10^6 has 7 digits
            raise CapExceeded(f"decimal exponent exceeds the cap {_EXPONENT_CAP}")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational 'p/q' string: {_quoted(value)}") from exc
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


def _as_rational(value: Union[int, str, Fraction], name: str) -> Fraction:
    """``as_fraction(value)``, its error prefixed with ``name``."""
    try:
        return as_fraction(value)
    except (ValueError, CapExceeded) as exc:
        raise type(exc)(f"{name}: {exc}") from None


def _as_positive(value: Union[int, str, Fraction], name: str) -> Fraction:
    """The one rule for a positive rational (a scale, A^2, a weight):
    ``as_fraction(value)``, or a ValueError naming it."""
    v = _as_rational(value, name)
    if v <= 0:
        raise ValueError(f"{name} must be positive, got {_quoted(v)}")
    return v


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
            raise ValueError(f"weights must be a list, got {_quoted(omegas)}")
        omegas = tuple(omegas)
        if kind == "standard":
            if q is not None or omegas:
                raise ValueError("standard sequences take no parameters")
        elif kind == "q":
            if q is None:
                raise ValueError("q-deformed sequences need a deformation q")
            if omegas:
                raise ValueError("q-deformed sequences take no explicit list")
            q = _as_rational(q, "q")
            if not 0 <= q <= 1:
                raise ValueError(f"q must lie in [0, 1], got {_quoted(q)}")
        elif kind == "explicit":
            if q is not None:
                raise ValueError("explicit sequences take no deformation q")
            if not omegas:
                raise ValueError("explicit list is empty")
            weights = enumerate(omegas, 1)
            omegas = tuple(_as_positive(w, f"omega_{i}") for i, w in weights)
        else:
            raise ValueError(f"unknown Jacobi sequence kind: {_quoted(kind)}")
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
        if self.kind == "standard" or self.q == 1:
            return Fraction(n)
        if self.kind == "q":
            # [n]_q = 1 + q + ... + q^(n-1) = (b^n - a^n) / (b - a) / b^(n-1)
            a, b = self.q.numerator, self.q.denominator
            return Fraction((b**n - a**n) // (b - a), b ** (n - 1))
        if n > len(self.omegas):
            raise ValueError(
                f"explicit sequence has {len(self.omegas)} weights, "
                f"omega_{_quoted(n)} is undefined"
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
        if not isinstance(kind, str):
            raise ValueError(
                f"Jacobi sequence kind must be a string, got {type(kind).__name__}"
            )
        if kind not in _JSON_FIELDS:
            raise ValueError(f"unknown Jacobi sequence kind: {_quoted(kind)}")
        for name in obj:
            if name not in ("kind", *_JSON_FIELDS[kind]):
                raise ValueError(f"kind {kind!r} takes no field {_quoted(name)}")
        if kind == "explicit" and not isinstance(obj.get("omega"), list):
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
        raise ValueError(f"{name} must be an int, got {_quoted(value)}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {_quoted(value)}")
    if cap is not None and value > cap:
        raise CapExceeded(f"{name} {_quoted(value)} exceeds the cap {cap}")
    return value


def state_index(state: int) -> int:
    """Validate a number-state level: a non-negative int, not a bool."""
    return _index(state, "number state index")
