import contextlib
import copy
import io
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmoments.cli import main, parse_jacobi
from fockmoments.fock import (
    CapExceeded,
    JacobiSequence,
    STANDARD,
    as_fraction,
    canonical_scale,
    state_index,
)
from fockmoments.laws import (
    arcsine_moment,
    classical_moment,
    classical_moment_quadrature,
    vacuum_gaussian_moment,
)
from fockmoments.moments import convergence_table, moment_envelope, moments_by_walk
from fockmoments.spectral import (
    EIGEN_DIM_CAP,
    DiscreteMeasure,
    Tridiagonal,
    eigendecompose,
    hermite_density_grid,
    lossless_order,
    reconstruct_state_measure,
    truncated_position_matrix,
)
from fockmoments.words import WORD_ORDER_CAP, moment_by_words, word_matrix_element

# a negative rational past the interpreter's 4,300-digit string limit
HUGE_NEGATIVE = Fraction(-10**5000)
HUGE_TAIL = " must be positive, got a number of more than 4,300 digits"


def _flag(*argv):
    """A call that runs ``cli.main`` on argv with ``=value`` joined to its
    last flag, checks for exit 2 with one error line and nothing on
    stdout, and raises that line as a ValueError."""

    def call(value):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv[:-1], f"{argv[-1]}={value}"])
        line = err.getvalue()
        assert (code, out.getvalue()) == (2, "")
        assert line.startswith("error: ") and line.count("\n") == 1
        raise ValueError(line[len("error: "):-1])

    return call


# every site a rational argument enters by, with the name it is refused under
RATIONAL_SITES = [
    ("moment_by_words", lambda v: moment_by_words(STANDARD, 2, 2, scale=v), "scale"),
    ("moments_by_walk", lambda v: moments_by_walk(STANDARD, 2, [2], scale=v), "scale"),
    ("convergence_table", lambda v: convergence_table(STANDARD, [1], [2], scale=v),
     "scale"),
    ("reconstruct_state_measure",
     lambda v: reconstruct_state_measure(STANDARD, 2, 10, scale=v), "scale"),
    ("classical_moment", lambda v: classical_moment(v, 2), "squared amplitude"),
    ("explicit", lambda v: JacobiSequence.explicit(["1", v]), "omega_2"),
    ("q_deformed", JacobiSequence.q_deformed, "q"),
]
# refused values, each with the message that follows the name
REFUSED_RATIONALS = [
    ("float", 0.5, ": floats are not exact, pass a 'p/q' string instead of 0.5"),
    ("bool", True, ": expected a rational number, got a bool"),
    ("junk", "x", ": not a rational 'p/q' string: 'x'"),
    ("zero", 0, " must be positive, got 0"),
    ("unreduced", "-3/6", " must be positive, got -1/2"),
    ("negative", Fraction(-3, 2), " must be positive, got -3/2"),
    ("huge", HUGE_NEGATIVE, HUGE_TAIL),
]
# the same on the command line, where a value is always text
FLAG_SITES = [
    ("--scale", _flag("moments", "--N", "2", "--orders", "2", "--scale")),
    ("--A2", _flag("classical", "--orders", "2", "--A2")),
]
REFUSED_TEXTS = [
    ("bool", "True", ": not a rational 'p/q' string: 'True'"),
    ("junk", "x", ": not a rational 'p/q' string: 'x'"),
    ("zero", "0", " must be positive, got 0"),
    ("float-zero", "0.0", " must be positive, got 0"),
    ("unreduced", "-3/6", " must be positive, got -1/2"),
    ("huge", "-1e5000", HUGE_TAIL),
]


def _rational_cases():
    for site, call, name in RATIONAL_SITES:
        cases = REFUSED_RATIONALS
        if name == "q":  # q may be 0, and must lie in [0, 1]
            cases = [
                (label, value, tail.replace("must be positive", "must lie in [0, 1]"))
                for label, value, tail in cases
                if value != 0
            ] + [("above one", Fraction(3, 2), " must lie in [0, 1], got 3/2")]
        yield pytest.param(call, name, cases, id=site)
    for name, call in FLAG_SITES:
        yield pytest.param(call, name, REFUSED_TEXTS, id=name)
    # a string is not a list of weights
    string = [("string", "12", " must be a list, got '12'")]
    yield pytest.param(JacobiSequence.explicit, "weights", string, id="explicit-string")
    yield pytest.param(lambda v: JacobiSequence(kind="explicit", omegas=v),
                       "weights", string, id="constructor-string")


@pytest.mark.parametrize("call, name, cases", _rational_cases())
def test_nonpositive_value_error_names_a_long_number(call, name, cases):
    for label, value, tail in cases:
        with pytest.raises(ValueError) as info:
            call(value)
        assert str(info.value) == name + tail, label


# library arguments whose text is longer than 80 characters, each with its
# error: named by its size
LONG_ARGUMENTS = {
    "explicit-string": (lambda: JacobiSequence("explicit", omegas="1," * 2500),
                        "weights must be a list, got a string of 5,000 characters"),
    "state-string": (lambda: moments_by_walk(STANDARD, "x" * 5000, [2]),
                     "number state index must be an int, got a string of 5,000 "
                     "characters"),
    "word": (lambda: word_matrix_element(STANDARD, 0, "b" * 5000),
             "a ladder word is a non-empty string of 'a' and 'c', got a string "
             "of 5,000 characters"),
    "state-list": (lambda: moments_by_walk(STANDARD, [1] * 100, [2]),
                   "number state index must be an int, got a list of 300 characters"),
    "scale-fraction": (lambda: moments_by_walk(STANDARD, 0, [2], -Fraction(10**90, 7)),
                       "scale must be positive, got a number of 92 digits"),
}


@pytest.mark.parametrize("call, message", LONG_ARGUMENTS.values(),
                         ids=LONG_ARGUMENTS.keys())
def test_long_argument_is_named_by_its_size(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# decimal exponents past 10^6, however written, are refused before Fraction
# expands them; the last two are past the interpreter's int() digit limit
HUGE_EXPONENTS = ["1e1000001", "-2.5E+1_000_001", " 1e-0_001_000_001 ", "1e" + "9" * 5000,
                  "1e" + "0" * 5000 + "1000001"]
EXPONENT_CAP_TAIL = ": decimal exponent exceeds the cap 1000000"


@pytest.mark.parametrize("site, call, name", RATIONAL_SITES)
def test_huge_decimal_exponent_is_refused_by_name(site, call, name):
    for text in HUGE_EXPONENTS:
        with pytest.raises(CapExceeded) as info:
            call(text)
        assert str(info.value) == name + EXPONENT_CAP_TAIL, text


def test_decimal_exponent_cap_ignores_zeros_and_underscores():
    # the cap itself is allowed: 10^-(10^6) has a 3,321,929-bit denominator
    assert as_fraction("1e-1_000_000").denominator.bit_length() == 3321929
    assert as_fraction("1e0_000_100_000") == 10**100000
    assert as_fraction("-1.5e-0000000002") == Fraction(-3, 200)
    assert as_fraction("7E+0_1") == 70
    # not a decimal Fraction reads, so no exponent is read either
    with pytest.raises(ValueError, match="not a rational"):
        as_fraction("1x1e99999999")


def test_as_fraction_accepts_exact_forms():
    assert as_fraction(3) == Fraction(3)
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-7") == Fraction(-7)
    assert as_fraction(" 1/2 ") == Fraction(1, 2)
    assert as_fraction(Fraction(2, 6)) == Fraction(1, 3)


def test_as_fraction_rejects_inexact_or_garbage():
    with pytest.raises(ValueError):
        as_fraction(0.5)
    with pytest.raises(ValueError):
        as_fraction("abc")
    with pytest.raises(ValueError):
        as_fraction("1/0")
    with pytest.raises(ValueError):
        as_fraction(True)
    with pytest.raises(ValueError):
        as_fraction(None)


def test_str_of_fraction_round_trips():
    for value in (Fraction(7, 4), Fraction(-3), Fraction(0), Fraction(123, 64)):
        assert as_fraction(str(value)) == value


@pytest.mark.parametrize("q", ["0", "1", "1/2", "1/3", "2/3", "9/10", "7/11"])
def test_q_weights_are_geometric_sums(q):
    # omega_n = [n]_q against the sum 1 + q + ... + q^(n-1), term by term
    seq = JacobiSequence.q_deformed(q)
    power, total = Fraction(1), Fraction(0)
    for n in range(1, 200):
        total += power
        power *= Fraction(q)
        assert seq.omega(n) == total, n


def test_standard_sequence_weights():
    for n in range(1, 30):
        assert STANDARD.omega(n) == n


def test_q_one_matches_standard():
    seq = JacobiSequence.q_deformed(1)
    for n in range(1, 65):
        assert seq.omega(n) == STANDARD.omega(n)


def test_q_zero_is_flat():
    seq = JacobiSequence.q_deformed(0)
    for n in range(1, 20):
        assert seq.omega(n) == 1


def test_explicit_sequence_lookup_and_bounds():
    seq = JacobiSequence.explicit(["1", "3/2", "2"])
    assert seq.omega(1) == 1
    assert seq.omega(2) == Fraction(3, 2)
    assert seq.omega(3) == 2
    with pytest.raises(ValueError):
        seq.omega(4)
    with pytest.raises(ValueError):
        seq.omega(0)


def test_sequence_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        JacobiSequence.explicit(["1", "0"])
    with pytest.raises(ValueError):
        JacobiSequence.explicit(["-1"])
    with pytest.raises(ValueError):
        JacobiSequence.q_deformed(Fraction(5, 4))
    with pytest.raises(ValueError):
        JacobiSequence(kind="mystery")
    with pytest.raises(ValueError):
        JacobiSequence(kind="standard", q=Fraction(1, 2))
    with pytest.raises(ValueError):
        JacobiSequence(kind="q")
    with pytest.raises(ValueError, match="no explicit list"):
        JacobiSequence(kind="q", q=Fraction(1, 2), omegas=(Fraction(1),))
    with pytest.raises(ValueError, match="no deformation q"):
        JacobiSequence(kind="explicit", q=Fraction(1, 2), omegas=(Fraction(1),))
    # the constructor coerces q and each weight as the factories do
    with pytest.raises(ValueError, match="floats are not exact"):
        JacobiSequence(kind="explicit", omegas=(1.5, 2.5))
    with pytest.raises(ValueError, match="floats are not exact"):
        JacobiSequence(kind="q", q=0.5)
    assert JacobiSequence(kind="q", q="1/2") == JacobiSequence.q_deformed("1/2")
    listed = JacobiSequence(kind="explicit", omegas=[1, "3/2"])
    assert listed.omegas == (Fraction(1), Fraction(3, 2))
    assert all(type(w) is Fraction for w in listed.omegas)
    assert hash(listed) == hash(JacobiSequence.explicit(["1", "3/2"]))


def test_empty_explicit_list_is_refused_by_the_constructor():
    # so that from_json(to_json()) inverts every sequence there is
    for empty in ([], (), iter([])):
        with pytest.raises(ValueError, match="^explicit list is empty$"):
            JacobiSequence.explicit(empty)
    with pytest.raises(ValueError, match="^explicit list is empty$"):
        JacobiSequence(kind="explicit")
    for text in ("explicit:", "explicit:,", " explicit: , ,"):
        with pytest.raises(ValueError, match="^--jacobi: explicit list is empty$"):
            parse_jacobi(text)


def test_sequence_json_round_trip():
    cases = [
        JacobiSequence.standard(),
        JacobiSequence.q_deformed(Fraction(1, 2)),
        JacobiSequence.explicit(["1", "3/2", "2"]),
    ]
    for seq in cases:
        assert JacobiSequence.from_json(seq.to_json()) == seq


_RATIONAL = st.builds(Fraction, st.integers(1, 60), st.integers(1, 11))
_SEQUENCES = st.one_of(
    st.just(STANDARD),
    st.fractions(0, 1, max_denominator=13).map(JacobiSequence.q_deformed),
    st.lists(_RATIONAL, min_size=1, max_size=12).map(JacobiSequence.explicit),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_SEQUENCES)
def test_sequence_json_round_trip_property(seq):
    assert JacobiSequence.from_json(seq.to_json()) == seq


def test_sequence_json_schema_forms():
    assert JacobiSequence.from_json({"kind": "standard"}) == STANDARD
    q = JacobiSequence.from_json({"kind": "q", "q": "1/2"})
    assert q.q == Fraction(1, 2)
    ex = JacobiSequence.from_json({"kind": "explicit", "omega": ["1", "3/2", "2"]})
    assert ex.omegas == (Fraction(1), Fraction(3, 2), Fraction(2))
    assert ex.to_json() == {"kind": "explicit", "omega": ["1", "3/2", "2"]}


def test_sequence_json_rejects_malformed():
    with pytest.raises(ValueError):
        JacobiSequence.from_json({"kind": "nope"})
    with pytest.raises(ValueError):
        JacobiSequence.from_json({"kind": "q"})
    with pytest.raises(ValueError):
        JacobiSequence.from_json({"kind": "q", "q": "x"})
    with pytest.raises(ValueError):
        JacobiSequence.from_json({"kind": "explicit"})
    with pytest.raises(ValueError):
        JacobiSequence.from_json({"kind": "explicit", "omega": "1"})
    with pytest.raises(ValueError):
        JacobiSequence.from_json(["standard"])
    # a kind that is not a string is named by its type, not its repr
    with pytest.raises(ValueError, match="kind must be a string, got int$"):
        JacobiSequence.from_json({"kind": 5})
    with pytest.raises(ValueError, match="kind must be a string, got list$"):
        JacobiSequence.from_json({"kind": [[1, 2]]})
    # a field the kind does not take, and an empty list
    with pytest.raises(ValueError, match="explicit list is empty"):
        JacobiSequence.from_json({"kind": "explicit", "omega": []})
    with pytest.raises(ValueError, match="kind 'standard' takes no field 'q'"):
        JacobiSequence.from_json({"kind": "standard", "q": "1/2"})
    with pytest.raises(ValueError, match="kind 'q' takes no field 'omega'"):
        JacobiSequence.from_json({"kind": "q", "q": "1/2", "omega": ["1"]})


def test_canonical_scale():
    assert canonical_scale(STANDARD, 10) == 10
    assert canonical_scale(JacobiSequence.q_deformed(Fraction(1, 2)), 3) == Fraction(7, 4)
    assert canonical_scale(JacobiSequence.q_deformed(0), 5) == 1
    # explicit sequences have no asymptotic scale rule, canonical is 1
    assert canonical_scale(JacobiSequence.explicit(["1", "3/2"]), 2) == 1
    with pytest.raises(ValueError):
        canonical_scale(STANDARD, 0)


# every public call that takes a moment order, and the states of
# moments_by_walk and convergence_table, with the index name its error carries
INDEXED_CALLS = {
    "moment_by_words": (lambda v: moment_by_words(STANDARD, 2, v), "moment order"),
    "moments_by_walk": (lambda v: moments_by_walk(STANDARD, 2, [v]), "moment order"),
    "moments_by_walk-state": (
        lambda v: moments_by_walk(STANDARD, v, [2]), "number state index"
    ),
    "moment_envelope": (lambda v: moment_envelope(2, v), "moment order"),
    "convergence_table-order": (
        lambda v: convergence_table(STANDARD, [1], [v]), "moment order"
    ),
    "convergence_table-state": (
        lambda v: convergence_table(STANDARD, [v], [2]), "number state index"
    ),
    "arcsine_moment": (arcsine_moment, "moment order"),
    "vacuum_gaussian_moment": (vacuum_gaussian_moment, "moment order"),
    "classical_moment": (lambda v: classical_moment(2, v), "moment order"),
    "classical_moment_quadrature": (
        lambda v: classical_moment_quadrature(1.0, v), "moment order"
    ),
    "DiscreteMeasure.moment": (
        lambda v: DiscreteMeasure(atoms=((0.5, 1.0),)).moment(v), "moment order"
    ),
}
BAD_INDICES = {
    "negative": (-1, "must be >= 0, got -1"),
    "bool": (True, "must be an int, got True"),
    "fraction-float": (2.5, "must be an int, got 2.5"),
    "whole-float": (2.0, "must be an int, got 2.0"),
    "str": ("2", "must be an int, got '2'"),
}


@pytest.mark.parametrize("bad", BAD_INDICES.values(), ids=BAD_INDICES.keys())
@pytest.mark.parametrize(
    "call, name", INDEXED_CALLS.values(), ids=INDEXED_CALLS.keys()
)
def test_every_order_and_state_is_checked_alike(call, name, bad):
    value, message = bad
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} {message}"


# every other integer argument: its call, the name its error carries, its
# least value and its cap
INTEGER_ARGUMENTS = {
    "JacobiSequence.omega": (
        lambda v: JacobiSequence.q_deformed("1/2").omega(v),
        "Jacobi weight index", 1, None,
    ),
    "canonical_scale": (
        lambda v: canonical_scale(STANDARD, v),
        "state level for the canonical scale", 1, None,
    ),
    "moment_envelope-state": (
        lambda v: moment_envelope(v, 2), "state level for the envelope", 1, None
    ),
    "truncated_position_matrix": (
        lambda v: truncated_position_matrix(STANDARD, v),
        "truncation dimension", 1, EIGEN_DIM_CAP,
    ),
    "eigendecompose-row": (
        lambda v: eigendecompose(truncated_position_matrix(STANDARD, 4), v),
        "row", 0, None,
    ),
    "reconstruct_state_measure-dim": (
        lambda v: reconstruct_state_measure(STANDARD, 0, v),
        "truncation dimension", 1, None,
    ),
    "lossless_order-dim": (
        lambda v: lossless_order(2, v), "truncation dimension", 3, None
    ),
    "hermite_density_grid": (
        lambda v: hermite_density_grid(v, [0.0]),
        "density level", 0, EIGEN_DIM_CAP,
    ),
    "classical_moment_quadrature-panels": (
        lambda v: classical_moment_quadrature(1.0, 2, v), "panels", 16, None
    ),
}
# caps on a value derived from the arguments; each call ignores its argument
# and passes a value one past the cap
DERIVED_CAPS = {
    "moment_by_words": (
        lambda _: moment_by_words(STANDARD, 2, 2 * WORD_ORDER_CAP + 2),
        "balanced-word half-length", WORD_ORDER_CAP,
    ),
    "eigendecompose-dim": (
        lambda _: eigendecompose(
            Tridiagonal((0.0,) * (EIGEN_DIM_CAP + 1), (1.0,) * EIGEN_DIM_CAP), 0
        ),
        "matrix dimension", EIGEN_DIM_CAP,
    ),
}
WRONG_TYPES = {"bool": True, "fraction-float": 2.5, "whole-float": 2.0, "str": "2"}


def _integer_argument_cases():
    for key, (call, name, least, cap) in INTEGER_ARGUMENTS.items():
        for label, value in WRONG_TYPES.items():
            message = f"{name} must be an int, got {value!r}"
            yield pytest.param(call, value, ValueError, message, id=f"{key}-{label}")
        message = f"{name} must be >= {least}, got {least - 1}"
        yield pytest.param(call, least - 1, ValueError, message, id=f"{key}-below")
        if cap is not None:
            message = f"{name} {cap + 1} exceeds the cap {cap}"
            yield pytest.param(call, cap + 1, CapExceeded, message, id=f"{key}-cap")
    for key, (call, name, cap) in DERIVED_CAPS.items():
        message = f"{name} {cap + 1} exceeds the cap {cap}"
        yield pytest.param(call, None, CapExceeded, message, id=f"{key}-cap")


@pytest.mark.parametrize("call, value, error, message", _integer_argument_cases())
def test_every_integer_argument_is_checked_alike(call, value, error, message):
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error
    assert str(info.value) == message


def test_number_state_and_coercion():
    assert state_index(7) == 7
    with pytest.raises(ValueError):
        state_index(-2)
    with pytest.raises(ValueError):
        state_index(True)
    with pytest.raises(ValueError):
        state_index("3")


# each value class: a value, the same value built by keyword, its field
# names and its exact repr
VALUE_CASES = [
    (JacobiSequence("q", Fraction(1, 2)), JacobiSequence(kind="q", q="1/2"),
     ("kind", "q", "omegas"),
     "JacobiSequence(kind='q', q=Fraction(1, 2), omegas=())"),
    (JacobiSequence("explicit", None, ["1", "3/2"]),
     JacobiSequence(kind="explicit", omegas=iter([1, Fraction(3, 2)])),
     ("kind", "q", "omegas"),
     "JacobiSequence(kind='explicit', q=None, "
     "omegas=(Fraction(1, 1), Fraction(3, 2)))"),
    (DiscreteMeasure(((-1.0, 0.5), (1.0, 0.5))),
     DiscreteMeasure(atoms=((-1.0, 0.5), (1.0, 0.5))), ("atoms",),
     "DiscreteMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))"),
    # lists are stored as tuples, so the value hashes like the one above
    (DiscreteMeasure([[-1.0, 0.5], [1.0, 0.5]]),
     DiscreteMeasure(atoms=((-1.0, 0.5), (1.0, 0.5))), ("atoms",),
     "DiscreteMeasure(atoms=((-1.0, 0.5), (1.0, 0.5)))"),
]


@pytest.mark.parametrize(
    "value, by_keyword, fields, text", VALUE_CASES,
    ids=[
        "q-sequence", "explicit-sequence", "measure", "measure-from-lists",
    ],
)
def test_value_classes_are_immutable_hashable_and_picklable(
    value, by_keyword, fields, text
):
    assert value == by_keyword and value is not by_keyword
    assert hash(value) == hash(by_keyword) and len({value, by_keyword}) == 1
    as_tuple = tuple(getattr(value, name) for name in fields)
    assert value != as_tuple and as_tuple != value
    assert repr(value) == text
    for name in (*fields, "other"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in fields) == as_tuple
    copies = [copy.copy(value), copy.deepcopy(value)] + [
        pickle.loads(pickle.dumps(value, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
    ]
    for other in copies:
        assert type(other) is type(value)
        assert other == value and hash(other) == hash(value)
        assert repr(other) == text
