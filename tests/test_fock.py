import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmoments.fock import (
    CapExceeded,
    JacobiSequence,
    LadderWord,
    Letter,
    STANDARD,
    WORD_ORDER_CAP,
    as_fraction,
    canonical_scale,
    enumerate_balanced_words,
    q_integer,
    state_index,
)
from fockmoments.laws import (
    arcsine_moment,
    classical_moment,
    classical_moment_quadrature,
    vacuum_gaussian_moment,
)
from fockmoments.moments import (
    convergence_table,
    moment_by_words,
    moment_envelope,
    moments_by_walk,
    walk_returns,
)
from fockmoments.spectral import DiscreteMeasure, reconstruct_state_measure

# a negative rational past the interpreter's 4,300-digit string limit
HUGE_NEGATIVE = Fraction(-10**5000)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: moment_by_words(STANDARD, 2, 2, scale=v), "scale"),
        (lambda v: moments_by_walk(STANDARD, 2, [2], scale=v), "scale"),
        (lambda v: convergence_table(STANDARD, [1], [2], scale=v), "scale"),
        (lambda v: reconstruct_state_measure(STANDARD, 2, 10, scale=v), "scale"),
        (lambda v: classical_moment(v, 2), "squared amplitude"),
    ],
    ids=["moment_by_words", "moments_by_walk", "convergence_table",
         "reconstruct_state_measure", "classical_moment"],
)
def test_nonpositive_value_error_names_a_long_number(call, name):
    with pytest.raises(ValueError) as info:
        call(HUGE_NEGATIVE)
    assert str(info.value) == (
        f"{name} must be positive, got a number of more than 4,300 digits"
    )
    with pytest.raises(ValueError, match=f"^{name} must be positive, got -3/2$"):
        call(Fraction(-3, 2))


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


def test_q_integer_values():
    # geometric sums done by hand
    assert q_integer(3, Fraction(1, 2)) == Fraction(7, 4)
    assert q_integer(5, 1) == 5
    assert q_integer(4, 0) == 1
    assert q_integer(0, Fraction(1, 3)) == 0
    assert q_integer(1, Fraction(9, 10)) == 1
    assert q_integer(3, Fraction(1, 3)) == 1 + Fraction(1, 3) + Fraction(1, 9)


def test_q_integer_rejects_bad_input():
    with pytest.raises(ValueError):
        q_integer(3, Fraction(3, 2))
    with pytest.raises(ValueError):
        q_integer(3, -1)
    with pytest.raises(ValueError):
        q_integer(-1, Fraction(1, 2))


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


# every public call that takes a moment order, and convergence_table's
# states, with the index name its error carries
INDEXED_CALLS = {
    "moment_by_words": (lambda v: moment_by_words(STANDARD, 2, v), "moment order"),
    "walk_returns": (lambda v: walk_returns(STANDARD, 2, v), "moment order"),
    "moments_by_walk": (lambda v: moments_by_walk(STANDARD, 2, [v]), "moment order"),
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


def test_number_state_and_coercion():
    assert state_index(7) == 7
    with pytest.raises(ValueError):
        state_index(-2)
    with pytest.raises(ValueError):
        state_index(True)
    with pytest.raises(ValueError):
        state_index("3")


def test_ladder_word_parsing():
    word = LadderWord.from_string("acca")
    assert word.letters == (
        Letter.ANNIHILATE,
        Letter.CREATE,
        Letter.CREATE,
        Letter.ANNIHILATE,
    )
    assert word.to_string() == "acca"
    assert word.is_balanced()
    assert len(word) == 4
    assert not LadderWord.from_string("aac").is_balanced()
    with pytest.raises(ValueError):
        LadderWord.from_string("abc")
    with pytest.raises(ValueError):
        LadderWord(())
    with pytest.raises(ValueError):
        LadderWord(("a",))


def test_balanced_word_counts():
    # C(2m, m) words at half-length m
    for m in range(1, 7):
        words = enumerate_balanced_words(m)
        assert len(words) == math.comb(2 * m, m)
        assert len(set(w.letters for w in words)) == len(words)
        for w in words:
            assert w.is_balanced()
            assert len(w) == 2 * m


def test_balanced_word_order_is_lexicographic():
    words = [w.to_string() for w in enumerate_balanced_words(3)]
    assert words == sorted(words)
    assert words[0] == "aaaccc"
    assert words[-1] == "cccaaa"


def test_balanced_word_caps():
    assert WORD_ORDER_CAP == 12
    with pytest.raises(ValueError):
        enumerate_balanced_words(0)
    with pytest.raises(CapExceeded):
        enumerate_balanced_words(WORD_ORDER_CAP + 1)
