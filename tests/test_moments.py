import hashlib
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockmoments.fock import CapExceeded, JacobiSequence, STANDARD
from fockmoments.laws import arcsine_moment, vacuum_gaussian_moment, validate_moments
from fockmoments.moments import (
    WORD_ORDER_CAP,
    convergence_table,
    moment_by_words,
    moment_envelope,
    moments_by_walk,
    word_matrix_element,
)
from fockmoments.selfcheck import _standard_closed_form

Q_HALF = JacobiSequence.q_deformed(Fraction(1, 2))
EXPLICIT = JacobiSequence.explicit([Fraction(n + 1, 2) for n in range(1, 40)])
SEQUENCES = [
    STANDARD,
    JacobiSequence.q_deformed(0),
    Q_HALF,
    JacobiSequence.q_deformed(1),
    EXPLICIT,
]


# Level-walk products computed by hand for the standard sequence:
# each word acts rightmost letter first on level N, collecting one
# sqrt(omega) per edge, and the squared product is rational.
HAND_WORD_ELEMENTS_N4 = {
    "aacc": Fraction(30),  # up 4->5->6, down 6->5->4: omega5 * omega6
    "acac": Fraction(25),
    "acca": Fraction(20),
    "caac": Fraction(20),
    "caca": Fraction(16),
    "ccaa": Fraction(12),
}

HAND_WORD_ELEMENTS_N1 = {
    "aacc": Fraction(6),
    "acac": Fraction(4),
    "acca": Fraction(2),
    "caac": Fraction(2),
    "caca": Fraction(1),
    "ccaa": Fraction(0),  # annihilates the vacuum on the way
}


def test_word_elements_standard_n4():
    for word, expected in HAND_WORD_ELEMENTS_N4.items():
        assert word_matrix_element(STANDARD, 4, word) == expected


def test_word_elements_standard_n1():
    for word, expected in HAND_WORD_ELEMENTS_N1.items():
        assert word_matrix_element(STANDARD, 1, word) == expected


def test_word_element_unbalanced_or_nonreturning_is_zero():
    assert word_matrix_element(STANDARD, 3, "a") == 0
    assert word_matrix_element(STANDARD, 3, "c") == 0
    assert word_matrix_element(STANDARD, 2, "cca") == 0
    # annihilating below the bottom level kills the state
    assert word_matrix_element(STANDARD, 0, "ca") == 0


def test_word_element_simple_pairs():
    # ac applies the creator first: omega_{N+1}; ca the annihilator: omega_N
    for n in range(0, 6):
        assert word_matrix_element(STANDARD, n, "ac") == n + 1
    for n in range(1, 6):
        assert word_matrix_element(STANDARD, n, "ca") == n


def test_word_element_accepts_number_state():
    assert word_matrix_element(STANDARD, 2, "ac") == 3
    for bad in (-1, True, "2"):
        with pytest.raises(ValueError):
            word_matrix_element(STANDARD, bad, "ac")


def test_word_is_a_nonempty_string_of_a_and_c():
    for bad in ("", "abc", ["a", "c"], b"ac"):
        with pytest.raises(ValueError):
            word_matrix_element(STANDARD, 2, bad)


def test_moment_by_words_frozen_values():
    assert moment_by_words(STANDARD, 4, 4, scale=4) == Fraction(123, 64)
    assert moment_by_words(STANDARD, 4, 4) == Fraction(123, 4)
    assert moment_by_words(STANDARD, 1, 4) == Fraction(15, 4)
    # second moment is (omega_N + omega_{N+1}) / 2
    for n in range(0, 8):
        expected = (Fraction(0 if n == 0 else n) + (n + 1)) / 2
        assert moment_by_words(STANDARD, n, 2) == expected
    # q = 1/2, N = 3, canonical scale [3]_q = 7/4:
    # ((7/4 + 15/8) / 2) / (7/4) = 29/28, by hand
    assert moment_by_words(Q_HALF, 3, 2, scale=Fraction(7, 4)) == Fraction(29, 28)


def _balanced_words(m):
    """Every word of m annihilators and m creators, as a string."""
    for spots in itertools.combinations(range(2 * m), m):
        yield "".join("a" if i in spots else "c" for i in range(2 * m))


def _word_definition(seq, n, order):
    """The unscaled word sum by its definition, one word_matrix_element a word."""
    m = order // 2
    total = sum(
        (word_matrix_element(seq, n, w) for w in _balanced_words(m)), Fraction(0)
    )
    return total / 2**m


def _minimal_explicit(n, order):
    """An explicit list exactly N + order/2 long, every weight the sum reads."""
    return JacobiSequence.explicit(
        [Fraction(k + 3, k % 5 + 2) for k in range(n + order // 2)]
    )


def test_word_engine_equals_word_definition():
    # N < m includes words annihilating the vacuum, which must count 0
    seqs = [STANDARD, Q_HALF, JacobiSequence.q_deformed(Fraction(2, 3))]
    for n in range(0, 7):
        for order in range(2, 13, 2):
            for seq in seqs + [_minimal_explicit(n, order)]:
                oracle = _word_definition(seq, n, order)
                for scale in (1, Fraction(5, 3)):
                    assert moment_by_words(seq, n, order, scale=scale) == \
                        oracle / Fraction(scale) ** (order // 2)


def test_word_engine_fails_like_word_definition():
    # one weight short: the same first undefined omega as the definition
    for n in (0, 1, 3, 6):
        for order in (2, 4, 8):
            omegas = _minimal_explicit(n, order).omegas[:-1]
            if not omegas:
                # no sequence holds an empty list, so neither sum runs
                with pytest.raises(ValueError, match="^explicit list is empty$"):
                    JacobiSequence.explicit(omegas)
                continue
            short = JacobiSequence.explicit(omegas)
            with pytest.raises(ValueError) as by_words:
                moment_by_words(short, n, order)
            with pytest.raises(ValueError) as by_definition:
                _word_definition(short, n, order)
            assert str(by_words.value) == str(by_definition.value)
            assert "is undefined" in str(by_words.value)
    # the cap is checked before any weight is read
    assert WORD_ORDER_CAP == 12
    with pytest.raises(CapExceeded, match="exceeds the cap 12"):
        moment_by_words(JacobiSequence.explicit(["1"]), 2, 26)


def test_moment_trivial_orders():
    assert [moment_by_words(STANDARD, 5, k) for k in (0, 1, 7)] == [1, 0, 0]
    assert moments_by_walk(STANDARD, 5, (0, 1, 7)) == [1, 0, 0]
    # an odd order past the last even one is 0 without a longer pass
    assert moments_by_walk(STANDARD, 0, [10**20 - 1]) == [0]
    # an even order past the walk's cap is refused before the pass
    with pytest.raises(
        CapExceeded, match="^moment order 100002 exceeds the cap 100000$"
    ):
        moments_by_walk(STANDARD, 0, [2, 100001, 100002])


def test_engines_agree_exactly():
    for seq in SEQUENCES:
        for n in range(0, 5):
            for scale in (1, Fraction(5, 3)):
                by_walk = moments_by_walk(seq, n, range(0, 7), scale=scale)
                for order, value in enumerate(by_walk):
                    assert moment_by_words(seq, n, order, scale=scale) == value


def test_tridiagonal_against_float_matrix_power():
    # independent route: dense numpy matrix powers of X
    np = pytest.importorskip("numpy")
    rng_cases = [(STANDARD, 3, 6), (Q_HALF, 2, 8), (EXPLICIT, 4, 6), (STANDARD, 0, 10)]
    for seq, n, order in rng_cases:
        dim = n + order + 1
        x = np.zeros((dim, dim))
        for k in range(1, dim):
            b = math.sqrt(float(seq.omega(k)) / 2.0)
            x[k - 1, k] = x[k, k - 1] = b
        power = np.linalg.matrix_power(x, order)
        exact = float(moments_by_walk(seq, n, [order])[0])
        assert abs(power[n, n] - exact) <= 1e-9 * max(1.0, abs(exact))


def test_walk_odd_orders_vanish_beside_even_ones():
    # asked beside the next even order, which runs the pass, an odd order
    # is still 0
    for seq in (STANDARD, Q_HALF):
        for n in range(0, 6):
            assert moments_by_walk(seq, n, [0]) == [1]
            for order in (1, 3, 5, 7):
                assert moments_by_walk(seq, n, range(order + 2))[order] == 0


def test_walk_every_order_in_one_pass():
    for seq in SEQUENCES:
        for n in (0, 1, 5):
            walk = moments_by_walk(seq, n, range(15))
            assert len(walk) == 15
            # a pass that stops at order j, or at j + 1 for an odd j
            assert walk == [
                moments_by_walk(seq, n, range(j + 1 + j % 2))[j] for j in range(15)
            ]
    for n in (0, 1, 7, 300):
        walk = moments_by_walk(STANDARD, n, range(61))
        assert walk == [_standard_closed_form(n, j) for j in range(61)]


def test_walk_values_pinned():
    # SHA-256 of the values' repr: orders to 161 on q, explicit and standard
    # sequences, past what the word engine and the closed form check
    seqs = [JacobiSequence.q_deformed(q) for q in ("0", "1/3", "2/3", "1")]
    seqs += [
        JacobiSequence.explicit([Fraction(2 * k + 1, k % 3 + 2) for k in range(140)]),
        STANDARD,
    ]
    orders = [0, 1, 2, 5, 12, 33, 64, 97, 120, 160, 159, 4, 81, 161]
    values = []
    for i, seq in enumerate(seqs):
        for j, n in enumerate((0, 1, 7, 60)):
            scale = ("1", "7/5", "1e-5")[(i + j) % 3]
            top = 160 if j % 2 else 80
            asked = [k for k in orders if k <= top + 1]
            values.append(moments_by_walk(seq, n, asked, scale))
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == "95585c070a55b36f3640ffd49515760f9db90dc5e0aed1a1920cf183b580ff5a"


def test_walk_reads_only_the_half_width_window():
    # a walk of length <= M from level N reads omega_1 .. omega_(N + M/2)
    for n, top in ((0, 4), (3, 8), (2, 7)):
        weights = [Fraction(k + 2, k % 4 + 1) for k in range(n + top // 2)]
        seq = JacobiSequence.explicit(weights)
        even = top - top % 2
        walk = moments_by_walk(seq, n, range(top + 1))
        assert walk[even] == moment_by_words(seq, n, even)
        with pytest.raises(ValueError, match="undefined"):
            moments_by_walk(JacobiSequence.explicit(weights[:-1]), n, range(top + 1))
    # odd orders past the last even one read no further weights
    short = JacobiSequence.explicit(["1", "3/2"])
    assert moments_by_walk(short, 2, [3, 1]) == [0, 0] == [
        moment_by_words(short, 2, 3),
        moment_by_words(short, 2, 1),
    ]


def test_moments_by_walk_matches_single_orders():
    orders = [8, 0, 3, 2, 8]
    for seq in SEQUENCES:
        for scale in (1, Fraction(5, 3)):
            assert moments_by_walk(seq, 4, orders, scale) == [
                moments_by_walk(seq, 4, [k], scale)[0] for k in orders
            ]


@st.composite
def _walk_cases(draw, max_top=12):
    """A level N, a top order M <= max_top, and a rational q or an explicit
    list exactly N + M/2 long, the fewest weights the word engine reads
    (one when that is none, as a sequence holds at least one)."""
    n = draw(st.integers(0, 6))
    top = draw(st.integers(0, max_top))
    size = max(n + top // 2, 1)
    weight = st.builds(Fraction, st.integers(1, 30), st.integers(1, 7))
    explicit = st.lists(weight, min_size=size, max_size=size)
    q = st.fractions(0, 1, max_denominator=9)
    seq = draw(
        st.one_of(
            explicit.map(JacobiSequence.explicit), q.map(JacobiSequence.q_deformed)
        )
    )
    return seq, n, top


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_walk_cases())
def test_walk_equals_words_property(case):
    seq, n, top = case
    walk = moments_by_walk(seq, n, range(top + 1))
    for order in range(top + 1):
        assert walk[order] == moment_by_words(seq, n, order)
        if order % 2:
            assert walk[order] == 0


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    _walk_cases(max_top=10),
    st.builds(Fraction, st.integers(1, 30), st.integers(1, 7)),
)
def test_walk_moments_are_moments_property(case, scale):
    seq, n, top = case
    assert validate_moments(moments_by_walk(seq, n, range(top + 1), scale=scale))


@st.composite
def _short_cases(draw):
    """A level N, an order, a scale and an explicit list of at least one
    weight that may stop short of the N + order/2 weights the order needs."""
    n = draw(st.integers(0, 6))
    order = draw(st.integers(-1, 12))
    size = draw(st.integers(1, n + max(order, 0) // 2 + 1))
    weight = st.builds(Fraction, st.integers(1, 30), st.integers(1, 7))
    omegas = draw(st.lists(weight, min_size=size, max_size=size))
    scale = draw(st.builds(Fraction, st.integers(-1, 30), st.integers(1, 7)))
    return JacobiSequence.explicit(omegas), n, order, scale


def _outcome(engine, *args):
    try:
        return engine(*args)
    except Exception as exc:
        return type(exc)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_short_cases())
def test_engines_agree_or_fail_alike_property(case):
    seq, n, order, scale = case
    by_words = _outcome(moment_by_words, seq, n, order, scale)
    by_walk = _outcome(lambda *a: moments_by_walk(*a)[0], seq, n, [order], scale)
    assert by_words == by_walk


def test_moment_input_validation():
    with pytest.raises(ValueError):
        moment_by_words(STANDARD, 2, -1)
    with pytest.raises(ValueError):
        moments_by_walk(STANDARD, 2, [-2])
    with pytest.raises(ValueError):
        moment_by_words(STANDARD, 2, 2, scale=0)
    with pytest.raises(ValueError):
        moments_by_walk(STANDARD, 2, [2], scale=Fraction(-1, 2))
    with pytest.raises(CapExceeded):
        moment_by_words(STANDARD, 2, 26)
    # the scale is checked first, then the orders, then the state
    with pytest.raises(ValueError, match="^scale"):
        moments_by_walk(STANDARD, -1, [-2], scale=0)
    with pytest.raises(ValueError, match="^moment order"):
        moments_by_walk(STANDARD, -1, [-2])


def test_vacuum_moments_match_gaussian():
    assert moments_by_walk(STANDARD, 0, range(0, 17, 2)) == [
        vacuum_gaussian_moment(2 * m) for m in range(0, 9)
    ]


def test_moments_by_walk_reads_its_orders_once():
    orders = (k for k in [2, 4])
    assert moments_by_walk(STANDARD, 2, orders) == [Fraction(5, 2), Fraction(39, 4)]


def test_moments_by_walk_over_an_order_range():
    values = moments_by_walk(STANDARD, 4, range(7), scale=4)
    assert len(values) == 7
    assert values[0] == 1
    assert values[4] == Fraction(123, 64)
    assert values[3] == 0
    with pytest.raises(ValueError):
        moments_by_walk(STANDARD, 4, range(-1, 7))


def test_envelope_frozen_values():
    assert moment_envelope(4, 4) == (Fraction(9, 8), Fraction(45, 16))
    assert moment_envelope(1, 2) == (Fraction(1), Fraction(2))
    # once m exceeds N the falling product hits zero
    assert moment_envelope(1, 4)[0] == 0
    assert moment_envelope(10, 0) == (1, 1)


def test_envelope_contains_canonical_moments():
    orders = (2, 4, 6, 8)
    for n in range(1, 13):
        for order, value in zip(orders, moments_by_walk(STANDARD, n, orders, scale=n)):
            lower, upper = moment_envelope(n, order)
            assert lower <= value <= upper


def test_envelope_tightens_like_one_over_n():
    target = arcsine_moment(4)
    widths = []
    for n in (10, 100, 1000):
        lower, upper = moment_envelope(n, 4)
        assert lower <= target <= upper
        widths.append(upper - lower)
    assert widths[0] > 10 * widths[1] > 100 * widths[2] / 10


def test_envelope_validation():
    with pytest.raises(ValueError):
        moment_envelope(0, 2)
    with pytest.raises(ValueError):
        moment_envelope(3, 3)
    with pytest.raises(ValueError):
        moment_envelope(3, -2)


def test_convergence_table_rows_sorted_and_exact():
    rows = convergence_table(STANDARD, [10, 1], [4, 2], scale="canonical")
    assert [(r.state, r.order) for r in rows] == [(1, 2), (1, 4), (10, 2), (10, 4)]
    first = rows[0]
    assert first.scaled_moment == Fraction(3, 2)
    assert first.target == 1
    assert first.abs_diff == Fraction(1, 2)
    assert (first.env_lo, first.env_hi) == (Fraction(1), Fraction(2))
    # N = 10, order 2: (10 + 11)/2 / 10 = 21/20
    assert rows[2].scaled_moment == Fraction(21, 20)


def test_convergence_table_envelope_only_for_canonical_standard():
    rows = convergence_table(Q_HALF, [3], [2], scale="canonical")
    assert rows[0].env_lo is None and rows[0].env_hi is None
    rows = convergence_table(STANDARD, [3], [2], scale=Fraction(2))
    assert rows[0].env_lo is None
    # a fixed scale that happens to equal the canonical one is recognized
    rows = convergence_table(STANDARD, [3], [2], scale=3)
    assert rows[0].env_lo is not None


def test_convergence_table_validation():
    with pytest.raises(ValueError):
        convergence_table(STANDARD, [0], [2], scale="canonical")
    with pytest.raises(ValueError):
        convergence_table(STANDARD, [2], [-2], scale=1)
    with pytest.raises(ValueError):
        convergence_table(STANDARD, [2], [2], scale=0)
    # a NumPy integer is not an int, as everywhere else
    np = pytest.importorskip("numpy")
    with pytest.raises(ValueError, match="number state index must be an int"):
        convergence_table(STANDARD, [np.int64(2)], [2])

