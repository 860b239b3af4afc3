"""Exact position moments by the combinatorial route: balanced ladder words.

X^(2m) expands into 2^(-m) times the sum of all length-2m ladder words,
and ``moment_by_words`` sums the balanced ones word by word.  It groups
nothing by level, as ``moments.moments_by_walk`` does, and must agree
with it identically: this module is the independent cross-check.  Only
``selfcheck``, ``moments --engine words`` and library callers load it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .fock import JacobiSequence, _as_positive, _index, _quoted, state_index


def word_matrix_element(seq: JacobiSequence, state: int, word: str) -> Fraction:
    """Exact matrix element of a ladder word in the N-th number state.

    The word is a non-empty string of ``a`` (annihilate) and ``c``
    (create), such as ``"acca"``; anything else raises ValueError.  It
    acts rightmost letter first.  Annihilating the bottom level kills
    the vector, and a walk that does not return to its starting level is
    orthogonal to it; both give 0.  Otherwise every edge of the level
    graph is traversed an even number of times, so the product of
    sqrt(omega) weights collapses to a rational: the product of
    omega_k^(t_k / 2) over edge traversal counts t_k.
    """
    if not isinstance(word, str) or not word or word.strip("ac"):
        raise ValueError(
            "a ladder word is a non-empty string of 'a' and 'c', "
            f"got {_quoted(word)}"
        )
    n = state_index(state)
    level = n
    traversals: dict[int, int] = {}
    for letter in reversed(word):
        if letter == "a":
            if level == 0:
                return Fraction(0)
            traversals[level] = traversals.get(level, 0) + 1
            level -= 1
        else:
            traversals[level + 1] = traversals.get(level + 1, 0) + 1
            level += 1
    if level != n:
        return Fraction(0)
    value = Fraction(1)
    for k, count in traversals.items():
        if count % 2:
            raise AssertionError("returning walk crossed an edge an odd number of times")
        value *= seq.omega(k) ** (count // 2)
    return value


# The word sum's half-length m is capped at 12, i.e. at C(24, 12) =
# 2704156 leaves of its depth-first walk, to guard against combinatorial
# blowup.
WORD_ORDER_CAP = 12


def moment_by_words(
    seq: JacobiSequence,
    state: int,
    order: int,
    scale: Union[int, str, Fraction] = 1,
) -> Fraction:
    """Order-n moment of X / sqrt(s) by summation over balanced words.

    X^(2m) expands into 2^(-m) times the sum of all length-2m ladder
    words; only the C(2m, m) balanced ones can contribute.  Odd orders
    have no balanced words and vanish identically.

    The words are enumerated depth first, rightmost letter first, over
    integer weights D_k = d omega_k (d their common denominator): a down
    step from level k multiplies the prefix by D_k, one from level 0
    kills the word.  Each word is its own leaf and nothing is grouped by
    level, so the sum stays independent of ``moments_by_walk``.
    """
    n = state_index(state)
    s = _as_positive(scale, "scale")
    _index(order, "moment order")
    if order == 0:
        return Fraction(1)
    if order % 2:
        return Fraction(0)
    m = _index(order // 2, "balanced-word half-length", cap=WORD_ORDER_CAP)
    # omega_(N+1) .. omega_(N+m) first, as the first word a^m c^m reads them,
    # so a short explicit list fails on the same omega as word_matrix_element
    levels = (*range(n + 1, n + m + 1), *range(max(1, n - m + 1), n + 1))
    omegas = {k: seq.omega(k) for k in levels}
    d = math.lcm(*(w.denominator for w in omegas.values()))
    # down[i] weighs a down step from level N - m + i, and is 0 at level 0
    down = [0] * (2 * m + 1)
    for k, w in omegas.items():
        down[k - n + m] = w.numerator * (d // w.denominator)
    # descent[r] weighs the one word left once the up letters run out,
    # straight down from level N + r to N
    descent = [1]
    for r in range(1, m + 1):
        descent.append(descent[-1] * down[m + r])

    def words(i: int, ups: int, downs: int, prefix: int) -> int:
        # the words after a prefix at level N - m + i with weight `prefix`
        # and `ups` creators, `downs` annihilators left to read
        if not ups:
            return prefix * descent[downs]
        if not downs:
            return prefix
        total = words(i + 1, ups - 1, downs, prefix)
        w = down[i]
        if w:  # 0: annihilating level 0 kills every word in this branch
            total += words(i - 1, ups, downs - 1, prefix * w)
        return total

    return Fraction(words(m, m, m, 1), d**m) / (2 * s) ** m
