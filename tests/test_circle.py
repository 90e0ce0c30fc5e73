"""Circle-level predicates against brute-force oracles.

The oracles here only use pointwise_oracle's cyclic sign and open-arc
membership, computed from Fraction values, never the library's point order
or its rank kernels, so agreement is meaningful.
"""

import operator
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circlink import (
    INF,
    CircleSet,
    NotDisjointError,
    complementary_intervals,
    link_number,
    link_number_counts,
    linked,
    point,
    separates,
)
from pointwise_oracle import arcs, cyclic_sign, in_open_arc, value

# ── oracles ──────────────────────────────────────────────────────────────

def oracle_linked(a_set, b_set):
    """Quadruple loop: some pair of A points splits some pair of B points."""
    for a1, a2 in combinations(a_set.points, 2):
        for b1, b2 in combinations(b_set.points, 2):
            if len({a1, a2, b1, b2}) < 4:
                continue
            s1 = cyclic_sign(a1, b1, a2) == 1
            s2 = cyclic_sign(a1, b2, a2) == 1
            if s1 != s2:
                return True
    return False


def oracle_link_number(a_set, b_set):
    """Count complementary intervals of A that meet B, via interval membership."""
    n = 0
    for a, b in arcs(a_set):
        if any(in_open_arc(q, a, b) for q in b_set.points):
            n += 1
    return n


def oracle_separates(barrier, first, second):
    homes_first = [t for t, (a, b) in enumerate(arcs(barrier))
                   if all(in_open_arc(p, a, b) for p in first.points)]
    homes_second = [t for t, (a, b) in enumerate(arcs(barrier))
                    if all(in_open_arc(p, a, b) for p in second.points)]
    return bool(homes_first) and bool(homes_second) and homes_first != homes_second


# ── strategies ───────────────────────────────────────────────────────────

finite_points = st.fractions(min_value=-8, max_value=8, max_denominator=10).map(point)
points = st.one_of(finite_points, st.just(INF))
sets = st.lists(points, min_size=1, max_size=8, unique=True).map(CircleSet)
small_sets = st.lists(points, min_size=1, max_size=5, unique=True).map(CircleSet)


def _disjoint(*xs):
    for a, b in combinations(xs, 2):
        if a.intersection(b):
            return False
    return True


# ── the oracle's cyclic order ────────────────────────────────────────────
# Every oracle below rests on these two functions, so they are pinned to the
# circle's conventions here.

def test_cyclic_order_examples():
    assert cyclic_sign(point(0), point(1), point(2)) == 1
    assert cyclic_sign(point(0), point(1), INF) == 1
    assert cyclic_sign(point(0), INF, point(1)) == -1
    assert cyclic_sign(point(3), point(3), point(5)) == 0


def test_cyclic_order_wraps_through_inf():
    # compactification: finite values in order, INF between largest and smallest
    assert cyclic_sign(point(3), INF, point(0)) == 1
    assert cyclic_sign(INF, point(-5), point(5)) == 1


@given(a=points, b=points, c=points)
def test_cyclic_order_rotation_invariant(a, b, c):
    assert cyclic_sign(a, b, c) == cyclic_sign(b, c, a)


@given(a=points, b=points, c=points)
def test_cyclic_order_swap_flips(a, b, c):
    assert cyclic_sign(a, c, b) == -cyclic_sign(a, b, c)


def test_in_interval_examples():
    assert in_open_arc(point(Fraction(1, 2)), point(0), point(1))
    assert not in_open_arc(point(0), point(0), point(0))
    assert in_open_arc(point(1), point(0), point(0))
    assert in_open_arc(INF, point(3), point(0))


def test_degenerate_interval_conventions():
    # the open arc from a to a, which a singleton's complement is, is the
    # circle without a
    assert not in_open_arc(point(2), point(2), point(2))
    assert in_open_arc(point(-7), point(2), point(2))
    assert in_open_arc(INF, point(2), point(2))


# ── complementary intervals ──────────────────────────────────────────────

def test_complementary_intervals_examples():
    p = {k: point(k) for k in range(5)}
    assert complementary_intervals(CircleSet([0])) == [(p[0], p[0])]
    assert complementary_intervals(CircleSet([1, 0])) == [(p[0], p[1]), (p[1], p[0])]
    assert complementary_intervals(CircleSet([0, 2, 4])) == [
        (p[0], p[2]), (p[2], p[4]), (p[4], p[0])]
    assert complementary_intervals(CircleSet([INF, 3])) == [(p[3], INF), (INF, p[3])]


@given(a_set=sets, x=points)
def test_complementary_intervals_partition(a_set, x):
    gaps = complementary_intervals(a_set)
    assert gaps == arcs(a_set)
    hits = sum(1 for a, b in gaps if in_open_arc(x, a, b))
    if x in a_set:
        assert hits == 0
    else:
        assert hits == 1


# ── linking ──────────────────────────────────────────────────────────────

def test_linked_examples():
    assert linked(CircleSet([0, 1]), CircleSet([Fraction(1, 2), 3]))
    assert not linked(CircleSet([0]), CircleSet([1]))
    assert not linked(CircleSet([0, 3]), CircleSet([4, 7]))


def test_link_number_examples():
    assert link_number(CircleSet([0, 1]), CircleSet([Fraction(1, 2), 3])) == 2
    assert link_number(CircleSet([0]), CircleSet([1])) == 1
    assert link_number(CircleSet([0, 2, 4]), CircleSet([1, 3, 5])) == 3


def test_link_number_rejects_shared_points():
    with pytest.raises(NotDisjointError):
        link_number(CircleSet([0, 1]), CircleSet([1, 5]))


@given(a_set=sets, b_set=sets)
def test_linked_matches_oracle_and_is_symmetric(a_set, b_set):
    got = linked(a_set, b_set)
    assert got == oracle_linked(a_set, b_set)
    assert got == linked(b_set, a_set)


@given(a_set=sets, b_set=sets)
def test_link_number_matches_oracle(a_set, b_set):
    if a_set.intersection(b_set):
        with pytest.raises(NotDisjointError):
            link_number(a_set, b_set)
        return
    n = link_number(a_set, b_set)
    assert n == oracle_link_number(a_set, b_set)
    assert n == link_number(b_set, a_set)
    assert n >= 1
    assert (n >= 2) == linked(a_set, b_set)


@given(a_set=sets, b_set=sets)
def test_four_counts_agree(a_set, b_set):
    if a_set.intersection(b_set):
        return
    c1, c2, c3, c4 = link_number_counts(a_set, b_set)
    assert c1 == c2 == c3 == c4


# ── separation ───────────────────────────────────────────────────────────

def test_separates_examples():
    assert separates(CircleSet([3, 6]), CircleSet([2, 7]), CircleSet([4, 5]))
    assert not separates(CircleSet([0, 1]), CircleSet([2, 7]), CircleSet([4, 5]))
    assert not separates(CircleSet([0]), CircleSet([2, 7]), CircleSet([4, 5]))


def test_separates_rejects_overlap():
    with pytest.raises(NotDisjointError):
        separates(CircleSet([0, 1]), CircleSet([1, 2]), CircleSet([4, 5]))


@given(barrier=small_sets, first=small_sets, second=small_sets)
def test_separates_matches_oracle(barrier, first, second):
    if not _disjoint(barrier, first, second):
        with pytest.raises(NotDisjointError):
            separates(barrier, first, second)
        return
    assert separates(barrier, first, second) == oracle_separates(barrier, first, second)


@given(barrier=small_sets, first=small_sets, second=small_sets)
def test_separation_is_one_sided(barrier, first, second):
    # when the barrier splits first from second, first cannot also split
    # barrier from second
    if not _disjoint(barrier, first, second):
        return
    if separates(barrier, first, second):
        assert not separates(first, barrier, second)


# ── gap_index bookkeeping used throughout the library ────────────────────

@given(a_set=sets, x=points)
def test_gap_index_agrees_with_intervals(a_set, x):
    gaps = complementary_intervals(a_set)
    if x in a_set:
        with pytest.raises(ValueError):
            a_set.gap_index(x)
    else:
        t = a_set.gap_index(x)
        assert in_open_arc(x, *gaps[t])


@pytest.mark.parametrize("x", [3, 4, 0, -1])
def test_gap_index_and_interval_coerce_like_membership(x):
    # an int, its string, its Fraction and its CirclePoint are one point to
    # CircleSet.__contains__, and so to gap_index
    spellings = [x, str(x), Fraction(x), point(x)]
    a_set = CircleSet([0, 2, 4])

    def gap(y):
        try:
            return a_set.gap_index(y)
        except ValueError:
            return "member"

    assert len({y in a_set for y in spellings}) == 1
    assert len({gap(y) for y in spellings}) == 1
    half = [Fraction(7, 2), "7/2", point("7/2")]
    assert {a_set.gap_index(y) for y in half} == {1}


def other_spellings(p):
    """p as each operand type that point() coerces, but a CirclePoint."""
    if p.is_infinite:
        return ["inf"]
    return [str(p), p.frac] + ([p.num] if p.den == 1 else [])


@given(a=points, b=points, data=st.data())
def test_order_matches_fractions_over_mixed_operands(a, b, data):
    # between two CirclePoints the order is the Fraction order with INF
    # greatest; a CirclePoint and any other spelling of a point, on either
    # side, are unordered: a TypeError, never a RecursionError
    ka, kb = value(a), value(b)
    assert ((a < b), (a <= b), (a > b), (a >= b)) == (ka < kb, ka <= kb, ka > kb, ka >= kb)
    y = data.draw(st.sampled_from(other_spellings(b)))
    for left, right in ((a, y), (y, a)):
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                op(left, right)


# any size, and denominators that are multiples of the hash modulus, which
# have no inverse modulo it
wide_fractions = st.builds(
    Fraction, st.integers(),
    st.integers(min_value=1) | st.integers(min_value=1, max_value=9).map(
        lambda k: k * sys.hash_info.modulus))


@given(f=wide_fractions, g=wide_fractions)
def test_equality_and_hash_match_fractions(f, g):
    p, q = point(f), point(g)
    assert hash(p) == hash(f)
    assert {p: "p"}.get(f) == "p" and {f: "f"}.get(p) == "f"
    for other in [q, g] + ([g.numerator] if g.denominator == 1 else []):
        assert (p == other, other == p, p != other, other != p) == (f == g, f == g,
                                                                    f != g, f != g)
    # a string is not coerced, and INF equals no number
    assert p != str(f) and str(f) != p
    assert INF != f and f != INF and INF != g.numerator and g.numerator != INF
    assert INF == point("inf") and INF != point(1)


def test_a_point_equals_its_int_as_it_orders():
    assert point(2) == 2 and 2 == point(2) and point(2) <= point("4/2") <= point(2)
    assert point(-1) == -1 and hash(point(-1)) == hash(-1) == -2
    assert {point(2), 2, Fraction(2), point("4/2")} == {2}


def test_point_parsing_round_trip():
    for text in ["0", "7", "-3", "1/2", "-13/17", "inf"]:
        assert str(point(text)) == text
    assert point("4/6") == point("2/3")
    assert point(Fraction(-10, 5)) == point(-2)
