"""Circle-level predicates against brute-force oracles.

The oracles here only use cyclic_order and interval membership, never the
prefix-sum or gap-index shortcuts used by the library, so agreement is
meaningful.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from circlink import (
    INF,
    CircleSet,
    NotDisjointError,
    OrientedInterval,
    Orientation,
    complementary_intervals,
    cyclic_order,
    in_interval,
    link_number,
    link_number_counts,
    linked,
    open_interval,
    point,
    separates,
)

# ── oracles ──────────────────────────────────────────────────────────────

def oracle_linked(a_set, b_set):
    """Quadruple loop: some pair of A points splits some pair of B points."""
    for a1, a2 in combinations(a_set.points, 2):
        for b1, b2 in combinations(b_set.points, 2):
            if len({a1, a2, b1, b2}) < 4:
                continue
            s1 = cyclic_order(a1, b1, a2) is Orientation.POSITIVE
            s2 = cyclic_order(a1, b2, a2) is Orientation.POSITIVE
            if s1 != s2:
                return True
    return False


def oracle_link_number(a_set, b_set):
    """Count complementary intervals of A that meet B, via interval membership."""
    n = 0
    for gap in complementary_intervals(a_set):
        if any(in_interval(q, gap) for q in b_set.points):
            n += 1
    return n


def oracle_separates(barrier, first, second):
    homes_first = [t for t, gap in enumerate(complementary_intervals(barrier))
                   if all(in_interval(p, gap) for p in first.points)]
    homes_second = [t for t, gap in enumerate(complementary_intervals(barrier))
                    if all(in_interval(p, gap) for p in second.points)]
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


# ── cyclic order and intervals ───────────────────────────────────────────

def test_cyclic_order_examples():
    assert cyclic_order(point(0), point(1), point(2)) is Orientation.POSITIVE
    assert cyclic_order(point(0), point(1), INF) is Orientation.POSITIVE
    assert cyclic_order(point(0), INF, point(1)) is Orientation.NEGATIVE
    assert cyclic_order(point(3), point(3), point(5)) is Orientation.DEGENERATE


def test_cyclic_order_wraps_through_inf():
    # compactification: finite values in order, INF between largest and smallest
    assert cyclic_order(point(3), INF, point(0)) is Orientation.POSITIVE
    assert cyclic_order(INF, point(-5), point(5)) is Orientation.POSITIVE


@given(a=points, b=points, c=points)
def test_cyclic_order_rotation_invariant(a, b, c):
    assert cyclic_order(a, b, c) is cyclic_order(b, c, a)


@given(a=points, b=points, c=points)
def test_cyclic_order_swap_flips(a, b, c):
    r = cyclic_order(a, b, c)
    if r is Orientation.DEGENERATE:
        assert cyclic_order(a, c, b) is Orientation.DEGENERATE
    else:
        assert cyclic_order(a, c, b) is not r


def test_in_interval_examples():
    assert in_interval(point(Fraction(1, 2)), open_interval(0, 1))
    assert not in_interval(point(0), open_interval(0, 0))
    assert in_interval(point(1), open_interval(0, 0))
    assert in_interval(INF, open_interval(3, 0))


def test_degenerate_interval_conventions():
    from circlink import OrientedInterval
    # [a, a] with either end closed is the whole circle
    full = OrientedInterval(point(2), point(2), closed_a=True)
    assert in_interval(point(2), full) and in_interval(INF, full)
    punctured = open_interval(2, 2)
    assert not in_interval(point(2), punctured)
    assert in_interval(point(-7), punctured)


def test_complementary_intervals_examples():
    assert complementary_intervals(CircleSet([0])) == [open_interval(0, 0)]
    assert complementary_intervals(CircleSet([0, 1])) == [open_interval(0, 1), open_interval(1, 0)]
    assert complementary_intervals(CircleSet([0, 2, 4])) == [
        open_interval(0, 2), open_interval(2, 4), open_interval(4, 0)]


@given(a_set=sets, x=points)
def test_complementary_intervals_partition(a_set, x):
    gaps = complementary_intervals(a_set)
    assert len(gaps) == len(a_set)
    hits = sum(1 for gap in gaps if in_interval(x, gap))
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
        assert in_interval(x, gaps[t])


@pytest.mark.parametrize("x", [3, 4, 0, -1])
def test_gap_index_and_interval_coerce_like_membership(x):
    # an int, its string, its Fraction and its CirclePoint are one point to
    # CircleSet.__contains__, and so to gap_index and interval membership
    spellings = [x, str(x), Fraction(x), point(x)]
    a_set = CircleSet([0, 2, 4])

    def gap(y):
        try:
            return a_set.gap_index(y)
        except ValueError:
            return "member"

    assert len({y in a_set for y in spellings}) == 1
    assert len({gap(y) for y in spellings}) == 1
    closed = OrientedInterval(point(0), point(4), closed_a=True)
    for interval in (open_interval(0, 5), open_interval(4, 4), closed):
        assert len({y in interval for y in spellings}) == 1
    half = [Fraction(7, 2), "7/2", point("7/2")]
    assert {a_set.gap_index(y) for y in half} == {1}
    assert {y in open_interval(0, 5) for y in half} == {True}


def spellings(p):
    """p as each operand type that point() coerces."""
    if p.is_infinite:
        return [p, "inf"]
    return [p, str(p), p.frac] + ([p.num] if p.den == 1 else [])


@given(a=points, b=points, point_on_left=st.booleans(), data=st.data())
def test_order_matches_fractions_over_mixed_operands(a, b, point_on_left, data):
    # one side is a CirclePoint, the other any spelling of a point; the
    # order is the Fraction order with INF greatest
    if point_on_left:
        x, y = a, data.draw(st.sampled_from(spellings(b)))
    else:
        x, y = data.draw(st.sampled_from(spellings(a))), b

    def key(p):
        return (1, 0) if p.is_infinite else (0, p.frac)

    ka, kb = key(a), key(b)
    assert ((x < y), (x <= y), (x > y), (x >= y)) == (ka < kb, ka <= kb, ka > kb, ka >= kb)


def test_order_with_an_int_neither_recurses_nor_fails():
    assert point(2) > 0 and 0 < point(2) and not point(2) < 0 and point(2) <= 3
    assert 2 in OrientedInterval(0, 4) and "5" not in OrientedInterval("0", 4)
    with pytest.raises(TypeError):
        point(2) < 2.5


def test_point_parsing_round_trip():
    for text in ["0", "7", "-3", "1/2", "-13/17", "inf"]:
        assert str(point(text)) == text
    assert point("4/6") == point("2/3")
    assert point(Fraction(-10, 5)) == point(-2)
