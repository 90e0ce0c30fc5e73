"""The point-by-point predicates that the rank-space kernels replaced.

The library decides every circle predicate on rank tuples (circle.rank_*).
This module keeps the earlier implementation, which compares CirclePoint
objects directly, together with the all-pairs validation and classification
loops built on it. The tests run both and require identical answers, so the
rank kernels never drift from the definitions they stand for.

cyclic_sign, in_open_arc and arcs define the cyclic order from scratch, on
Fraction values with INF greatest, and never compare two CirclePoints.
"""

from bisect import bisect_left
from itertools import accumulate

from circlink import CircleSet, EspecialDisc, NotDisjointError
from circlink.family import Violation


def value(p) -> tuple:
    """The linear order of the circle: a point's Fraction value, INF last."""
    return (1, 0) if p.is_infinite else (0, p.frac)


def cyclic_sign(a, b, c) -> int:
    """1 when the positive direction from a meets b strictly before c, -1
    when it meets c first, 0 when two of the points coincide."""
    x, y, z = value(a), value(b), value(c)
    if x == y or y == z or x == z:
        return 0
    # the rotations of the increasing triple are the positive ones
    return 1 if x < y < z or y < z < x or z < x < y else -1


def in_open_arc(x, a, b) -> bool:
    """x lies on the open arc from a to b; the arc from a to a is the circle
    without a."""
    if value(a) == value(b):
        return value(x) != value(a)
    return cyclic_sign(a, x, b) == 1


def arcs(a_set: CircleSet) -> list:
    """The open arcs between cyclically consecutive points of a set, as
    (start, end) pairs from the least finite point on."""
    pts = sorted(a_set.points, key=value)
    return list(zip(pts, pts[1:] + pts[:1]))


def gap_index(a_set: CircleSet, x) -> int:
    pts = a_set.points
    m = len(pts)
    i = bisect_left(pts, x)
    if i < m and pts[i] == x:
        raise ValueError("%s is a member, not in any complementary interval" % x)
    if i == 0 or i == m:
        return m - 1
    return i - 1


def rank_table(groups) -> tuple:
    """Ranks from one sort in the CirclePoint order itself."""
    points = tuple(sorted({p for g in groups for p in g}))
    rank = {p: r for r, p in enumerate(points)}
    return points, tuple(tuple(rank[p] for p in g) for g in groups)


def _merge_flags(a_set: CircleSet, b_set: CircleSet):
    in_a = set(a_set.points)
    in_b = set(b_set.points)
    merged = sorted(in_a | in_b)
    return merged, [p in in_a for p in merged], [p in in_b for p in merged]


def linked(a_set: CircleSet, b_set: CircleSet) -> bool:
    merged, flag_a, flag_b = _merge_flags(a_set, b_set)
    m = len(merged)
    if m < 4:
        return False
    pre_b = list(accumulate((1 if f else 0 for f in flag_b), initial=0))
    total_b = pre_b[m]
    if total_b < 2:
        return False
    a_positions = [t for t in range(m) if flag_a[t]]
    if len(a_positions) < 2:
        return False
    for u in range(len(a_positions) - 1):
        i = a_positions[u]
        for v in range(u + 1, len(a_positions)):
            k = a_positions[v]
            inside = pre_b[k] - pre_b[i + 1]
            outside = pre_b[i] + (total_b - pre_b[k + 1])
            if inside > 0 and outside > 0:
                return True
    return False


def link_number_counts(a_set: CircleSet, b_set: CircleSet) -> tuple:
    shared = a_set.intersection(b_set)
    if shared:
        raise NotDisjointError(shared)
    c1 = len({gap_index(a_set, q) for q in b_set.points})
    c2 = len({gap_index(b_set, p) for p in a_set.points})
    merged, flag_a, _ = _merge_flags(a_set, b_set)
    m = len(merged)
    c3 = 0
    c4 = 0
    for t in range(m):
        first_in_a = flag_a[t]
        second_in_a = flag_a[(t + 1) % m]
        if first_in_a and not second_in_a:
            c3 += 1
        elif second_in_a and not first_in_a:
            c4 += 1
    return c1, c2, c3, c4


def separates(barrier: CircleSet, first: CircleSet, second: CircleSet) -> bool:
    for x, y in ((barrier, first), (barrier, second), (first, second)):
        shared = x.intersection(y)
        if shared:
            raise NotDisjointError(shared)
    gaps_first = {gap_index(barrier, p) for p in first.points}
    if len(gaps_first) != 1:
        return False
    gaps_second = {gap_index(barrier, p) for p in second.points}
    if len(gaps_second) != 1:
        return False
    return gaps_first != gaps_second


def violations(plus, minus) -> list:
    """Every admissibility violation, found by the all-pairs loops."""
    out = []
    for name, sets in (("plus", plus), ("minus", minus)):
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                shared = sets[i].intersection(sets[j])
                if shared:
                    out.append(Violation("WithinFamilyOverlap", name, i, j, shared))
                if linked(sets[i], sets[j]):
                    out.append(Violation("WithinFamilyLinked", name, i, j))
    for i, p in enumerate(plus):
        for j, m in enumerate(minus):
            shared = p.intersection(m)
            if len(shared) > 1:
                out.append(Violation("CrossIntersectionTooBig", "cross", i, j, shared))
    return out


def especial_disc(fp) -> EspecialDisc:
    """Every cross pair classified by the point-by-point predicates."""
    interior = []
    boundary = []
    for i, p in enumerate(fp.plus):
        for j, m in enumerate(fp.minus):
            shared = p.intersection(m)
            if shared:
                boundary.append((i, j, shared[0]))
                continue
            c1, c2, c3, c4 = link_number_counts(p, m)
            assert c1 == c2 == c3 == c4
            if c1 != 1:
                interior.append((i, j, c1))
    return EspecialDisc(len(fp.plus), len(fp.minus), interior, boundary)
