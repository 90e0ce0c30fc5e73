"""Exact model of the oriented circle.

Parameters are extended rationals: the one-point compactification of the
rationals, with a single point INF sitting between the largest and the
smallest finite parameter. The positive direction runs through increasing
finite parameters, through INF, and wraps around. All predicates are exact;
floats appear only as the sort key of rank_table, whose ties are ordered
exactly. Every number on the wire, a circle parameter or a wire rational,
is read by one ASCII pattern into an integer pair, with no Fraction.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from functools import cmp_to_key
from math import gcd, inf

from .errors import Immutable, MalformedInputError, NotDisjointError

__all__ = [
    "CirclePoint",
    "INF",
    "point",
    "CircleSet",
    "complementary_intervals",
    "linked",
    "link_number",
    "separates",
    "rank_table",
    "rank_gap",
    "rank_linked",
    "rank_link_number",
    "rank_separates",
]


# The one spelling of a number on the wire, after str.strip(): an optional
# sign and ASCII digits forming an integer, p/q or a decimal (".5" and "1."
# too). Fraction reads each alike on every Python version; a circle
# parameter is never a decimal.
_NUMBER_RE = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)(?:/([0-9]+)|\.([0-9]*))?")

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


class CirclePoint(Immutable):
    """One circle parameter: a reduced rational num/den, or INF when den == 0.

    Instances are immutable and hashable. Points order against
    points only, linearly with INF above every finite value. A finite point
    equals the int or Fraction of its value and hashes as it does; INF equals
    no number.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int = 1):
        if den == 0:
            num = 1
        else:
            if den < 0:
                num, den = -num, -den
            g = gcd(num, den)
            if g > 1:
                num //= g
                den //= g
        _set_num(self, num)
        _set_den(self, den)

    def __reduce__(self):
        return (CirclePoint, (self.num, self.den))

    @property
    def is_infinite(self) -> bool:
        return self.den == 0

    @property
    def frac(self) -> Fraction:
        # fractions, which loads decimal, is imported only where a Fraction
        # is made or tested, never by the commands that only read a pair;
        # a plain import of a loaded module costs a fraction of a from-import
        import fractions

        if self.den == 0:
            raise ValueError("INF has no finite value")
        return fractions.Fraction(self.num, self.den)

    @classmethod
    def from_str(cls, text: str) -> "CirclePoint":
        s = text.strip()
        if s.lower() == "inf":
            return INF
        ratio = _read_number(s, decimal=False)
        if ratio is None:
            # the spelling is cut to 40 characters, so the message stays short
            raise MalformedInputError("not a circle parameter: %.40r" % text)
        return cls(*ratio)

    def __str__(self) -> str:
        if self.den == 0:
            return "inf"
        if self.den == 1:
            return _digits(self.num)
        return _digits(self.num) + "/" + _digits(self.den)

    def __repr__(self) -> str:
        return "CirclePoint(%s)" % self

    def __eq__(self, other) -> bool:
        if isinstance(other, CirclePoint):
            return self.num == other.num and self.den == other.den
        if isinstance(other, int):
            return self.den == 1 and self.num == other
        # a Fraction exists only once fractions is loaded; a str is not
        # coerced, as no hash could agree with both its value and str's
        fractions = sys.modules.get("fractions")
        if fractions is not None and isinstance(other, fractions.Fraction):
            return self.num == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # hash(Fraction(num, den)): num times the inverse of den modulo the
        # hash modulus, which int's hash reduces with the sign of num
        try:
            return hash(self.num * pow(self.den, -1, _HASH_MODULUS))
        except ValueError:
            # den has no inverse: INF, or a multiple of the modulus
            return _HASH_INF if self.num > 0 else -_HASH_INF

    # Linear order with INF greatest, for sorted and bisect: with den >= 0
    # and INF = 1/0, cross-multiplying orders INF too. Reflection gives > and
    # >=; any other operand is unordered.
    def __lt__(self, other) -> bool:
        if isinstance(other, CirclePoint):
            return self.num * other.den < other.num * self.den
        return NotImplemented

    def __le__(self, other) -> bool:
        if isinstance(other, CirclePoint):
            return self.num * other.den <= other.num * self.den
        return NotImplemented


def _digits(n: int) -> str:
    """str(n), also for an int with more digits than str converts
    (sys.get_int_max_str_digits()): such an int is split at a power of ten
    into a high and a low part, each spelled alone."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20    # about half its digits: log10(2) > 3/10
        high, low = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + _digits(high) + _digits(low).zfill(k)


# the slots' own setters, which Immutable's __setattr__ would refuse; a
# point is made often enough that object.__setattr__ costs a measurable share
_set_num = CirclePoint.num.__set__
_set_den = CirclePoint.den.__set__

INF = CirclePoint(1, 0)


def _read_number(s: str, decimal: bool) -> tuple | None:
    """The rational a stripped string s spells in _NUMBER_RE's grammar, as
    (num, den) in lowest terms with den > 0, or None when s is malformed:
    a decimal unless decimal is set, a zero denominator, or a run of digits
    longer than int() converts, which Fraction refuses too."""
    m = _NUMBER_RE.fullmatch(s)
    if m is None or (m[4] is not None and not decimal):
        return None
    sign, whole, over, frac = m.groups()
    try:
        num = int(whole or "0")
        den = int(over) if over else 10 ** len(frac or "")
        if frac:
            num = num * den + int(frac)
    except ValueError:
        return None
    if not den:
        return None
    g = gcd(num, den)
    return (-num // g if sign == "-" else num // g, den // g)


def _parse_frac(s, where: str) -> tuple:
    """The wire rational s spells, as (num, den) in lowest terms with den > 0:
    an integer, p/q or a decimal in ASCII digits (_NUMBER_RE). No exponent,
    underscore or non-ASCII digit is read, on any Python version."""
    if not isinstance(s, str):
        raise MalformedInputError("coordinate must be a rational string", where)
    ratio = _read_number(s.strip(), decimal=True)
    if ratio is None:
        raise MalformedInputError("bad rational %.40r" % s, where)
    return ratio


def point(value) -> CirclePoint:
    """Coerce an int, Fraction, string, or CirclePoint to a CirclePoint."""
    if isinstance(value, CirclePoint):
        return value
    if isinstance(value, int):
        return CirclePoint(value)
    if isinstance(value, str):
        return CirclePoint.from_str(value)
    import fractions

    if isinstance(value, fractions.Fraction):
        return CirclePoint(value.numerator, value.denominator)
    raise TypeError("cannot make a CirclePoint from %r" % (value,))


class CircleSet(Immutable):
    """Nonempty finite, immutable set of circle points, canonically ordered.

    Points are stored without duplicates, sorted along the circle starting
    from the smallest finite parameter, with INF last.
    """

    __slots__ = ("points",)

    def __init__(self, pts: Iterable):
        ordered = sorted(map(point, pts))
        if not ordered:
            raise ValueError("a CircleSet must be nonempty")
        # equal points are neighbours once sorted; comparing their fields
        # costs less than hashing a point with a long denominator
        object.__setattr__(self, "points", tuple(
            [p for p, q in zip(ordered, ordered[1:]) if p.num != q.num or p.den != q.den]
            + ordered[-1:]))

    def __reduce__(self):
        return (CircleSet, (self.points,))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[CirclePoint]:
        return iter(self.points)

    def __contains__(self, x) -> bool:
        x = point(x)
        i = bisect_left(self.points, x)
        return i < len(self.points) and self.points[i] == x

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleSet):
            return NotImplemented
        return self.points == other.points

    def __hash__(self) -> int:
        return hash(self.points)

    def __repr__(self) -> str:
        return "CircleSet({%s})" % ", ".join(str(p) for p in self.points)

    def gap_index(self, x) -> int:
        """Index of the complementary interval containing x; x must not be a member.

        Interval t runs from points[t] to points[(t + 1) % len]; anything
        past the last point or before the first belongs to the wrap interval.
        """
        x = point(x)
        if x in self:
            raise ValueError("%s is a member, not in any complementary interval" % x)
        mine, (r,) = rank_table((self.points, (x,)))[1]
        return rank_gap(mine, r)

    def intersection(self, other: "CircleSet") -> tuple:
        mine = set(self.points)
        return tuple(p for p in other.points if p in mine)

    def to_json(self) -> list:
        return [str(p) for p in self.points]

    @classmethod
    def from_json(cls, data) -> "CircleSet":
        if not isinstance(data, list) or not data or not all(isinstance(s, str) for s in data):
            raise MalformedInputError("a circle set must be a nonempty list of parameter strings")
        return cls(CirclePoint.from_str(s) for s in data)


def complementary_intervals(a_set: CircleSet) -> list:
    """Open arcs between cyclically consecutive points, in cyclic order, as
    (start, end) pairs running in the positive direction.

    A singleton yields the single arc (a, a), the complement of a.
    """
    pts = a_set.points
    return list(zip(pts, pts[1:] + pts[:1]))


# ---------------------------------------------------------------------------
# rank space
#
# Sorting the distinct points of some sets once numbers them in circle order;
# each set is then the sorted tuple of its ranks. Ranks compare exactly as
# the points do, so the kernels below decide every predicate on small ints.
# The CircleSet functions after them rank their own union and call the same
# kernels; families rank all their points once (see family.FamilyPair).


def _approx(key: tuple) -> float:
    # the correctly rounded value of num/den: monotone in the exact value, so
    # two floats can tie but never disagree with the exact order; INF is inf
    num, den = key
    if not den:
        return inf
    try:
        return num / den
    except OverflowError:
        return inf if num > 0 else -inf


def _cmp_exact(a: tuple, b: tuple) -> int:
    if not (a[1] and b[1]):
        return (not a[1]) - (not b[1])
    d = a[0] * b[1] - b[0] * a[1]
    return (d > 0) - (d < 0)


def rank_table(groups) -> tuple:
    """Number the distinct points of the given groups in circle order.

    Each group is a sorted sequence of points, such as CircleSet.points.
    Returns (points, ranked): points[r] is the point of rank r, and
    ranked[k] is the sorted rank tuple of groups[k]. Points are sorted by
    the float value of num/den; when two floats tie, an exact sort by
    cross-multiplication follows.
    """
    by_key = {(p.num, p.den): p for g in groups for p in g}
    keyed = sorted((_approx(k), k) for k in by_key)
    keys = [k for _, k in keyed]
    if any(a[0] == b[0] for a, b in zip(keyed, keyed[1:])):
        # the list is in order but for runs of tied floats, so this exact
        # sort compares little more than neighbours
        keys.sort(key=cmp_to_key(_cmp_exact))
    rank = {k: r for r, k in enumerate(keys)}
    points = tuple(by_key[k] for k in keys)
    return points, tuple(tuple([rank[p.num, p.den] for p in g]) for g in groups)


def rank_gap(a: tuple, x: int) -> int:
    """Complementary interval of the rank tuple a holding rank x, not in a.

    Interval t runs from a[t] to a[(t + 1) % len(a)]; ranks before the first
    or past the last belong to the wrap interval, the last one.
    """
    i = bisect_left(a, x)
    return i - 1 if 0 < i < len(a) else len(a) - 1


def _alternates(a: tuple, b: tuple) -> bool:
    # a < b < a < b in the linear order, each matched leftmost
    j = bisect_right(b, a[0])
    if j == len(b):
        return False
    k = bisect_right(a, b[j])
    return k < len(a) and a[k] < b[-1]


def rank_linked(a: tuple, b: tuple) -> bool:
    """Four distinct ranks alternate a, b, a, b around the circle.

    A shared rank can play either role. Cyclically, the pattern is
    a, b, a, b or b, a, b, a in the linear order.
    """
    return _alternates(a, b) or _alternates(b, a)


def rank_link_number(a: tuple, b: tuple) -> int:
    """Linking number of disjoint rank tuples: the number of complementary
    intervals of a that hold ranks of b.

    Three other counts equal it for any disjoint a and b: the gaps of b
    holding ranks of a, and the steps of the cyclic union from a rank of a
    to one of b, and from b to a. Each maximal run of b in the union lies in
    one gap of a, and each gap of a holding ranks of b holds one run, so
    the count is the number of runs of b, which is the number of steps from
    a to b; likewise the gaps of b holding ranks of a number the steps from
    b to a; and going round the union steps from a to b as often as from b
    to a. tests/test_ranks.py checks the kernel against all four counts,
    computed point by point.

    Two chords, the common case of a lamination, take a closed form: the
    gap of a = (lo, hi) holding x is the inner one exactly when
    lo < x <= hi (bisect_left(a, x) % 2 == 1), so b's two ranks lie in
    one gap or two. It is the set count below on every pair of 2-rank
    tuples, shared ranks included, as tests/test_ranks.py checks
    exhaustively.
    """
    if len(a) == len(b) == 2:
        lo, hi = a
        return 1 + ((lo < b[0] <= hi) != (lo < b[1] <= hi))
    # bisect_left(a, x) % len(a) numbers the gaps of a differently from
    # rank_gap, but one to one, so it counts the same gaps
    m = len(a)
    return len({bisect_left(a, x) % m for x in b})


def _home(barrier: tuple, s: tuple):
    # the one complementary interval of barrier holding all of s (disjoint
    # from it), or None
    m = len(barrier)
    i = bisect_left(barrier, s[0])
    k = bisect_left(barrier, s[-1])
    if i == k:
        # s lies between the same two barrier ranks (rank_gap of s[0])
        return i - 1 if 0 < i < m else m - 1
    if i == 0 and k == m and bisect_left(s, barrier[0]) == bisect_left(s, barrier[-1]):
        # s wraps around, with no rank between barrier[0] and barrier[-1]
        return m - 1
    return None


def rank_separates(barrier: tuple, first: tuple, second: tuple) -> bool:
    """Pairwise disjoint rank tuples: first and second each sit inside one
    complementary interval of the barrier, and the two intervals differ."""
    g = _home(barrier, first)
    if g is None:
        return False
    h = _home(barrier, second)
    return h is not None and h != g


def linked(a_set: CircleSet, b_set: CircleSet) -> bool:
    """True iff some pair in A separates some pair in B.

    Equivalent to the existence of four distinct points in alternating
    cyclic order A, B, A, B. Sets may intersect; shared points can play
    either role but each position is used once.
    """
    return rank_linked(*rank_table((a_set.points, b_set.points))[1])


def link_number(a_set: CircleSet, b_set: CircleSet) -> int:
    """Linking number of a disjoint pair, the number of complementary
    intervals of A that meet B; n == 1 means unlinked."""
    shared = a_set.intersection(b_set)
    if shared:
        raise NotDisjointError(shared)
    return rank_link_number(*rank_table((a_set.points, b_set.points))[1])


def separates(barrier: CircleSet, first: CircleSet, second: CircleSet) -> bool:
    """True iff the barrier set separates first from second on the circle.

    Requires the three sets pairwise disjoint. Holds when first and second
    each sit inside a single complementary interval of the barrier and those
    intervals differ.
    """
    for x, y in ((barrier, first), (barrier, second), (first, second)):
        shared = x.intersection(y)
        if shared:
            raise NotDisjointError(shared)
    return rank_separates(*rank_table((barrier.points, first.points, second.points))[1])
