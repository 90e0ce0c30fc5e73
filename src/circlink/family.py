"""Finite chord families on the circle and their linking structure.

A family pair holds two labelled lists of circle sets. Validation enforces
that each family is internally disjoint and unlinked and that cross-family
intersections have at most one point. The pair classification across the
two families produces the finite analogue of a decomposition disc: interior
points are the disjoint linked pairs, boundary points the intersecting ones.

Everything derived from one pair (the rank table, the disc, its maps and
fibers, the laminar forests, the hull edge lines and the linked cells) is
cached on the pair, built on first use and kept as long as the pair, so
every stage reads one copy instead of rebuilding it. The disc and the
forests are frozen values. Predicates run on the rank tuples of the table.
"""

from __future__ import annotations

import re
from itertools import accumulate
from types import MappingProxyType
from typing import Optional, Sequence, Union

from .circle import (
    CirclePoint,
    CircleSet,
    complementary_intervals,
    rank_link_number,
    rank_linked,
    rank_separates,
    rank_table,
)
from .errors import (
    FamilyValidationError,
    Frozen,
    InvariantViolation,
    MalformedInputError,
    NotInteriorError,
)

__all__ = [
    "Violation",
    "FamilyPair",
    "validate",
    "IntersectingAt",
    "DisjointUnlinked",
    "DisjointLinked",
    "classify_pair",
    "EspecialDisc",
    "especial_disc",
    "LaminarForest",
    "fiber_plus",
    "fiber_minus",
    "separation_interval",
    "prong_count",
    "NestingEntry",
    "NestingReport",
    "nesting_report",
]


class Violation(Frozen, witness=()):
    """One violated admissibility clause with the offending indices.

    kind is WithinFamilyOverlap, WithinFamilyLinked or
    CrossIntersectionTooBig; family is "plus", "minus" or "cross".
    """

    __slots__ = ("kind", "family", "i", "j", "witness")

    def describe(self) -> str:
        if self.witness:
            w = " witness " + ",".join(str(p) for p in self.witness)
        else:
            w = ""
        return "%s(%s, %d, %d)%s" % (self.kind, self.family, self.i, self.j, w)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "i": self.i,
            "j": self.j,
            "witness": [str(p) for p in self.witness],
        }


_NOT_A_FAMILY = "family must be 'plus' or 'minus', got %r"


class FamilyPair:
    """A validated pair of chord families. Construct through validate().

    A pair is treated as immutable, and caches what its stages share about
    it: each piece is built on first use and kept as long as the pair.
    points and ranks() are the rank table: every distinct marked point of
    both families in circle order, and each element as the sorted tuple of
    its ranks (validate builds it for its within-family checks). The disc
    comes from especial_disc; interior and boundary map (i, j) to the
    linking number and to the shared circle point, and fiber() gives the
    Z-points of one element; forest() gives how one family's sets nest,
    which point location also reads, lines() each hull edge's line and
    cells() the linked cell of every interior Z-point. The disc and the
    forests are frozen values, maps are read-only views and sequences are
    tuples, so no stage can change what the others read.
    """

    __slots__ = ("plus", "minus", "plus_labels", "minus_labels", "_table", "_disc",
                 "_interior", "_boundary", "_fibers", "_forests", "_lines", "_cells")

    def __init__(self, plus, minus, plus_labels=None, minus_labels=None):
        self.plus = tuple(plus)
        self.minus = tuple(minus)
        self.plus_labels = tuple(plus_labels) if plus_labels else None
        self.minus_labels = tuple(minus_labels) if minus_labels else None
        self._table = None
        self._disc = None
        self._interior = None
        self._boundary = None
        self._fibers = None
        self._forests = {}
        self._lines = {}
        self._cells = None

    def __reduce__(self):
        # the caches hold read-only views, which cannot be pickled; copies
        # and unpickled pairs build their own
        return (FamilyPair, (self.plus, self.minus, self.plus_labels, self.minus_labels))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FamilyPair):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self) -> int:
        return hash((self.plus, self.minus))

    def __repr__(self) -> str:
        return "FamilyPair(plus=%r, minus=%r)" % (list(self.plus), list(self.minus))

    def family(self, name: str) -> tuple:
        if name == "plus":
            return self.plus
        if name == "minus":
            return self.minus
        raise ValueError(_NOT_A_FAMILY % (name,))

    def to_json(self) -> dict:
        out = {
            "plus": [s.to_json() for s in self.plus],
            "minus": [s.to_json() for s in self.minus],
        }
        if self.plus_labels:
            out["plus_labels"] = list(self.plus_labels)
        if self.minus_labels:
            out["minus_labels"] = list(self.minus_labels)
        return out

    def _rank_table(self) -> tuple:
        if self._table is None:
            plus, minus = self.plus, self.minus
            points, ranked = rank_table([s.points for s in plus + minus])
            self._table = (points, {"plus": ranked[:len(plus)], "minus": ranked[len(plus):]})
        return self._table

    @property
    def points(self) -> tuple:
        """The point of each rank, in circle order."""
        return self._rank_table()[0]

    def ranks(self, family: str) -> tuple:
        """The sorted rank tuple of every element of one family, by index."""
        try:
            return self._rank_table()[1][family]
        except KeyError:
            raise ValueError(_NOT_A_FAMILY % (family,)) from None

    @property
    def disc(self) -> "EspecialDisc":
        if self._disc is None:
            self._disc = especial_disc(self)
        return self._disc

    @property
    def interior(self) -> MappingProxyType:
        if self._interior is None:
            self._interior = MappingProxyType({(i, j): n for i, j, n in self.disc.interior})
        return self._interior

    @property
    def boundary(self) -> MappingProxyType:
        if self._boundary is None:
            self._boundary = MappingProxyType({(i, j): s for i, j, s in self.disc.boundary})
        return self._boundary

    def fiber(self, family: str, element: int) -> tuple:
        """The Z-points with the given component, in (i, j) order; every
        fiber is built in one pass over the disc on first use."""
        if self._fibers is None:
            plus = [[] for _ in self.plus]
            minus = [[] for _ in self.minus]
            for z in sorted([z[:2] for z in self.disc.interior + self.disc.boundary]):
                plus[z[0]].append(z)
                minus[z[1]].append(z)
            self._fibers = {"plus": tuple(map(tuple, plus)), "minus": tuple(map(tuple, minus))}
        try:
            fibers = self._fibers[family]
        except KeyError:
            raise ValueError(_NOT_A_FAMILY % (family,)) from None
        _check_index(len(fibers), element, family)
        return fibers[element]

    def forest(self, family: str) -> "LaminarForest":
        """How one family's sets nest (see LaminarForest), built once."""
        forest = self._forests.get(family)
        if forest is None:
            forest = self._forests[family] = _laminar_forest(self, family)
        return forest

    def lines(self, family: str) -> tuple:
        """Each element's hull edge lines in one family (hullgeom._edge_lines)."""
        if family not in self._lines:
            from .hullgeom import _edge_lines
            self._lines[family] = tuple([_edge_lines(s, self.points) for s in self.ranks(family)])
        return self._lines[family]

    def cells(self) -> MappingProxyType:
        """The linked cell of every interior Z-point, in (i, j) order (see
        linked_cells)."""
        if self._cells is None:
            # imported here so that validate, classify and disc never load hullgeom
            from .hullgeom import linked_cells
            self._cells = MappingProxyType(linked_cells(self))
        return self._cells

    @classmethod
    def from_json(cls, data) -> "FamilyPair":
        if not isinstance(data, dict):
            raise MalformedInputError("family pair must be a JSON object", "$")
        for key in ("plus", "minus"):
            if key not in data:
                raise MalformedInputError("missing key %r" % key, "$")
            if not isinstance(data[key], list) or not data[key]:
                raise MalformedInputError("%r must be a nonempty list" % key, "$.%s" % key)
        def parse_family(key):
            sets = []
            for idx, raw in enumerate(data[key]):
                try:
                    sets.append(CircleSet.from_json(raw))
                except MalformedInputError as exc:
                    raise MalformedInputError(str(exc), "$.%s[%d]" % (key, idx)) from None
            return sets
        return validate(parse_family("plus"), parse_family("minus"),
                        data.get("plus_labels"), data.get("minus_labels"))


# a character outside XML 1.0's Char production, which the input picture's
# text elements cannot hold; compiled by re on the first labelled pair
_NOT_XML_CHAR = "[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"


def _within_family_violations(fp: FamilyPair, name: str) -> list:
    if len(fp.family(name)) < 2:
        # no pair to check; the rank table waits for its first real use
        return []
    try:
        fp.forest(name)
        return []
    except InvariantViolation:
        # the sweep stops at the first trouble; every pair is tested so that
        # all of it is reported
        pass
    points = fp.points
    ranked = fp.ranks(name)
    out = []
    for i, a in enumerate(ranked):
        members = frozenset(a)
        for j in range(i + 1, len(ranked)):
            b = ranked[j]
            if not members.isdisjoint(b):
                shared = tuple(points[r] for r in b if r in members)
                out.append(Violation("WithinFamilyOverlap", name, i, j, shared))
            if rank_linked(a, b):
                out.append(Violation("WithinFamilyLinked", name, i, j))
    return out


def _cross_violations(plus: Sequence[CircleSet], minus: Sequence[CircleSet]) -> list:
    # the points each cross pair shares, found from the plus sets holding each
    # point rather than pair by pair; witnesses keep the minus set's order.
    # Points are keyed by (num, den), which hashes faster than a point
    holders = {}
    for i, s in enumerate(plus):
        for p in s.points:
            holders.setdefault((p.num, p.den), []).append(i)
    shared = {}
    for j, s in enumerate(minus):
        for q in s.points:
            for i in holders.get((q.num, q.den), ()):
                shared.setdefault((i, j), []).append(q)
    return [Violation("CrossIntersectionTooBig", "cross", i, j, tuple(pts))
            for (i, j), pts in sorted(shared.items()) if len(pts) > 1]


def validate(plus, minus, plus_labels=None, minus_labels=None) -> FamilyPair:
    """Check every admissibility clause; collect all violations before failing.

    Labels, when given, list one str of XML 1.0 characters per set, or raise
    MalformedInputError at their JSON location before any clause is checked.
    The within-family checks build the laminar forest of each family, which
    the new pair keeps; only a family the forest's sweep rejects has all its
    pairs tested.
    """
    plus = [s if isinstance(s, CircleSet) else CircleSet(s) for s in plus]
    minus = [s if isinstance(s, CircleSet) else CircleSet(s) for s in minus]
    if not plus or not minus:
        raise ValueError("both families must be nonempty")
    for name, labels, sets in (("plus_labels", plus_labels, plus),
                               ("minus_labels", minus_labels, minus)):
        if labels is not None:
            if (not isinstance(labels, (list, tuple))
                    or len(labels) != len(sets)
                    or not all(isinstance(x, str) for x in labels)):
                raise MalformedInputError("%s must list one string per element" % name, "$.%s" % name)
            for k, label in enumerate(labels):
                bad = re.search(_NOT_XML_CHAR, label)
                if bad:
                    raise MalformedInputError(
                        "label holds U+%04X, which XML 1.0 cannot hold" % ord(bad.group()),
                        "$.%s[%d]" % (name, k))
    fp = FamilyPair(plus, minus, plus_labels, minus_labels)
    violations = _within_family_violations(fp, "plus")
    violations += _within_family_violations(fp, "minus")
    violations += _cross_violations(plus, minus)
    if violations:
        raise FamilyValidationError(violations)
    return fp


class IntersectingAt(Frozen):
    """The pair meets at the single circle point `point`."""

    __slots__ = ("point",)


class DisjointUnlinked(Frozen):
    """The pair is disjoint and unlinked."""

    __slots__ = ()


class DisjointLinked(Frozen):
    """The pair is disjoint with linking number n > 1."""

    __slots__ = ("n",)


PairClass = Union[IntersectingAt, DisjointUnlinked, DisjointLinked]


def _check_index(n: int, idx: int, what: str) -> None:
    if not 0 <= idx < n:
        raise IndexError("%s index %d out of range [0, %d)" % (what, idx, n))


def _meet_or_link(points: tuple, a: tuple, members: frozenset, b: tuple):
    """The first shared point of rank tuples a and b (members is set(a)), or
    their linking number when they are disjoint."""
    if members.isdisjoint(b):
        return rank_link_number(a, b)
    # validation admits at most one shared point per cross pair
    return points[next(r for r in b if r in members)]


def classify_pair(fp: FamilyPair, i: int, j: int) -> PairClass:
    """Classify the cross pair (plus element i, minus element j)."""
    _check_index(len(fp.plus), i, "plus")
    _check_index(len(fp.minus), j, "minus")
    a = fp.ranks("plus")[i]
    c = _meet_or_link(fp.points, a, frozenset(a), fp.ranks("minus")[j])
    if isinstance(c, CirclePoint):
        return IntersectingAt(c)
    if c == 1:
        return DisjointUnlinked()
    return DisjointLinked(c)


class EspecialDisc(Frozen):
    """All cross-pair classifications of a family pair.

    interior holds (i, j, n) for disjoint linked pairs, boundary holds
    (i, j, s) for pairs meeting at the single circle point s. Both are
    stored as given: especial_disc builds them as tuples in (i, j) order.
    A Z-point listed twice raises InvariantViolation("duplicate-z-point").
    """

    __slots__ = ("n_plus", "n_minus", "interior", "boundary")

    def __post_init__(self):
        seen = [(i, j) for i, j, _ in self.interior] + [(i, j) for i, j, _ in self.boundary]
        if len(seen) != len(set(seen)):
            seen.sort()
            z = next(z for z, w in zip(seen, seen[1:]) if z == w)
            raise InvariantViolation("duplicate-z-point", z, z)

    def to_json(self) -> dict:
        return {
            "n_plus": self.n_plus,
            "n_minus": self.n_minus,
            "interior": [
                {"plus": i, "minus": j, "link_number": n} for i, j, n in self.interior
            ],
            "boundary": [
                {"plus": i, "minus": j, "point": str(s)} for i, j, s in self.boundary
            ],
        }


def especial_disc(fp: FamilyPair) -> EspecialDisc:
    """Classify every cross pair, testing only those that can meet or link.

    A minus set b that holds no rank of the plus set a, straddles none and
    does not hold INF has all of a in its wrap gap: one gap of b holds ranks
    of a, so the pair is unlinked. So row a tests only the minus set holding
    INF and the owner and straddlers of each rank of a, read from the minus
    family's laminar forest, in index order.

    The pair keeps the disc, so a pair is classified once however its
    stages are called; a later call returns the same disc.
    """
    if fp._disc is None:
        points = fp.points
        minus = fp.ranks("minus")
        forest = fp.forest("minus")
        owner, parent, inner = forest.owner, forest.parent, forest.inner
        seen = [-1] * len(minus)
        interior = []
        boundary = []
        for i, a in enumerate(fp.ranks("plus")):
            row = []
            k = forest.inf_owner
            if k is not None:
                seen[k] = i
                row.append(k)
            for r in a:
                # the straddlers of r: every set marked in this row has its
                # ancestors marked, so the walk up stops at the first marked
                k = inner[2 * r + 1]
                while k is not None and seen[k] != i:
                    seen[k] = i
                    row.append(k)
                    k = parent[k]
                # the owner's ancestors straddle r, so they are marked now
                k = owner[r]
                if k is not None and seen[k] != i:
                    seen[k] = i
                    row.append(k)
            row.sort()
            members = frozenset(a)
            for j in row:
                c = _meet_or_link(points, a, members, minus[j])
                if isinstance(c, CirclePoint):
                    boundary.append((i, j, c))
                elif c != 1:
                    interior.append((i, j, c))
        fp._disc = EspecialDisc(len(fp.plus), len(fp.minus), tuple(interior), tuple(boundary))
    return fp._disc


def _laminar_forest(fp: FamilyPair, family: str) -> "LaminarForest":
    """The laminar forest of one family, from one sweep over the finite
    ranks; a set opens at its first rank and closes at its last finite one,
    so the open sets are those straddling the sweep position (with finite
    ranks on both sides of it).

    The sweep checks that the family is laminar, which is that its hulls are
    pairwise disjoint: no rank has two owners, every set lies in one gap of
    the innermost set open at its ranks, and no set is open when the set
    holding INF opens. A failure raises InvariantViolation("hull-overlap")
    with the family and two of its set indices.
    """
    points = fp.points
    sets = fp.ranks(family)
    n = len(points)
    finite = n - 1 if n and points[-1].is_infinite else n
    owner = [None] * n
    for k, s in enumerate(sets):
        for r in s:
            if owner[r] is not None:
                raise InvariantViolation("hull-overlap", (family, owner[r], k))
            owner[r] = k
    inf_owner = owner[finite] if finite < n else None
    parent = [None] * len(sets)
    inner = [None] * (2 * n + 1)
    stack = [None]
    for r in range(finite):
        k = owner[r]
        if k is None:
            inner[2 * r + 1] = inner[2 * r + 2] = stack[-1]
            continue
        s = sets[k]
        last = s[-2] if k == inf_owner else s[-1]
        if r != s[0]:
            if stack[-1] != k:
                # a set opened inside k's gap is still open
                raise InvariantViolation("hull-overlap", (family, k, stack[-1]))
            if r == last:
                stack.pop()
        elif k == inf_owner and len(stack) > 1:
            raise InvariantViolation("hull-overlap", (family, stack[-1], k))
        else:
            parent[k] = stack[-1]
        inner[2 * r + 1] = stack[-1]
        if r == s[0] and r != last:
            stack.append(k)
        inner[2 * r + 2] = stack[-1]
    return LaminarForest(tuple(owner), inf_owner, tuple(parent), tuple(inner))


class LaminarForest(Frozen):
    """How the sets of one family nest, from one sweep over the pair's ranks
    (see _laminar_forest).

    owner[r] is the set holding rank r, None for a rank of the other family,
    and inf_owner the set holding INF, if any. parent[k] is the innermost set
    open when k opens, None for a root, and inner[pos] the innermost set
    straddling position pos, where pos = 2r + 1 is rank r and pos = 2r the
    gap between ranks r - 1 and r. The sets straddling pos are inner[pos]
    and its ancestors.

    The gap fact: the sets in the inner gaps of a set k that does not hold
    INF, between two of its ranks, are exactly those open inside k, its
    forest descendants. So k's tree children, which are its forest
    children, lie in its inner gaps, and its tree parent (see tree_parent),
    its siblings and the other roots in its wrap gap. separation_interval
    orders its chains by this.
    """

    __slots__ = ("owner", "inf_owner", "parent", "inner")

    def tree_parent(self, k: int) -> Optional[int]:
        """k's parent in the nesting tree: its forest parent, except that
        the set holding INF encloses, and so adopts, every other root."""
        p = self.parent[k]
        return self.inf_owner if p is None and k != self.inf_owner else p

    def neighbours(self, sets: tuple, a: int, b: int) -> bool:
        """Whether sets a and b, of this forest's family with rank tuples
        sets, are neighbours in the nesting tree: one is the other's parent,
        or they share a parent that does not separate them. The set holding
        INF is the parent of every other root; when no set holds INF, the
        roots are siblings under no parent, which separates nothing.

        A third set separates two sets only when it lies on their tree path
        (see separation_interval). The path of a set and its parent has no
        third set, and that of two siblings only their parent, so no set
        separates neighbours.
        """
        pa, pb = self.tree_parent(a), self.tree_parent(b)
        if pa == b or pb == a:
            return True
        return pa == pb and (pa is None or not rank_separates(sets[pa], sets[a], sets[b]))


def fiber_plus(disc: EspecialDisc, i: int) -> list:
    """All Z-points (interior and boundary) with plus component i, by minus index."""
    _check_index(disc.n_plus, i, "plus")
    return sorted([z[:2] for z in disc.interior + disc.boundary if z[0] == i])


def fiber_minus(disc: EspecialDisc, j: int) -> list:
    """All Z-points (interior and boundary) with minus component j, by plus index."""
    _check_index(disc.n_minus, j, "minus")
    return sorted([z[:2] for z in disc.interior + disc.boundary if z[1] == j])


def separation_interval(fp: FamilyPair, family: str, i: int, j: int) -> list:
    """Indices of elements separating element i from element j, as a chain.

    The result starts with i, ends with j, and lists the separating elements
    so that each one separates everything before it from everything after
    it. A validated family nests as a tree (the laminar forest, where the
    set holding INF encloses the other roots and so is their parent). The
    other sets on the tree path from i to j separate them, but for their
    innermost shared ancestor, which does only when they lie in different
    gaps of it; no set off the path does. In validate([[0, 10, 20], [1, 2],
    [3, 4]], [[30, 31]]) set 0 is on the path 1, 0, 2, but 1 and 2 share
    its gap (0, 10), so the chain from 1 to 2 is [1, 2].

    Each member separates its neighbours, so none is checked. By
    LaminarForest's gap fact, a set between its tree child and its tree
    parent does, and so does each of two children of a dropped shared
    ancestor (or two roots, under no set) side by side, its tree child on
    one side; none of these holds INF. A kept shared ancestor separates i
    from j, and its neighbours lie in their gaps of it: each is i or j or
    holds it in a finite span with no rank of the ancestor. Then each
    member separates all before it from all after it: when b separates a
    from c and c separates b from d, the arc outside c's gap holding b
    holds c and d but no rank of b, so d lies in b's gap holding c.
    """
    n = len(fp.family(family))
    _check_index(n, i, family)
    _check_index(n, j, family)
    sets = fp.ranks(family)
    forest = fp.forest(family)

    def up(k: int) -> list:
        path = []
        while k is not None:
            path.append(k)
            k = forest.tree_parent(k)
        return path

    left, right = up(i), up(j)
    shared = None
    while left and right and left[-1] == right[-1]:
        shared = left.pop()
        right.pop()
    if shared is not None and (shared == i or shared == j
                               or rank_separates(sets[shared], sets[i], sets[j])):
        left.append(shared)
    return left + right[::-1]


def prong_count(fp: FamilyPair, z: tuple) -> int:
    """Number of prongs at an interior Z-point: twice its linking number.

    The prongs are the mixed complementary intervals of the union, those
    running from one set to the other in either direction. There are n(z)
    each way (see circle.rank_link_number), so the count is 2 n(z) and
    check_equivariance compares linking numbers instead.
    """
    z = tuple(z)
    interior = fp.interior
    if z not in interior:
        raise NotInteriorError(z)
    return 2 * interior[z]


class NestingEntry(Frozen):
    """Whether one complementary interval of an element is separated from it;
    separator is the separating element's index, or None."""

    __slots__ = ("family", "element", "interval_start", "interval_end", "separated",
                 "separator")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "element": self.element,
            "interval": [str(self.interval_start), str(self.interval_end)],
            "separated": self.separated,
            "separator": self.separator,
        }


class NestingReport(Frozen):
    """Finite nesting diagnostics: a tuple of entries, where a defect is an
    interval with no separator."""

    __slots__ = ("entries",)

    @property
    def defect_count(self) -> int:
        return sum(1 for e in self.entries if not e.separated)

    def to_json(self) -> dict:
        return {
            "entries": [e.to_json() for e in self.entries],
            "defect_count": self.defect_count,
        }


def nesting_report(fp: FamilyPair) -> NestingReport:
    """For each element and complementary interval, find a same-family element
    that separates the interval's content from the element.

    The interval from a to b counts as separated when two other elements sit
    inside it with one separating the other from the reference element. A
    finite truncation always leaves some intervals unseparated; the report
    quantifies that defect instead of rejecting the family.

    An element k inside the interval separates the reference from another
    element there exactly when the elements other than k lie in two or more
    gaps of k, since k's far side from the reference is inside the interval.
    The separator is the least such k. Listed by first rank, the elements in
    a gap between two ranks are one run: the gap's children in the nesting
    forest, each followed by what it encloses. Those in the wrap gap are a
    prefix and a suffix of the list.
    """
    entries = []
    for name in ("plus", "minus"):
        sets = fp.ranks(name)
        owner = fp.forest(name).owner
        none = len(sets)
        # order lists the elements by first rank; start[r] counts those that
        # begin before rank r
        order = []
        start = [0]
        for r, k in enumerate(owner):
            if k is not None and sets[k][0] == r:
                order.append(k)
            start.append(len(order))
        n = len(order)

        def separating(k: int) -> bool:
            lam = sets[k]
            gaps = sum(start[lo + 1] < start[hi] for lo, hi in zip(lam, lam[1:]))
            return gaps + (start[lam[0]] > 0 or start[lam[-1] + 1] < n) >= 2

        least = [k if separating(k) else none for k in order]
        # end[p]: where the run of order[p] and the elements it encloses ends;
        # below[p]: the least separator in that run, from its gap-children
        end = [start[sets[k][-1] + 1] for k in order]
        below = least[:]
        for p in reversed(range(n)):
            q = p + 1
            while q < end[p]:
                below[p] = min(below[p], below[q])
                q = end[q]
        head = list(accumulate(least, min, initial=none))
        tail = list(accumulate(reversed(least), min, initial=none))[::-1]
        for e, lam in enumerate(sets):
            arcs = complementary_intervals(fp.family(name)[e])
            for g, (a, b) in enumerate(arcs):
                if g + 1 < len(lam):
                    best = none
                    q, stop = start[lam[g] + 1], start[lam[g + 1]]
                    while q < stop:
                        best = min(best, below[q])
                        q = end[q]
                else:
                    best = min(head[start[lam[0]]], tail[start[lam[-1] + 1]])
                separator = best if best < none else None
                entries.append(NestingEntry(name, e, a, b, separator is not None,
                                            separator))
    return NestingReport(tuple(entries))
