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
from functools import cached_property
from types import MappingProxyType

from .circle import (
    CirclePoint,
    CircleSet,
    rank_link_number,
    rank_linked,
    rank_separates,
    rank_table,
)
from .errors import (
    FamilyValidationError,
    Frozen,
    Immutable,
    InvariantViolation,
    MalformedInputError,
    _spell,
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

# Names no command runs, defined in analysis, which no command imports; each
# still resolves here on its first read, and dir() lists it (PEP 562), as
# circlink's do
_ANALYSIS = frozenset((
    "IntersectingAt", "DisjointUnlinked", "DisjointLinked", "PairClass", "classify_pair",
    "fiber_plus", "fiber_minus", "separation_interval", "prong_count", "NestingEntry",
    "NestingReport", "nesting_report",
))


def __getattr__(name):
    if name not in _ANALYSIS:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import analysis

    value = globals()[name] = getattr(analysis, name)
    return value


def __dir__():
    return sorted(set(globals()) | _ANALYSIS)


class Violation(Frozen, witness=()):
    """One violated admissibility clause with the offending indices.

    kind is WithinFamilyOverlap, WithinFamilyLinked or
    CrossIntersectionTooBig; family is "plus", "minus" or "cross".
    """

    __slots__ = ("kind", "family", "i", "j", "witness")

    def describe(self) -> str:
        if self.witness:
            w = " witness " + ",".join(_spell(p) for p in self.witness)
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


def _is_plus(family: str) -> bool:
    if family not in ("plus", "minus"):
        raise ValueError(_NOT_A_FAMILY % (family,))
    return family == "plus"


def _family_lines(fp: FamilyPair, family: str) -> tuple:
    # imported here so that validate, classify and disc never load hullgeom
    from .hullgeom import _edge_lines
    return tuple([_edge_lines(s, fp.points) for s in fp.ranks(family)])


class FamilyPair(Immutable):
    """A validated pair of chord families. Construct through validate().

    A pair is immutable, and caches what its stages share about it in
    cached properties, each built on first use and kept as long as the
    pair. points and ranks() are the rank table: every distinct marked point
    of both families in circle order, and each element as the sorted tuple
    of its ranks (validate builds it for its within-family checks). The disc
    comes from especial_disc; interior and boundary map (i, j) to the
    linking number and to the shared circle point, and fiber() gives the
    Z-points of one element; forest() gives how one family's sets nest,
    which point location also reads, lines() each hull edge's line and
    cells() the linked cell of every interior Z-point. Fields and caches
    refuse assignment, the disc and the forests are frozen values, maps are
    read-only views and sequences are tuples, so no stage can change what
    the others read.
    """

    __slots__ = ("plus", "minus", "plus_labels", "minus_labels", "__dict__")

    def __init__(self, plus, minus, plus_labels=None, minus_labels=None):
        _set = object.__setattr__
        _set(self, "plus", tuple(plus))
        _set(self, "minus", tuple(minus))
        _set(self, "plus_labels", tuple(plus_labels) if plus_labels else None)
        _set(self, "minus_labels", tuple(minus_labels) if minus_labels else None)

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
        return self.plus if _is_plus(name) else self.minus

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

    @cached_property
    def _table(self) -> tuple:
        points, ranked = rank_table([s.points for s in self.plus + self.minus])
        return points, ranked[:len(self.plus)], ranked[len(self.plus):]

    @property
    def points(self) -> tuple:
        """The point of each rank, in circle order."""
        return self._table[0]

    def ranks(self, family: str) -> tuple:
        """The sorted rank tuple of every element of one family, by index."""
        return self._table[1 if _is_plus(family) else 2]

    @cached_property
    def disc(self) -> EspecialDisc:
        # through the module name, which the benchmark's tracer wraps
        return especial_disc(self)

    @cached_property
    def interior(self) -> MappingProxyType:
        return MappingProxyType({(i, j): n for i, j, n in self.disc.interior})

    @cached_property
    def boundary(self) -> MappingProxyType:
        return MappingProxyType({(i, j): s for i, j, s in self.disc.boundary})

    @cached_property
    def _fibers(self) -> tuple:
        plus = [[] for _ in self.plus]
        minus = [[] for _ in self.minus]
        for z in sorted([z[:2] for z in self.disc.interior + self.disc.boundary]):
            plus[z[0]].append(z)
            minus[z[1]].append(z)
        return tuple(map(tuple, plus)), tuple(map(tuple, minus))

    def fiber(self, family: str, element: int) -> tuple:
        """The Z-points with the given component, in (i, j) order; every
        fiber is built in one pass over the disc on first use."""
        k = 0 if _is_plus(family) else 1  # a bad name fails before the disc is built
        fibers = self._fibers[k]
        _check_index(len(fibers), element, family)
        return fibers[element]

    def forest(self, family: str) -> LaminarForest:
        """How one family's sets nest (see LaminarForest), built once."""
        return self._plus_forest if _is_plus(family) else self._minus_forest

    def lines(self, family: str) -> tuple:
        """Each element's hull edge lines in one family (hullgeom._edge_lines)."""
        return self._plus_lines if _is_plus(family) else self._minus_lines

    # each family's forest and lines are built on their first use
    _plus_forest = cached_property(lambda self: _laminar_forest(self, "plus"))
    _minus_forest = cached_property(lambda self: _laminar_forest(self, "minus"))
    _plus_lines = cached_property(lambda self: _family_lines(self, "plus"))
    _minus_lines = cached_property(lambda self: _family_lines(self, "minus"))

    def cells(self) -> MappingProxyType:
        """The linked cell of every interior Z-point, in (i, j) order (see
        linked_cells)."""
        return self._cells

    @cached_property
    def _cells(self) -> MappingProxyType:
        # imported here so that validate, classify and disc never load hullgeom
        from .hullgeom import linked_cells
        return MappingProxyType(linked_cells(self))

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


def _cross_violations(plus: list, minus: list) -> list:
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

    The disc is the pair's cached property fp.disc, whose first read calls
    this function; a call on a pair that has none stores it there, so a pair
    is classified once however its stages are called, and a later call
    returns the same disc.
    """
    disc = vars(fp).get("disc")
    if disc is None:
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
        disc = vars(fp)["disc"] = EspecialDisc(len(fp.plus), len(fp.minus), tuple(interior),
                                               tuple(boundary))
    return disc


def _laminar_forest(fp: FamilyPair, family: str) -> LaminarForest:
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

    def tree_parent(self, k: int) -> int | None:
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
        # tree_parent of each, read in place
        top = self.inf_owner
        pa, pb = self.parent[a], self.parent[b]
        if pa is None and a != top:
            pa = top
        if pb is None and b != top:
            pb = top
        if pa == b or pb == a:
            return True
        return pa == pb and (pa is None or not rank_separates(sets[pa], sets[a], sets[b]))
