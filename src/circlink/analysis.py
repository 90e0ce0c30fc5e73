"""Library-only analysis of a family pair, and the clipping oracle.

No command runs this code, so no command imports this module: a process
compiles only what it runs. Each name here still resolves at its old path,
family's or hullgeom's, through that module's __getattr__ (PEP 562), and
from the circlink namespace.

From family: one cross pair's classification (classify_pair and its three
value classes), a disc's fibers listed from its tuples, prong counts,
separation chains and the nesting report. From hullgeom: the exact
intersection of two convex cells (cell_intersection), which the linked
cells' closed form replaced and the tests keep as their oracle.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import accumulate

from .circle import CirclePoint, complementary_intervals, rank_separates
from .errors import Frozen, NotInteriorError
from .family import _check_index, _meet_or_link
from .hullgeom import _cell, _h_cmp, _h_line, _h_line_cross, _orient

__all__ = [
    "IntersectingAt",
    "DisjointUnlinked",
    "DisjointLinked",
    "classify_pair",
    "fiber_plus",
    "fiber_minus",
    "separation_interval",
    "prong_count",
    "NestingEntry",
    "NestingReport",
    "nesting_report",
    "cell_intersection",
]


# ---------------------------------------------------------------------------
# family pairs


class IntersectingAt(Frozen):
    """The pair meets at the single circle point `point`."""

    __slots__ = ("point",)


class DisjointUnlinked(Frozen):
    """The pair is disjoint and unlinked."""

    __slots__ = ()


class DisjointLinked(Frozen):
    """The pair is disjoint with linking number n > 1."""

    __slots__ = ("n",)


PairClass = IntersectingAt | DisjointUnlinked | DisjointLinked


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


# ---------------------------------------------------------------------------
# the clipping oracle


def _h_between(a: tuple, b: tuple, p: tuple) -> bool:
    # p assumed collinear with a, b; lex order is monotone along a line
    lo, hi = (a, b) if _h_cmp(a, b) <= 0 else (b, a)
    return _h_cmp(lo, p) <= 0 and _h_cmp(p, hi) <= 0


def _cell_contains_h(cell: ConvexCell, h: tuple) -> bool:
    hv = cell._h
    if cell.dim == 0:
        return hv[0] == h    # normalised triples are equal when the points are
    if cell.dim == 1:
        return _orient(hv[0], hv[1], h) == 0 and _h_between(hv[0], hv[1], h)
    for k in range(len(hv)):
        if _orient(hv[k], hv[(k + 1) % len(hv)], h) < 0:
            return False
    return True


def _cell_from_h(hpts) -> ConvexCell | None:
    """Canonical cell from a finite batch of normalised homogeneous points."""
    uniq = list(dict.fromkeys(hpts))
    if not uniq:
        return None
    if len(uniq) == 1:
        return _cell(0, (uniq[0],))
    pts = sorted(uniq, key=cmp_to_key(_h_cmp))
    if len(pts) == 2:
        return _cell(1, tuple(pts))

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull_pts = lower[:-1] + upper[:-1]
    if len(hull_pts) == 2:
        return _cell(1, tuple(hull_pts))
    # monotone chain emits counterclockwise order beginning at the lex minimum
    return _cell(2, tuple(hull_pts))


def _seg_seg(a: tuple, b: tuple, c: tuple, d: tuple) -> list:
    o1 = _orient(a, b, c)
    o2 = _orient(a, b, d)
    o3 = _orient(c, d, a)
    o4 = _orient(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return [_h_line_cross(_h_line(a, b), _h_line(c, d))]
    pts = []
    if o1 == 0 and _h_between(a, b, c):
        pts.append(c)
    if o2 == 0 and _h_between(a, b, d):
        pts.append(d)
    if o3 == 0 and _h_between(c, d, a):
        pts.append(a)
    if o4 == 0 and _h_between(c, d, b):
        pts.append(b)
    return pts


def _clip(P: ConvexCell, Q: ConvexCell) -> ConvexCell | None:
    """P clipped edge by edge to the polygon Q (Sutherland-Hodgman).

    P is a vertex ring; a segment is a ring of two. Each edge of Q keeps the
    ring's vertices on or left of it and adds the crossing of every ring edge
    whose ends lie strictly on opposite sides.
    """
    ring = P._h
    qh = Q._h
    for k in range(len(qh)):
        p = qh[k - 1]
        q = qh[k]
        edge = _h_line(p, q)
        sides = [_orient(p, q, v) for v in ring]
        out = []
        for t in range(len(ring)):
            if sides[t - 1] * sides[t] < 0:
                out.append(_h_line_cross(_h_line(ring[t - 1], ring[t]), edge))
            if sides[t] >= 0:
                out.append(ring[t])
        if not out:
            return None
        ring = out
    return _cell_from_h(ring)


def cell_intersection(P: ConvexCell, Q: ConvexCell) -> ConvexCell | None:
    """Exact intersection of two convex cells; None means empty."""
    if P.dim > Q.dim:
        P, Q = Q, P
    if P.dim == 0:
        return _cell(0, P._h) if _cell_contains_h(Q, P._h[0]) else None
    if Q.dim == 1:
        return _cell_from_h(_seg_seg(P._h[0], P._h[1], Q._h[0], Q._h[1]))
    return _clip(P, Q)
