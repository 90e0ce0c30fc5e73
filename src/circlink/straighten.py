"""Straightening of the linked region onto the classification disc.

Every point in a linked cell collapses to the cell's index pair, giving the
finite straightening map. The layout places interior pairs at exact cell
barycenters and intersecting pairs on the circle, then builds one leaf tree
per element from its fiber, with a virtual branch vertex standing in for a
missing singular point whenever a fiber straddles several sectors.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Union

from .circle import rank_separates
from .errors import Frozen, GroupOrderNotTotalError, InvariantViolation
from .family import FamilyPair
from .hullgeom import (
    PlanePoint,
    _h_cmp,
    _h_mean,
    _hull_cap,
    _orient,
    _param_position,
    _point,
    in_hull,
    locate,
    param_to_point,
)

__all__ = [
    "MappedTo",
    "OnBoundary",
    "NotInDomain",
    "StraightenResult",
    "straighten_point",
    "LeafGraph",
    "leaf_graph",
    "StraightenedDisc",
    "layout",
    "QuotientReport",
    "quotient_check",
]


class MappedTo(Frozen):
    """The point collapses to the interior Z-point z."""

    __slots__ = ("z",)


class OnBoundary(Frozen):
    """The point is the shared circle point s of an intersecting pair."""

    __slots__ = ("s",)


class NotInDomain(Frozen):
    """The point lies in no linked cell and on no shared circle point."""

    __slots__ = ()


StraightenResult = Union[MappedTo, OnBoundary, NotInDomain]


def result_to_json(r: StraightenResult) -> dict:
    if isinstance(r, MappedTo):
        return {"result": "mapped", "z": [r.z[0], r.z[1]]}
    if isinstance(r, OnBoundary):
        return {"result": "boundary", "point": str(r.s)}
    return {"result": "not_in_domain"}


def straighten_point(fp: FamilyPair, p: PlanePoint) -> StraightenResult:
    """Collapse p to its Z-point when p lies in a linked cell.

    Points on the circle at a shared marked point of an intersecting pair
    land on the boundary; everything else is outside the domain.
    """
    i, j = locate(fp, p)
    if i is not None and j is not None:
        if (i, j) in fp.interior:
            return MappedTo((i, j))
        s = fp.boundary.get((i, j))
        if s is not None and p == param_to_point(s):
            return OnBoundary(s)
    return NotInDomain()


def _collapse_test(fp: FamilyPair):
    """The collapse test of both verifiers: lands(h, z) is None when the
    triple h straightens to the interior Z-point z, else what
    straighten_point gives for h.

    A family's hulls are pairwise disjoint, which the forest sweeps built
    here check (InvariantViolation("hull-overlap")), so a point strictly
    inside the disc, in plus hull i and in minus hull j (hullgeom.in_hull,
    at most four side tests), has locate return exactly (i, j). Only a
    point that fails that test, which may still lie in the hulls on the
    rim, runs straighten_point.
    """
    points = fp.points
    plus, minus = fp.ranks("plus"), fp.ranks("minus")
    lines_plus, lines_minus = fp.lines("plus"), fp.lines("minus")
    fp.forest("plus")
    fp.forest("minus")

    def lands(h: tuple, z: tuple):
        X, Y, D = h
        if X * X + Y * Y < D * D:
            # D + X > 0 strictly inside the disc
            pos = _param_position(points, Y, X + D)
            if (in_hull(plus, lines_plus, z[0], h, pos)
                    and in_hull(minus, lines_minus, z[1], h, pos)):
                return None
        got = straighten_point(fp, _point(h))
        return None if got == MappedTo(z) else got

    return lands


# ---------------------------------------------------------------------------
# leaf trees

VIRTUAL = "v0"


class LeafGraph(Frozen):
    """Tree over one element's fiber in Z.

    vertices is a tuple of Z-points (i, j); at most one virtual branch
    vertex, named "v0", appears when the fiber spans several sector groups.
    edges is a tuple of ordered pairs over these atoms. A graph that is not
    a tree raises InvariantViolation("leaf-tree").
    """

    __slots__ = ("family", "element", "vertices", "virtual_count", "edges")

    def __post_init__(self):
        if not self.is_tree():
            raise InvariantViolation("leaf-tree", (self.family, self.element, len(self.edges),
                                                   len(self.all_vertices())))

    def all_vertices(self) -> tuple:
        extra = (VIRTUAL,) if self.virtual_count else ()
        return self.vertices + extra

    def is_tree(self) -> bool:
        # V - 1 edges between the vertices that close no cycle (union-find)
        verts = self.all_vertices()
        if len(self.edges) != max(len(verts) - 1, 0):
            return False
        root = {v: v for v in verts}
        for u, v in self.edges:
            if u not in root or v not in root:
                return False
            while root[u] != u:
                u = root[u]
            while root[v] != v:
                v = root[v]
            if u == v:
                return False
            # on leaf_graph's edge order, each walk takes at most one step
            root[v] = u
        return True

    def to_json(self) -> dict:
        def atom(v):
            return v if isinstance(v, str) else [v[0], v[1]]
        return {
            "family": self.family,
            "element": self.element,
            "vertices": [[i, j] for i, j in self.vertices],
            "virtual": self.virtual_count,
            "edges": [[atom(u), atom(v)] for u, v in self.edges],
        }


def leaf_graph(fp: FamilyPair, family: str, element: int) -> LeafGraph:
    """Build the leaf tree over the fiber of one element.

    Every predicate runs on the rank tuples of the pair. The members of
    one sector signature S are chained in the order of their first ranks
    in I, the gap S[0] of the element's set, read from I's start. A member
    b separates each earlier one a from each later c, so no triple is
    checked. The members are sets of the opposite family: disjoint and
    unlinked. b has a rank outside I, in another gap when S has two or
    more, else the one it shares with the element's set (a set in one gap
    of it is unlinked and no Z-point). b has no rank between I's start and
    b_I, its first rank in I, so a's first rank lies in the gap of b ending
    at b_I. From c's first rank the circle passes b's rank outside I before
    b_I, so c's first rank lies in another gap of b. Unlinked from b, a and
    c each lie in one gap of it.
    """
    fiber = fp.fiber(family, element)
    lam = fp.ranks(family)[element]
    # a Z-point's opposite element is its component in the other family
    side = 1 if family == "plus" else 0
    opp_sets = fp.ranks("minus" if side else "plus")
    if not fiber:
        return LeafGraph(family, element, (), 0, ())

    # one pass over each member's opposite ranks, in order, gives its sector
    # signature: the complementary intervals of lam that the opposite element
    # meets (shared marked points sit on lam itself and don't count), and
    # the arc key of its first rank in the first of them, counted from that
    # interval's start lam[g0]. Interval t runs from lam[t] to lam[t + 1];
    # the wrap interval, the last, holds the ranks before lam[0] and past
    # lam[-1], and arc order there takes those past lam[-1] first.
    m = len(lam)
    groups = {}
    for z in fiber:
        sig = []
        low = high = arc = None
        for r in opp_sets[z[side]]:
            i = bisect_left(lam, r)
            if i == m:
                high = r            # every later rank lies past lam[-1] too
                break
            if lam[i] == r:
                continue
            if i == 0:
                if low is None:
                    low = r
            elif not sig:
                sig.append(i - 1)
                arc = (0, r)
            elif sig[-1] != i - 1:
                sig.append(i - 1)
        if high is not None or low is not None:
            if not sig:
                arc = (0, high) if high is not None else (1, low)
            sig.append(m - 1)
        key = (tuple(sig),) if sig else ((), z)
        groups.setdefault(key, []).append((arc, z))

    # the chain order needs a laminar opposite family, which its forest checks
    fp.forest("minus" if side else "plus")
    chains = [[z for _, z in sorted(groups[key])] for key in sorted(groups)]

    vertices = tuple(z for chain in chains for z in chain)
    edges = []
    for chain in chains:
        for t in range(len(chain) - 1):
            edges.append((chain[t], chain[t + 1]))

    virtual_count = 0
    if len(chains) >= 2:
        virtual_count = 1
        for gi, chain in enumerate(chains):
            if len(chain) == 1:
                edges.append((VIRTUAL, chain[0]))
                continue
            anchor_chain = chains[0] if gi != 0 else chains[1]
            anchor = opp_sets[anchor_chain[0][side]]

            def inner(end_z, next_z):
                # each member separates those before it from those after
                # it, so the chain is a path in the family's nesting tree: some member separates
                # the end from the anchor exactly when the end's neighbour does
                return not rank_separates(opp_sets[next_z[side]],
                                          opp_sets[end_z[side]], anchor)

            lo, hi = inner(chain[0], chain[1]), inner(chain[-1], chain[-2])
            if lo == hi:
                raise GroupOrderNotTotalError((chain[0], chain[-1]))
            edges.append((VIRTUAL, chain[0] if lo else chain[-1]))

    return LeafGraph(family, element, vertices, virtual_count, tuple(edges))


# ---------------------------------------------------------------------------
# layout


class StraightenedDisc(Frozen):
    """Exact layout of Z with its leaf trees and their crossings.

    layout and virtual_positions are dicts, the leaves and crossings
    tuples; the value compares by its fields and has no hash. The boundary
    Z-points sit at their anchors, the shared points of disc.boundary.
    crossings lists the pairs of edges from distinct leaves that meet other
    than in one point ending both: a point inside one of them, or a
    positive length of one line. Each edge is keyed (family, element, edge
    index), each pair is sorted, so its minus edge comes first, and the
    tuple is sorted. layout certifies it locally (see _leaf_crossings).
    """

    __slots__ = ("disc", "layout", "leaves_plus", "leaves_minus", "virtual_positions", "crossings")

    def to_json(self) -> dict:
        return {
            "z": self.disc.to_json(),
            "layout": [
                {"z": [i, j], "pos": self.layout[(i, j)].to_json()}
                for (i, j) in sorted(self.layout)
            ],
            "boundary_anchors": [
                {"z": [i, j], "point": str(s)} for i, j, s in self.disc.boundary
            ],
            "leaves_plus": [g.to_json() for g in self.leaves_plus],
            "leaves_minus": [g.to_json() for g in self.leaves_minus],
            "virtual_positions": [
                {"family": fam, "element": el,
                 "pos": self.virtual_positions[(fam, el)].to_json()}
                for (fam, el) in sorted(self.virtual_positions)
            ],
            "crossings": [
                {"first": list(a), "second": list(b)} for a, b in self.crossings
            ],
        }


def _segments_cross(p: tuple, q: tuple, r: tuple, s: tuple) -> bool:
    """Whether the segments pq and rs, each of positive length, meet other
    than in one point that ends both: in a point inside one of them, or
    along a positive length of one line."""
    o1, o2 = _orient(p, q, r), _orient(p, q, s)
    if o1 == o2 == 0:
        # one line, along which lexicographic order is monotone
        if _h_cmp(p, q) > 0:
            p, q = q, p
        if _h_cmp(r, s) > 0:
            r, s = s, r
        return _h_cmp(p, s) < 0 and _h_cmp(r, q) < 0
    o3, o4 = _orient(r, s, p), _orient(r, s, q)
    if o1 * o2 > 0 or o3 * o4 > 0:
        return False
    # the lines meet in one point: an end of rs when o1 or o2 is 0, of pq
    # when o3 or o4 is
    return not ((o1 == 0 or o2 == 0) and (o3 == 0 or o4 == 0))


def _leaf_crossings(fp: FamilyPair, leaves_plus, leaves_minus, lay, virtual_positions) -> tuple:
    """Every pair of edges from distinct leaves that meet other than in one
    point ending both, sorted and each pair sorted: the list a test of all
    edge pairs gives, found from the regions of the Z-points alone. lay and
    virtual_positions place the Z-points and the virtual vertices, as in
    StraightenedDisc.

    Where leaves lie. Every position of plus leaf i lies in plus hull i: a
    barycenter in its cell, a boundary anchor at a marked point of both
    sets, the virtual vertex at a mean of the leaf's ends. So every edge of
    leaf i lies in hull i. The hulls of one family are pairwise disjoint
    (the forests built here check it), so leaves of one family never meet,
    and plus leaf i meets minus leaf j only in R(z), the meet of plus hull i
    and minus hull j, for a Z-point z = (i, j): the cell of an interior
    Z-point, or a region holding the shared point of a boundary one. The
    hulls of other cross pairs are disjoint.

    Tame edges. An edge of leaf i is tame at z when it ends at the position
    of z and its other end lies outside R(z). A plus edge and a minus edge
    tame at z meet only in that position, which ends both: were they one
    ray from it, the points just past where it leaves R(z) would lie in
    both hulls.

    Chain edges. A chain edge of plus leaf i joins (i, j1) and (i, j2) and
    is tame at both. The disc outside minus hull j is the union of disjoint
    convex caps, one beyond each edge of the hull, so the chain edge meets
    hull j only when j separates j1 from j2. No set separates two
    neighbours of the minus forest (LaminarForest.neighbours, one call per
    chain edge), and then the edge meets only the regions of its ends. A
    third set can separate consecutive members of a chain, so ends that
    are not neighbours do occur.

    Open edges. The virtual edges and the chain edges whose ends are not
    neighbours are tested against the hull of every Z-point of their
    leaf's fiber (hullgeom._hull_cap): an edge misses a hull when both its
    ends lie in one cap, and a Z-point end lies in the cap holding its
    set's arc. An open edge that meets R(z) and is not tame at z is tested
    exactly (_segments_cross) against every opposite edge meeting R(z):
    those ending at z and the open ones that meet it. The hull of a 1-point
    set is its marked point, which ends every edge meeting it, and an edge
    whose ends are one point meets nothing. A pair with no virtual vertex
    so costs one neighbour check per edge and no exact test.
    """
    points = fp.points
    leaves = {"plus": leaves_plus, "minus": leaves_minus}
    loose = {}      # z -> family -> edges of the leaf meeting R(z) untamed
    for family, opp, side in (("plus", "minus", 1), ("minus", "plus", 0)):
        sets, lines = fp.ranks(opp), fp.lines(opp)
        forest = fp.forest(opp)
        for leaf in leaves[family]:
            el = leaf.element
            open_edges = [(idx, u, v) for idx, (u, v) in enumerate(leaf.edges)
                          if u == VIRTUAL or not forest.neighbours(sets, u[side], v[side])]
            if not open_edges:
                continue
            fiber = [z for z in fp.fiber(family, el) if len(sets[z[side]]) > 1]
            if leaf.virtual_count:
                h = virtual_positions[(family, el)]._h
                X, Y, D = h
                # a mean of distinct points of the disc is strictly inside it
                pos = _param_position(points, Y, X + D)
                virtual_caps = {z: _hull_cap(sets, lines, z[side], h, pos) for z in fiber}

            for idx, u, v in open_edges:
                for z in fiber:
                    ring = sets[z[side]]
                    # the cap of the hull of ring holding each end, None for
                    # an end in R(z); a Z-point's is the one holding its
                    # set's arc
                    c1, c2 = [None if a == z else virtual_caps[z] if a == VIRTUAL
                              else bisect_left(ring, sets[a[side]][0]) % len(ring)
                              for a in (u, v)]
                    if u == z or v == z:
                        untamed = c1 is None and c2 is None
                    else:
                        untamed = c1 is None or c1 != c2
                    if untamed:
                        loose.setdefault(z, {}).setdefault(family, set()).add(idx)

    found = set()
    for z, marked in loose.items():
        near = []
        for family, el in (("plus", z[0]), ("minus", z[1])):
            mine = marked.get(family, ())
            edges = []
            for idx, (u, v) in enumerate(leaves[family][el].edges):
                if idx in mine or u == z or v == z:
                    p, q = [(virtual_positions[(family, el)] if a == VIRTUAL else lay[a])._h
                            for a in (u, v)]
                    if p != q:
                        edges.append(((family, el, idx), p, q, idx in mine))
            near.append(edges)
        for a, p, q, loose_a in near[0]:
            for b, r, s, loose_b in near[1]:
                if (loose_a or loose_b) and _segments_cross(p, q, r, s):
                    found.add((b, a))      # the minus key sorts first
    return tuple(sorted(found))


def layout(fp: FamilyPair) -> StraightenedDisc:
    """Deterministic exact layout of the especial disc.

    Interior Z-points sit at the barycenter of their linked cell, boundary
    Z-points at the embedded shared circle point. Layout is injective: when
    two Z-points land on one position, InvariantViolation("layout-collision")
    carries the first of them as its counts and the second as z.

    Each leaf lies in its element's hull, so two leaves can meet only in
    the region where the hulls of a Z-point meet. The crossings are found
    there: the edges that cannot cross by that lemma are skipped, and only
    the rest are tested exactly (see _leaf_crossings); no scan over all
    edges of the disc is made.
    """
    disc = fp.disc
    lay = {z: cell.barycenter() for z, cell in fp.cells().items()}
    for i, j, s in disc.boundary:
        lay[(i, j)] = param_to_point(s)
    placed = {}
    for z, p in lay.items():
        other = placed.setdefault(p.key(), z)
        if other != z:
            raise InvariantViolation("layout-collision", other, z)

    leaves_plus = tuple(leaf_graph(fp, "plus", i) for i in range(disc.n_plus))
    leaves_minus = tuple(leaf_graph(fp, "minus", j) for j in range(disc.n_minus))

    virtual_positions = {}
    for leaf in leaves_plus + leaves_minus:
        if leaf.virtual_count:
            ends = [v for u, v in leaf.edges if u == VIRTUAL]
            virtual_positions[(leaf.family, leaf.element)] = _point(
                _h_mean([lay[e]._h for e in ends]))

    crossings = _leaf_crossings(fp, leaves_plus, leaves_minus, lay, virtual_positions)
    return StraightenedDisc(disc, lay, leaves_plus, leaves_minus, virtual_positions, crossings)


# ---------------------------------------------------------------------------
# quotient diagnostics


class QuotientReport(Frozen):
    """The collapse clauses' verdict; failures is a tuple of dicts."""

    __slots__ = ("ok", "failures", "cells_checked", "points_sampled")

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "cells_checked": self.cells_checked,
            "points_sampled": self.points_sampled,
        }


def quotient_check(fp: FamilyPair) -> QuotientReport:
    """Verify the collapse clauses on every linked cell.

    (a) constant: straightening is constant on each cell (vertices and
    barycenter all map to the cell's own Z-point); (b) surjective: every
    interior Z-point is realized by a nonempty cell.

    Distinct cells map to distinct Z-points with no clause of their own:
    two cells whose barycenters land on one Z-point t include a cell z != t,
    and that barycenter's MappedTo(t) != MappedTo(z) already fails (a).

    Clause (a) asks the collapse test (_collapse_test), whose result for a
    point that fails it is the reported one. A point cell's barycenter is
    its vertex; it is tested once and sampled twice.
    """
    cells = fp.cells()
    failures = []
    sampled = 0
    lands = _collapse_test(fp) if cells else None
    for z, cell in cells.items():
        hs = cell._h
        last = got = None
        for h in hs + (_h_mean(hs),):
            sampled += 1
            if h != last:
                last = h
                got = lands(h, z)
            if got is not None:
                failures.append({"clause": "constant", "z": list(z),
                                 "point": _point(h).to_json(), "got": result_to_json(got)})
    for i, j, _n in fp.disc.interior:
        if (i, j) not in cells:
            failures.append({"clause": "surjective", "z": [i, j]})
    return QuotientReport(not failures, tuple(failures), len(cells), sampled)
