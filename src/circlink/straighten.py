"""Straightening of the linked region onto the classification disc.

Every point in a linked cell collapses to the cell's index pair, giving the
finite straightening map. The layout places interior pairs at exact cell
barycenters and intersecting pairs on the circle, then builds one leaf tree
per element from its fiber, with a virtual branch vertex standing in for a
missing singular point whenever a fiber straddles several sectors.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cmp_to_key
from math import gcd
from operator import itemgetter
from typing import Union

from .circle import rank_gap, rank_separates
from .errors import Frozen, GroupOrderNotTotalError, InvariantViolation
from .family import FamilyPair
from .hullgeom import (
    PlanePoint,
    _h_line,
    _h_mean,
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


_set = object.__setattr__


class MappedTo(Frozen):
    """The point collapses to the interior Z-point z."""

    __slots__ = ("z",)

    def __init__(self, z):
        _set(self, "z", z)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.z,) == (other.z,)
        return NotImplemented

    def __hash__(self):
        return hash((self.z,))


class OnBoundary(Frozen):
    """The point is the shared circle point s of an intersecting pair."""

    __slots__ = ("s",)

    def __init__(self, s):
        _set(self, "s", s)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.s,) == (other.s,)
        return NotImplemented

    def __hash__(self):
        return hash((self.s,))


class NotInDomain(Frozen):
    """The point lies in no linked cell and on no shared circle point."""

    __slots__ = ()

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(())


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
        index = fp.index
        if (i, j) in index.interior:
            return MappedTo((i, j))
        s = index.boundary.get((i, j))
        if s is not None and p == param_to_point(s):
            return OnBoundary(s)
    return NotInDomain()


def _cell_hulls_test(index):
    """The test the verifiers make before straighten_point: whether the
    triple h lies strictly inside the disc, in plus hull i and in minus hull
    j (hullgeom.in_hull).

    A family's hulls are pairwise disjoint, which the forest sweeps built
    here check (InvariantViolation("hull-overlap")), so for such h locate
    returns exactly (i, j). A point that fails the test may still be in
    the hulls, on the rim; the caller asks straighten_point.
    """
    points = index.points
    verts = index.triples()
    plus, minus = index.ranks("plus"), index.ranks("minus")
    index.forest("plus")
    index.forest("minus")

    def holds(h: tuple, i: int, j: int) -> bool:
        X, Y, D = h
        if X * X + Y * Y >= D * D:
            return False
        # D + X > 0 strictly inside the disc
        pos = _param_position(points, Y, X + D)
        return in_hull(plus, verts, i, h, pos) and in_hull(minus, verts, j, h, pos)

    return holds


# ---------------------------------------------------------------------------
# leaf trees

VIRTUAL = "v0"


class LeafGraph:
    """Tree over one element's fiber in Z.

    Vertices are Z-points (i, j); at most one virtual branch vertex, named
    "v0", appears when the fiber spans several sector groups. Edges are
    ordered pairs over these atoms.
    """

    __slots__ = ("family", "element", "vertices", "virtual_count", "edges")

    def __init__(self, family, element, vertices, virtual_count, edges):
        self.family = family
        self.element = element
        self.vertices = tuple(vertices)
        self.virtual_count = virtual_count
        self.edges = tuple(edges)
        if not self.is_tree():
            raise InvariantViolation("leaf-tree", (family, element, len(self.edges),
                                                   len(self.all_vertices())))

    def all_vertices(self) -> tuple:
        extra = (VIRTUAL,) if self.virtual_count else ()
        return self.vertices + extra

    def is_tree(self) -> bool:
        verts = self.all_vertices()
        if not verts:
            return not self.edges
        if len(self.edges) != len(verts) - 1:
            return False
        adj = {v: [] for v in verts}
        for u, v in self.edges:
            if u not in adj or v not in adj:
                return False
            adj[u].append(v)
            adj[v].append(u)
        seen = {verts[0]}
        stack = [verts[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(verts)

    def degree(self, v) -> int:
        return sum(1 for u, w in self.edges if u == v or w == v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LeafGraph):
            return NotImplemented
        return (self.family, self.element, self.vertices, self.virtual_count, self.edges) == (
            other.family, other.element, other.vertices, other.virtual_count, other.edges)

    def __repr__(self) -> str:
        return "LeafGraph(%s[%d], %d vertices, %d virtual, %d edges)" % (
            self.family, self.element, len(self.vertices), self.virtual_count, len(self.edges))

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

    Every predicate runs on the rank tuples of the pair's index.
    """
    index = fp.index
    fiber = index.fiber(family, element)
    lam = index.ranks(family)[element]
    if family == "plus":
        opp_sets = index.ranks("minus")
        opp_of = lambda z: z[1]
    else:
        opp_sets = index.ranks("plus")
        opp_of = lambda z: z[0]
    if not fiber:
        return LeafGraph(family, element, (), 0, ())

    # sector signature: which complementary intervals of lam the opposite
    # element meets (shared marked points sit on lam itself and don't count)
    on_lam = set(lam)
    gap_pts = {}
    for z in fiber:
        gap_pts[z] = [(rank_gap(lam, r), r) for r in opp_sets[opp_of(z)] if r not in on_lam]

    groups = {}
    for z in fiber:
        sig = frozenset(g for g, _ in gap_pts[z])
        key = (tuple(sorted(sig)), z) if not sig else (tuple(sorted(sig)),)
        groups.setdefault(key, []).append(z)
    group_keys = sorted(groups)

    chains = []
    for key in group_keys:
        members = groups[key]
        if len(members) == 1:
            chains.append(members)
            continue
        g0 = key[0][0]
        start = lam[g0]

        def arc_key(r):
            # order along the circle starting just after lam[g0]
            return (0 if start < r else 1, r)

        def first_point(z):
            return min((r for g, r in gap_pts[z] if g == g0), key=arc_key)

        chain = sorted(members, key=lambda z: arc_key(first_point(z)))
        for t in range(1, len(chain) - 1):
            a = opp_sets[opp_of(chain[t - 1])]
            b = opp_sets[opp_of(chain[t])]
            c = opp_sets[opp_of(chain[t + 1])]
            if not rank_separates(b, a, c):
                raise GroupOrderNotTotalError((chain[t - 1], chain[t], chain[t + 1]))
        chains.append(chain)

    vertices = [z for chain in chains for z in chain]
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
            anchor = opp_sets[opp_of(anchor_chain[0])]

            def inner(end_z, next_z):
                # the chain passed its neighbour checks, so it is a path in
                # the family's nesting tree: some member separates the end
                # from the anchor exactly when the end's neighbour does
                return not rank_separates(opp_sets[opp_of(next_z)],
                                          opp_sets[opp_of(end_z)], anchor)

            lo, hi = inner(chain[0], chain[1]), inner(chain[-1], chain[-2])
            if lo == hi:
                raise GroupOrderNotTotalError((chain[0], chain[-1]))
            edges.append((VIRTUAL, chain[0] if lo else chain[-1]))

    return LeafGraph(family, element, vertices, virtual_count, edges)


# ---------------------------------------------------------------------------
# layout


class StraightenedDisc:
    """Exact layout of Z with its leaf trees and crossing diagnostics."""

    __slots__ = ("disc", "layout", "leaves_plus", "leaves_minus",
                 "boundary_anchors", "virtual_positions", "crossings")

    def __init__(self, disc, layout, leaves_plus, leaves_minus,
                 boundary_anchors, virtual_positions, crossings):
        self.disc = disc
        self.layout = dict(layout)
        self.leaves_plus = tuple(leaves_plus)
        self.leaves_minus = tuple(leaves_minus)
        self.boundary_anchors = dict(boundary_anchors)
        self.virtual_positions = dict(virtual_positions)
        self.crossings = tuple(crossings)

    def leaf(self, family: str, element: int) -> LeafGraph:
        return (self.leaves_plus if family == "plus" else self.leaves_minus)[element]

    def position(self, family: str, element: int, v) -> PlanePoint:
        if isinstance(v, str):
            return self.virtual_positions[(family, element)]
        return self.layout[v]

    def to_json(self) -> dict:
        return {
            "z": self.disc.to_json(),
            "layout": [
                {"z": [i, j], "pos": self.layout[(i, j)].to_json()}
                for (i, j) in sorted(self.layout)
            ],
            "boundary_anchors": [
                {"z": [i, j], "point": str(self.boundary_anchors[(i, j)])}
                for (i, j) in sorted(self.boundary_anchors)
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


def _line_key(hp: tuple, hq: tuple) -> tuple:
    # canonical integer line through two distinct homogeneous points
    a, b, c = _h_line(hp, hq)
    g = gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    if (a or b or c) < 0:
        a, b, c = -a, -b, -c
    return (a, b, c)


def _span_cmp(e: tuple, f: tuple) -> int:
    # exact (lo, hi) order of two spans; denominators are positive
    d = e[0] * f[1] - f[0] * e[1]
    if not d:
        d = e[2] * f[3] - f[2] * e[3]
    return (d > 0) - (d < 0)


def _sort_spans(entries: list) -> None:
    """Sort spans (lo_n, lo_d, hi_n, hi_d, leaf, edge, flo, fhi) in place
    by their exact (lo, hi), stably.

    flo and fhi are the correctly rounded floats of lo and hi, monotone in
    the exact values: sorting by them leaves only runs of tied floats out
    of order, and an exact sort by cross-multiplication then fixes those.
    """
    entries.sort(key=itemgetter(6, 7))
    if any(a[6] == b[6] for a, b in zip(entries, entries[1:])):
        entries.sort(key=cmp_to_key(_span_cmp))


def _stab(entries, flos, fmaxhi, pn, pd, fpos):
    """Entries whose closed span contains pn/pd, with pd > 0.

    The float arrays only narrow the scan window; every candidate is
    confirmed by integer cross-multiplication.
    """
    k = bisect_right(flos, fpos + 1e-9) - 1
    out = []
    floor = fpos - 1e-9
    while k >= 0 and fmaxhi[k] >= floor:
        e = entries[k]
        # lo <= pos <= hi exactly
        if e[0] * pd <= pn * e[1] and pn * e[3] <= e[2] * pd:
            out.append(e)
        k -= 1
    return out


def _detect_crossings(leaves, position) -> list:
    """All edge pairs from distinct leaves that meet away from a shared vertex.

    Segments are grouped by supporting line. On one line, a crossing is a
    positive-length span overlap; endpoint contact collapses to a shared
    vertex. Across two lines the only candidate is the exact meet of the
    lines, checked against each group with a stabbing query. Positions along
    a line are kept as integer numerator/denominator pairs read from the
    points' triples.
    """
    groups = {}
    boxes = {}
    for leaf in leaves:
        lid = (leaf.family, leaf.element)
        for idx, (u, v) in enumerate(leaf.edges):
            hp = position(leaf.family, leaf.element, u)._h
            hq = position(leaf.family, leaf.element, v)._h
            if hp == hq:
                continue
            line = _line_key(hp, hq)
            axis = 0 if abs(line[1]) >= abs(line[0]) else 1
            # int / int is correctly rounded, as float(Fraction) is
            pf = (hp[0] / hp[2], hp[1] / hp[2])
            qf = (hq[0] / hq[2], hq[1] / hq[2])
            # denominators of normalised triples are positive
            ln, ld, flo = hp[axis], hp[2], pf[axis]
            hn, hd, fhi = hq[axis], hq[2], qf[axis]
            if hn * ld < ln * hd:
                ln, ld, flo, hn, hd, fhi = hn, hd, fhi, ln, ld, flo
            groups.setdefault(line, []).append((ln, ld, hn, hd, lid, idx, flo, fhi))
            x0, x1 = sorted((pf[0], qf[0]))
            y0, y1 = sorted((pf[1], qf[1]))
            fb = boxes.get(line)
            if fb is None:
                boxes[line] = [x0, x1, y0, y1]
            else:
                fb[0] = min(fb[0], x0)
                fb[1] = max(fb[1], x1)
                fb[2] = min(fb[2], y0)
                fb[3] = max(fb[3], y1)

    found = set()
    prepared = []
    for line in sorted(groups):
        entries = groups[line]
        _sort_spans(entries)
        flos = [e[6] for e in entries]
        fmaxhi = []
        running = None
        for e in entries:
            if running is None or e[7] > running:
                running = e[7]
            fmaxhi.append(running)
        # collinear case: spans meeting in more than a point always cross
        for i in range(len(entries)):
            lo_n, lo_d, hi_n, hi_d, lid_i, idx_i, _, _ = entries[i]
            for j in range(i + 1, len(entries)):
                e = entries[j]
                if e[0] * hi_d >= hi_n * e[1]:
                    break
                if e[4] == lid_i:
                    continue
                found.add(tuple(sorted(((lid_i[0], lid_i[1], idx_i),
                                        (e[4][0], e[4][1], e[5])))))
        box = boxes[line]
        # float boxes only prune; meets are confirmed exactly below
        prepared.append((line, entries, flos, fmaxhi,
                         (box[0] - 1e-9, box[1] + 1e-9,
                          box[2] - 1e-9, box[3] + 1e-9)))

    for gi in range(len(prepared)):
        line_a, ent_a, flos_a, fmaxhi_a, box_a = prepared[gi]
        axis_a = 0 if abs(line_a[1]) >= abs(line_a[0]) else 1
        for gj in range(gi + 1, len(prepared)):
            line_b, ent_b, flos_b, fmaxhi_b, box_b = prepared[gj]
            if box_b[0] > box_a[1] or box_b[1] < box_a[0] \
                    or box_b[2] > box_a[3] or box_b[3] < box_a[2]:
                continue
            pw = line_a[0] * line_b[1] - line_a[1] * line_b[0]
            if pw == 0:
                continue
            px = line_a[1] * line_b[2] - line_a[2] * line_b[1]
            py = line_a[2] * line_b[0] - line_a[0] * line_b[2]
            if pw < 0:
                px, py, pw = -px, -py, -pw
            pn_a = px if axis_a == 0 else py
            hits_a = _stab(ent_a, flos_a, fmaxhi_a, pn_a, pw, pn_a / pw)
            if not hits_a:
                continue
            axis_b = 0 if abs(line_b[1]) >= abs(line_b[0]) else 1
            pn_b = px if axis_b == 0 else py
            hits_b = _stab(ent_b, flos_b, fmaxhi_b, pn_b, pw, pn_b / pw)
            if not hits_b:
                continue
            for lo_n, lo_d, hi_n, hi_d, lid_i, idx_i, _, _ in hits_a:
                end_i = pn_a * lo_d == lo_n * pw or pn_a * hi_d == hi_n * pw
                for e in hits_b:
                    if e[4] == lid_i:
                        continue
                    if end_i and (pn_b * e[1] == e[0] * pw
                                  or pn_b * e[3] == e[2] * pw):
                        continue
                    found.add(tuple(sorted(((lid_i[0], lid_i[1], idx_i),
                                            (e[4][0], e[4][1], e[5])))))
    return sorted(found)


def layout(fp: FamilyPair) -> StraightenedDisc:
    """Deterministic exact layout of the especial disc.

    Interior Z-points sit at the barycenter of their linked cell, boundary
    Z-points at the embedded shared circle point. Layout is injective: when
    two Z-points land on one position, InvariantViolation("layout-collision")
    carries the first of them as its counts and the second as z.
    """
    index = fp.index
    disc = index.disc
    cells = index.cells()
    lay = {}
    for z in sorted(cells):
        lay[z] = cells[z].barycenter()
    anchors = {}
    for i, j, s in disc.boundary:
        lay[(i, j)] = param_to_point(s)
        anchors[(i, j)] = s
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

    def position(family, element, v):
        if isinstance(v, str):
            return virtual_positions[(family, element)]
        return lay[v]

    crossings = _detect_crossings(leaves_plus + leaves_minus, position)
    return StraightenedDisc(disc, lay, leaves_plus, leaves_minus,
                            anchors, virtual_positions, crossings)


# ---------------------------------------------------------------------------
# quotient diagnostics


class QuotientReport:
    __slots__ = ("ok", "failures", "cells_checked", "points_sampled")

    def __init__(self, ok, failures, cells_checked, points_sampled):
        self.ok = ok
        self.failures = tuple(failures)
        self.cells_checked = cells_checked
        self.points_sampled = points_sampled

    def __repr__(self) -> str:
        return "QuotientReport(ok=%r, cells=%d, samples=%d)" % (
            self.ok, self.cells_checked, self.points_sampled)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "failures": list(self.failures),
            "cells_checked": self.cells_checked,
            "points_sampled": self.points_sampled,
        }


def quotient_check(fp: FamilyPair) -> QuotientReport:
    """Verify the three collapse clauses on every linked cell.

    (a) straightening is constant on each cell (vertices and barycenter all
    map to the cell's own Z-point); (b) distinct cells map to distinct
    Z-points, judged by where each barycenter lands; (c) every interior
    Z-point is realized by a nonempty cell.

    A family's hulls are pairwise disjoint, so a point strictly inside the
    disc straightens to z = (i, j) exactly when it lies in plus hull i and
    in minus hull j: clause (a) tests that containment (hullgeom.in_hull, at
    most four side tests a point) and runs straighten_point only on a point
    that fails it, which gives every reported result. A point cell's
    barycenter is its vertex; it is tested once and sampled twice.
    """
    index = fp.index
    cells = index.cells()
    failures = []
    sampled = 0
    landed = {}
    holds = _cell_hulls_test(index) if cells else None
    for z in sorted(cells):
        cell = cells[z]
        hs = cell._h
        last = got = None
        for h in hs + (_h_mean(hs),):
            sampled += 1
            if h != last:
                last = h
                got = None if holds(h, *z) else straighten_point(fp, _point(h))
            if got is not None and got != MappedTo(z):
                failures.append({"clause": "constant", "z": list(z),
                                 "point": _point(h).to_json(), "got": result_to_json(got)})
        # got is the barycenter's result, None when it lies in the cell's hulls
        if got is None:
            landed.setdefault(z, []).append(z)
        elif isinstance(got, MappedTo):
            landed.setdefault(got.z, []).append(z)
    for target in sorted(landed):
        if len(landed[target]) > 1:
            failures.append({"clause": "injective", "z": list(target),
                             "cells": [list(z) for z in landed[target]]})
    for i, j, _n in index.disc.interior:
        if (i, j) not in cells:
            failures.append({"clause": "surjective", "z": [i, j]})
    return QuotientReport(not failures, failures, len(cells), sampled)
