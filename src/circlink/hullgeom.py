"""Exact planar realization: circle embedding, convex hulls, cell intersections.

Circle parameters land on the unit circle through the tangent half-angle map,
so every marked point has rational coordinates and cyclic order becomes
counterclockwise order. All predicates are exact and work on homogeneous
integer triples (X, Y, D) standing for (X/D, Y/D): a PlanePoint stores its
triple normalised to D > 0 and gcd(X, Y, D) = 1, and each vertex of a cell
made from others is the integer meet of two lines. Wire rationals parse
into integer pairs (_parse_frac), and integers and p/q without Fraction, so
this module imports fractions only when a string needs Fraction's grammar,
a PlanePoint is made from coordinates or a caller reads .x or .y.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from functools import cmp_to_key
from math import gcd

from .circle import CirclePoint, CircleSet
from .circle import point as circle_point
from .errors import (
    EmptyLinkedCellError,
    Immutable,
    InvariantViolation,
    MalformedInputError,
    OutsideDiscError,
)

__all__ = [
    "PlanePoint",
    "ConvexCell",
    "param_to_point",
    "hull",
    "cell_intersection",
    "in_hull",
    "locate",
    "linked_cells",
]


# An integer or p/q in ASCII digits, which Fraction reads alike on every
# Python version
_RATIO_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _parse_frac(s, where: str) -> tuple:
    """The rational a wire string spells, as (num, den) in lowest terms with
    den > 0: whatever Fraction(s) reads, such as an integer, p/q or a decimal.

    An exponent is refused, since Fraction would expand "1e999999999" into
    a billion-digit integer. An integer or p/q in ASCII digits is read
    without Fraction, so a command given only those imports no fractions.
    """
    if not isinstance(s, str):
        raise MalformedInputError("coordinate must be a rational string", where)
    if "e" in s or "E" in s:
        raise MalformedInputError("exponent in rational %r" % s, where)
    m = _RATIO_RE.fullmatch(s)
    try:
        if m is None:
            import fractions

            f = fractions.Fraction(s)
            return (f.numerator, f.denominator)
        num, den = int(m[1]), int(m[2] or "1")
    except (ValueError, ZeroDivisionError):
        den = 0
    if not den:
        raise MalformedInputError("bad rational %r" % s, where)
    g = gcd(num, den)
    return (num // g, den // g)


def _over_lcm(ratios) -> tuple:
    """The numerators of the (num, den) pairs ratios, each den > 0, over the
    lcm of their denominators, followed by that lcm.

    For pairs in lowest terms the result has gcd 1: any prime of the lcm
    divides some den in full power and not its numerator. So two
    coordinates give a normalised plane triple.
    """
    d = 1
    for _, q in ratios:
        d = d // gcd(d, q) * q
    return tuple([n * (d // q) for n, q in ratios]) + (d,)


class PlanePoint(Immutable):
    """Exact, immutable point of the plane, stored as its normalised
    homogeneous triple.

    The coordinates are anything Fraction accepts; .x and .y rebuild them as
    Fractions on demand. Equality, hashing and key() use the triple, which
    is unique to the point.
    """

    __slots__ = ("_h",)

    def __init__(self, x, y):
        import fractions

        _set_point_h(self, _over_lcm([(f.numerator, f.denominator)
                                      for f in map(fractions.Fraction, (x, y))]))

    def __reduce__(self):
        return (_point, (self._h,))

    @property
    def x(self) -> Fraction:
        import fractions

        return fractions.Fraction(self._h[0], self._h[2])

    @property
    def y(self) -> Fraction:
        import fractions

        return fractions.Fraction(self._h[1], self._h[2])

    def __eq__(self, other) -> bool:
        if not isinstance(other, PlanePoint):
            return NotImplemented
        return self._h == other._h

    def __hash__(self) -> int:
        return hash(self._h)

    def __repr__(self) -> str:
        return "PlanePoint(%s, %s)" % tuple(self.to_json())

    def __str__(self) -> str:
        return "(%s, %s)" % tuple(self.to_json())

    def key(self) -> tuple:
        return self._h

    def to_json(self) -> list:
        X, Y, D = self._h
        return [str(CirclePoint(X, D)), str(CirclePoint(Y, D))]

    @classmethod
    def from_json(cls, data, where: str = "$") -> "PlanePoint":
        if not isinstance(data, list) or len(data) != 2:
            raise MalformedInputError("point must be a [x, y] pair", where)
        return _point(_over_lcm([_parse_frac(data[0], where + "[0]"),
                                 _parse_frac(data[1], where + "[1]")]))


# ---------------------------------------------------------------------------
# homogeneous integer triples


def _h_norm(X: int, Y: int, D: int) -> tuple:
    if D < 0:
        X, Y, D = -X, -Y, -D
    g = gcd(gcd(abs(X), abs(Y)), D)
    if g > 1:
        X, Y, D = X // g, Y // g, D // g
    return (X, Y, D)


# the slots' own setters, which Immutable's __setattr__ would refuse; render
# makes about 15 000 points and cells on grid(120)
_set_point_h = PlanePoint._h.__set__


def _point(h: tuple) -> PlanePoint:
    # the point of a triple already normalised by _h_norm
    p = object.__new__(PlanePoint)
    _set_point_h(p, h)
    return p


def _h_in_disc(h: tuple) -> bool:
    return h[0] * h[0] + h[1] * h[1] <= h[2] * h[2]


def _h_mean(hs) -> tuple:
    """The mean of the points hs, summed in pairs.

    Two unreduced sums (X1, Y1, D1) and (X2, Y2, D2) merge over
    lcm(D1, D2), so every partial sum keeps the lcm of its points'
    denominators and the total is the one summed over the lcm of all of
    them. Merging in balanced rounds costs O(k log k) word operations for
    k points, where k big-by-small products over that lcm cost O(k^2).
    """
    if len(hs) == 1:
        return hs[0]
    sums = list(hs)
    while len(sums) > 1:
        merged = []
        for i in range(1, len(sums), 2):
            X1, Y1, D1 = sums[i - 1]
            X2, Y2, D2 = sums[i]
            g = gcd(D1, D2)
            a, b = D2 // g, D1 // g
            merged.append((X1 * a + X2 * b, Y1 * a + Y2 * b, D1 * a))
        if len(sums) % 2:
            merged.append(sums[-1])
        sums = merged
    X, Y, D = sums[0]
    return _h_norm(X, Y, D * len(hs))


def _h_cmp(p: tuple, q: tuple) -> int:
    a = p[0] * q[2] - q[0] * p[2]
    if a:
        return 1 if a > 0 else -1
    b = p[1] * q[2] - q[1] * p[2]
    if b:
        return 1 if b > 0 else -1
    return 0


def _orient(o: tuple, a: tuple, b: tuple) -> int:
    # sign of the cross product (a - o) x (b - o); denominators are positive
    s1x = a[0] * o[2] - o[0] * a[2]
    s1y = a[1] * o[2] - o[1] * a[2]
    s2x = b[0] * o[2] - o[0] * b[2]
    s2y = b[1] * o[2] - o[1] * b[2]
    v = s1x * s2y - s1y * s2x
    return (v > 0) - (v < 0)


def _h_between(a: tuple, b: tuple, p: tuple) -> bool:
    # p assumed collinear with a, b; lex order is monotone along a line
    lo, hi = (a, b) if _h_cmp(a, b) <= 0 else (b, a)
    return _h_cmp(lo, p) <= 0 and _h_cmp(p, hi) <= 0


def _h_line(p: tuple, q: tuple) -> tuple:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _h_line_cross(L: tuple, M: tuple) -> tuple:
    X = L[1] * M[2] - L[2] * M[1]
    Y = L[2] * M[0] - L[0] * M[2]
    D = L[0] * M[1] - L[1] * M[0]
    if not D:
        raise InvariantViolation("parallel-lines", (L, M))
    return _h_norm(X, Y, D)


def _h_from_param(u: CirclePoint) -> tuple:
    if u.is_infinite:
        return (-1, 0, 1)
    p, q = u.num, u.den
    return _h_norm(q * q - p * p, 2 * p * q, q * q + p * p)


# ---------------------------------------------------------------------------
# public types


def param_to_point(u) -> PlanePoint:
    """Embed a circle parameter on the unit circle, INF at (-1, 0)."""
    return _point(_h_from_param(circle_point(u)))


class ConvexCell(Immutable):
    """Immutable convex cell of dimension 0, 1, or 2 with canonical vertex order.

    dim 2 vertices run counterclockwise starting at the lexicographically
    smallest; dim 1 stores the lex-smaller endpoint first. The cell keeps
    only the vertex triples; .vertices builds the PlanePoints on demand. A
    wrong vertex count raises ValueError, a vertex outside the closed unit
    disc OutsideDiscError.
    """

    __slots__ = ("dim", "_h")

    def __init__(self, dim: int, vertices):
        self._set(dim, tuple(v._h for v in vertices))

    def _set(self, dim: int, hs: tuple) -> None:
        n = len(hs)
        if dim == 0:
            if n != 1:
                raise ValueError("a cell of dim 0 has 1 vertex, not %d" % n)
        elif dim == 1:
            if n != 2 or hs[0] == hs[1]:
                raise ValueError("a cell of dim 1 has 2 distinct vertices")
        elif dim == 2:
            if n < 3:
                raise ValueError("a cell of dim 2 has at least 3 vertices, not %d" % n)
        else:
            raise ValueError("dim must be 0, 1, or 2")
        for h in hs:
            if not _h_in_disc(h):
                raise OutsideDiscError(_point(h))
        _set_cell_dim(self, dim)
        _set_cell_h(self, hs)

    def __reduce__(self):
        return (_cell, (self.dim, self._h))

    @property
    def vertices(self) -> tuple:
        return tuple([_point(h) for h in self._h])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ConvexCell):
            return NotImplemented
        return self.dim == other.dim and self._h == other._h

    def __hash__(self) -> int:
        return hash((self.dim, self._h))

    def __repr__(self) -> str:
        return "ConvexCell(dim=%d, vertices=%s)" % (
            self.dim, "[" + ", ".join(str(v) for v in self.vertices) + "]")

    def barycenter(self) -> PlanePoint:
        return _point(_h_mean(self._h))

    def to_json(self) -> dict:
        return {"dim": self.dim, "vertices": [v.to_json() for v in self.vertices]}


# as for PlanePoint
_set_cell_dim = ConvexCell.dim.__set__
_set_cell_h = ConvexCell._h.__set__


def _cell(dim: int, hs: tuple) -> ConvexCell:
    # a cell straight from normalised vertex triples, checked as __init__ checks
    cell = object.__new__(ConvexCell)
    cell._set(dim, hs)
    return cell


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


def hull(a_set: CircleSet) -> ConvexCell:
    """Convex hull of the embedded circle set.

    Circle points are in convex position, so the stored cyclic order is
    already the counterclockwise vertex order; it only gets rotated to the
    canonical start.
    """
    return _ring_cell([_h_from_param(u) for u in a_set.points])


def _ring_cell(hs: list) -> ConvexCell:
    """The canonical cell of distinct vertices in strictly convex position
    and counterclockwise order."""
    if len(hs) == 1:
        return _cell(0, tuple(hs))
    if len(hs) == 2:
        if _h_cmp(hs[0], hs[1]) > 0:
            hs.reverse()
        return _cell(1, tuple(hs))
    start = 0
    for k in range(1, len(hs)):
        if _h_cmp(hs[k], hs[start]) < 0:
            start = k
    return _cell(2, tuple(hs[start:] + hs[:start]))


# ---------------------------------------------------------------------------
# intersections


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


# ---------------------------------------------------------------------------
# families in the plane


# Point location (de Berg et al., Computational Geometry, ch. 6), specialised
# to one family's hulls. Every point of the open chord from INF = (-1, 0) to
# the circle point of parameter t has t = Y / (D + X), the inverse of the map
# param_to_point. A hull meets that chord only when its set has finite points
# on both sides of t (it straddles t), or holds both INF and t, when the chord
# is one of its edges. The sets of a family with disjoint hulls nest: those
# straddling t are the root-to-node path of a laminar forest, and they cut
# the chord in disjoint pieces, outermost nearest INF. A query bisects the
# ranked points for t, walks that path up the pair's LaminarForest, bisects
# it on the edges bracketing t, and tests the candidate with in_hull:
# O(log) exact side tests, no float, and an O(depth) walk of parent
# pointers, with no table of paths kept. A caller that already names the
# hull skips the search: in_hull alone costs at most two side tests.


def _param_position(points: tuple, y: int, x: int) -> int:
    """Where the parameter y/x falls among the ranked points: 2r + 1 when it
    equals points[r], 2r when it lies between ranks r - 1 and r.

    x >= 0, and (1, 0) stands for INF; comparisons cross-multiply.
    """
    lo, hi = 0, len(points)
    while lo < hi:
        mid = (lo + hi) // 2
        q = points[mid]
        d = y * q.den - q.num * x
        if not d:
            return 2 * mid + 1
        if d < 0:
            hi = mid
        else:
            lo = mid + 1
    return 2 * lo


def _find(fp: FamilyPair, family: str, h: tuple, pos: int) -> int | None:
    """The set of one family whose hull holds h, strictly inside the disc,
    when the chord parameter of h falls at position pos.

    The sets straddling pos are the forest's innermost straddler and its
    parent chain, walked here and bisected outermost first. At a finite
    rank of the set holding INF that set alone is tested, since the chord
    from INF to the rank is an edge or a diagonal of its hull.
    """
    forest = fp.forest(family)
    sets = fp.ranks(family)
    lines = fp.lines(family)
    top = forest.inf_owner
    k = top if top is not None and pos & 1 and forest.owner[pos >> 1] == top else forest.inner[pos]
    path = []
    while k is not None:
        path.append(k)
        k = forest.parent[k]
    path.reverse()
    # first set on the path that h is not past the exit edge of: the edge
    # bracketing pos, or the edge into pos when pos is a vertex of the set,
    # which the whole chord lies left of
    r = pos >> 1
    lo, hi = 0, len(path)
    while lo < hi:
        mid = (lo + hi) // 2
        k = path[mid]
        if _in_cap(lines[k], bisect_left(sets[k], r), h):
            lo = mid + 1
        else:
            hi = mid
    if lo == len(path):
        return None
    # the outermost set whose exit edge h is not past; in_hull decides with
    # that edge and the entry edge bracketing INF
    k = path[lo]
    return k if in_hull(sets, lines, k, h, pos) else None


def in_hull(sets, lines, k: int, h: tuple, pos: int) -> bool:
    """Whether hull k of a family holds h, strictly inside the disc, when the
    chord parameter of h falls at position pos (see _param_position).

    sets are the family's rank tuples and lines their edge lines
    (FamilyPair.lines). The chord from INF through h starts in the closed cap
    cut off by k's wrap edge (s[-1], s[0]), which brackets INF, and ends in
    the cap of the edge bracketing pos, or at a vertex of k, where it is
    left of the edge into that vertex. A segment of the open disc leaves the
    hull into one cap at each end at most, so h is in the hull exactly when
    it is on or left of those two edges: two side tests at most. When pos
    falls in the wrap gap the whole chord is in the wrap cap, and that edge
    decides alone. A 1-point set holds no point inside the disc.
    """
    return len(sets[k]) > 1 and _hull_cap(sets, lines, k, h, pos) is None


def _in_cap(lines: tuple, e: int, h: tuple) -> bool:
    """The side test: whether h lies strictly right of edge e of a hull whose
    edge lines are lines, in its cap e: the dot product of the line and h is
    > 0, or < 0 on the wrap edge 0 (see _edge_lines)."""
    a, b, c = lines[e]
    d = a * h[0] + b * h[1] + c * h[2]
    return d < 0 if e == 0 else d > 0


def _hull_cap(sets, lines, k: int, h: tuple, pos: int) -> int | None:
    """The cap of hull k holding h, None when h is in the hull; h and pos
    are as for in_hull, and the set has at least two points.

    Cap e is the part of the closed disc strictly right of the hull's edge
    e, from rank s[e - 1] to rank s[e] of the set s (cap 0 beyond the wrap
    edge), and holds the ranks r with bisect_left(s, r) % len(s) == e. The
    caps are convex, pairwise disjoint and hold every point of the disc
    outside the hull, so a segment of the disc misses the hull exactly when
    both its ends lie in one cap.
    """
    s = sets[k]
    e = bisect_left(s, pos >> 1) % len(s)
    if _in_cap(lines[k], e, h):
        return e
    if e and _in_cap(lines[k], 0, h):
        return 0
    return None


def locate(fp: FamilyPair, p: PlanePoint) -> tuple:
    """Indices of the plus hull and minus hull containing p, None when absent.

    A point on the circle is in a hull only at a vertex, so it needs the
    rank of its parameter and the owner of that rank in each family's
    laminar forest; for an interior point, _find walks each family's forest
    from the innermost set straddling its chord parameter.
    """
    h = p._h
    X, Y, D = h
    rim = X * X + Y * Y - D * D
    if rim > 0:
        raise OutsideDiscError(p)
    # D + X == 0 only at INF itself, since p is in the closed disc
    pos = _param_position(fp.points, Y if X + D else 1, X + D)
    if rim == 0:
        plus, minus = fp.forest("plus").owner, fp.forest("minus").owner
        return (plus[pos >> 1], minus[pos >> 1]) if pos & 1 else (None, None)
    return _find(fp, "plus", h, pos), _find(fp, "minus", h, pos)


def _edge_lines(ranks: tuple, points: tuple) -> tuple:
    """The line of each edge of a rank tuple's hull, numbered as the caps:
    entry e is the edge from ranks[e - 1] to ranks[e], entry 0 the wrap edge.
    Ranks of parameters p1/q1 and p2/q2 in points (INF as 1/0) sit at the rim
    triples (q^2 - p^2, 2pq, q^2 + p^2), whose cross product (_h_line) is
    2 (p1 q2 - p2 q1) times their line (q1 q2 - p1 p2, p1 q2 + p2 q1,
    -(q1 q2 + p1 p2)), of half its degree and symmetric in its ends. The
    factor is negative up the rank order and positive on the wrap edge, so
    _in_cap agrees with _orient."""
    ends = [(points[r].num, points[r].den) for r in ranks]
    lines = [(q1 * q2 - p1 * p2, p1 * q2 + p2 * q1, -(q1 * q2 + p1 * p2))
             for (p1, q1), (p2, q2) in zip(ends[-1:] + ends[:-1], ends)]
    return (lines[1], lines[1]) if len(lines) == 2 else tuple(lines)


def _jump_cell(a: tuple, b: tuple, n: int, la: tuple, lb: tuple, z: tuple) -> ConvexCell:
    """The cell of the disjoint rank tuples a and b, which alternate n times,
    as the 2n-gon of their jump edges' crossings; la and lb are the edge
    lines (_edge_lines), numbered as the caps. z names the pair in the error
    raised when the walk does not close after exactly n >= 2 rounds.

    The walk records the line pairs and decides closure before it crosses
    any line, so a pair that is not linked n times raises
    EmptyLinkedCellError, never a crossing's error. Two chords take a closed
    form: both edges of a chord are one line, so every vertex of their walk
    is the crossing of the two lines, and the walk closes after exactly two
    rounds when the chords' ranks strictly alternate and otherwise after
    one round or never, on shared ranks too.
    """
    m, k = len(a), len(b)
    if m == k == 2:
        lo, hi = a
        if n != 2 or not (lo < b[0] < hi < b[1] or b[0] < lo < b[1] < hi):
            raise EmptyLinkedCellError(z)
        return _cell(0, (_h_line_cross(la[0], lb[0]),))
    ca = start = bisect_left(a, b[0]) % m
    pairs = []
    for rounds in range(1, n + 1):
        # the b-edge over the next run of a, then the a-edge over the run of
        # b after it; each crosses the edge before it once
        cb = bisect_left(b, a[ca]) % k
        pairs.append((la[ca], lb[cb]))
        ca = bisect_left(a, b[cb]) % m
        pairs.append((la[ca], lb[cb]))
        if ca == start:
            break
    if n < 2 or ca != start or rounds != n:
        raise EmptyLinkedCellError(z)
    hs = []
    pa = pb = x = None
    for A, B in pairs:
        if A is not pa or B is not pb:
            pa, pb, x = A, B, _h_line_cross(A, B)
        hs.append(x)
    # only a 2-point set repeats a line, so repeats are adjacent cyclically
    return _ring_cell([h for q, h in enumerate(hs) if h != hs[q - 1]] or hs[:1])


def linked_cells(fp: FamilyPair) -> dict:
    """The nonempty hull intersection for every interior Z-point, keyed in
    (i, j) order: the walk follows the pair's disc.interior, which is
    sorted.

    Rank tuples that alternate n times have n jump edges each, the edges
    whose arcs hold ranks of the other tuple. No vertex of one hull lies in
    the other and every other edge crosses nothing, so the cell is the
    2n-gon of the jump edges' crossings, found by walking the runs (see
    _jump_cell). Two chords, which alternate twice, take a closed form: the
    cell is the crossing of their lines, the one vertex the walk would
    find. A walk that does not close after n rounds, or chords that do not
    alternate, mean the geometry disagrees with the combinatorics and raise
    EmptyLinkedCellError; closure is decided before any line is crossed.
    The rank tuples, the edge lines and the disc come from the pair's
    caches.
    """
    plus, minus = fp.ranks("plus"), fp.ranks("minus")
    lines_plus, lines_minus = fp.lines("plus"), fp.lines("minus")
    return {(i, j): _jump_cell(plus[i], minus[j], n, lines_plus[i], lines_minus[j], (i, j))
            for i, j, n in fp.disc.interior}
