"""The two-Fraction plane arithmetic that the stored triple replaced.

PlanePoint keeps one normalised homogeneous triple (X, Y, D) and builds
Fractions only on demand; layout averages triples over a common denominator
and sorts spans by float with exact tie-breaks. This module keeps the
earlier forms: FractionPoint, which stored the two coordinates as
Fractions, the Fraction mean, the mean of triples summed over the lcm of
all their denominators (hullgeom._h_mean sums in pairs), and an all-pairs Fraction crossing test that
shares no code with crossing_oracle._detect_crossings. The tests require equal
answers from both.
"""

from fractions import Fraction
from math import lcm

from circlink import PlanePoint
from circlink.hullgeom import _h_norm


def _frac_str(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return "%d/%d" % (q.numerator, q.denominator)


class FractionPoint:
    """Exact point of the plane, as PlanePoint stored it before."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = Fraction(x)
        self.y = Fraction(y)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FractionPoint):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.x, self.y))

    def __repr__(self) -> str:
        return "PlanePoint(%s, %s)" % (_frac_str(self.x), _frac_str(self.y))

    def __str__(self) -> str:
        return "(%s, %s)" % (_frac_str(self.x), _frac_str(self.y))

    def key(self):
        return (self.x, self.y)

    def to_json(self) -> list:
        return [_frac_str(self.x), _frac_str(self.y)]


def fraction_mean(points) -> PlanePoint:
    n = len(points)
    return PlanePoint(sum(p.x for p in points) / n, sum(p.y for p in points) / n)


def lcm_mean(hs) -> tuple:
    """The mean of the triples hs, as _h_mean took it before."""
    if len(hs) == 1:
        return hs[0]
    common = lcm(*(h[2] for h in hs))
    return _h_norm(sum(h[0] * (common // h[2]) for h in hs),
                   sum(h[1] * (common // h[2]) for h in hs), common * len(hs))


def _cross(ax, ay, bx, by):
    return ax * by - ay * bx


def segments_cross(p1, p2, q1, q2) -> bool:
    """Two closed segments share a point that is not an end of both, or
    overlap in a positive length; each segment has distinct ends."""
    dx, dy = p2.x - p1.x, p2.y - p1.y
    ex, ey = q2.x - q1.x, q2.y - q1.y
    den = _cross(dx, dy, ex, ey)
    wx, wy = q1.x - p1.x, q1.y - p1.y
    if den:
        t = _cross(wx, wy, ex, ey) / den
        s = _cross(wx, wy, dx, dy) / den
        if not (0 <= t <= 1 and 0 <= s <= 1):
            return False
        return not (t in (0, 1) and s in (0, 1))
    if _cross(wx, wy, dx, dy):
        return False            # parallel, on two lines
    # collinear: the overlap of [0, 1] with q's span in p's parameter
    norm = dx * dx + dy * dy
    a = (wx * dx + wy * dy) / norm
    b = ((q2.x - p1.x) * dx + (q2.y - p1.y) * dy) / norm
    return min(1, max(a, b)) > max(0, min(a, b))


def crossings_by_pairs(leaves, position) -> list:
    """Every edge pair from distinct leaves that crosses, by testing all pairs."""
    edges = []
    for leaf in leaves:
        for idx, (u, v) in enumerate(leaf.edges):
            p = position(leaf.family, leaf.element, u)
            q = position(leaf.family, leaf.element, v)
            if p != q:
                edges.append(((leaf.family, leaf.element, idx), p, q))
    found = set()
    for k, (a, p1, p2) in enumerate(edges):
        for b, q1, q2 in edges[k + 1:]:
            if a[:2] != b[:2] and segments_cross(p1, p2, q1, q2):
                found.add(tuple(sorted((a, b))))
    return sorted(found)
