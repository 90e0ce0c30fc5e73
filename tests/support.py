"""Helpers that only the tests call: circle map algebra, the inverse of the
circle embedding and seeded pairs of circle sets.

The library needs none of them. compose and inverse build maps the tests
compare, point_to_param maps a hull vertex back to its parameter, and
random_set_pair draws the corpus of the pairwise oracles from the same
SplitMix64 stream as circlink.generators, so a seed pins the same pair.
"""

from circlink.circle import INF, CirclePoint, CircleSet
from circlink.generators import SplitMix64
from circlink.hullgeom import PlanePoint
from circlink.symmetry import CircleMap


def compose(g: CircleMap, h: CircleMap) -> CircleMap:
    # g after h
    return CircleMap(
        g.a * h.a + g.b * h.c,
        g.a * h.b + g.b * h.d,
        g.c * h.a + g.d * h.c,
        g.c * h.b + g.d * h.d,
    )


def inverse(g: CircleMap) -> CircleMap:
    return CircleMap(g.d, -g.b, -g.c, g.a)


def is_identity(g: CircleMap) -> bool:
    return g.b == 0 and g.c == 0 and g.a == g.d


def point_to_param(p: PlanePoint) -> CirclePoint:
    """Inverse embedding; p must lie exactly on the unit circle."""
    X, Y, D = p._h
    if X * X + Y * Y != D * D:
        raise ValueError("%s is not on the unit circle" % (p,))
    if X == -D:
        return INF
    # the half-angle map y / (1 + x)
    return CirclePoint(Y, D + X)


def _random_point(rng: SplitMix64) -> CirclePoint:
    if rng.below(40) == 0:
        return INF
    num = rng.below(4001) - 2000
    den = rng.below(40) + 1
    return CirclePoint(num, den)


def random_set_pair(seed: int) -> tuple:
    """Two disjoint circle sets with 1 to 8 points each."""
    rng = SplitMix64(seed)
    na = rng.below(8) + 1
    nb = rng.below(8) + 1
    drawn = []
    seen = set()
    while len(drawn) < na + nb:
        p = _random_point(rng)
        if p not in seen:
            seen.add(p)
            drawn.append(p)
    return CircleSet(drawn[:na]), CircleSet(drawn[na:])
