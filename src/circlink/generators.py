"""Deterministic fixtures and seeded random corpora.

All randomness flows through splitmix64 with the standard constants, so a
seed pins the output bit for bit on any platform. Fixture generators return
validated pairs; the random generators are used to drive the oracles.
"""

from __future__ import annotations

from .circle import INF, CirclePoint, CircleSet
from .errors import Frozen
from .family import FamilyPair, validate
from .symmetry import CircleMap

__all__ = [
    "SplitMix64",
    "GenSpec",
    "gen_grid",
    "gen_star",
    "gen_tripod",
    "gen_nested",
    "nested_pair",
    "gen_symmetric",
    "gen_figure",
    "random_family_pair",
    "random_circle_map",
]

_MASK = (1 << 64) - 1


class SplitMix64:
    """splitmix64 stream (Steele/Lea/Flood constants), frozen for corpora."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        # modulo bias is irrelevant at these ranges
        return self.next() % n

    def bits(self, k: int) -> int:
        return self.next() >> (64 - k)


def gen_grid(n: int) -> FamilyPair:
    """n chords against n chords on 4n integer parameters, every cross pair 2-linked.

    Plus chords run from the arc [0, n] to the arc [n+1, 2n] read one way,
    minus chords cross them all, so the classification disc is an n-by-n
    grid of regular points.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    plus = [CircleSet([0 if j == 0 else 4 * n - j, n + 1 + j]) for j in range(n)]
    minus = [CircleSet([n - i, 2 * n + 1 + i]) for i in range(n)]
    return validate(plus, minus)


def gen_star(k: int) -> FamilyPair:
    """One k-point element against one k-point element, alternating: a single
    k-linked pair, i.e. one 2k-prong point."""
    if k < 3:
        raise ValueError("k must be at least 3")
    plus = [CircleSet(range(0, 2 * k, 2))]
    minus = [CircleSet(range(1, 2 * k, 2))]
    return validate(plus, minus)


def gen_tripod() -> FamilyPair:
    return gen_star(3)


def gen_nested(depth: int, seed: int) -> list:
    """One internally unlinked family of 2^(depth+1) - 1 nested chords.

    Each chord gets two children, one strictly inside it and one strictly
    inside the interval to its right, so every chord separates its inner
    subtree from its outer one. Endpoints are dyadic and seed-determined.
    """
    scale, ends = _nested_ends(depth, seed)
    return [CircleSet([CirclePoint(a, scale), CirclePoint(b, scale)]) for a, b in ends]


def _nested_ends(depth: int, seed: int) -> tuple:
    """The chords of gen_nested as (S, [(a, b), ...]): endpoint numerators
    over the common denominator S = 2^(20 (depth + 1)).

    Each level splits its interval at t / 2^20, so the endpoints of a chord
    at level L are multiples of 2^(20 (depth + 1 - L)) and every split is
    exact. A depth above 20 is refused: the chords double with each level.
    """
    if not 0 <= depth <= 20:
        raise ValueError("depth must be from 0 to 20")
    rng = SplitMix64(seed)
    out = []
    scale = 1 << 20 * (depth + 1)
    # the chords in preorder, a chord before its inner subtree and that
    # before its outer one, walked with a stack: a recursive closure would
    # hold itself, and with it out, in a cycle only the collector frees
    stack = [(0, scale, 0)]
    while stack:
        lo, hi, level = stack.pop()
        w = hi - lo
        a = lo + (((1 << 18) + rng.bits(18)) * w >> 20)       # t in [1/4, 1/2)
        b = lo + (((1 << 19) + 1 + rng.bits(18)) * w >> 20)   # t in (1/2, 3/4]
        out.append((a, b))
        if level < depth:
            stack.append((b, hi, level + 1))
            stack.append((a, b, level + 1))
    return scale, out


def nested_pair(depth: int, seed: int) -> FamilyPair:
    """Two independent nested families; the second is shifted by 1/3 so its
    3-adic endpoints can never collide with the dyadic first family."""
    plus = gen_nested(depth, seed)
    scale, ends = _nested_ends(depth, seed + 1)
    # a / S + 1/3 = (3 a + S) / 3 S
    den = 3 * scale
    minus = [CircleSet([CirclePoint(3 * a + scale, den), CirclePoint(3 * b + scale, den)])
             for a, b in ends]
    return validate(plus, minus)


def gen_symmetric() -> tuple:
    """A pair invariant under u -> -1/u, together with that map."""
    fp = validate([CircleSet([1, -1])], [CircleSet([0, INF])])
    return fp, CircleMap(0, -1, 1, 0)


def gen_figure() -> FamilyPair:
    """Two 3-linked pairs sharing the plus element: a pair of 6-prong points
    on one leaf, the saddle-connection picture."""
    plus = [CircleSet([0, 2, 4, 6])]
    minus = [CircleSet([1, 3, 5]), CircleSet([CirclePoint(1, 2), CirclePoint(11, 2), 7])]
    return validate(plus, minus)


class GenSpec(Frozen, n=2, k=3, depth=2, seed=0):
    """Fully determined generation request; equal specs build equal pairs."""

    __slots__ = ("kind", "n", "k", "depth", "seed")

    def build(self) -> FamilyPair:
        if self.kind == "grid":
            return gen_grid(self.n)
        if self.kind == "tripod":
            return gen_tripod()
        if self.kind == "star":
            return gen_star(self.k)
        if self.kind == "nested":
            return nested_pair(self.depth, self.seed)
        if self.kind == "symmetric":
            return gen_symmetric()[0]
        if self.kind == "figure":
            return gen_figure()
        raise ValueError("unknown kind %r" % self.kind)


# ---------------------------------------------------------------------------
# seeded random corpora


def random_circle_map(seed: int) -> CircleMap:
    rng = SplitMix64(seed)
    while True:
        a, b, c, d = (rng.below(13) - 6 for _ in range(4))
        if a * d - b * c > 0:
            return CircleMap(a, b, c, d)


def _jitter(fp: FamilyPair, rng: SplitMix64) -> FamilyPair:
    """Move every marked parameter t to t + r with r in [0, 1/2); template
    parameters are at least 1/2 apart, so the displacement map is strictly
    increasing and all cyclic structure survives untouched."""
    marked = sorted({p for s in list(fp.plus) + list(fp.minus) for p in s.points})
    moved = {p: CirclePoint((p.num << 17) + rng.bits(16) * p.den, p.den << 17) for p in marked}
    plus = [CircleSet([moved[p] for p in s.points]) for s in fp.plus]
    minus = [CircleSet([moved[p] for p in s.points]) for s in fp.minus]
    return validate(plus, minus)


def _compose_blocks(rng: SplitMix64) -> FamilyPair:
    # a grid block on low parameters, a star block after it; the star sits
    # inside a single complementary interval of every grid element
    n = 1 + rng.below(3)
    k = 3 + rng.below(3)
    grid = gen_grid(n)
    star = gen_star(k)
    off = 4 * n
    # the star's parameters are integers
    plus = list(grid.plus) + [CircleSet([p.num + off for p in s.points]) for s in star.plus]
    minus = list(grid.minus) + [CircleSet([p.num + off for p in s.points]) for s in star.minus]
    return validate(plus, minus)


def random_family_pair(seed: int) -> FamilyPair:
    """A valid random pair: a jittered template, sometimes pushed through a
    random projective symmetry."""
    rng = SplitMix64(seed)
    choice = rng.below(8)
    if choice < 3:
        fp = _jitter(gen_grid(1 + rng.below(5)), rng)
    elif choice < 5:
        fp = _jitter(gen_star(3 + rng.below(4)), rng)
    elif choice == 5:
        fp = _jitter(_compose_blocks(rng), rng)
    elif choice == 6:
        fp = nested_pair(1 + rng.below(3), rng.next())
    else:
        fp = _jitter(gen_figure(), rng)
    if rng.below(2):
        g = random_circle_map(rng.next())
        fp = g.apply_pair(fp)
    return fp
