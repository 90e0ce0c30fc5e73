"""The Fraction constructions that the generators replaced.

gen_nested built each endpoint as a Fraction sum lo + t * (hi - lo),
nested_pair shifted the second family by Fraction(1, 3), _jitter and
_compose_blocks moved points by Fraction and integer offsets, and
gen_figure spelled its half-integer points as Fractions. The library
builds the same points as integer numerators over a common denominator
(circlink.generators); the tests require equal pairs.
"""

from fractions import Fraction

from circlink import CircleSet, point, validate
from circlink.generators import SplitMix64, gen_grid, gen_star, random_circle_map


def gen_nested(depth: int, seed: int) -> list:
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    rng = SplitMix64(seed)
    out = []

    def build(lo: Fraction, hi: Fraction, level: int) -> None:
        w = hi - lo
        t1 = Fraction((1 << 18) + rng.bits(18), 1 << 20)       # [1/4, 1/2)
        t2 = Fraction((1 << 19) + 1 + rng.bits(18), 1 << 20)   # (1/2, 3/4]
        a = lo + t1 * w
        b = lo + t2 * w
        out.append(CircleSet([a, b]))
        if level < depth:
            build(a, b, level + 1)
            build(b, hi, level + 1)

    build(Fraction(0), Fraction(1), 0)
    return out


def nested_pair(depth: int, seed: int):
    plus = gen_nested(depth, seed)
    shift = Fraction(1, 3)
    minus = [CircleSet([p.frac + shift for p in s.points]) for s in gen_nested(depth, seed + 1)]
    return validate(plus, minus)


def gen_figure():
    plus = [CircleSet([0, 2, 4, 6])]
    minus = [CircleSet([1, 3, 5]), CircleSet([Fraction(1, 2), Fraction(11, 2), 7])]
    return validate(plus, minus)


def _jitter(fp, rng: SplitMix64):
    marked = sorted({p for s in list(fp.plus) + list(fp.minus) for p in s.points})
    moved = {p: point(p.frac + Fraction(rng.bits(16), 1 << 17)) for p in marked}
    plus = [CircleSet([moved[p] for p in s.points]) for s in fp.plus]
    minus = [CircleSet([moved[p] for p in s.points]) for s in fp.minus]
    return validate(plus, minus)


def _compose_blocks(rng: SplitMix64):
    n = 1 + rng.below(3)
    k = 3 + rng.below(3)
    grid = gen_grid(n)
    star = gen_star(k)
    off = 4 * n
    plus = list(grid.plus) + [CircleSet([p.frac + off for p in s.points]) for s in star.plus]
    minus = list(grid.minus) + [CircleSet([p.frac + off for p in s.points]) for s in star.minus]
    return validate(plus, minus)


def random_family_pair(seed: int):
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
