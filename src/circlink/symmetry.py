"""Orientation-preserving circle symmetries as exact projective maps.

A symmetry acts on parameters by u -> (a u + b)/(c u + d) with positive
determinant, which preserves cyclic order. The induced action on the
embedded disc is again projective and is computed exactly, so equivariance
of the whole pipeline can be checked with no tolerance.
"""

from __future__ import annotations

from math import gcd

from .circle import CirclePoint, CircleSet, _digits, _parse_frac
from .circle import point as circle_point
from .errors import Frozen, Immutable, InvariantViolation, MalformedInputError, OutsideDiscError
from .family import FamilyPair, especial_disc, validate
from .hullgeom import PlanePoint, _h_in_disc, _h_mean, _h_norm, _over_lcm, _point
from .straighten import _collapse_test

__all__ = ["CircleMap", "EquivarianceReport", "check_equivariance"]


class CircleMap(Immutable):
    """Immutable projective circle symmetry with a canonical primitive
    integer matrix.

    The entries are ints, or anything Fraction accepts; the matrix is
    scaled to primitive integers with a positive first nonzero entry.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        ints = [a, b, c, d]
        if not all(type(v) is int for v in ints):
            import fractions

            ints = _over_lcm([(f.numerator, f.denominator)
                              for f in map(fractions.Fraction, ints)])[:4]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        if g == 0:
            raise ValueError("matrix must have positive determinant")
        ints = [v // g for v in ints]
        for v in ints:
            if v:
                if v < 0:
                    ints = [-w for w in ints]
                break
        a, b, c, d = ints
        if a * d - b * c <= 0:
            raise ValueError("matrix must have positive determinant")
        for name, v in zip(self.__slots__, ints):
            object.__setattr__(self, name, v)

    def __reduce__(self):
        return (CircleMap, (self.a, self.b, self.c, self.d))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleMap):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return "CircleMap(%s)" % ", ".join(map(_digits, (self.a, self.b, self.c, self.d)))

    def apply(self, x) -> CirclePoint:
        x = circle_point(x)
        if x.is_infinite:
            return CirclePoint(self.a, self.c)
        return CirclePoint(self.a * x.num + self.b * x.den,
                           self.c * x.num + self.d * x.den)

    def apply_set(self, s: CircleSet) -> CircleSet:
        return CircleSet(self.apply(p) for p in s.points)

    def apply_pair(self, fp: FamilyPair) -> FamilyPair:
        return validate([self.apply_set(s) for s in fp.plus],
                        [self.apply_set(s) for s in fp.minus],
                        fp.plus_labels, fp.minus_labels)

    def plane_apply(self, p: PlanePoint) -> PlanePoint:
        """The induced exact map of the closed unit disc.

        A point outside the closed disc raises OutsideDiscError.
        """
        if not _h_in_disc(p._h):
            raise OutsideDiscError(p)
        a, b, c, d = self.a, self.b, self.c, self.d
        X, Y, D = p._h
        X2 = X * (a * a - c * c + d * d - b * b) + Y * 2 * (c * d - a * b) \
            + D * (c * c - a * a + d * d - b * b)
        Y2 = X * 2 * (b * d - a * c) + Y * 2 * (a * d + b * c) + D * 2 * (a * c + b * d)
        D2 = X * (b * b + d * d - a * a - c * c) + Y * 2 * (a * b + c * d) \
            + D * (a * a + b * b + c * c + d * d)
        # D2 > 0 on the closed disc: on X^2 + Y^2 <= D^2 its least value is
        # D (S - sqrt(S^2 - 4 det^2)), with S the sum of the squared entries
        return _point(_h_norm(X2, Y2, D2))

    def to_json(self) -> dict:
        return {"m": [[_digits(self.a), _digits(self.b)], [_digits(self.c), _digits(self.d)]]}

    @classmethod
    def from_json(cls, data) -> "CircleMap":
        if (not isinstance(data, dict) or "m" not in data
                or not isinstance(data["m"], list) or len(data["m"]) != 2
                or any(not isinstance(r, list) or len(r) != 2 for r in data["m"])):
            raise MalformedInputError("map must be {\"m\": [[a,b],[c,d]]}", "$")
        ratios = []
        for r in range(2):
            for k in range(2):
                raw = data["m"][r][k]
                if not isinstance(raw, str):
                    raise MalformedInputError("matrix entries must be rational strings",
                                              "$.m[%d][%d]" % (r, k))
                ratios.append(_parse_frac(raw, "$.m[%d][%d]" % (r, k)))
        return cls(*_over_lcm(ratios)[:4])


class EquivarianceReport(Frozen):
    """The equivariance verdict: each family's index permutation as a tuple,
    or None when g does not permute the family, and a tuple of failures."""

    __slots__ = ("ok", "plus_permutation", "minus_permutation", "failures")

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "plus_permutation": list(self.plus_permutation) if self.plus_permutation is not None else None,
            "minus_permutation": list(self.minus_permutation) if self.minus_permutation is not None else None,
            "failures": list(self.failures),
        }


def _match_permutation(sets, images, family: str, failures: list) -> tuple | None:
    where = {}
    for k, t in enumerate(sets):
        where.setdefault(t, k)
    perm = []
    ok = True
    for i, image in enumerate(images):
        target = where.get(image)
        if target is None:
            failures.append({"kind": "NotInvariant", "family": family, "element": i,
                             "image": image.to_json()})
            ok = False
        else:
            perm.append(target)
    if not ok:
        return None
    first = {}
    for i, target in enumerate(perm):
        other = first.setdefault(target, i)
        if other != i:
            raise InvariantViolation("permutation-collision", (family, other, i, target))
    return tuple(perm)


def check_equivariance(fp: FamilyPair, g: CircleMap) -> EquivarianceReport:
    """Verify that g respects the whole straightening pipeline.

    First g must permute each family setwise; failing elements are reported
    as NotInvariant, and two elements sent to one raise
    InvariantViolation("permutation-collision"). Then the induced index
    permutation must preserve the especial disc and match the disc of the
    transformed pair (four DiscMismatch clauses), and sampled cell points
    must straighten equivariantly (StraightenMismatch). Prong counts need
    no clause: prong_count(fp, z) is 2 n(z), so counts differing at z and
    g z mean n(z) != n(g z), which interior-permutation reports.

    Each set and each shared boundary point is mapped once: the images of
    the sets give the permutations and the transformed pair, the images of
    the points both boundary clauses. The image of each cell point is
    asked of the collapse test (straighten._collapse_test) with its target.
    The targets are the permuted interior Z-points, so each is interior
    unless interior-permutation has already failed the report.
    """
    failures: list = []
    images_plus = [g.apply_set(s) for s in fp.plus]
    images_minus = [g.apply_set(s) for s in fp.minus]
    perm_plus = _match_permutation(fp.plus, images_plus, "plus", failures)
    perm_minus = _match_permutation(fp.minus, images_minus, "minus", failures)
    if perm_plus is None or perm_minus is None:
        return EquivarianceReport(False, None, None, tuple(failures))

    disc = fp.disc
    interior = fp.interior

    permuted_interior = {(perm_plus[i], perm_minus[j]): n for (i, j), n in interior.items()}
    if permuted_interior != interior:
        failures.append({"kind": "DiscMismatch", "clause": "interior-permutation"})
    moved = tuple((i, j, g.apply(s)) for i, j, s in disc.boundary)
    if {(perm_plus[i], perm_minus[j]): t for i, j, t in moved} != fp.boundary:
        failures.append({"kind": "DiscMismatch", "clause": "boundary-permutation"})

    # classified from scratch: the recomputed disc is the clause's witness
    g_disc = especial_disc(validate(images_plus, images_minus, fp.plus_labels, fp.minus_labels))
    if g_disc.interior != disc.interior:
        failures.append({"kind": "DiscMismatch", "clause": "interior-recomputed"})
    # both in (i, j) order, in which no Z-point repeats
    if g_disc.boundary != moved:
        failures.append({"kind": "DiscMismatch", "clause": "boundary-recomputed"})

    cells = fp.cells()
    lands = _collapse_test(fp) if cells else None
    for (i, j), cell in cells.items():
        target = (perm_plus[i], perm_minus[j])
        hs = cell._h
        # a point cell's barycenter is its vertex
        for h in hs + (_h_mean(hs),) if cell.dim else hs:
            if lands(g.plane_apply(_point(h))._h, target) is not None:
                failures.append({"kind": "StraightenMismatch", "z": [i, j],
                                 "expected": list(target)})
                break

    return EquivarianceReport(not failures, perm_plus, perm_minus, tuple(failures))
