"""Orientation-preserving circle symmetries as exact projective maps.

A symmetry acts on parameters by u -> (a u + b)/(c u + d) with positive
determinant, which preserves cyclic order. The induced action on the
embedded disc is again projective and is computed exactly, so equivariance
of the whole pipeline can be checked with no tolerance.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from .circle import CirclePoint, CircleSet
from .circle import point as circle_point
from .errors import InvariantViolation, MalformedInputError, OutsideDiscError
from .family import FamilyPair, especial_disc, validate
from .hullgeom import PlanePoint, _h_in_disc, _h_mean, _h_norm, _over_lcm, _parse_frac, _point
from .straighten import MappedTo, _cell_hulls_test, straighten_point

__all__ = ["CircleMap", "apply", "EquivarianceReport", "check_equivariance"]


class CircleMap:
    """Projective circle symmetry with a canonical primitive integer matrix.

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
        self.a, self.b, self.c, self.d = ints
        if self.a * self.d - self.b * self.c <= 0:
            raise ValueError("matrix must have positive determinant")

    @classmethod
    def identity(cls) -> "CircleMap":
        return cls(1, 0, 0, 1)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def is_identity(self) -> bool:
        return self.b == 0 and self.c == 0 and self.a == self.d

    def __eq__(self, other) -> bool:
        if not isinstance(other, CircleMap):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return "CircleMap(%d, %d, %d, %d)" % (self.a, self.b, self.c, self.d)

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

    def compose(self, other: "CircleMap") -> "CircleMap":
        # self after other
        return CircleMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "CircleMap":
        return CircleMap(self.d, -self.b, -self.c, self.a)

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
        return {"m": [[str(self.a), str(self.b)], [str(self.c), str(self.d)]]}

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


def apply(g: CircleMap, x):
    """Apply g to a circle point, a circle set, or a whole family pair."""
    if isinstance(x, CircleSet):
        return g.apply_set(x)
    if isinstance(x, FamilyPair):
        return g.apply_pair(x)
    return g.apply(x)


class EquivarianceReport:
    __slots__ = ("ok", "plus_permutation", "minus_permutation", "failures")

    def __init__(self, ok, plus_permutation, minus_permutation, failures):
        self.ok = ok
        self.plus_permutation = tuple(plus_permutation) if plus_permutation is not None else None
        self.minus_permutation = tuple(minus_permutation) if minus_permutation is not None else None
        self.failures = tuple(failures)

    def __repr__(self) -> str:
        return "EquivarianceReport(ok=%r, failures=%d)" % (self.ok, len(self.failures))

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "plus_permutation": list(self.plus_permutation) if self.plus_permutation is not None else None,
            "minus_permutation": list(self.minus_permutation) if self.minus_permutation is not None else None,
            "failures": list(self.failures),
        }


def _match_permutation(sets, g: CircleMap, family: str, failures: list) -> Optional[list]:
    where = {}
    for k, t in enumerate(sets):
        where.setdefault(t, k)
    perm = []
    ok = True
    for i, s in enumerate(sets):
        image = g.apply_set(s)
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
    return perm


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

    A family's hulls are pairwise disjoint, so a point strictly inside the
    disc straightens to an interior Z-point (i, j) exactly when it lies in
    plus hull i and in minus hull j. The image of each cell point is tested
    for containment in the hulls of its target (hullgeom.in_hull, at most
    four side tests), and only a point that fails runs straighten_point.
    The targets are the permuted interior Z-points, so each is interior
    unless interior-permutation has already failed the report.
    """
    failures: list = []
    perm_plus = _match_permutation(fp.plus, g, "plus", failures)
    perm_minus = _match_permutation(fp.minus, g, "minus", failures)
    if perm_plus is None or perm_minus is None:
        return EquivarianceReport(False, None, None, failures)

    disc = fp.disc
    interior = fp.interior
    boundary = fp.boundary

    permuted_interior = {(perm_plus[i], perm_minus[j]): n for (i, j), n in interior.items()}
    if permuted_interior != interior:
        failures.append({"kind": "DiscMismatch", "clause": "interior-permutation"})
    permuted_boundary = {(perm_plus[i], perm_minus[j]): g.apply(s)
                         for (i, j), s in boundary.items()}
    if permuted_boundary != boundary:
        failures.append({"kind": "DiscMismatch", "clause": "boundary-permutation"})

    # classified from scratch: the recomputed disc is the clause's witness
    g_fp = g.apply_pair(fp)
    g_disc = especial_disc(g_fp)
    if g_disc.interior != disc.interior:
        failures.append({"kind": "DiscMismatch", "clause": "interior-recomputed"})
    expected_boundary = tuple(sorted((i, j, g.apply(s)) for (i, j, s) in disc.boundary))
    got_boundary = tuple(sorted(g_disc.boundary))
    if got_boundary != expected_boundary:
        failures.append({"kind": "DiscMismatch", "clause": "boundary-recomputed"})

    cells = fp.cells()
    holds = _cell_hulls_test(fp) if cells else None
    for (i, j), cell in cells.items():
        target = (perm_plus[i], perm_minus[j])
        hs = cell._h
        # a point cell's barycenter is its vertex
        for h in hs + (_h_mean(hs),) if cell.dim else hs:
            q = g.plane_apply(_point(h))
            if holds(q._h, *target):
                continue
            if straighten_point(fp, q) != MappedTo(target):
                failures.append({"kind": "StraightenMismatch", "z": [i, j],
                                 "expected": list(target)})
                break

    return EquivarianceReport(not failures, perm_plus, perm_minus, failures)
