"""Exact point location against the hull scan it replaced.

locate finds a point's hull from the parameter of the chord from INF through
it (hullgeom.HullLocator). The oracle below is the earlier locate, which
tested every hull of both families for every query and required at most one
hit per family.
"""

import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from childenv import child_env
from circlink import (
    INF,
    CircleMap,
    CircleSet,
    FamilyPair,
    InvariantViolation,
    OutsideDiscError,
    PlanePoint,
    cell_intersection,
    check_equivariance,
    gen_grid,
    gen_star,
    gen_tripod,
    hull,
    locate,
    nested_pair,
    param_to_point,
    random_family_pair,
)
from circlink import hullgeom, straighten
from circlink.generators import random_circle_map
from circlink.hullgeom import _cell_contains_h, _h_in_disc, _param_position, in_hull

F = Fraction


@lru_cache(maxsize=8)
def family_hulls(fp, name):
    """The convex hull of every element of one family, built once per pair
    for the scans below."""
    return tuple(hull(s) for s in fp.family(name))


def _locate_in_hulls(hulls, hp):
    hits = [i for i, c in enumerate(hulls) if _cell_contains_h(c, hp)]
    assert len(hits) <= 1, "hulls of a validated family overlap: %r" % hits
    return hits[0] if hits else None


def locate_by_scan(fp, p):
    hp = p._h
    if not _h_in_disc(hp):
        raise OutsideDiscError(p)
    return (_locate_in_hulls(family_hulls(fp, "plus"), hp),
            _locate_in_hulls(family_hulls(fp, "minus"), hp))


def outcome(fn, fp, p):
    try:
        return fn(fp, p)
    except OutsideDiscError:
        return "outside"


# ── pairs ────────────────────────────────────────────────────────────────

def to_inf(u):
    # u -> -1/(u - m) keeps the orientation and sends the marked point m to INF
    m = u.frac
    return CircleMap(0, -m.denominator, m.denominator, -m.numerator)


KINDS = ("random", "grid", "star", "tripod", "nested", "bignum")


def bignum_map(seed):
    """A seeded map whose entries have 256, 512, 1 024 or 2 048 bits, where
    random_circle_map's lie in [-6, 6]."""
    rng = random.Random(seed)
    bits = 256 << (seed >> 1) % 4
    a, b, c, d = [rng.choice((-1, 1)) * (1 << bits - 1 | rng.getrandbits(bits - 1))
                  for _ in range(4)]
    return CircleMap(a, b, c, d) if a * d > b * c else CircleMap(c, d, a, b)


def drawn_pair(kind, seed):
    if kind == "random":
        return random_family_pair(seed)
    base = {"grid": lambda: gen_grid(1 + seed % 5),
            "star": lambda: gen_star(3 + seed % 5),
            "tripod": gen_tripod,
            "nested": lambda: nested_pair(2, seed % 7),
            "bignum": lambda: gen_star(3 + seed % 4) if seed >> 3 & 1 else gen_grid(2 + seed % 3),
            }[kind]()
    fp = (bignum_map if kind == "bignum" else random_circle_map)(seed).apply_pair(base)
    if seed % 2:
        # move one marked point to INF, so a set holds it
        finite = [u for u in fp.points if not u.is_infinite]
        fp = to_inf(finite[seed % len(finite)]).apply_pair(fp)
    return fp


def on_segment(a, b, lam):
    return PlanePoint(a.x + lam * (b.x - a.x), a.y + lam * (b.y - a.y))


def sample_points(fp, rng):
    pts = []
    for cell in fp.cells().values():
        pts += list(cell.vertices) + [cell.barycenter()]
    for name in ("plus", "minus"):
        for h in family_hulls(fp, name):
            vs = h.vertices
            for k in range(len(vs) if len(vs) > 2 else len(vs) - 1):
                pts.append(on_segment(vs[k - 1], vs[k], F(rng.randint(1, 15), 16)))
    west = PlanePoint(-1, 0)
    for u in fp.points:
        q = param_to_point(u)
        pts.append(q)
        if not u.is_infinite:
            for lam in (F(1, 2), F(rng.randint(1, 99), 100)):
                pts.append(on_segment(west, q, lam))
    for _ in range(40):
        d = rng.choice((8, 17, 60))
        pts.append(PlanePoint(F(rng.randint(-d, d), d), F(rng.randint(-d, d), d)))
    return pts


def assert_matches_scan(fp, pts):
    for p in pts:
        assert outcome(locate, fp, p) == outcome(locate_by_scan, fp, p), p


@settings(max_examples=120)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2 ** 32))
def test_locate_matches_hull_scan(kind, seed):
    fp = drawn_pair(kind, seed)
    assert_matches_scan(fp, sample_points(fp, random.Random(seed)))


def test_locate_corpus_covers_inf_and_every_answer():
    seen = set()
    for k, kind in enumerate(KINDS):
        for seed in range(12):
            fp = drawn_pair(kind, 31 * seed + k)
            rng = random.Random(seed)
            pts = sample_points(fp, rng)
            assert_matches_scan(fp, pts)
            has_inf = fp.points[-1].is_infinite
            for p in pts:
                got = outcome(locate, fp, p)
                if got != "outside":
                    got = tuple(x is not None for x in got)
                seen.add((has_inf, got))
    # pairs with and without INF; points outside, in no hull, in one and in both
    assert seen == {(i, g) for i in (False, True)
                    for g in ("outside", (False, False), (True, False),
                              (False, True), (True, True))}


def test_chord_along_an_edge_through_inf():
    # the chord from INF to 2 is an edge of the plus triangle {0, 2, INF}
    fp = FamilyPair([CircleSet([0, 2, INF]), CircleSet([3, 5])], [CircleSet([1, 4])])
    west, q = param_to_point(INF), param_to_point(2)
    pts = [on_segment(west, q, F(k, 7)) for k in range(8)]
    assert [locate(fp, p)[0] for p in pts] == [0] * 8
    assert_matches_scan(fp, pts)


# ── containment in a named hull ──────────────────────────────────────────

def assert_in_hull_matches_scan(fp, pts):
    """in_hull holds for exactly the hull the scan finds, in each family, at
    every point strictly inside the disc; returns the (family, set size,
    answer) triples seen."""
    points = fp.points
    seen = set()
    for name in ("plus", "minus"):
        fp.forest(name)  # the sweep checks that the hulls are disjoint
    for p in pts:
        X, Y, D = h = p._h
        if X * X + Y * Y >= D * D:
            continue
        pos = _param_position(points, Y, X + D)
        for name, want in zip(("plus", "minus"), locate_by_scan(fp, p)):
            sets, lines = fp.ranks(name), fp.lines(name)
            got = [k for k in range(len(sets)) if in_hull(sets, lines, k, h, pos)]
            assert got == ([] if want is None else [want]), (name, p, got, want)
            for k in range(len(sets)):
                seen.add((name, min(len(sets[k]), 3), k == want))
    return seen


# 1-point and 2-point sets, each family with a set holding INF
SMALL_SETS = [
    FamilyPair([CircleSet([INF, 0]), CircleSet([1, 3]), CircleSet([5])],
               [CircleSet([2, 4]), CircleSet([-1]), CircleSet([6, INF])]),
    FamilyPair([CircleSet([INF]), CircleSet([0, 4]), CircleSet([1, 2]), CircleSet([F(3, 2)])],
               [CircleSet([-2, 3, INF]), CircleSet([F(1, 2), F(5, 2)])]),
    FamilyPair([CircleSet([0, 2, INF]), CircleSet([3, 5])], [CircleSet([1, 4])]),
]


@settings(max_examples=120)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2 ** 32))
def test_in_hull_matches_hull_scan(kind, seed):
    fp = drawn_pair(kind, seed)
    assert_in_hull_matches_scan(fp, sample_points(fp, random.Random(seed)))


def test_in_hull_on_small_sets_and_inf_holders():
    seen = set()
    for fp in SMALL_SETS:
        assert fp.points[-1].is_infinite
        for seed in range(8):
            seen |= assert_in_hull_matches_scan(fp, sample_points(fp, random.Random(seed)))
    # a 1-point set holds nothing; 2-point and larger sets hold some points
    assert ("plus", 1, True) not in seen and ("minus", 1, True) not in seen
    assert {("plus", 1, False), ("minus", 1, False)} <= seen
    assert {("plus", 2, True), ("minus", 2, True), ("minus", 3, True)} <= seen


def test_in_hull_on_edges_and_on_the_chord_from_inf():
    # points on chords from INF (the one to 2 is an edge of the plus
    # triangle {0, 2, INF}) and on the edges of every hull
    fp = FamilyPair([CircleSet([0, 2, INF]), CircleSet([3, 5])], [CircleSet([1, 4])])
    west = param_to_point(INF)
    pts = [on_segment(west, param_to_point(u), F(k, 7)) for u in (2, 4, 1) for k in range(1, 7)]
    for a, b in ((0, 2), (3, 5), (1, 4), (5, 3)):
        pts += [on_segment(param_to_point(a), param_to_point(b), F(k, 5)) for k in range(1, 5)]
    seen = assert_in_hull_matches_scan(fp, pts)
    assert {("plus", 3, True), ("plus", 2, True), ("minus", 2, True)} <= seen


# ── laminar check ────────────────────────────────────────────────────────

NON_LAMINAR = [
    # (plus family, the two set indices reported)
    ([CircleSet([0, 2]), CircleSet([1, 3])], (0, 1)),                 # linked
    ([CircleSet([0, 4]), CircleSet([1, 5]), CircleSet([2, 3])], (0, 1)),
    ([CircleSet([0, 2]), CircleSet([2, 5])], (0, 1)),                 # shared point
    ([CircleSet([-1, 5]), CircleSet([0, 2, INF])], (0, 1)),           # INF enclosed
    ([CircleSet([-1, 5]), CircleSet([0, INF])], (0, 1)),
    ([CircleSet([0, 6]), CircleSet([1, 3, 8])], (0, 1)),
]


@pytest.mark.parametrize("k", range(len(NON_LAMINAR)))
def test_overlapping_hulls_raise_typed_violation(k):
    plus, pair = NON_LAMINAR[k]
    fp = FamilyPair(plus, [CircleSet([F(1, 2), F(3, 2)])])
    with pytest.raises(InvariantViolation) as info:
        locate(fp, PlanePoint(0, 0))
    assert info.value.invariant == "hull-overlap"
    assert info.value.counts == ("plus",) + pair


OVERLAP_CHECK = """
from circlink import CircleSet, FamilyPair, InvariantViolation, PlanePoint, locate
fp = FamilyPair([CircleSet([7])], [CircleSet([0, 2]), CircleSet([1, 3])])
try:
    locate(fp, PlanePoint(0, 0))
except InvariantViolation as exc:
    print(exc.invariant, exc.counts)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_overlap_check_holds_with_and_without_optimisation(flags):
    env = child_env()
    proc = subprocess.run([sys.executable] + flags + ["-c", OVERLAP_CHECK],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "hull-overlap ('minus', 0, 1)\n"


# ── cost ─────────────────────────────────────────────────────────────────

def side_tests_per_query(monkeypatch, n):
    fp = gen_grid(n)
    ph, mh = family_hulls(fp, "plus"), family_hulls(fp, "minus")
    rng = random.Random(n)
    pts = [cell_intersection(ph[rng.randrange(n)], mh[rng.randrange(n)]).vertices[0]
           for _ in range(60)]
    pts += [PlanePoint(F(rng.randint(-7, 7), 10), F(rng.randint(-7, 7), 10))
            for _ in range(60)]
    expected = [locate(fp, p) for p in pts]  # also builds the locators
    counts = []
    real = hullgeom._in_cap

    def counted(lines, e, h):
        counts[-1] += 1
        return real(lines, e, h)

    monkeypatch.setattr(hullgeom, "_in_cap", counted)
    for p in pts:
        counts.append(0)
        locate(fp, p)
    monkeypatch.setattr(hullgeom, "_in_cap", real)
    assert expected == [locate_by_scan(fp, p) for p in pts]
    # a point found in a hull passed at least one side test of that hull, so
    # fewer would mean the side test was not the one counted
    for got, where in zip(counts, expected):
        assert got >= len(where) - where.count(None), (got, where)
    return max(counts)


def test_side_tests_grow_logarithmically(monkeypatch):
    # the grid's chords nest n deep in each family: eight times the depth
    # adds three bisection steps per family, where a scan tests 7 n more hulls
    small = side_tests_per_query(monkeypatch, 16)
    large = side_tests_per_query(monkeypatch, 128)
    assert (small, large) == (12, 18)


def verifier_side_tests(monkeypatch, n):
    """The most side tests spent on one point by quotient_check and by
    check_equivariance on gen_grid(n), and how many points each tested.

    Each containment test computes one chord position, which opens a new
    count; locate is replaced by a failure, so no point takes the search.
    """
    fp = gen_grid(n)
    fp.disc
    counts = []
    real_side, real_position = hullgeom._in_cap, straighten._param_position

    def side(lines, e, h):
        counts[-1] += 1
        return real_side(lines, e, h)

    def position(points, y, x):
        counts.append(0)
        return real_position(points, y, x)

    def no_search(fp, p):
        raise AssertionError("locate ran for %s" % (p,))

    monkeypatch.setattr(hullgeom, "_in_cap", side)
    monkeypatch.setattr(straighten, "_param_position", position)
    monkeypatch.setattr(straighten, "locate", no_search)
    out = []
    identity = CircleMap(1, 0, 0, 1)
    for verify in (straighten.quotient_check, lambda fp: check_equivariance(fp, identity)):
        counts.clear()
        assert verify(fp).ok
        assert min(counts) >= 1, "a point passed with no side test counted"
        out.append((max(counts), len(counts)))
    return out


def test_verifiers_make_at_most_four_side_tests_per_point(monkeypatch):
    # every grid cell is a point, tested once by each verifier, so the cost
    # per point stays flat from 256 cells to 16 384
    most = {}
    for n in (16, 128):
        (q_most, q_points), (e_most, e_points) = verifier_side_tests(monkeypatch, n)
        assert q_points == e_points == n * n
        most[n] = (q_most, e_most)
    assert most[16] == most[128] == (4, 4), most
