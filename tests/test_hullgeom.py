"""Exact plane geometry: the circle embedding, hulls, and cell intersections.

The chord-crossing oracle below solves the two-segment system with Fractions
and Cramer's rule, sharing no code with the clipping ladder in the library.
The clipping oracle builds each intersection from scratch: the vertices each
cell holds of the other plus every edge-by-edge meet, hulled.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlink import (
    INF,
    CircleMap,
    CircleSet,
    ConvexCell,
    MalformedInputError,
    OutsideDiscError,
    PlanePoint,
    cell_intersection,
    gen_figure,
    gen_grid,
    gen_star,
    gen_tripod,
    hull,
    linked,
    linked_cells,
    locate,
    nested_pair,
    param_to_point,
    point,
    random_family_pair,
    validate,
)
from circlink import straighten, symmetry
from circlink.circle import _parse_frac
from circlink.generators import random_circle_map
from circlink.hullgeom import (
    _cell_contains_h,
    _cell_from_h,
    _h_mean,
    _h_norm,
    _seg_seg,
)
from plane_oracle import fraction_mean, lcm_mean
from pointwise_oracle import cyclic_sign
from support import point_to_param, random_set_pair

F = Fraction


def pp(x, y):
    return PlanePoint(F(x), F(y))


def chord_cross_oracle(p1, p2, q1, q2):
    """Closed-segment intersection point of two circle chords, or None.

    Distinct chords of one circle are never collinear, so Cramer's rule with
    a parallel check covers every case.
    """
    dx1, dy1 = p2.x - p1.x, p2.y - p1.y
    dx2, dy2 = q2.x - q1.x, q2.y - q1.y
    den = dx1 * dy2 - dy1 * dx2
    if den == 0:
        return None
    t = ((q1.x - p1.x) * dy2 - (q1.y - p1.y) * dx2) / den
    s = ((q1.x - p1.x) * dy1 - (q1.y - p1.y) * dx1) / den
    if 0 <= t <= 1 and 0 <= s <= 1:
        return (p1.x + t * dx1, p1.y + t * dy1)
    return None


# ── embedding ────────────────────────────────────────────────────────────

def test_param_to_point_examples():
    assert param_to_point(point(0)) == pp(1, 0)
    assert param_to_point(point(1)) == pp(0, 1)
    assert param_to_point(INF) == pp(-1, 0)
    assert param_to_point(point(2)) == pp(F(-3, 5), F(4, 5))
    assert param_to_point(point(3)) == pp(F(-4, 5), F(3, 5))


def test_param_round_trip():
    for u in [point(0), point(1), point(-7), point(F(22, 7)), INF, point(F(-1, 3))]:
        img = param_to_point(u)
        assert img.x ** 2 + img.y ** 2 == 1
        assert point_to_param(img) == u


def test_param_preserves_cyclic_order():
    def ccw(a, b, c):
        return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)

    pts = [point(0), point(1), point(-2), point(F(1, 2)), INF, point(5), point(F(-8, 3))]
    for a, b, c in combinations(pts, 3):
        want = cyclic_sign(a, b, c) == 1
        got = ccw(param_to_point(a), param_to_point(b), param_to_point(c)) > 0
        assert want == got


# ── hulls ────────────────────────────────────────────────────────────────

def test_hull_examples():
    h0 = hull(CircleSet([0]))
    assert h0.dim == 0 and h0.vertices == (pp(1, 0),)

    h1 = hull(CircleSet([0, 3]))
    assert h1.dim == 1
    assert set(h1.vertices) == {pp(1, 0), pp(F(-4, 5), F(3, 5))}

    h2 = hull(CircleSet([0, 2, 4]))
    assert h2.dim == 2
    assert h2.vertices == (pp(F(-15, 17), F(8, 17)), pp(1, 0), pp(F(-3, 5), F(4, 5)))


def test_hull_vertices_map_back():
    for pts in ([0, 2, 4], [1, -1, 5, F(1, 2)], [INF, 0, 7, -3, F(9, 4)]):
        a_set = CircleSet(pts)
        back = CircleSet(point_to_param(v) for v in hull(a_set).vertices)
        assert back == a_set


def test_hull_canonical_order():
    # counterclockwise starting from the lexicographically smallest vertex
    h = hull(CircleSet([0, 1, 2, 3]))
    assert h.vertices[0] == min(h.vertices, key=lambda v: (v.x, v.y))
    for a, b, c in zip(h.vertices, h.vertices[1:], h.vertices[2:]):
        cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        assert cross > 0


def test_cell_constructor_stores_the_canonical_order():
    a, b = pp(0, 0), pp(F(1, 2), 0)
    assert ConvexCell(1, [b, a]).vertices == (a, b)
    assert ConvexCell(1, [b, a]) == ConvexCell(1, [a, b])
    square = hull(CircleSet([0, 1, 2, 3]))
    ring = square.vertices
    for k in range(len(ring)):
        cell = ConvexCell(2, ring[k:] + ring[:k])
        assert cell.vertices == ring
        assert cell == square and hash(cell) == hash(square)


def _refused_rings():
    a, b, c = pp(0, 0), pp(F(1, 2), 0), pp(0, F(1, 3))
    # five points on the circle, counterclockwise: the pentagram through
    # them turns left at every vertex but winds twice
    v = hull(CircleSet([0, 1, 2, 3, 4])).vertices
    return {"repeated": [a, a, b], "repeated-ring": [a, b, c, a],
            "collinear": [a, pp(F(1, 4), 0), b], "clockwise": [a, c, b],
            "pentagram": [v[0], v[2], v[4], v[1], v[3]]}


@pytest.mark.parametrize("name", sorted(_refused_rings()))
def test_cell_constructor_refuses_a_ring_that_is_not_strictly_convex(name):
    with pytest.raises(ValueError, match="strictly convex counterclockwise"):
        ConvexCell(2, _refused_rings()[name])


# ── intersections ────────────────────────────────────────────────────────

def test_cell_intersection_examples():
    crossing = cell_intersection(hull(CircleSet([0, 3])), hull(CircleSet([2, 5])))
    assert crossing.dim == 0
    assert crossing.vertices == (pp(F(-13, 17), F(10, 17)),)

    assert cell_intersection(hull(CircleSet([0, 3])), hull(CircleSet([4, 7]))) is None

    touch = cell_intersection(hull(CircleSet([0, 1])), hull(CircleSet([1, 5])))
    assert touch.dim == 0 and touch.vertices == (pp(0, 1),)


def test_chord_chord_against_cramer_oracle():
    for seed in range(400):
        a_set, b_set = random_set_pair(seed)
        a = CircleSet(list(a_set.points)[:2])
        b = CircleSet(list(b_set.points)[:2])
        if len(a) != 2 or len(b) != 2 or a.intersection(b):
            continue
        got = cell_intersection(hull(a), hull(b))
        p1, p2 = (param_to_point(u) for u in a.points)
        q1, q2 = (param_to_point(u) for u in b.points)
        want = chord_cross_oracle(p1, p2, q1, q2)
        if want is None:
            assert got is None
        else:
            assert got is not None and got.dim == 0
            assert (got.vertices[0].x, got.vertices[0].y) == want


def test_intersection_commutative_idempotent():
    cells = [
        hull(CircleSet([0, 3])),
        hull(CircleSet([2, 5])),
        hull(CircleSet([0, 2, 4])),
        hull(CircleSet([1, 3, 5])),
        hull(CircleSet([1])),
        hull(CircleSet([F(1, 2), 6, -2])),
    ]
    for a, b in combinations(cells, 2):
        ab = cell_intersection(a, b)
        ba = cell_intersection(b, a)
        assert ab == ba
    for c in cells:
        assert cell_intersection(c, c) == c


def test_tripod_cell_is_the_hexagon():
    ha = hull(CircleSet([0, 2, 4]))
    hb = hull(CircleSet([1, 3, 5]))
    cell = cell_intersection(ha, hb)
    assert cell.dim == 2 and len(cell.vertices) == 6

    # every hexagon vertex is a crossing of one triangle edge with the other
    verts_a = [param_to_point(point(u)) for u in (0, 2, 4)]
    verts_b = [param_to_point(point(u)) for u in (1, 3, 5)]
    crossings = set()
    for i in range(3):
        for j in range(3):
            hit = chord_cross_oracle(verts_a[i], verts_a[(i + 1) % 3],
                                     verts_b[j], verts_b[(j + 1) % 3])
            if hit is not None:
                crossings.add(hit)
    assert {(v.x, v.y) for v in cell.vertices} == crossings


def test_mini_hull_linking_oracle():
    agree = 0
    for seed in range(500):
        a_set, b_set = random_set_pair(seed)
        if a_set.intersection(b_set):
            continue
        want = linked(a_set, b_set)
        got = cell_intersection(hull(a_set), hull(b_set)) is not None
        assert got == want
        agree += 1
    assert agree > 400


def _edges(cell):
    hv = cell._h
    if cell.dim == 0:
        return []
    if cell.dim == 1:
        return [hv]
    return [(hv[k - 1], hv[k]) for k in range(len(hv))]


def clip_oracle(a, b):
    """Brute-force intersection of two convex cells, None when empty."""
    pts = [h for h in a._h if _cell_contains_h(b, h)]
    pts += [h for h in b._h if _cell_contains_h(a, h)]
    for e in _edges(a):
        for f in _edges(b):
            pts += _seg_seg(e[0], e[1], f[0], f[1])
    return _cell_from_h(pts)


# a small shared pool, so drawn hulls share vertices and whole edges
POOL = sorted({point(F(n, d)) for n in range(-3, 4) for d in (1, 2)}) + [INF]
hull_sets = st.lists(st.sampled_from(POOL), min_size=1, max_size=6, unique=True).map(CircleSet)


def _as_json(cell):
    return None if cell is None else cell.to_json()


def assert_barycenter_is_fraction_mean(cell):
    if cell is not None:
        assert cell.barycenter() == fraction_mean(cell.vertices)


@settings(max_examples=300)
@given(hull_sets, hull_sets, hull_sets)
@example(CircleSet([0, 2]), CircleSet([0, 2, 5]), CircleSet([1]))       # segment on an edge
@example(CircleSet([0, 1, 2]), CircleSet([1, 2, 3]), CircleSet([0, 3]))  # shared edge
@example(CircleSet([0, 2, 4]), CircleSet([1, 3, 5]), CircleSet([0, 3]))  # hexagon, then a chord
@example(CircleSet([0]), CircleSet([0, 1, 2]), CircleSet([INF]))        # shared vertex
def test_cell_intersection_matches_brute_force_oracle(a_set, b_set, c_set):
    a, b, c = hull(a_set), hull(b_set), hull(c_set)
    ab = cell_intersection(a, b)
    assert _as_json(ab) == _as_json(clip_oracle(a, b))
    assert _as_json(cell_intersection(b, a)) == _as_json(ab)
    assert_barycenter_is_fraction_mean(a)
    assert_barycenter_is_fraction_mean(ab)
    if ab is not None:
        # a cell cut from two hulls has vertices inside the disc as well
        abc = cell_intersection(ab, c)
        assert _as_json(abc) == _as_json(clip_oracle(ab, c))
        assert _as_json(cell_intersection(c, ab)) == _as_json(abc)
        assert_barycenter_is_fraction_mean(abc)


def test_clipping_oracle_sees_every_dimension_pair():
    # seeded draws from the same pool reach every pairing of point, segment
    # and polygon, including the touching and collinear ones
    rng = random.Random(3)
    seen = set()
    for _ in range(2000):
        a, b = (hull(CircleSet(rng.sample(POOL, rng.randint(1, 6)))) for _ in range(2))
        ab = cell_intersection(a, b)
        assert _as_json(ab) == _as_json(clip_oracle(a, b))
        assert_barycenter_is_fraction_mean(ab)
        seen.add((min(a.dim, b.dim), max(a.dim, b.dim), None if ab is None else ab.dim))
    assert seen == {(d, e, f) for d in range(3) for e in range(d, 3)
                    for f in (None, 0, 1, 2) if f is None or f <= d}


# ── point location ───────────────────────────────────────────────────────

def grid_pair():
    return validate([CircleSet([0, 3]), CircleSet([4, 7])],
                    [CircleSet([2, 5]), CircleSet([6, 1])])


def test_locate_examples():
    fp = grid_pair()
    assert locate(fp, pp(F(-13, 17), F(10, 17))) == (0, 0)
    assert locate(fp, pp(0, 0)) == (None, None)
    assert locate(fp, pp(1, 0)) == (0, None)


def test_locate_rejects_outside():
    with pytest.raises(OutsideDiscError):
        locate(grid_pair(), pp(2, 0))
    with pytest.raises(OutsideDiscError):
        locate(grid_pair(), pp(F(4, 5), F(4, 5)))


def test_locate_agrees_with_containment():
    fp = grid_pair()
    hulls_plus = [hull(s) for s in fp.plus]
    hulls_minus = [hull(s) for s in fp.minus]
    samples = [pp(0, 0), pp(1, 0), pp(F(-13, 17), F(10, 17)), pp(F(1, 3), F(1, 3)),
               pp(F(-1, 2), 0), pp(0, F(9, 10)), pp(F(3, 5), F(-4, 5)), pp(F(-1, 5), F(2, 5))]
    for p in samples:
        i, j = locate(fp, p)
        for k, h in enumerate(hulls_plus):
            assert _cell_contains_h(h, p._h) == (k == i)
        for k, h in enumerate(hulls_minus):
            assert _cell_contains_h(h, p._h) == (k == j)


def test_within_family_hulls_disjoint():
    from circlink import random_family_pair
    for seed in range(25):
        fp = random_family_pair(seed)
        for fam in (fp.plus, fp.minus):
            hs = [hull(s) for s in fam]
            for a, b in combinations(hs, 2):
                assert cell_intersection(a, b) is None


# ── linked cells ─────────────────────────────────────────────────────────

def test_linked_cells_grid():
    cells = linked_cells(grid_pair())
    assert sorted(cells) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(c.dim == 0 for c in cells.values())
    assert cells[(0, 0)].vertices == (pp(F(-13, 17), F(10, 17)),)


def test_linked_cells_tripod():
    cells = linked_cells(validate([CircleSet([0, 2, 4])], [CircleSet([1, 3, 5])]))
    assert list(cells) == [(0, 0)]
    assert cells[(0, 0)].dim == 2


def test_linked_cells_skip_unlinked():
    fp = validate([CircleSet([0, 3])], [CircleSet([4, 7])])
    assert linked_cells(fp) == {}


# ── serialization ────────────────────────────────────────────────────────

def test_cell_json_round_trip():
    for cell in (hull(CircleSet([0])), hull(CircleSet([0, 3])), hull(CircleSet([0, 2, 4]))):
        data = cell.to_json()
        assert data["dim"] == cell.dim
        assert ConvexCell(cell.dim, [PlanePoint.from_json(v) for v in data["vertices"]]) == cell


def test_plane_point_json():
    p = pp(F(-13, 17), F(10, 17))
    assert p.to_json() == ["-13/17", "10/17"]
    assert PlanePoint.from_json(["-13/17", "10/17"]) == p


def test_wire_rationals_refuse_exponents():
    # integers, p/q and decimals parse; an exponent is refused before
    # Fraction can expand it into a huge integer
    assert PlanePoint.from_json(["-0.5", "3"]) == pp(F(-1, 2), 3)
    assert CircleMap.from_json({"m": [["0.5", "0"], ["0", "1/2"]]}) == CircleMap(1, 0, 0, 1)
    for bad, where in ((["1e999", "0"], "$[0]"), (["0", "-2E3"], "$[1]")):
        with pytest.raises(MalformedInputError) as info:
            PlanePoint.from_json(bad)
        assert info.value.location == where
    with pytest.raises(MalformedInputError) as info:
        CircleMap.from_json({"m": [["1", "0"], ["0", "1e999"]]})
    assert info.value.location == "$.m[1][1]"


# Wire strings: ASCII and other Unicode digits, underscores, ASCII and
# Unicode whitespace, signs, slashes, points and exponent marks, drawn freely
# and in the shapes of integers, p/q, decimals and exponents.
WIRE_CHARS = "0123456789\u0663\u06f4\u0966_ \t\n\x0b\x1c\x85\xa0\u3000+-/.eEdD"
digit_run = st.text(alphabet="0123456789\u0663\u0966", min_size=1, max_size=4)
grouped = st.lists(digit_run, min_size=1, max_size=3).map("_".join) | digit_run
space = st.sampled_from(["", " ", "\t", "\n", "\xa0", "\u3000", "\x1c", "\x85"])
tail = st.one_of(st.just(""), grouped.map("/".__add__), (grouped | st.just("")).map(".".__add__),
                 grouped.map("e".__add__), st.builds("{} / {}".format, st.just(""), grouped))
shaped = st.builds("{}{}{}{}{}".format, space, st.sampled_from(["", "+", "-"]),
                   grouped | st.just(""), tail, space)
wire_strings = st.text(alphabet=WIRE_CHARS, max_size=12) | shaped


def fraction_reading(s):
    """What the wire reads from s: Fraction's (num, den) when s, stripped,
    spells a number in ASCII signs, digits, slashes and points (an integer,
    p/q or a decimal, the grammar every Python's Fraction reads alike), and
    the message for any other spelling."""
    t = s.strip()
    try:
        if not set(t) <= set("0123456789+-/."):
            raise ValueError(t)
        f = Fraction(t)
    except (ValueError, ZeroDivisionError):
        return "bad rational %.40r" % s
    return (f.numerator, f.denominator)


def wire_reading(s, where):
    try:
        return _parse_frac(s, where)
    except MalformedInputError as exc:
        assert exc.location == where
        return exc.message


@settings(max_examples=300)
@given(wire_strings, st.sampled_from(["$[0]", "$.m[1][0]", "--point"]))
@example("1_000/3_0", "$[1]")                         # Fraction reads it from 3.11 on
@example("1 / 4", "$[1]")                             # and this from 3.12 on
@example("-0/00", "$[1]")                             # a zero denominator
@example(" -.5_0\u3000", "$[0]")
@example("\u0663/\u0966", "$[0]")                      # Arabic-Indic 3 over Devanagari 0
@example("1.", "$[0]")
@example(".", "$[0]")
@example("1.d", "$[0]")
@example("1" * 4301, "$[0]")                           # past int()'s digit limit
@example("0." + "1" * 4301, "$[0]")
@example("2" * 3000 + "." + "1" * 3000, "$[0]")
def test_wire_rationals_read_as_fraction_does(s, where):
    assert wire_reading(s, where) == fraction_reading(s)


def test_wire_rationals_must_be_strings():
    for raw in (1, 0.5, None, ["1"], F(1, 2)):
        with pytest.raises(MalformedInputError) as info:
            _parse_frac(raw, "$.m[0][1]")
        assert info.value.message == "coordinate must be a rational string"
        assert info.value.location == "$.m[0][1]"


# ── barycenters: pairwise sums against the lcm form ───────────────────────

triple = st.tuples(st.integers(-2 ** 80, 2 ** 80), st.integers(-2 ** 80, 2 ** 80),
                   st.integers(1, 2 ** 64) | st.sampled_from([1, 2, 6, 2 ** 61 - 1])
                   ).map(lambda h: _h_norm(*h))


@settings(max_examples=400)
@given(st.lists(triple, min_size=1, max_size=40))
@example([(1, 0, 1), (0, 1, 1), (-1, 0, 1)])                 # odd count, one round carries
@example([(1, 0, 3)] * 7)                                     # equal denominators
@example([(1, 1, 2 ** 64), (-1, -1, 2 ** 64 - 1), (0, 0, 1)])
def test_pairwise_mean_is_the_lcm_mean(hs):
    assert _h_mean(hs) == lcm_mean(hs)


def _corpus():
    g = random_circle_map(0)
    yield "grid(120) image", g.apply_pair(gen_grid(120))
    yield "star(200) image", g.apply_pair(gen_star(200))
    yield "star(1600) image", g.apply_pair(gen_star(1600))
    yield "tripod", gen_tripod()
    yield "figure", gen_figure()
    for depth in (2, 4):
        yield "nested(%d)" % depth, nested_pair(depth, depth)
    for seed in range(60):
        yield "random(%d)" % seed, random_family_pair(seed)


def test_every_generated_cell_has_the_lcm_barycenter():
    # the verifiers import _h_mean by name and tests patch it there
    assert straighten._h_mean is _h_mean and symmetry._h_mean is _h_mean
    sizes = set()
    for name, fp in _corpus():
        for z, cell in fp.cells().items():
            hs = cell._h
            sizes.add(len(hs))
            assert _h_mean(hs) == lcm_mean(hs), (name, z)
    assert {1, 400, 3200} <= sizes and len(sizes) > 6
