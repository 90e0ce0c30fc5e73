"""End-to-end checks tying the exact geometry to the combinatorics at scale."""

import itertools
import json
import random
import time
from fractions import Fraction as F

from circlink.circle import CirclePoint, CircleSet, link_number, linked, separates
from circlink.family import especial_disc, prong_count, separation_interval, validate
from circlink.generators import (
    gen_figure,
    gen_grid,
    gen_star,
    gen_symmetric,
    gen_tripod,
    nested_pair,
    random_family_pair,
    random_set_pair,
)
from circlink.hullgeom import PlanePoint, cell_intersection, hull
from circlink.straighten import VIRTUAL, layout, quotient_check
from circlink.symmetry import CircleMap, check_equivariance

import pointwise_oracle as oracle

PAIR_SAMPLES = 10_000


def test_linked_predicate_matches_exact_hull_overlap():
    # combinatorial linking must agree with hull intersection on every seed
    t0 = time.monotonic()
    mismatches = 0
    for seed in range(PAIR_SAMPLES):
        a, b = random_set_pair(seed)
        if linked(a, b) != (cell_intersection(hull(a), hull(b)) is not None):
            mismatches += 1
    dt = time.monotonic() - t0
    print("hull oracle: %d pairs, %d mismatches, %.1fs" % (PAIR_SAMPLES, mismatches, dt))
    assert mismatches == 0
    assert dt < 30.0


def test_four_crossing_counts_always_agree():
    # the oracle computes all four counts; the library computes one
    for seed in range(PAIR_SAMPLES):
        a, b = random_set_pair(seed)
        counts = oracle.link_number_counts(a, b)
        assert counts == (link_number(a, b),) * 4, (seed, counts)
    print("count agreement: %d pairs checked" % PAIR_SAMPLES)


def test_two_by_two_grid_disc_and_crossing_point():
    fp = gen_grid(2)
    disc = especial_disc(fp)
    assert disc.boundary == ()
    assert disc.interior == ((0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2))
    for i, j, _ in disc.interior:
        assert prong_count(fp, (i, j)) == 4
    cross = cell_intersection(hull(fp.plus[0]), hull(fp.minus[0]))
    assert cross is not None and cross.dim == 0
    want = PlanePoint(F(-13, 17), F(10, 17))
    assert cross.vertices == (want,)
    # the straightened position of that cell is the same exact point
    assert layout(fp).layout[(0, 0)] == want


def test_star_families_give_single_point_with_doubled_prongs():
    for k in range(3, 9):
        fp = gen_star(k)
        disc = especial_disc(fp)
        assert disc.interior == ((0, 0, k),)
        assert disc.boundary == ()
        assert prong_count(fp, (0, 0)) == 2 * k
    print("stars 3..8: one interior point each, prongs doubled")


def _fixture_pairs():
    out = [gen_grid(n) for n in (1, 2, 3)]
    out += [gen_star(k) for k in range(3, 9)]
    out += [gen_tripod(), gen_figure(), gen_symmetric()[0]]
    out += [nested_pair(d, 5) for d in (1, 2, 3)]
    return out


def test_collapse_clauses_hold_on_fixtures_and_random_pairs():
    for fp in _fixture_pairs():
        rep = quotient_check(fp)
        assert rep.ok, rep.failures
    t0 = time.monotonic()
    for seed in range(1_000):
        rep = quotient_check(random_family_pair(seed))
        assert rep.ok, (seed, rep.failures)
    print("collapse: fixtures + 1000 random pairs, %.1fs" % (time.monotonic() - t0))


def _mobius_through(src, dst):
    """The projective map sending src[i] to dst[i], or None if it reverses
    orientation. Triples must be distinct finite rationals."""
    def basis(t):
        p0, p1, p2 = t
        return (p1 - p2, -p0 * (p1 - p2), p1 - p0, -p2 * (p1 - p0))

    a, b, c, d = basis(src)
    e, f, g, h = basis(dst)
    try:
        return CircleMap(h * a - f * c, h * b - f * d,
                         e * c - g * a, e * d - g * b)
    except ValueError:
        return None


def _marked_point_symmetries(fp):
    pts = {p for s in list(fp.plus) + list(fp.minus) for p in s.points}
    fracs = sorted(p.frac for p in pts)
    base = tuple(fracs[:3])
    found = []
    for dst in itertools.permutations(fracs, 3):
        m = _mobius_through(base, dst)
        if m is None or m in found:
            continue
        if {m.apply(p) for p in pts} == pts:
            found.append(m)
    return found


def test_equivariance_under_marked_point_symmetries():
    # every orientation-preserving map permuting a grid's marked points must
    # pass; enumeration by image triples finds them all
    for n in (1, 2, 3):
        fp = gen_grid(n)
        maps = _marked_point_symmetries(fp)
        assert any(m.is_identity() for m in maps)
        for m in maps:
            rep = check_equivariance(fp, m)
            assert rep.ok, (n, m, rep.failures)
        print("grid(%d): %d marked-point symmetries, all equivariant" % (n, len(maps)))

    fp, g = gen_symmetric()
    assert check_equivariance(fp, g).ok
    h = CircleMap(2, 1, 1, 1)
    moved = h.apply_pair(fp)
    conjugate = h.compose(g).compose(h.inverse())
    assert check_equivariance(moved, conjugate).ok

    # the quarter-turn map does not fix the grid's marked set
    rep = check_equivariance(gen_grid(2), CircleMap(0, -1, 1, 0))
    assert not rep.ok
    assert rep.failures
    assert all(fail["kind"] == "NotInvariant" for fail in rep.failures)


def _check_interval(fp, family, i, j):
    sets = fp.plus if family == "plus" else fp.minus
    order = separation_interval(fp, family, i, j)
    assert order[0] == i and order[-1] == j
    assert separation_interval(fp, family, j, i) == order[::-1]
    for k in order[1:-1]:
        assert separates(sets[k], sets[i], sets[j])
    return len(order)


def test_separation_intervals_are_total_orders():
    t0 = time.monotonic()
    checked = 0
    for depth in (1, 2, 3, 4):
        fp = nested_pair(depth, 11)
        for fam in ("plus", "minus"):
            r = len(fp.plus)
            for i, j in itertools.combinations(range(r), 2):
                _check_interval(fp, fam, i, j)
                checked += 1
    for depth in (5, 6):
        fp = nested_pair(depth, 11)
        rng = random.Random(depth)
        r = len(fp.plus)
        for _ in range(40):
            i, j = rng.sample(range(r), 2)
            _check_interval(fp, "plus", i, j)
            checked += 1
    for seed in range(1_000):
        fp = nested_pair(1 + seed % 3, 1_000 + seed)
        rng = random.Random(seed)
        r = len(fp.plus)
        for _ in range(3):
            i, j = rng.sample(range(r), 2)
            _check_interval(fp, "plus", i, j)
            checked += 1
    print("separation: %d interval queries, %.1fs" % (checked, time.monotonic() - t0))


def _assert_tree(g):
    atoms = list(g.vertices) + ([VIRTUAL] if g.virtual_count else [])
    if not atoms:
        # an element linked with nothing has an empty fiber
        assert g.edges == ()
        return
    assert len(g.edges) == len(atoms) - 1
    parent = {v: v for v in atoms}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in g.edges:
        ra, rb = find(a), find(b)
        assert ra != rb, "cycle in leaf graph"
        parent[ra] = rb
    assert len({find(v) for v in atoms}) == 1, "leaf graph disconnected"


def test_leaf_graphs_are_trees_with_single_branch_vertex():
    pairs = _fixture_pairs() + [random_family_pair(s) for s in range(300)]
    graphs = 0
    for fp in pairs:
        lay = layout(fp)
        for g in lay.leaves_plus + lay.leaves_minus:
            _assert_tree(g)
            graphs += 1
    print("leaf graphs: %d trees over %d pairs" % (graphs, len(pairs)))

    # one chord shadowed by a two-chord tripod: its fiber needs one junction
    shadow = validate([[0, 2, 4]], [[F(1, 2), F(5, 2)], [3, F(9, 2)]])
    g = layout(shadow).leaf("plus", 0)
    assert g.virtual_count == 1
    degree = sum((a == VIRTUAL) + (b == VIRTUAL) for a, b in g.edges)
    assert degree == 2


def _pipeline_blob(n):
    fp = gen_grid(n)
    fp = validate(fp.plus, fp.minus)
    disc = especial_disc(fp)
    lay = layout(fp)
    return json.dumps({"pair": fp.to_json(), "z": disc.to_json(),
                       "layout": lay.to_json()}, sort_keys=True)


def test_pipeline_is_byte_stable_and_fast_at_scale():
    runs = {_pipeline_blob(20) for _ in range(2)}
    assert len(runs) == 1, "pipeline output varies across runs"

    t0 = time.monotonic()
    fp = gen_grid(200)
    fp = validate(fp.plus, fp.minus)
    disc = especial_disc(fp)
    lay = layout(fp)
    dt = time.monotonic() - t0
    assert len(disc.interior) == 40_000
    assert disc.boundary == ()
    assert len(lay.layout) == 40_000
    assert lay.crossings == ()
    print("grid(200): 40000 classifications laid out in %.2fs" % dt)
    assert dt < 10.0
