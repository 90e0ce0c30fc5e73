"""Leaf planarity certified locally.

layout reports the crossings of the straightened leaves from the Z-point
regions alone (straighten._leaf_crossings). These tests require the same
list as the global scan it replaced (crossing_oracle) and as the all-pairs
Fraction test (plane_oracle), on corpora that reach every case of the
certificate: virtual edges meeting another cell of their fiber, chain edges
whose ends a third set separates, boundary Z-points whose hulls overlap
beyond their shared point, and real crossings. They also pin what layout
costs on pairs without virtual vertices.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossing_oracle
from childenv import child_env
from circlink import (
    CircleSet,
    PlanePoint,
    family,
    gen_figure,
    gen_grid,
    gen_star,
    hullgeom,
    layout,
    nested_pair,
    random_family_pair,
    straighten,
    validate,
)
from circlink.circle import INF, linked, rank_separates
from circlink.errors import CirclinkError
from circlink.family import LaminarForest
from circlink.generators import random_circle_map
from circlink.hullgeom import ConvexCell, _cell_contains_h, cell_intersection
from circlink.straighten import VIRTUAL, _segments_cross
from crossing_oracle import _detect_crossings, leaf_position
from plane_oracle import FractionPoint, crossings_by_pairs, segments_cross
from test_locate import KINDS, drawn_pair

TESTS = os.path.dirname(os.path.abspath(__file__))

# the pairs of the scratch census (drawn_pair kinds x 60 seeds,
# random_family_pair 0-299, gen_figure, nested_pair depths 1-4) in which a
# virtual edge meets the cell of a Z-point it does not end at; the census
# counted three, and drawn_pair("random", 37) is random_family_pair(37)
VIRTUAL_MEETS_OTHER_CELL = {"random_family_pair(37)": lambda: random_family_pair(37),
                            "random_family_pair(101)": lambda: random_family_pair(101)}

# minus leaf 0 is the chain (2, 0), (3, 0), (0, 0): plus set {1, 17}
# separates {3, 15, 16} from {0, 19}, so the chain edge (3, 0)-(0, 0)
# crosses plus hull 1 and its ends are no neighbours in the plus forest
SEPARATED_CHAIN = ([[0, 19], [1, 17], [5, 11, 13], [3, 15, 16]], [[0, 2, 3, 5], [12, 14]])

# valid pairs whose leaves cross, one per kind of meeting: the two edges
# (virtual or chain) and the region (the cell of an interior Z-point, or
# the overlap of the hulls of a boundary one)
CROSSING = {
    "virtual-virtual-interior": (([[1, 4, 9], [7], [2], [6]], [[2, 6], [0, 8]]),
                                 [(("minus", 0, 1), ("plus", 0, 0))]),
    "virtual-virtual-boundary": (([[0, 1, 3, 4], [9]], [[3, 9], [5, 8], [4], [0]]),
                                 [(("minus", 0, 1), ("plus", 0, 0))]),
    "virtual-chain-interior": (([[3, 9], [5], [10, 11]], [[5, 10], [1, 4]]),
                               [(("minus", 0, 2), ("plus", 0, 0))]),
    "chain-virtual-interior": (([[2, 5, 7], [4], [1, 8]], [[8, 9], [1, 5], [2], [0, 6]]),
                               [(("minus", 1, 0), ("plus", 0, 1)),
                                (("minus", 3, 0), ("plus", 2, 2))]),
    "chain-virtual-boundary": (([[6, 8, 9], [0, 3, 4, 5]], [[4, 7], [2], [0, 1, 8], [5]]),
                               [(("minus", 0, 0), ("plus", 1, 0))]),
    "virtual-chain-boundary": (([[4, 5], [0], [1, 3, 7], [2]], [[5, 9], [0, 3, 4]]),
                               [(("minus", 1, 2), ("plus", 2, 0))]),
}


def shared_point_pair(seed):
    """A small random pair on 10, 14 or 20 integer points, each family
    laminar, whose cross pairs may share a point."""
    rng = random.Random(seed)
    points = list(range(rng.choice((10, 14, 20))))
    plus, minus = [], []
    for sets, other in ((plus, ()), (minus, plus)):
        want = rng.randint(2, 6)
        for _ in range(6 * want):
            if len(sets) == want:
                break
            s = CircleSet(rng.sample(points, rng.choice((1, 2, 2, 2, 3, 3, 4))))
            if all(not s.intersection(t) and not linked(s, t) for t in sets) \
                    and all(len(s.intersection(t)) < 2 for t in other):
                sets.append(s)
    return validate(plus, minus)


def oracle_crossings(sd, all_pairs=True):
    """The global scan's list, checked against the all-pairs test when
    all_pairs."""
    leaves = sd.leaves_plus + sd.leaves_minus
    position = leaf_position(sd)
    scan = _detect_crossings(leaves, position)
    if all_pairs:

        def frac(family, element, v):
            p = position(family, element, v)
            return FractionPoint(p.x, p.y)

        assert crossings_by_pairs(leaves, frac) == scan
    return scan


def assert_matches_oracles(fp, all_pairs=True):
    sd = layout(fp)
    assert list(sd.crossings) == oracle_crossings(sd, all_pairs)
    return sd


def _count(monkeypatch, owner, name, counts):
    real = getattr(owner, name)

    def counted(*args):
        counts[name] += 1
        return real(*args)

    monkeypatch.setattr(owner, name, counted)


# ── the differential corpus ──────────────────────────────────────────────

@settings(max_examples=60, deadline=None)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2 ** 32))
def test_drawn_pairs_match_oracles(kind, seed):
    assert_matches_oracles(drawn_pair(kind, seed))


def test_random_family_pairs_match_oracles():
    virtual = 0
    for seed in range(300):
        sd = assert_matches_oracles(random_family_pair(seed), all_pairs=seed < 60)
        virtual += len(sd.virtual_positions)
    assert virtual >= 40


@pytest.mark.parametrize("depth", range(1, 7))
def test_nested_pairs_match_oracles(depth):
    assert_matches_oracles(nested_pair(depth, 3), all_pairs=depth <= 4)


def test_figure_grid_and_star_images_match_oracles():
    assert_matches_oracles(gen_figure())
    for seed in range(3):
        assert_matches_oracles(random_circle_map(seed).apply_pair(gen_grid(7)))
        assert_matches_oracles(random_circle_map(seed).apply_pair(gen_star(20)))
    assert_matches_oracles(random_circle_map(3).apply_pair(gen_grid(40)), all_pairs=False)


def test_shared_point_pairs_match_oracles(monkeypatch):
    # pairs with shared marked points reach boundary regions and real
    # crossings, which no generator above produces
    counts = dict.fromkeys(("_hull_cap", "_segments_cross"), 0)
    _count(monkeypatch, straighten, "_hull_cap", counts)
    _count(monkeypatch, straighten, "_segments_cross", counts)
    laid = crossed = 0
    for seed in range(800):
        try:
            sd = assert_matches_oracles(shared_point_pair(seed))
        except CirclinkError:
            continue
        laid += 1
        crossed += bool(sd.crossings)
    assert laid > 700 and crossed > 60
    # one cap test per virtual vertex and hull of its fiber, and exact tests
    # only for the open edges that meet a region and the edges there
    assert counts == {"_hull_cap": 2332, "_segments_cross": 514}


@pytest.mark.parametrize("name", sorted(CROSSING))
def test_real_crossings(name):
    (plus, minus), want = CROSSING[name]
    sd = assert_matches_oracles(validate(plus, minus))
    assert list(sd.crossings) == want


@pytest.mark.parametrize("name", sorted(VIRTUAL_MEETS_OTHER_CELL))
def test_virtual_edge_meeting_another_cell(name):
    fp = VIRTUAL_MEETS_OTHER_CELL[name]()
    sd = layout(fp)
    cells = fp.cells()
    met = []
    for leaf in sd.leaves_plus + sd.leaves_minus:
        for u, v in leaf.edges:
            if u == VIRTUAL:
                seg = ConvexCell(1, [sd.virtual_positions[(leaf.family, leaf.element)],
                                     sd.layout[v]])
                met += [z for z in fp.disc.fiber(leaf.family, leaf.element)
                        if z != v and z in cells and cell_intersection(seg, cells[z])]
    assert met
    assert_matches_oracles(fp)


# ── chain edges ──────────────────────────────────────────────────────────

def test_forest_neighbours_are_the_pairs_no_set_separates():
    # brute force over every pair of sets: interior nodes of a longer tree
    # path separate its ends, so neighbours are exactly the unseparated pairs
    neighbours = 0
    pairs = [drawn_pair(kind, seed) for kind in KINDS for seed in range(8)]
    pairs += [shared_point_pair(seed) for seed in range(100)]
    # the set holding INF separates the two other roots, which are siblings
    # under it and no neighbours
    pairs.append(validate([[1, INF], ["1/4", "1/2"], [2, 3]], [[5, 6]]))
    for fp in pairs:
        for name in ("plus", "minus"):
            sets = fp.ranks(name)
            forest = fp.forest(name)
            for a in range(len(sets)):
                for b in range(len(sets)):
                    if a != b:
                        separated = any(rank_separates(sets[k], sets[a], sets[b])
                                        for k in range(len(sets)) if k not in (a, b))
                        assert forest.neighbours(sets, a, b) == (not separated)
                        neighbours += not separated
    assert neighbours > 500


def test_separated_chain_edge_is_tested_like_a_virtual_one():
    fp = validate(*SEPARATED_CHAIN)
    sets = fp.ranks("plus")
    assert rank_separates(sets[1], sets[3], sets[0])
    assert not fp.forest("plus").neighbours(sets, 3, 0)
    sd = assert_matches_oracles(fp)
    assert ((3, 0), (0, 0)) in sd.leaves_minus[0].edges
    assert sd.crossings == ()


def test_every_chain_edge_unchecked_gives_the_same_crossings(monkeypatch):
    # with no chain edge certified, each is tested against every hull of
    # its fiber, and the answer does not change
    monkeypatch.setattr(LaminarForest, "neighbours", lambda self, sets, a, b: False)
    for (plus, minus), want in CROSSING.values():
        assert list(assert_matches_oracles(validate(plus, minus)).crossings) == want
    for seed in range(40):
        assert_matches_oracles(random_family_pair(seed), all_pairs=False)
    assert_matches_oracles(random_circle_map(1).apply_pair(gen_grid(6)))


def test_virtual_vertex_on_an_end_is_no_segment(monkeypatch):
    # the virtual vertex of plus leaf 3 moved onto its end (3, 1), which
    # lies inside a minus edge: the edge between them is one point, no
    # segment, and crosses nothing
    fp = validate([[6], [0, 2], [8], [3, 5], [4]], [[5, 6], [1, 2, 4], [7], [9]])
    sd = layout(fp)
    end = sd.layout[(3, 1)]
    ends = sorted(sd.layout[v].key() for u, v in sd.leaves_plus[3].edges if u == VIRTUAL)
    assert (VIRTUAL, (3, 1)) in sd.leaves_plus[3].edges
    real = straighten._h_mean
    monkeypatch.setattr(straighten, "_h_mean",
                        lambda hs: end.key() if sorted(hs) == ends else real(hs))
    moved = assert_matches_oracles(fp)
    assert moved.virtual_positions[("plus", 3)] == end
    assert moved.crossings == ()


# ── an overlap along one line ────────────────────────────────────────────

def test_virtual_edge_overlapping_a_chain_edge(monkeypatch):
    # plus leaf 1 is two virtual edges, minus leaf 0 one chain edge from
    # the shared point 3 to the cell of (1, 0). Moving the virtual vertex
    # onto that chain edge inside the cell keeps every leaf in its hulls
    # and makes the virtual edge to (1, 0) overlap the chain edge.
    fp = validate([[1, 2, 3, 6], [7, 9, 11, 13]], [[3, 4, 12], [9]])
    sd = layout(fp)
    assert sd.leaves_plus[1].edges == ((VIRTUAL, (1, 1)), (VIRTUAL, (1, 0)))
    assert sd.leaves_minus[0].edges == (((0, 0), (1, 0)),)
    assert sd.crossings == ()
    b, s = sd.layout[(1, 0)], sd.layout[(0, 0)]
    cell = fp.cells()[(1, 0)]
    t = Fraction(1, 2)
    while True:
        v = PlanePoint(b.x + t * (s.x - b.x), b.y + t * (s.y - b.y))
        if _cell_contains_h(cell, v._h):
            break
        t /= 2
    ends = [sd.layout[(1, 1)].key(), b.key()]
    real = straighten._h_mean
    monkeypatch.setattr(straighten, "_h_mean",
                        lambda hs: v.key() if sorted(hs) == sorted(ends) else real(hs))
    moved = assert_matches_oracles(fp)
    assert moved.virtual_positions[("plus", 1)] == v
    assert (("minus", 0, 0), ("plus", 1, 1)) in moved.crossings


SEGMENT_POINTS = [(x, y) for x in (0, 1, 2, 3) for y in (0, 1, 2)] + [
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(3, 2), 1), (Fraction(5, 3), Fraction(1, 3))]


segment = st.lists(st.sampled_from(SEGMENT_POINTS), min_size=2, max_size=2, unique=True)


@settings(max_examples=400)
@given(segment, segment)
def test_segment_test_matches_fraction_oracle(first, second):
    pts = first + second
    got = _segments_cross(*(PlanePoint(x, y).key() for x, y in pts))
    assert got == segments_cross(*(FractionPoint(x, y) for x, y in pts))


def test_segment_test_on_shared_ends_and_overlaps():
    def run(*pts):
        return _segments_cross(*(PlanePoint(x, y).key() for x, y in pts))

    assert run((0, 0), (2, 0), (1, 0), (3, 0))          # overlap on one line
    assert run((0, 0), (3, 0), (1, 0), (2, 0))          # one inside the other
    assert run((-1, 0), (1, 0), (0, 0), (0, 1))         # an end inside the other
    assert not run((0, 0), (1, 0), (1, 0), (2, 0))      # collinear, one shared end
    assert not run((0, 0), (1, 1), (0, 0), (-1, 1))     # a shared end
    assert not run((0, 0), (1, 0), (2, 0), (3, 0))      # collinear, apart
    assert not run((0, 0), (1, 0), (0, 1), (1, 1))      # parallel


# ── cost ─────────────────────────────────────────────────────────────────

@pytest.mark.parametrize("make", [lambda: gen_grid(16), lambda: gen_grid(64),
                                  lambda: random_circle_map(0).apply_pair(gen_grid(40))],
                         ids=["grid16", "grid64", "mapped-grid40"])
def test_layout_cost_without_virtual_vertices(make, monkeypatch):
    fp = make()
    fp.cells()
    counts = dict.fromkeys(("_segments_cross", "_hull_cap", "_h_line", "_line_key",
                            "neighbours", "rank_separates"), 0)
    _count(monkeypatch, straighten, "_segments_cross", counts)
    _count(monkeypatch, straighten, "_hull_cap", counts)
    _count(monkeypatch, hullgeom, "_h_line", counts)
    _count(monkeypatch, crossing_oracle, "_line_key", counts)
    _count(monkeypatch, LaminarForest, "neighbours", counts)
    _count(monkeypatch, family, "rank_separates", counts)
    sd = layout(fp)
    edges = sum(len(leaf.edges) for leaf in sd.leaves_plus + sd.leaves_minus)
    assert not sd.virtual_positions and edges >= 2 * 16 * 15
    # one forest-neighbour check per chain edge, at most one separation
    # test in it, and no segment, cap or line work at all
    assert counts["rank_separates"] <= edges
    assert dict(counts, rank_separates=0) == dict(
        _segments_cross=0, _hull_cap=0, _h_line=0, _line_key=0, neighbours=edges,
        rank_separates=0)
    assert sd.crossings == ()


# ── the same under -O ────────────────────────────────────────────────────

UNDER_FLAGS = """
from circlink import layout, validate
from circlink.family import LaminarForest
from crossing_oracle import _detect_crossings, leaf_position
from test_planarity import CROSSING, SEPARATED_CHAIN

def agree(plus, minus, want):
    sd = layout(validate(plus, minus))
    scan = _detect_crossings(sd.leaves_plus + sd.leaves_minus, leaf_position(sd))
    return list(sd.crossings) == scan == want

fixtures = list(CROSSING.values()) + [(SEPARATED_CHAIN, [])]
got = [agree(p, m, want) for (p, m), want in fixtures]
LaminarForest.neighbours = lambda self, sets, a, b: False
got += [agree(p, m, want) for (p, m), want in fixtures]
print(sum(got), len(got))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_planarity_under_flags(flags):
    env = child_env(TESTS)
    proc = subprocess.run([sys.executable] + flags + ["-c", UNDER_FLAGS],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "14 14\n"
