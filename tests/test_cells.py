"""Linked cells from the alternation against the general cell intersection.

linked_cells builds each interior cell as the 2n-gon of the crossings of
its two rank tuples' jump edges, read off by a walk over their runs. The
oracle is cell_intersection of the two hulls, which clips one polygon by the
other and shares none of that code.
"""

import cProfile
import itertools
import pstats
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from childenv import child_env
from circlink import (
    CircleSet,
    EmptyLinkedCellError,
    FamilyPair,
    cell_intersection,
    especial_disc,
    gen_grid,
    gen_star,
    gen_symmetric,
    hull,
    linked_cells,
    locate,
    nested_pair,
    validate,
)
from circlink.generators import random_circle_map
from circlink.hullgeom import _edge_lines, _jump_cell
import pointwise_oracle as oracle
from test_locate import KINDS, drawn_pair, to_inf
from test_ranks import CHORD_POINTS, CHORDS


def assert_cells_match_clipping(fp):
    fp = FamilyPair(fp.plus, fp.minus)
    expected = {(i, j): cell_intersection(hull(fp.plus[i]), hull(fp.minus[j]))
                for i, j, _ in fp.disc.interior}
    cells = linked_cells(fp)
    assert cells == expected
    # the canonical form is the clipping's, down to the bytes
    assert [c.to_json() for c in cells.values()] == [c.to_json() for c in expected.values()]
    return cells


@settings(max_examples=120)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2 ** 32))
def test_cells_match_clipping(kind, seed):
    assert_cells_match_clipping(drawn_pair(kind, seed))


def test_cell_corpus_covers_inf_segments_and_concurrent_chords():
    seen = set()

    def record(fp):
        has_inf = fp.points[-1].is_infinite
        for (i, j), cell in assert_cells_match_clipping(fp).items():
            sizes = (min(len(fp.plus[i].points), 3), min(len(fp.minus[j].points), 3))
            seen.add((has_inf, sizes, cell.dim))

    for depth in range(1, 5):
        for seed in range(6):
            fp = nested_pair(depth, seed)
            if seed % 2:
                fp = to_inf(fp.points[seed % len(fp.points)]).apply_pair(fp)
            record(fp)
    for k, kind in enumerate(KINDS):
        for seed in range(10):
            record(drawn_pair(kind, 13 * seed + k))
    # two diameters: their chords and every image's meet at one point
    sym, _ = gen_symmetric()
    # triangles and a square against segments, one way and the other
    mixed = validate([CircleSet([0, 2, 4]), CircleSet([6, 9])],
                     [CircleSet([1, 3]), CircleSet([5, 8, 10, 11])])
    for seed in range(8):
        record(random_circle_map(seed).apply_pair(sym))
        fp = random_circle_map(seed).apply_pair(mixed)
        record(fp)
        record(to_inf(fp.points[seed]).apply_pair(fp))
    # with and without INF: segment against segment is a point, a segment
    # against a polygon a segment, two polygons a polygon
    assert seen >= {(i, s, d) for i in (False, True)
                    for s, d in (((2, 2), 0), ((2, 3), 1), ((3, 2), 1), ((3, 3), 2))}


def _calls(fn, *args) -> dict:
    """Calls of each hullgeom function made by fn(*args), by name, and of
    bisect_left, wherever it is called from."""
    prof = cProfile.Profile()
    prof.runcall(fn, *args)
    calls = {}
    for (path, _, name), value in pstats.Stats(prof).stats.items():
        if path.endswith("hullgeom.py"):
            calls[name] = value[1]
        elif name.endswith(".bisect_left>"):
            calls["bisect_left"] = calls.get("bisect_left", 0) + value[1]
    return calls


def _calls_without_side_test(fp) -> dict:
    """The calls linked_cells makes on fp, which include no side test
    (hullgeom._in_cap); locating a cell's barycenter, counted the same way,
    makes at least one per family."""
    fp.disc
    calls = _calls(linked_cells, fp)
    assert calls.get("_in_cap", 0) == 0
    cell = next(iter(fp.cells().values()))
    assert _calls(locate, fp, cell.barycenter())["_in_cap"] >= 2
    return calls


@pytest.mark.parametrize("k", [50, 100, 200])
def test_star_cell_costs_one_crossing_a_vertex(k):
    calls = _calls_without_side_test(random_circle_map(k).apply_pair(gen_star(k)))
    assert calls["_h_line_cross"] == 2 * k
    assert calls["_jump_cell"] == 1


def test_grid_cell_costs_one_crossing():
    calls = _calls_without_side_test(random_circle_map(3).apply_pair(gen_grid(6)))
    # both edges of a 2-point set are one chord, and two chords take the
    # closed form: no walk, no bisection and no vertex ring
    assert calls["_h_line_cross"] == calls["_jump_cell"] == 36
    assert calls["_edge_lines"] == 12
    assert "_ring_cell" not in calls and "bisect_left" not in calls


def test_grid_disc_makes_no_bisection():
    # every grid set is a chord, so each classified pair takes
    # rank_link_number's closed form
    fp = random_circle_map(3).apply_pair(gen_grid(6))
    assert _calls(especial_disc, fp) == {}
    assert len(fp.disc.interior) == 36


def test_chord_cells_match_clipping_or_raise():
    # the closed form for two chords, on every pair of 2-rank tuples with n
    # from 0 to 4: the crossing of the chords when they link, as clipping
    # finds it, and EmptyLinkedCellError otherwise, shared ranks included
    sets = {c: CircleSet([CHORD_POINTS[r] for r in c]) for c in CHORDS}
    lines = {c: _edge_lines(c, CHORD_POINTS) for c in CHORDS}
    linked = 0
    for (i, a), (j, b) in itertools.product(enumerate(CHORDS), repeat=2):
        link = not set(a) & set(b) and oracle.linked(sets[a], sets[b])
        linked += link
        for n in range(5):
            if link and n == 2:
                cell = _jump_cell(a, b, n, lines[a], lines[b], (i, j))
                assert cell == cell_intersection(hull(sets[a]), hull(sets[b]))
                assert cell.dim == 0
            else:
                with pytest.raises(EmptyLinkedCellError) as exc:
                    _jump_cell(a, b, n, lines[a], lines[b], (i, j))
                assert exc.value.z == (i, j)
    assert linked == 70


OPEN_WALK = """
from circlink import CircleSet, EmptyLinkedCellError, EspecialDisc, linked_cells, validate
twice = validate([CircleSet([0, 3])], [CircleSet([2, 5])])
thrice = validate([CircleSet([0, 2, 4])], [CircleSet([1, 3, 5])])
unlinked = validate([CircleSet([0, 1])], [CircleSet([2, 3])])
parallel = validate([CircleSet([-3, -1])], [CircleSet([0, 2])])
triangle = validate([CircleSet([-3, -1, 0])], [CircleSet(["1/2", 7])])
for fp, n in ((twice, 0), (twice, 1), (twice, 3), (twice, 4), (thrice, 2),
              (unlinked, 1), (unlinked, 2), (parallel, 2), (triangle, 2), (triangle, 3)):
    vars(fp)["disc"] = EspecialDisc(1, 1, ((0, 0, n),), ())
    try:
        linked_cells(fp)
    except EmptyLinkedCellError as exc:
        print(n, exc.z)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["normal", "optimized"])
def test_walk_that_does_not_close_raises(flags):
    # a walk told fewer rounds than the pair alternates does not close, one
    # told more closes early, and an unlinked pair's walk closes after one
    # round: a linked cell needs at least two. Closure is decided before
    # any line is crossed, so unlinked pairs whose walk would cross parallel
    # lines raise the same error.
    env = child_env()
    proc = subprocess.run([sys.executable] + flags + ["-c", OPEN_WALK],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "".join("%d (0, 0)\n" % n for n in (0, 1, 3, 4, 2, 1, 2, 2, 2, 3))
