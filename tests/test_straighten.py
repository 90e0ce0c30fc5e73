"""Straightening map, layout, leaf trees, and the quotient report."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from childenv import child_env
from circlink import (
    CircleMap,
    CircleSet,
    GroupOrderNotTotalError,
    MappedTo,
    NotInDomain,
    OnBoundary,
    OutsideDiscError,
    PlanePoint,
    check_equivariance,
    layout,
    leaf_graph,
    linked_cells,
    locate,
    param_to_point,
    point,
    quotient_check,
    random_family_pair,
    straighten_point,
    validate,
)
from circlink import hullgeom, straighten
from circlink.straighten import VIRTUAL, result_to_json
from plane_oracle import fraction_mean

F = Fraction


def pp(x, y):
    return PlanePoint(F(x), F(y))


def grid_pair():
    return validate([CircleSet([0, 3]), CircleSet([4, 7])],
                    [CircleSet([2, 5]), CircleSet([6, 1])])


def tripod_pair():
    return validate([CircleSet([0, 2, 4])], [CircleSet([1, 3, 5])])


def shadow_pair():
    # one triangle, two chords cutting different prong-gap pairs
    return validate([CircleSet([0, 2, 4])],
                    [CircleSet([F(1, 2), F(5, 2)]), CircleSet([3, F(9, 2)])])


# ── straighten_point ─────────────────────────────────────────────────────

def test_straighten_examples():
    fp = grid_pair()
    assert straighten_point(fp, pp(F(-13, 17), F(10, 17))) == MappedTo((0, 0))
    assert straighten_point(fp, pp(0, 0)) == NotInDomain()

    edge_fp = validate([CircleSet([0, 1])], [CircleSet([1, 5])])
    assert straighten_point(edge_fp, pp(0, 1)) == OnBoundary(point(1))


def test_straighten_rejects_outside():
    with pytest.raises(OutsideDiscError):
        straighten_point(grid_pair(), pp(0, 2))


def test_straighten_constant_on_cells():
    fp = tripod_pair()
    cell = linked_cells(fp)[(0, 0)]
    for p in cell.vertices + (cell.barycenter(),):
        assert straighten_point(fp, p) == MappedTo((0, 0))


def test_straighten_hull_point_without_partner():
    # inside a plus hull but no minus hull: not in the domain
    fp = grid_pair()
    assert straighten_point(fp, pp(1, 0)) == NotInDomain()


def test_result_json_shapes():
    assert result_to_json(MappedTo((0, 1))) == {"result": "mapped", "z": [0, 1]}
    assert result_to_json(OnBoundary(point(1))) == {"result": "boundary", "point": "1"}
    assert result_to_json(NotInDomain()) == {"result": "not_in_domain"}


# ── layout ───────────────────────────────────────────────────────────────

def test_layout_grid():
    sd = layout(grid_pair())
    assert sorted(sd.layout) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert sd.layout[(0, 0)] == pp(F(-13, 17), F(10, 17))
    cells = linked_cells(grid_pair())
    for z, pos in sd.layout.items():
        assert pos == cells[z].vertices[0]
    for lg in sd.leaves_plus + sd.leaves_minus:
        assert len(lg.vertices) == 2 and len(lg.edges) == 1 and lg.virtual_count == 0
    assert sd.crossings == ()
    assert sd.disc.boundary == ()
    assert sd.to_json()["boundary_anchors"] == []


def test_layout_tripod():
    fp = tripod_pair()
    sd = layout(fp)
    cell = linked_cells(fp)[(0, 0)]
    assert sd.layout == {(0, 0): cell.barycenter()}
    for lg in sd.leaves_plus + sd.leaves_minus:
        assert lg.vertices == ((0, 0),) and lg.edges == ()


def test_layout_boundary_anchor():
    # one linked partner, one touching partner on the same plus element
    fp = validate([CircleSet([0, 2])], [CircleSet([1, 3]), CircleSet([2, F(5, 2)])])
    sd = layout(fp)
    assert sd.disc.boundary == ((0, 1, point(2)),)
    assert sd.to_json()["boundary_anchors"] == [{"z": [0, 1], "point": "2"}]
    assert sd.layout[(0, 1)] == param_to_point(point(2))
    lg = sd.leaves_plus[0]
    assert lg.virtual_count == 1
    assert set(lg.vertices) == {(0, 0), (0, 1)}
    assert sorted(lg.edges) == [(VIRTUAL, (0, 0)), (VIRTUAL, (0, 1))]


def test_layout_positions_are_distinct():
    virtual = 0
    for seed in range(30):
        fp = random_family_pair(seed)
        sd = layout(fp)
        keys = {(p.x, p.y) for p in sd.layout.values()}
        assert len(keys) == len(sd.layout)
        # integer means over a common denominator are the Fraction means
        for z, cell in linked_cells(fp).items():
            assert sd.layout[z] == fraction_mean(cell.vertices)
        for (fam, el), p in sd.virtual_positions.items():
            leaves = sd.leaves_plus if fam == "plus" else sd.leaves_minus
            ends = [v for u, v in leaves[el].edges if u == VIRTUAL]
            assert p == fraction_mean([sd.layout[e] for e in ends])
            virtual += 1
    assert virtual >= 5


def test_layout_json_deterministic():
    fp = shadow_pair()
    a = json.dumps(layout(fp).to_json(), sort_keys=True)
    b = json.dumps(layout(fp).to_json(), sort_keys=True)
    assert a == b


# ── leaf graphs ──────────────────────────────────────────────────────────

def test_leaf_graph_grid_single_edge():
    lg = leaf_graph(grid_pair(), "plus", 0)
    assert lg.vertices == ((0, 0), (0, 1)) or lg.vertices == ((0, 1), (0, 0))
    assert len(lg.edges) == 1 and lg.virtual_count == 0


def test_leaf_graph_tripod_shadow():
    lg = leaf_graph(shadow_pair(), "plus", 0)
    assert lg.virtual_count == 1
    assert set(lg.vertices) == {(0, 0), (0, 1)}
    assert sorted(lg.edges) == [(VIRTUAL, (0, 0)), (VIRTUAL, (0, 1))]


def test_leaf_graph_singleton_fiber():
    lg = leaf_graph(tripod_pair(), "minus", 0)
    assert lg.vertices == ((0, 0),) and lg.edges == () and lg.virtual_count == 0


def test_leaf_graph_empty_fiber():
    fp = validate([CircleSet([0, 3]), CircleSet([10, 11])], [CircleSet([2, 5])])
    lg = leaf_graph(fp, "plus", 1)
    assert lg.vertices == () and lg.edges == () and lg.virtual_count == 0


def test_leaf_graph_chain_on_one_chord():
    # one minus chord crossed by three nested plus chords: a 3-vertex path
    fp = validate([CircleSet([0, 10]), CircleSet([1, 9]), CircleSet([2, 8])],
                  [CircleSet([F(5, 2), 20])])
    lg = leaf_graph(fp, "minus", 0)
    assert set(lg.vertices) == {(0, 0), (1, 0), (2, 0)}
    assert lg.virtual_count == 0
    assert len(lg.edges) == 2
    degree = {v: sum(v in edge for edge in lg.edges) for v in lg.vertices}
    assert sorted(degree.values()) == [1, 1, 2]
    # the middle chord {1,9} separates the outer two, so it is the path center
    assert degree[(1, 0)] == 2


def chain_leaf_pair():
    # three nested chords around 10 and one around 20: plus 0's fiber is a
    # 3-member chain and a singleton, joined by a virtual vertex
    return validate([[0, 10, 20]], [[9, 11], [8, 12], [7, 13], [19, 21]])


def test_leaf_graph_reports_misordered_groups(monkeypatch):
    fp = chain_leaf_pair()
    fp.disc
    # every member separates everything: neither end can face the virtual vertex
    monkeypatch.setattr(straighten, "rank_separates", lambda barrier, first, second: True)
    with pytest.raises(GroupOrderNotTotalError) as info:
        leaf_graph(fp, "plus", 0)
    assert info.value.witness == ((0, 2), (0, 0))


def test_leaf_graphs_are_trees_on_random_families():
    for seed in range(40):
        fp = random_family_pair(seed)
        sd = layout(fp)
        for lg in sd.leaves_plus + sd.leaves_minus:
            n = len(lg.vertices) + lg.virtual_count
            if n == 0:
                assert lg.edges == ()
            else:
                assert len(lg.edges) == n - 1
                # connectivity: union-find over the edge list
                parent = {v: v for v in lg.all_vertices()}

                def find(v):
                    while parent[v] != v:
                        parent[v] = parent[parent[v]]
                        v = parent[v]
                    return v

                for a, b in lg.edges:
                    parent[find(a)] = find(b)
                assert len({find(v) for v in parent}) == 1


# ── quotient report ──────────────────────────────────────────────────────

def test_quotient_check_grid():
    report = quotient_check(grid_pair())
    assert report.ok and report.failures == ()
    assert report.cells_checked == 4
    assert report.points_sampled == 8


def test_quotient_check_tripod_samples_seven_points():
    report = quotient_check(tripod_pair())
    assert report.ok
    assert report.cells_checked == 1
    assert report.points_sampled == 7


def test_quotient_check_with_unlinked_element():
    fp = validate([CircleSet([0, 3]), CircleSet([10, 11])], [CircleSet([2, 5])])
    report = quotient_check(fp)
    assert report.ok
    assert report.cells_checked == 1


def test_quotient_check_random_families():
    for seed in range(20):
        report = quotient_check(random_family_pair(seed))
        assert report.ok, report.failures


def test_quotient_check_reports_cells_landing_on_one_z(monkeypatch):
    # every cell built becomes the (0, 0) cell, so all four cells of the grid
    # straighten to one Z-point: the three that are not (0, 0) fail constant
    from circlink import hullgeom

    real = hullgeom._jump_cell
    first = []

    def same_cell(*args):
        if not first:
            first.append(args)
        return real(*first[0])

    monkeypatch.setattr(hullgeom, "_jump_cell", same_cell)
    report = quotient_check(grid_pair())
    assert not report.ok
    constant = [f["z"] for f in report.failures if f["clause"] == "constant"]
    assert sorted(set(map(tuple, constant))) == [(0, 1), (1, 0), (1, 1)]


def _jump_cell_first(real):
    first = []

    def same_cell(*args):
        # every cell built becomes the first one built
        if not first:
            first.append(args)
        return real(*first[0])
    return same_cell


def _jump_cell_on_rim(real):
    def rim_cell(*args):
        # every cell becomes the circle point of parameter 0, a plus vertex
        return hullgeom._cell(0, (param_to_point(0).key(),))
    return rim_cell


@pytest.mark.parametrize("patch,got,wrong", [
    (_jump_cell_first, {"result": "mapped", "z": [0, 0]}, [[0, 1], [1, 0], [1, 1]]),
    (_jump_cell_on_rim, {"result": "not_in_domain"}, [[0, 0], [0, 1], [1, 0], [1, 1]]),
])
def test_failed_points_report_what_locate_finds(monkeypatch, patch, got, wrong):
    # points that fail the containment test are straightened in full, so
    # each reported result is the one locate and straighten_point give
    monkeypatch.setattr(hullgeom, "_jump_cell", patch(hullgeom._jump_cell))
    fp = grid_pair()
    report = quotient_check(fp)
    assert report.points_sampled == 8
    constant = [f for f in report.failures if f["clause"] == "constant"]
    # a point cell is sampled twice, as vertex and as barycenter
    assert [f["z"] for f in constant] == [z for z in wrong for _ in range(2)]
    for f in constant:
        p = PlanePoint.from_json(f["point"])
        assert f["got"] == got == result_to_json(straighten_point(fp, p))
        if got["result"] == "mapped":
            assert list(locate(fp, p)) == got["z"]
    equiv = check_equivariance(fp, CircleMap(1, 0, 0, 1))
    assert equiv.failures == tuple({"kind": "StraightenMismatch", "z": z, "expected": z}
                                   for z in wrong)


COLLIDING_LAYOUT = """
from circlink import CircleSet, InvariantViolation, hullgeom, layout, validate
real = hullgeom._jump_cell
first = []
def same_cell(*args):
    # every cell built becomes the (0, 0) cell
    first.append(args)
    return real(*first[0])
hullgeom._jump_cell = same_cell
fp = validate([CircleSet([0, 3]), CircleSet([4, 7])], [CircleSet([2, 5]), CircleSet([6, 1])])
try:
    layout(fp)
except InvariantViolation as exc:
    print(exc.invariant, exc.counts, exc.z)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_layout_collision_is_a_typed_violation(flags):
    # the check is not an assert, so it holds under -O as well
    env = child_env()
    proc = subprocess.run([sys.executable] + flags + ["-c", COLLIDING_LAYOUT],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "layout-collision (0, 0) (0, 1)\n"


def test_crossing_detector_on_synthetic_segments():
    # no especial fixture produces a crossing, so drive the detector directly
    from circlink.straighten import LeafGraph
    from crossing_oracle import _detect_crossings

    leaves = [LeafGraph(fam, 0, ((0, 0), (0, 1)), 0, (((0, 0), (0, 1)),))
              for fam in ("plus", "minus")]

    def run(pa, qa, pb, qb):
        table = {("plus", 0, (0, 0)): pa, ("plus", 0, (0, 1)): qa,
                 ("minus", 0, (0, 0)): pb, ("minus", 0, (0, 1)): qb}
        return _detect_crossings(leaves, lambda f, e, v: table[(f, e, v)])

    hit = [(("minus", 0, 0), ("plus", 0, 0))]
    # proper interior crossing
    assert run(pp(-1, -1), pp(1, 1), pp(-1, 1), pp(1, -1)) == hit
    # endpoint of one segment interior to the other
    assert run(pp(-1, 0), pp(1, 0), pp(0, 0), pp(0, 1)) == hit
    # collinear with positive-length overlap, and one span inside the other
    assert run(pp(0, 0), pp(2, 0), pp(1, 0), pp(3, 0)) == hit
    assert run(pp(0, 0), pp(3, 0), pp(1, 0), pp(2, 0)) == hit
    # vertical against horizontal
    assert run(pp(0, -1), pp(0, 1), pp(-1, 0), pp(1, 0)) == hit
    # rational skew crossing
    assert run(pp(F(1, 3), F(1, 7)), pp(F(5, 3), F(8, 7)),
               pp(F(1, 3), F(8, 7)), pp(F(5, 3), F(1, 7))) == hit
    # contacts that collapse to a shared vertex are not crossings
    assert run(pp(0, 0), pp(1, 1), pp(0, 0), pp(-1, 1)) == []
    assert run(pp(0, 0), pp(1, 0), pp(1, 0), pp(2, 0)) == []
    assert run(pp(0, 0), pp(1, 0), pp(1, 0), pp(2, 1)) == []
    # disjoint parallels
    assert run(pp(0, 0), pp(1, 0), pp(0, 1), pp(1, 1)) == []
