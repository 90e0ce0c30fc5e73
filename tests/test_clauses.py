"""Clause census: every verification clause is shown firing alone.

Each test breaks the layer below one clause, by a patch or by handing a
stage what validate would refuse, and checks that exactly that clause
reports, or that exactly its typed error is raised. Three checks that could
never fire alone are not made, and the lemma that covers each sits in the
verifier's docstring: distinct cells landing on distinct Z-points (covered
by constant), prong counts agreeing on orbits and the image of a cell
being interior (both covered by interior-permutation). The constant,
interior-permutation and target-outside-the-disc tests show the patches
that reach those cases firing the covering clause. No check here is an
assert in the library, so the module also runs under python -O.
"""

from types import MappingProxyType

import pytest

from circlink import (
    CircleMap,
    CircleSet,
    EmptyLinkedCellError,
    EspecialDisc,
    FamilyPair,
    InvariantViolation,
    check_equivariance,
    gen_grid,
    layout,
    leaf_graph,
    param_to_point,
    point,
    quotient_check,
    validate,
)
from circlink import hullgeom, symmetry

NEG_RECIPROCAL = CircleMap(0, -1, 1, 0)  # u -> -1/u


def symmetric_pair():
    """Invariant under u -> -1/u, which swaps elements 0, 1 and 2, 3 of each
    family: interior Z-points (0, 0), (1, 1) and boundary Z-points (2, 2) at
    5, (3, 3) at -1/5."""
    return validate([["1", "2"], ["-1", "-1/2"], ["4", "5"], ["-1/4", "-1/5"]],
                    [["3/2", "3"], ["-2/3", "-1/3"], ["5", "6"], ["-1/5", "-1/6"]])


def clauses(report):
    return {(f["kind"], f.get("clause")) for f in report.failures}


def same_cell(real):
    # every cell built becomes the first one built, the (0, 0) cell
    first = []

    def patched(*args):
        if not first:
            first.append(args)
        return real(*first[0])
    return patched


def test_symmetric_pair_passes_both_verifiers():
    fp = symmetric_pair()
    assert fp.disc.interior == ((0, 0, 2), (1, 1, 2))
    assert fp.disc.boundary == ((2, 2, point(5)), (3, 3, point("-1/5")))
    report = check_equivariance(fp, NEG_RECIPROCAL)
    assert report.ok and report.plus_permutation == report.minus_permutation == (1, 0, 3, 2)
    assert quotient_check(fp).ok


# ── quotient_check ───────────────────────────────────────────────────────

def test_constant_fires_alone(monkeypatch):
    # every sample lands in the (0, 0) cell: nine cells on one Z-point,
    # which constant reports on all 8 other cells
    monkeypatch.setattr(hullgeom, "_jump_cell", same_cell(hullgeom._jump_cell))
    report = quotient_check(gen_grid(3))
    assert {f["clause"] for f in report.failures} == {"constant"}
    assert sorted({tuple(f["z"]) for f in report.failures}) == [
        (i, j) for i in range(3) for j in range(3) if (i, j) != (0, 0)]
    assert all(f["got"] == {"result": "mapped", "z": [0, 0]} for f in report.failures)


def test_surjective_fires_alone(monkeypatch):
    real = hullgeom.linked_cells

    def drop_one(fp):
        cells = real(fp)
        del cells[(1, 1)]
        return cells

    monkeypatch.setattr(hullgeom, "linked_cells", drop_one)
    report = quotient_check(gen_grid(2))
    assert report.failures == ({"clause": "surjective", "z": [1, 1]},)
    assert report.cells_checked == 3


def test_empty_linked_cell_raises_alone():
    # a disc claiming three rounds for a pair that alternates twice
    fp = validate([CircleSet([0, 3])], [CircleSet([2, 5])])
    fp._disc = EspecialDisc(1, 1, ((0, 0, 3),), ())
    with pytest.raises(EmptyLinkedCellError) as info:
        quotient_check(fp)
    assert info.value.z == (0, 0)


def test_hull_overlap_raises_alone():
    # FamilyPair skips validate, so linked plus chords reach the forest sweep
    fp = FamilyPair([CircleSet([0, 2]), CircleSet([1, 3])],
                    [CircleSet([point("1/2"), point("3/2")])])
    with pytest.raises(InvariantViolation) as info:
        quotient_check(fp)
    assert (info.value.invariant, info.value.counts) == ("hull-overlap", ("plus", 0, 1))


# ── check_equivariance ───────────────────────────────────────────────────

def test_not_invariant_fires_alone():
    # u -> 2u is no symmetry of the pair; the report stops at the families
    report = check_equivariance(symmetric_pair(), CircleMap(2, 0, 0, 1))
    assert clauses(report) == {("NotInvariant", None)}
    assert report.plus_permutation is None and report.minus_permutation is None


def test_permutation_collision_raises_alone(monkeypatch):
    fp = symmetric_pair()
    monkeypatch.setattr(CircleMap, "apply_set", lambda g, s: fp.plus[0])
    with pytest.raises(InvariantViolation) as info:
        check_equivariance(fp, NEG_RECIPROCAL)
    assert (info.value.invariant, info.value.counts) == (
        "permutation-collision", ("plus", 0, 1, 0))


def test_interior_permutation_fires_alone(monkeypatch):
    # the pair's interior map gives the orbit {(0, 0), (1, 1)} two linking
    # numbers, the only way its prong counts can differ
    fp = symmetric_pair()
    monkeypatch.setattr(fp, "_interior", MappingProxyType({(0, 0): 2, (1, 1): 3}))
    report = check_equivariance(fp, NEG_RECIPROCAL)
    assert clauses(report) == {("DiscMismatch", "interior-permutation")}


def test_boundary_permutation_fires_alone(monkeypatch):
    fp = symmetric_pair()
    monkeypatch.setattr(fp, "_boundary",
                        MappingProxyType({(2, 2): point(6), (3, 3): point("-1/5")}))
    report = check_equivariance(fp, NEG_RECIPROCAL)
    assert clauses(report) == {("DiscMismatch", "boundary-permutation")}


@pytest.mark.parametrize("clause,forge", [
    ("interior-recomputed",
     lambda d: EspecialDisc(d.n_plus, d.n_minus, tuple((i, j, n + 1) for i, j, n in d.interior),
                            d.boundary)),
    ("boundary-recomputed",
     lambda d: EspecialDisc(d.n_plus, d.n_minus, d.interior,
                            tuple((i, j, point(0)) for i, j, _s in d.boundary))),
])
def test_recomputed_disc_clauses_fire_alone(monkeypatch, clause, forge):
    real = symmetry.especial_disc
    monkeypatch.setattr(symmetry, "especial_disc", lambda fp: forge(real(fp)))
    report = check_equivariance(symmetric_pair(), NEG_RECIPROCAL)
    assert clauses(report) == {("DiscMismatch", clause)}


def test_straighten_mismatch_fires_alone(monkeypatch):
    # every cell becomes the circle point of parameter 1, which no hull
    # holds strictly inside the disc and whose image straightens to no cell
    monkeypatch.setattr(hullgeom, "_jump_cell",
                        lambda *args: hullgeom._cell(0, (param_to_point(1).key(),)))
    report = check_equivariance(symmetric_pair(), NEG_RECIPROCAL)
    assert report.failures == (
        {"kind": "StraightenMismatch", "z": [0, 0], "expected": [1, 1]},
        {"kind": "StraightenMismatch", "z": [1, 1], "expected": [0, 0]},
    )


def test_target_outside_the_disc_is_reported_not_raised():
    # dropping (1, 1) from the pair's disc sends the (0, 0) cell to a
    # target outside it: reported by interior-permutation, not raised as
    # NotInteriorError
    fp = validate([["1", "2"], ["-1", "-1/2"]], [["3/2", "3"], ["-2/3", "-1/3"]])
    g = CircleMap(0, 1, -1, 0)
    assert check_equivariance(fp, g).ok
    fp = validate(fp.plus, fp.minus)
    fp._disc = EspecialDisc(2, 2, ((0, 0, 2),), ())
    report = check_equivariance(fp, g)
    assert report.plus_permutation == report.minus_permutation == (1, 0)
    assert {"kind": "DiscMismatch", "clause": "interior-permutation"} in report.failures


# ── layout ───────────────────────────────────────────────────────────────

def test_layout_collision_raises_alone(monkeypatch):
    monkeypatch.setattr(hullgeom, "_jump_cell", same_cell(hullgeom._jump_cell))
    with pytest.raises(InvariantViolation) as info:
        layout(gen_grid(2))
    assert (info.value.invariant, info.value.counts, info.value.z) == (
        "layout-collision", (0, 0), (0, 1))


def test_leaf_tree_raises_alone(monkeypatch):
    # a fiber listing its one Z-point twice chains it to itself
    real = FamilyPair.fiber
    monkeypatch.setattr(FamilyPair, "fiber", lambda fp, family, k: real(fp, family, k) * 2)
    fp = validate([CircleSet([0, 3])], [CircleSet([2, 5])])
    with pytest.raises(InvariantViolation) as info:
        leaf_graph(fp, "plus", 0)
    assert (info.value.invariant, info.value.counts) == ("leaf-tree", ("plus", 0, 1, 2))
