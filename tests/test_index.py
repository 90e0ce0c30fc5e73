"""What a pair caches for its stages against the all-pairs definitions it
replaces."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlink import (
    CircleMap,
    CircleSet,
    cell_intersection,
    check_equivariance,
    especial_disc,
    fiber_minus,
    fiber_plus,
    gen_figure,
    gen_grid,
    gen_star,
    gen_symmetric,
    gen_tripod,
    hull,
    layout,
    nested_pair,
    param_to_point,
    point,
    prong_count,
    quotient_check,
    random_family_pair,
    render_input_svg,
    straighten_point,
    validate,
)
import pointwise_oracle as oracle
from circlink import family, hullgeom, symmetry
from circlink.generators import random_circle_map


def touching_pair():
    # plus 0 meets minus 0 at 3 and plus 1 meets minus 1 at 7: two boundary
    # Z-points beside the interior one (1, 0)
    return validate([CircleSet([0, 3]), CircleSet([4, 7])],
                    [CircleSet([3, 5]), CircleSet([7, 10])])


FIXTURES = [gen_grid(3), gen_tripod(), gen_star(5), nested_pair(3, 1), gen_figure(),
            gen_symmetric()[0], touching_pair()]


def scan_fiber_plus(disc, i):
    zs = [(a, b) for a, b, _ in disc.interior if a == i]
    zs += [(a, b) for a, b, _ in disc.boundary if a == i]
    return sorted(zs)


def scan_fiber_minus(disc, j):
    zs = [(a, b) for a, b, _ in disc.interior if b == j]
    zs += [(a, b) for a, b, _ in disc.boundary if b == j]
    return sorted(zs)


def assert_index_matches_oracles(fp):
    # especial_disc(fp) returns the pair's own disc, so the all-pairs
    # point-by-point classification is the oracle
    disc = oracle.especial_disc(fp)
    assert fp.disc == disc
    assert especial_disc(fp) is fp.disc
    assert dict(fp.interior) == {(i, j): n for i, j, n in disc.interior}
    assert dict(fp.boundary) == {(i, j): s for i, j, s in disc.boundary}
    # each fiber against a full scan of the disc; fiber_plus and fiber_minus
    # of the pair's own disc view the disc's fibers, built once
    for i in range(len(fp.plus)):
        assert list(fp.disc.fiber("plus", i)) == scan_fiber_plus(disc, i)
        assert fiber_plus(fp.disc, i) == fiber_plus(disc, i) == scan_fiber_plus(disc, i)
        assert fp.disc.fiber("plus", i) is fp.disc.fiber("plus", i)
    for j in range(len(fp.minus)):
        assert list(fp.disc.fiber("minus", j)) == scan_fiber_minus(disc, j)
        assert fiber_minus(fp.disc, j) == fiber_minus(disc, j) == scan_fiber_minus(disc, j)
        assert fp.disc.fiber("minus", j) is fp.disc.fiber("minus", j)
    expected_cells = {(i, j): cell_intersection(hull(fp.plus[i]), hull(fp.minus[j]))
                      for i, j, _ in disc.interior}
    assert dict(fp.cells()) == expected_cells
    # built once, and keyed in (i, j) order, which every stage walks
    assert fp.cells() is fp.cells()
    assert list(fp.cells()) == sorted(fp.cells())


@pytest.mark.parametrize("k", range(len(FIXTURES)))
def test_index_matches_oracles_on_fixtures(k):
    assert_index_matches_oracles(FIXTURES[k])


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_index_matches_oracles_on_random_pairs(seed):
    assert_index_matches_oracles(random_family_pair(seed))


@settings(max_examples=20)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_index_matches_oracles_with_boundary_points(seed):
    fp = random_circle_map(seed).apply_pair(touching_pair())
    assert len(fp.boundary) == 2
    assert_index_matches_oracles(fp)


def test_fiber_rejects_bad_index():
    disc = gen_grid(2).disc
    with pytest.raises(IndexError):
        disc.fiber("plus", 2)
    with pytest.raises(IndexError):
        disc.fiber("minus", -1)


def test_shared_pieces_are_read_only():
    fp = touching_pair()
    with pytest.raises(TypeError):
        fp.interior[(1, 0)] = 5
    with pytest.raises(TypeError):
        del fp.interior[(1, 0)]
    with pytest.raises(TypeError):
        fp.boundary[(0, 0)] = point(4)
    with pytest.raises(TypeError):
        fp.disc.fiber("plus", 1)[0] = (0, 1)
    with pytest.raises(TypeError):
        fp.disc.fiber("minus", 0)[0] = (0, 1)
    with pytest.raises(TypeError):
        fp.cells()[(1, 0)] = None
    assert dict(fp.interior) == {(1, 0): 2}
    assert dict(fp.boundary) == {(0, 0): point(3), (1, 1): point(7)}


def test_index_is_built_once_per_pair(monkeypatch):
    calls = []
    cell_builds = []
    real = family.especial_disc
    real_cells = hullgeom.linked_cells

    def counted(fp):
        calls.append(fp)
        return real(fp)

    def counted_cells(fp, disc=None):
        cell_builds.append(fp)
        return real_cells(fp, disc)

    # the pair classifies through family's name, equivariance through its
    # own; the pair imports linked_cells from hullgeom when it builds them
    monkeypatch.setattr(family, "especial_disc", counted)
    monkeypatch.setattr(symmetry, "especial_disc", counted)
    monkeypatch.setattr(hullgeom, "linked_cells", counted_cells)
    fp = gen_grid(3)
    assert straighten_point(fp, param_to_point(point(0))) is not None
    assert quotient_check(fp).ok
    layout(fp)
    render_input_svg(fp)
    assert prong_count(fp, (0, 0)) == 4
    assert len(calls) == 1
    # the transformed pair is classified from scratch, never through fp's caches
    assert check_equivariance(fp, CircleMap(1, 0, 0, 1)).ok
    assert len(calls) == 2 and calls[1] is not fp
    # the four stages that read the linked cells share one build of them
    assert cell_builds == [fp]


def test_pair_with_built_index_still_copies_and_pickles():
    fp = touching_pair()
    quotient_check(fp)
    layout(fp)
    for other in (pickle.loads(pickle.dumps(fp)), copy.deepcopy(fp), copy.copy(fp)):
        # the copy builds its own caches
        assert other._disc is None and other._cells is None
        assert other == fp
        assert other.plus_labels == fp.plus_labels
        assert other.disc == fp.disc
