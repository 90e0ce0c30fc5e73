"""The shared per-pair index against the all-pairs definitions it replaces."""

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
from circlink import family, symmetry
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
    index = fp.index
    # especial_disc(fp) returns the index's own disc, so the all-pairs
    # point-by-point classification is the oracle
    disc = oracle.especial_disc(fp)
    assert index.disc == disc
    assert especial_disc(fp) is index.disc
    assert dict(index.interior) == {(i, j): n for i, j, n in disc.interior}
    assert dict(index.boundary) == {(i, j): s for i, j, s in disc.boundary}
    # each fiber against a full scan of the disc; fiber_plus and fiber_minus
    # of the pair's own disc view the index's fibers
    for i in range(len(fp.plus)):
        assert list(index.fiber("plus", i)) == scan_fiber_plus(disc, i)
        assert fiber_plus(index.disc, i) == fiber_plus(disc, i) == scan_fiber_plus(disc, i)
        assert index.fiber("plus", i) is index.disc.fiber("plus", i)
    for j in range(len(fp.minus)):
        assert list(index.fiber("minus", j)) == scan_fiber_minus(disc, j)
        assert fiber_minus(index.disc, j) == fiber_minus(disc, j) == scan_fiber_minus(disc, j)
        assert index.fiber("minus", j) is index.disc.fiber("minus", j)
    for name in ("plus", "minus"):
        assert index.hulls(name) == tuple(hull(s) for s in fp.family(name))
    expected_cells = {(i, j): cell_intersection(hull(fp.plus[i]), hull(fp.minus[j]))
                      for i, j, _ in disc.interior}
    assert dict(index.cells()) == expected_cells


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
    assert len(fp.index.boundary) == 2
    assert_index_matches_oracles(fp)


def test_fiber_rejects_bad_index():
    index = gen_grid(2).index
    with pytest.raises(IndexError):
        index.fiber("plus", 2)
    with pytest.raises(IndexError):
        index.fiber("minus", -1)


def test_shared_pieces_are_read_only():
    fp = touching_pair()
    index = fp.index
    with pytest.raises(TypeError):
        index.interior[(1, 0)] = 5
    with pytest.raises(TypeError):
        del index.interior[(1, 0)]
    with pytest.raises(TypeError):
        index.boundary[(0, 0)] = point(4)
    with pytest.raises(TypeError):
        index.fiber("plus", 1)[0] = (0, 1)
    with pytest.raises(TypeError):
        index.fiber("minus", 0)[0] = (0, 1)
    with pytest.raises(TypeError):
        index.hulls("plus")[0] = None
    with pytest.raises(TypeError):
        index.cells()[(1, 0)] = None
    assert dict(index.interior) == {(1, 0): 2}
    assert dict(index.boundary) == {(0, 0): point(3), (1, 1): point(7)}


def test_index_is_built_once_per_pair(monkeypatch):
    calls = []
    real = family.especial_disc

    def counted(fp):
        calls.append(fp)
        return real(fp)

    # the index classifies through family's name, equivariance through its own
    monkeypatch.setattr(family, "especial_disc", counted)
    monkeypatch.setattr(symmetry, "especial_disc", counted)
    fp = gen_grid(3)
    assert fp.index is fp.index
    assert straighten_point(fp, param_to_point(point(0))) is not None
    assert quotient_check(fp).ok
    layout(fp)
    render_input_svg(fp)
    assert prong_count(fp, (0, 0)) == 4
    assert len(calls) == 1
    # the transformed pair is classified from scratch, never through fp's index
    assert check_equivariance(fp, CircleMap.identity()).ok
    assert len(calls) == 2 and calls[1] is not fp


def test_cells_are_kept_only_inside_keep_cells():
    index = gen_grid(2).index
    first = index.cells()
    assert index.cells() is not first
    assert index.cells() == first
    with index.keep_cells():
        shared = index.cells()
        with index.keep_cells():
            assert index.cells() is shared
        # leaving the inner block keeps them for the outer one
        assert index.cells() is shared
    assert index.cells() is not shared


def test_pair_with_built_index_still_copies_and_pickles():
    fp = touching_pair()
    quotient_check(fp)
    layout(fp)
    for other in (pickle.loads(pickle.dumps(fp)), copy.deepcopy(fp), copy.copy(fp)):
        assert other == fp
        assert other.plus_labels == fp.plus_labels
        assert other.index.disc == fp.index.disc
