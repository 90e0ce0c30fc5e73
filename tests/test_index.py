"""What a pair caches for its stages against the all-pairs definitions it
replaces."""

import copy
import pickle
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlink import (
    CircleMap,
    CircleSet,
    RenderOptions,
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
    # each fiber against a full scan of the disc; the pair's fibers are
    # built once, and fiber_plus and fiber_minus read the disc's tuples
    for i in range(len(fp.plus)):
        assert list(fp.fiber("plus", i)) == scan_fiber_plus(disc, i)
        assert fiber_plus(fp.disc, i) == fiber_plus(disc, i) == scan_fiber_plus(disc, i)
        assert fp.fiber("plus", i) is fp.fiber("plus", i)
    for j in range(len(fp.minus)):
        assert list(fp.fiber("minus", j)) == scan_fiber_minus(disc, j)
        assert fiber_minus(fp.disc, j) == fiber_minus(disc, j) == scan_fiber_minus(disc, j)
        assert fp.fiber("minus", j) is fp.fiber("minus", j)
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
    fp = gen_grid(2)
    with pytest.raises(IndexError):
        fp.fiber("plus", 2)
    with pytest.raises(IndexError):
        fp.fiber("minus", -1)


def test_shared_pieces_are_read_only():
    fp = touching_pair()
    with pytest.raises(TypeError):
        fp.interior[(1, 0)] = 5
    with pytest.raises(TypeError):
        del fp.interior[(1, 0)]
    with pytest.raises(TypeError):
        fp.boundary[(0, 0)] = point(4)
    with pytest.raises(TypeError):
        fp.fiber("plus", 1)[0] = (0, 1)
    with pytest.raises(TypeError):
        fp.fiber("minus", 0)[0] = (0, 1)
    with pytest.raises(TypeError):
        fp.cells()[(1, 0)] = None
    # the disc and the forests are frozen values
    for field, value in (("interior", ()), ("boundary", ()), ("n_plus", 0)):
        with pytest.raises(AttributeError):
            setattr(fp.disc, field, value)
    for family in ("plus", "minus"):
        forest = fp.forest(family)
        for field in ("owner", "parent", "inner"):
            with pytest.raises(TypeError):
                getattr(forest, field)[0] = None
        with pytest.raises(AttributeError):
            forest.parent = ()
    assert dict(fp.interior) == {(1, 0): 2}
    assert dict(fp.boundary) == {(0, 0): point(3), (1, 1): point(7)}
    assert fp.disc.interior == ((1, 0, 2),)
    assert [z for i in range(2) for z in fp.fiber("plus", i)] == [(0, 0), (1, 0), (1, 1)]
    assert list(fp.cells()) == [(1, 0)]


def test_index_is_built_once_per_pair(monkeypatch):
    calls = []
    cell_builds = []
    real = family.especial_disc
    real_cells = hullgeom.linked_cells

    def counted(fp):
        calls.append(fp)
        return real(fp)

    def counted_cells(fp):
        cell_builds.append(fp)
        return real_cells(fp)

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


def test_pair_fields_and_caches_refuse_assignment():
    fp = gen_grid(3)
    quotient_check(fp)
    layout(fp)
    fp.interior, fp.forest("plus"), fp.lines("minus")
    built = dict(vars(fp))
    assert {"disc", "interior", "_cells", "_plus_forest", "_minus_lines"} <= set(built)
    for name in ("plus", "minus", "plus_labels", "minus_labels", "points", "extra") + tuple(built):
        with pytest.raises(AttributeError):
            setattr(fp, name, None)
        with pytest.raises(AttributeError):
            delattr(fp, name)
    assert vars(fp) == built


def test_built_pair_keeps_its_families():
    # the caches hold three plus chords; a pair that took a family of one
    # would read them against it
    fp = gen_grid(3)
    sd = layout(fp)
    assert quotient_check(fp).ok
    with pytest.raises(AttributeError):
        fp.plus = fp.plus[:1]
    with pytest.raises(AttributeError):
        del fp.minus
    assert len(fp.plus) == len(fp.minus) == 3
    assert layout(fp) == sd and quotient_check(fp).ok


def test_built_pair_keeps_its_labels():
    # validate refuses a label outside XML 1.0, which the picture could not hold
    fp = gen_grid(3)
    opts = RenderOptions(labels=True)
    svg = render_input_svg(fp, opts)
    with pytest.raises(AttributeError):
        fp.plus_labels = ["a\x01b", "c", "d"]
    with pytest.raises(AttributeError):
        fp.minus_labels = ["a\x01b", "c", "d"]
    assert fp.plus_labels is None and fp.minus_labels is None
    assert render_input_svg(fp, opts) == svg
    ET.fromstring(svg)


def test_pair_with_built_index_still_copies_and_pickles():
    fp = touching_pair()
    quotient_check(fp)
    layout(fp)
    for other in (pickle.loads(pickle.dumps(fp)), copy.deepcopy(fp), copy.copy(fp)):
        # the copy builds its own caches
        assert "disc" not in vars(other) and "_cells" not in vars(other)
        assert other == fp
        assert other.plus_labels == fp.plus_labels
        assert other.disc == fp.disc
