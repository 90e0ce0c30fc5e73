"""Projective circle maps and equivariance of the straightening pipeline."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from circlink import (
    INF,
    CircleMap,
    CircleSet,
    MalformedInputError,
    check_equivariance,
    classify_pair,
    especial_disc,
    gen_grid,
    gen_symmetric,
    link_number,
    linked,
    param_to_point,
    point,
    validate,
)
from circlink.family import IntersectingAt
from pointwise_oracle import cyclic_sign
from support import compose, inverse, is_identity, random_set_pair

F = Fraction

NEG_RECIPROCAL = CircleMap(0, -1, 1, 0)  # u -> -1/u


# ── strategies ───────────────────────────────────────────────────────────

entries = st.integers(min_value=-6, max_value=6)
maps = st.tuples(entries, entries, entries, entries).filter(
    lambda m: m[0] * m[3] - m[1] * m[2] > 0).map(lambda m: CircleMap(*m))
points = st.one_of(
    st.fractions(min_value=-8, max_value=8, max_denominator=10).map(point),
    st.just(INF))


# ── the action on points ─────────────────────────────────────────────────

def test_apply_examples():
    assert NEG_RECIPROCAL.apply(point(1)) == point(-1)
    assert NEG_RECIPROCAL.apply(point(0)) == INF
    assert NEG_RECIPROCAL.apply(INF) == point(0)

    g = CircleMap(1, -1, 1, 1)
    assert g.apply(point(0)) == point(-1)
    assert is_identity(compose(compose(compose(g, g), g), g))


def test_canonical_matrix():
    assert CircleMap(2, 0, 0, 2) == CircleMap(1, 0, 0, 1)
    assert CircleMap(-1, 0, 0, -1) == CircleMap(1, 0, 0, 1)
    assert is_identity(CircleMap(F(1, 2), 0, 0, F(1, 2)))
    assert CircleMap(F(1, 3), F(2, 3), 0, 1) == CircleMap(1, 2, 0, 3)


def test_rejects_nonpositive_determinant():
    with pytest.raises(ValueError):
        CircleMap(1, 0, 0, -1)
    with pytest.raises(ValueError):
        CircleMap(1, 2, 2, 4)
    with pytest.raises(ValueError):
        CircleMap(0, 0, 0, 0)


@given(g=maps, h=maps, x=points)
def test_composition_law(g, h, x):
    assert compose(g, h).apply(x) == g.apply(h.apply(x))


@given(g=maps)
def test_inverse_law(g):
    assert is_identity(compose(g, inverse(g)))
    assert is_identity(compose(inverse(g), g))
    assert inverse(inverse(g)) == g


@given(g=maps, a=points, b=points, c=points)
def test_apply_preserves_cyclic_order(g, a, b, c):
    want = cyclic_sign(a, b, c)
    got = cyclic_sign(g.apply(a), g.apply(b), g.apply(c))
    assert want == got


@given(g=maps, seed=st.integers(min_value=0, max_value=10 ** 6))
def test_apply_preserves_linking(g, seed):
    a_set, b_set = random_set_pair(seed)
    ga, gb = g.apply_set(a_set), g.apply_set(b_set)
    assert linked(a_set, b_set) == linked(ga, gb)
    if not a_set.intersection(b_set):
        assert link_number(a_set, b_set) == link_number(ga, gb)


@given(g=maps, u=points)
def test_plane_action_matches_circle_action(g, u):
    assert g.plane_apply(param_to_point(u)) == param_to_point(g.apply(u))


def test_plane_action_known_forms():
    # u -> -1/u is the antipode in the plane
    p = param_to_point(point(F(2, 3)))
    q = NEG_RECIPROCAL.plane_apply(p)
    assert (q.x, q.y) == (-p.x, -p.y)
    # u -> (u-1)/(u+1) is the clockwise quarter turn
    g = CircleMap(1, -1, 1, 1)
    q2 = g.plane_apply(p)
    assert (q2.x, q2.y) == (p.y, -p.x)


def test_classification_commutes_with_the_action():
    g = CircleMap(2, 1, 1, 1)
    for seed in (3, 11, 40):
        from circlink import random_family_pair
        fp = random_family_pair(seed)
        gfp = g.apply_pair(fp)
        for i in range(len(fp.plus)):
            for j in range(len(fp.minus)):
                before = classify_pair(fp, i, j)
                after = classify_pair(gfp, i, j)
                if isinstance(before, IntersectingAt):
                    assert after == IntersectingAt(g.apply(before.point))
                else:
                    assert after == before


# ── equivariance reports ─────────────────────────────────────────────────

def test_symmetric_fixture_passes():
    fp, g = gen_symmetric()
    report = check_equivariance(fp, g)
    assert report.ok
    assert report.failures == ()
    assert report.plus_permutation == (0,)
    assert report.minus_permutation == (0,)


def test_two_element_symmetric_fixture():
    fp = validate([CircleSet([0, 1]), CircleSet([INF, -1])],
                  [CircleSet([F(1, 2), 2]), CircleSet([-2, F(-1, 2)])])
    report = check_equivariance(fp, NEG_RECIPROCAL)
    assert report.ok
    assert report.plus_permutation == (1, 0)
    assert report.minus_permutation == (1, 0)


def test_grid_is_not_invariant_under_reciprocal():
    report = check_equivariance(gen_grid(2), NEG_RECIPROCAL)
    assert not report.ok
    assert all(f["kind"] == "NotInvariant" for f in report.failures)
    assert {f["family"] for f in report.failures} == {"plus", "minus"}


def test_identity_passes_everywhere():
    for fp in (gen_grid(1), gen_grid(3), gen_symmetric()[0]):
        report = check_equivariance(fp, CircleMap(1, 0, 0, 1))
        assert report.ok
        assert report.plus_permutation == tuple(range(len(fp.plus)))


def test_conjugated_symmetry_passes():
    fp, g = gen_symmetric()
    h = CircleMap(2, 1, 1, 1)
    moved = h.apply_pair(fp)
    conjugate = compose(compose(h, g), inverse(h))
    report = check_equivariance(moved, conjugate)
    assert report.ok


def test_report_json_shape():
    fp, g = gen_symmetric()
    data = check_equivariance(fp, g).to_json()
    assert data == {"ok": True, "plus_permutation": [0], "minus_permutation": [0],
                    "failures": []}


def test_equivariance_moves_the_disc_correctly():
    # u -> u + 4 shifts the grid's marked points by one full chord: not a
    # permutation of the marked set, so the report must say NotInvariant
    shift = CircleMap(1, 4, 0, 1)
    report = check_equivariance(gen_grid(2), shift)
    assert not report.ok


@pytest.mark.parametrize("pair,g,ok", [
    (lambda: validate([CircleSet([0, 1]), CircleSet([INF, -1])],
                      [CircleSet([F(1, 2), 2]), CircleSet([-2, F(-1, 2)])]), NEG_RECIPROCAL, True),
    (lambda: gen_grid(2), NEG_RECIPROCAL, False),
], ids=["invariant", "not-invariant"])
def test_equivariance_maps_each_set_once(monkeypatch, pair, g, ok):
    # the images that match the permutations also make the transformed pair
    fp = pair()
    mapped = []
    apply_set = CircleMap.apply_set

    def spy(self, s):
        mapped.append(s)
        return apply_set(self, s)

    def refuse(self, fp):
        raise AssertionError("check_equivariance maps the pair again")

    monkeypatch.setattr(CircleMap, "apply_set", spy)
    monkeypatch.setattr(CircleMap, "apply_pair", refuse)
    assert check_equivariance(fp, g).ok is ok
    assert mapped == list(fp.plus + fp.minus)


# ── serialization ────────────────────────────────────────────────────────

def test_map_json_round_trip():
    g = CircleMap(0, 1, -1, 0)
    assert g.to_json() == {"m": [["0", "1"], ["-1", "0"]]}
    assert CircleMap.from_json(g.to_json()) == g
    assert CircleMap.from_json({"m": [["1/2", "0"], ["0", "1/2"]]}) == CircleMap(1, 0, 0, 1)
    # entries over different denominators scale by their lcm
    assert CircleMap.from_json({"m": [["1/3", "2/3"], ["0", "1"]]}) == CircleMap(1, 2, 0, 3)
    assert CircleMap.from_json({"m": [["1/2", "-0.25"], ["0", "3"]]}) == CircleMap(2, -1, 0, 12)


def test_map_json_spells_entries_past_the_digit_limit():
    # an entry with more digits than str converts, as a map read from
    # a long decimal has, is spelled in full
    big = 10 ** 6000 - 7
    assert CircleMap(big, 0, -big - 1, 1).to_json() == {
        "m": [["9" * 5999 + "3", "0"], ["-" + "9" * 5999 + "4", "1"]]}


def test_map_json_rejects_bad_input():
    with pytest.raises(MalformedInputError):
        CircleMap.from_json({"m": [["1", "0"]]})
    with pytest.raises(MalformedInputError):
        CircleMap.from_json(["1", "0", "0", "1"])
    with pytest.raises(ValueError):
        CircleMap.from_json({"m": [["1", "0"], ["0", "-1"]]})

