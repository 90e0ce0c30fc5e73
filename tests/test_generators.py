"""Deterministic fixtures and seeded random family generation."""

import json
from fractions import Fraction

import pytest

import generator_oracle as oracle
from circlink import (
    CircleSet,
    GenSpec,
    especial_disc,
    gen_figure,
    gen_grid,
    gen_nested,
    gen_star,
    gen_symmetric,
    gen_tripod,
    linked,
    nested_pair,
    nesting_report,
    prong_count,
    random_family_pair,
    random_set_pair,
    separates,
    validate,
)

F = Fraction


# ── grid ─────────────────────────────────────────────────────────────────

def test_grid_two_is_the_fixture():
    fp = gen_grid(2)
    assert fp.plus == (CircleSet([0, 3]), CircleSet([4, 7]))
    assert fp.minus == (CircleSet([2, 5]), CircleSet([1, 6]))


def test_grid_one():
    fp = gen_grid(1)
    d = especial_disc(fp)
    assert len(d.interior) == 1 and d.boundary == ()


def test_grid_counts_and_prongs():
    for n in range(1, 21):
        fp = gen_grid(n)
        d = especial_disc(fp)
        assert len(d.interior) == n * n
        assert d.boundary == ()
        assert all(m == 2 for _, _, m in d.interior)
        for i, j, _ in d.interior:
            assert prong_count(fp, (i, j)) == 4


# ── stars ────────────────────────────────────────────────────────────────

def test_tripod_is_star_three():
    assert gen_tripod() == gen_star(3)


def test_star_prongs():
    for k in range(3, 9):
        fp = gen_star(k)
        d = especial_disc(fp)
        assert d.interior == ((0, 0, k),)
        assert prong_count(fp, (0, 0)) == 2 * k


def test_star_beside_grid_block():
    # star on parameters 0..5, a grid shifted past it: Z sizes add up
    star = gen_star(3)
    grid = gen_grid(2)
    plus = list(star.plus) + [CircleSet([p.frac + 6 for p in s]) for s in grid.plus]
    minus = list(star.minus) + [CircleSet([p.frac + 6 for p in s]) for s in grid.minus]
    fp = validate(plus, minus)
    assert len(especial_disc(fp).interior) == 1 + 4


# ── nested brackets ──────────────────────────────────────────────────────

def test_nested_counts():
    for depth in range(5):
        sets = gen_nested(depth, seed=9)
        assert len(sets) == 2 ** (depth + 1) - 1


def test_nested_is_deterministic():
    a = gen_nested(3, seed=12)
    b = gen_nested(3, seed=12)
    assert a == b
    assert gen_nested(3, seed=13) != a


def test_nested_pairwise_unlinked():
    sets = gen_nested(3, seed=4)
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            assert not sets[i].intersection(sets[j])
            assert not linked(sets[i], sets[j])


def test_nested_depth_one_separation():
    sets = gen_nested(1, seed=2)
    assert len(sets) == 3
    assert separates(sets[0], sets[1], sets[2])


def test_nested_pair_validates():
    for seed in range(50):
        fp = nested_pair(2, seed)
        validate(list(fp.plus), list(fp.minus))


def test_nesting_defect_ratio_shrinks_with_depth():
    for seed in (0, 5, 9):
        ratios = []
        for depth in (1, 2, 3):
            report = nesting_report(nested_pair(depth, seed))
            ratios.append(F(report.defect_count, len(report.entries)))
        assert ratios[0] > ratios[1] > ratios[2]


# ── symmetric and figure fixtures ────────────────────────────────────────

def test_symmetric_fixture():
    fp, g = gen_symmetric()
    assert fp.plus == (CircleSet([1, -1]),)
    assert fp.minus == (CircleSet([0, "inf"]),)
    assert g.compose(g).is_identity()
    assert len(especial_disc(fp).interior) == 1


def test_figure_fixture():
    fp = gen_figure()
    d = especial_disc(fp)
    assert d.interior == ((0, 0, 3), (0, 1, 3))
    assert d.boundary == ()


# ── GenSpec ──────────────────────────────────────────────────────────────

def test_genspec_dispatch():
    assert GenSpec(kind="grid", n=3).build() == gen_grid(3)
    assert GenSpec(kind="tripod").build() == gen_tripod()
    assert GenSpec(kind="star", k=5).build() == gen_star(5)
    assert GenSpec(kind="nested", depth=2, seed=4).build() == nested_pair(2, 4)
    assert GenSpec(kind="symmetric").build() == gen_symmetric()[0]
    assert GenSpec(kind="figure").build() == gen_figure()


def test_genspec_byte_determinism():
    for kind, kwargs in (("grid", {"n": 4}), ("nested", {"depth": 3, "seed": 17}),
                         ("figure", {})):
        a = json.dumps(GenSpec(kind=kind, **kwargs).build().to_json(), sort_keys=True)
        b = json.dumps(GenSpec(kind=kind, **kwargs).build().to_json(), sort_keys=True)
        assert a == b


# ── random generators ────────────────────────────────────────────────────

def test_random_set_pair_contract():
    for seed in range(300):
        a, b = random_set_pair(seed)
        assert 1 <= len(a) <= 8 and 1 <= len(b) <= 8
        assert not a.intersection(b)
    again = random_set_pair(123)
    assert again == random_set_pair(123)


def test_random_family_pair_validates():
    for seed in range(200):
        fp = random_family_pair(seed)
        validate(list(fp.plus), list(fp.minus))


def test_random_family_pair_deterministic():
    a = json.dumps(random_family_pair(77).to_json(), sort_keys=True)
    b = json.dumps(random_family_pair(77).to_json(), sort_keys=True)
    assert a == b


def test_random_family_pair_mixes_shapes():
    sizes = {(len(random_family_pair(s).plus), len(random_family_pair(s).minus))
             for s in range(60)}
    assert len(sizes) >= 5


# ── integer constructions against the Fraction oracle ───────────────────

@pytest.mark.parametrize("depth", range(9))
def test_nested_pair_matches_fraction_oracle(depth):
    for seed in range(10):
        assert nested_pair(depth, seed) == oracle.nested_pair(depth, seed), seed


def test_random_family_pair_matches_fraction_oracle():
    for seed in range(300):
        assert random_family_pair(seed) == oracle.random_family_pair(seed), seed


def test_figure_matches_fraction_oracle():
    assert gen_figure() == oracle.gen_figure()
