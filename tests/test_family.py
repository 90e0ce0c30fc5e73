"""Family validation, pair classification, the disc, and derived reports."""

from fractions import Fraction

import pytest

from circlink import (
    CircleSet,
    DisjointLinked,
    DisjointUnlinked,
    FamilyPair,
    FamilyValidationError,
    IntersectingAt,
    MalformedInputError,
    NotInteriorError,
    classify_pair,
    especial_disc,
    fiber_minus,
    fiber_plus,
    leaf_graph,
    link_number,
    nesting_report,
    point,
    prong_count,
    random_family_pair,
    separation_interval,
    validate,
)

GRID_PLUS = [CircleSet([0, 3]), CircleSet([4, 7])]
GRID_MINUS = [CircleSet([2, 5]), CircleSet([6, 1])]


def grid_pair():
    return validate(GRID_PLUS, GRID_MINUS)


def tripod_pair():
    return validate([CircleSet([0, 2, 4])], [CircleSet([1, 3, 5])])


# ── validation ───────────────────────────────────────────────────────────

def test_validate_accepts_grid():
    fp = grid_pair()
    assert len(fp.plus) == 2 and len(fp.minus) == 2


def test_validate_within_family_linked():
    with pytest.raises(FamilyValidationError) as info:
        validate([CircleSet([0, 2]), CircleSet([1, 3])], [CircleSet([5])])
    (v,) = info.value.violations
    assert (v.kind, v.family, v.i, v.j) == ("WithinFamilyLinked", "plus", 0, 1)


def test_validate_cross_intersection_too_big():
    with pytest.raises(FamilyValidationError) as info:
        validate([CircleSet([0, 1])], [CircleSet([0, 1])])
    (v,) = info.value.violations
    assert v.kind == "CrossIntersectionTooBig"
    assert (v.i, v.j) == (0, 0)
    assert sorted(str(p) for p in v.witness) == ["0", "1"]


def test_validate_collects_every_violation():
    # one linked pair, one overlapping pair, one oversized cross intersection
    with pytest.raises(FamilyValidationError) as info:
        validate([CircleSet([0, 2]), CircleSet([1, 3]), CircleSet([0, 5])],
                 [CircleSet([0, 2])])
    kinds = sorted(v.kind for v in info.value.violations)
    assert kinds == ["CrossIntersectionTooBig", "WithinFamilyLinked", "WithinFamilyOverlap"]


def test_validate_rejects_empty_family():
    with pytest.raises(ValueError):
        validate([], [CircleSet([0])])


# ── classification ───────────────────────────────────────────────────────

def test_classify_examples():
    fp = grid_pair()
    assert classify_pair(fp, 0, 0) == DisjointLinked(2)

    fp2 = validate([CircleSet([0, 1])], [CircleSet([1, 5])])
    assert classify_pair(fp2, 0, 0) == IntersectingAt(point(1))

    fp3 = validate([CircleSet([0, 3])], [CircleSet([4, 7])])
    assert classify_pair(fp3, 0, 0) == DisjointUnlinked()


def test_classify_rejects_bad_index():
    fp = grid_pair()
    with pytest.raises(IndexError):
        classify_pair(fp, 2, 0)
    with pytest.raises(IndexError):
        classify_pair(fp, 0, -1)


def test_classify_transposes():
    for seed in range(40):
        fp = random_family_pair(seed)
        fp_t = validate(list(fp.minus), list(fp.plus))
        d = especial_disc(fp)
        d_t = especial_disc(fp_t)
        assert sorted((j, i, n) for i, j, n in d.interior) == list(d_t.interior)
        assert sorted((j, i, s) for i, j, s in d.boundary) == list(d_t.boundary)


# ── the especial disc ────────────────────────────────────────────────────

def test_disc_grid():
    d = especial_disc(grid_pair())
    assert d.interior == ((0, 0, 2), (0, 1, 2), (1, 0, 2), (1, 1, 2))
    assert d.boundary == ()
    assert (d.n_plus, d.n_minus) == (2, 2)


def test_disc_tripod():
    d = especial_disc(tripod_pair())
    assert d.interior == ((0, 0, 3),)
    assert d.boundary == ()


def test_disc_boundary_point():
    d = especial_disc(validate([CircleSet([0, 1])], [CircleSet([1, 5])]))
    assert d.interior == ()
    assert d.boundary == ((0, 0, point(1)),)


def test_disc_stored_numbers_recompute():
    for seed in range(30):
        fp = random_family_pair(seed)
        d = especial_disc(fp)
        for i, j, n in d.interior:
            assert link_number(fp.plus[i], fp.minus[j]) == n


# ── fibers ───────────────────────────────────────────────────────────────

def test_fiber_examples():
    grid_disc = especial_disc(grid_pair())
    assert fiber_plus(grid_disc, 0) == [(0, 0), (0, 1)]
    assert fiber_minus(grid_disc, 1) == [(0, 1), (1, 1)]

    tripod_disc = especial_disc(tripod_pair())
    assert fiber_plus(tripod_disc, 0) == [(0, 0)]

    # an element linked with nothing has an empty fiber
    fp = validate([CircleSet([0, 3]), CircleSet([10, 11])], [CircleSet([2, 5])])
    d = especial_disc(fp)
    assert fiber_plus(d, 1) == []
    assert fiber_plus(d, 0) == [(0, 0)]


def test_fibers_partition_the_disc():
    for seed in range(25):
        fp = random_family_pair(seed)
        d = especial_disc(fp)
        zs = [(i, j) for i, j, _ in d.interior] + [(i, j) for i, j, _ in d.boundary]
        via_plus = [z for i in range(d.n_plus) for z in fiber_plus(d, i)]
        via_minus = [z for j in range(d.n_minus) for z in fiber_minus(d, j)]
        assert sorted(via_plus) == sorted(zs)
        assert sorted(via_minus) == sorted(zs)


def test_fiber_rejects_bad_index():
    d = especial_disc(grid_pair())
    with pytest.raises(IndexError):
        fiber_plus(d, 2)


@pytest.mark.parametrize("call", [
    lambda fp: fp.family("x"),
    lambda fp: fp.ranks("x"),
    lambda fp: fp.forest("x"),
    lambda fp: fp.lines("x"),
    lambda fp: fp.fiber("x", 0),
    lambda fp: leaf_graph(fp, "x", 0),
    lambda fp: separation_interval(fp, "x", 0, 1),
], ids=["family", "ranks", "forest", "lines", "fiber", "leaf_graph", "separation_interval"])
def test_unknown_family_name_is_a_value_error(call):
    # on a fresh pair, and on one whose rank table, fibers and forests exist
    built = grid_pair()
    for family in ("plus", "minus"):
        built.forest(family)
        built.lines(family)
        built.fiber(family, 0)
    for fp in (grid_pair(), built):
        with pytest.raises(ValueError, match=r"^family must be 'plus' or 'minus', got 'x'$"):
            call(fp)


# ── separation intervals ─────────────────────────────────────────────────

NESTED_PLUS = [CircleSet([0, 1]), CircleSet([2, 7]), CircleSet([3, 6]), CircleSet([4, 5])]
NESTED_MINUS = [CircleSet([Fraction(3, 2), Fraction(15, 2)])]


def test_separation_interval_example():
    fp = validate(NESTED_PLUS, NESTED_MINUS)
    assert separation_interval(fp, "plus", 1, 3) == [1, 2, 3]
    assert separation_interval(fp, "plus", 3, 1) == [3, 2, 1]


def test_separation_interval_adjacent():
    fp = validate(NESTED_PLUS, NESTED_MINUS)
    assert separation_interval(fp, "plus", 2, 3) == [2, 3]
    assert separation_interval(fp, "plus", 0, 1) == [0, 1]


def test_separation_interval_grid():
    fp = grid_pair()
    assert separation_interval(fp, "plus", 0, 1) == [0, 1]


def test_separation_interval_longer_chain():
    # chords nested five deep: expect the full chain back
    sets = [CircleSet([k, 20 - k]) for k in range(6)]
    fp = validate(sets, [CircleSet([Fraction(-1, 2), Fraction(41, 2)])])
    assert separation_interval(fp, "plus", 0, 5) == [0, 1, 2, 3, 4, 5]
    assert separation_interval(fp, "plus", 5, 0) == [5, 4, 3, 2, 1, 0]
    assert separation_interval(fp, "plus", 1, 4) == [1, 2, 3, 4]


def concentric_pair():
    # thirty nested chords, so chains run longer than twenty separators
    return validate([[k, 100 - k] for k in range(30)], [[-1, 200]])


# ── prong counts ─────────────────────────────────────────────────────────

def test_prong_counts():
    fp = grid_pair()
    d = especial_disc(fp)
    assert all(prong_count(fp, (i, j)) == 4 for i, j, _ in d.interior)
    assert prong_count(tripod_pair(), (0, 0)) == 6
    fp8 = validate([CircleSet([0, 2, 4, 6])], [CircleSet([1, 3, 5, 7])])
    assert prong_count(fp8, (0, 0)) == 8


def test_prong_count_requires_interior():
    fp = validate([CircleSet([0, 3])], [CircleSet([4, 7])])
    with pytest.raises(NotInteriorError):
        prong_count(fp, (0, 0))
    boundary_fp = validate([CircleSet([0, 1])], [CircleSet([1, 5])])
    with pytest.raises(NotInteriorError):
        prong_count(boundary_fp, (0, 0))


@pytest.mark.parametrize("z", [(0, 0, 0), (0,), ("a", 1), ()])
def test_prong_count_of_a_malformed_z_is_the_typed_error(z):
    # the message spells z whatever its shape; an int pair reads as before
    with pytest.raises(NotInteriorError) as info:
        prong_count(grid_pair(), z)
    assert info.value.z == z
    assert str(info.value) == "%s is not an interior Z-point" % (z,)
    assert str(NotInteriorError((7, 7))) == "(7, 7) is not an interior Z-point"


# ── nesting report ───────────────────────────────────────────────────────

def test_nesting_report_nested_family():
    fp = validate(NESTED_PLUS, NESTED_MINUS)
    report = nesting_report(fp)
    by_key = {(e.family, e.element, str(e.interval_start), str(e.interval_end)): e
              for e in report.entries}
    inner = by_key[("plus", 1, "2", "7")]
    assert inner.separated and inner.separator == 2
    outer = by_key[("plus", 1, "7", "2")]
    assert not outer.separated and outer.separator is None


def test_nesting_report_single_element_family():
    fp = validate([CircleSet([0, 1])], [CircleSet([Fraction(1, 2), 3])])
    report = nesting_report(fp)
    assert all(not e.separated for e in report.entries)
    assert report.defect_count == len(report.entries) == 4


def test_nesting_report_grid_all_unseparated():
    report = nesting_report(grid_pair())
    assert report.defect_count == len(report.entries) == 8


# ── serialization ────────────────────────────────────────────────────────

def test_family_pair_json_round_trip():
    fp = validate(GRID_PLUS, GRID_MINUS, plus_labels=["a", "b"], minus_labels=["c", "d"])
    data = fp.to_json()
    assert data["plus"] == [["0", "3"], ["4", "7"]]
    assert data["minus"] == [["2", "5"], ["1", "6"]]
    back = FamilyPair.from_json(data)
    assert back == fp
    assert back.plus_labels == ("a", "b")
    # a pair's own labels are tuples, which validate takes as CircleMap.apply_pair passes them
    again = validate(fp.plus, fp.minus, fp.plus_labels, fp.minus_labels)
    assert (again.plus_labels, again.minus_labels) == (("a", "b"), ("c", "d"))


def test_from_json_reports_locations():
    with pytest.raises(MalformedInputError) as info:
        FamilyPair.from_json({"plus": [["0", "3"]]})
    assert info.value.location == "$"

    with pytest.raises(MalformedInputError) as info:
        FamilyPair.from_json({"plus": [["0", "3"], ["4", "x"]], "minus": [["2", "5"]]})
    assert info.value.location == "$.plus[1]"

    with pytest.raises(MalformedInputError) as info:
        FamilyPair.from_json({"plus": "nope", "minus": [["2", "5"]]})
    assert info.value.location == "$.plus"

    with pytest.raises(MalformedInputError) as info:
        FamilyPair.from_json({"plus": [[1, 2]], "minus": [["3"]]})
    assert info.value.location == "$.plus[0]"

    with pytest.raises(MalformedInputError) as info:
        FamilyPair.from_json({"plus": [["0", "3"]], "minus": [["2", "5"]],
                              "plus_labels": ["a", "b"]})
    assert info.value.location == "$.plus_labels"


@pytest.mark.parametrize("labels,location", [
    ({"plus_labels": ["a\x01b"]}, "$.plus_labels[0]"),
    ({"minus_labels": ["ok", "a\ud800b"]}, "$.minus_labels[1]"),
    ({"plus_labels": ["a", "b", "c"]}, "$.plus_labels"),
    ({"minus_labels": ("c", 4)}, "$.minus_labels"),
    ({"plus_labels": "ab"}, "$.plus_labels"),
])
def test_validate_checks_labels(labels, location):
    # library pairs get the wire format's label rules, so a labelled input
    # picture always parses as XML
    plus, minus = [CircleSet([0, 2])], [CircleSet([1, 3]), CircleSet([5, 7])]
    with pytest.raises(MalformedInputError) as info:
        validate(plus, minus, **labels)
    assert info.value.location == location


def test_from_json_validates():
    with pytest.raises(FamilyValidationError):
        FamilyPair.from_json({"plus": [["0", "2"], ["1", "3"]], "minus": [["5"]]})


def test_disc_json_shape():
    d = especial_disc(validate([CircleSet([0, 1])], [CircleSet([1, 5])]))
    assert d.to_json() == {
        "n_plus": 1,
        "n_minus": 1,
        "interior": [],
        "boundary": [{"plus": 0, "minus": 0, "point": "1"}],
    }
