"""Rank-space kernels against the point-by-point code they replaced.

pointwise_oracle.py keeps the earlier CirclePoint predicates and all-pairs
loops. Every kernel, the validation report, the disc and the leaf trees must
agree with it, on random sets that share points and include INF, and on
seeded corpora.
"""

import hashlib
import itertools
import json
import os
import pickle
import random
from bisect import bisect_left
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pointwise_oracle as oracle
from circlink import (
    INF,
    CircleSet,
    FamilyPair,
    FamilyValidationError,
    NotDisjointError,
    especial_disc,
    gen_figure,
    gen_grid,
    gen_star,
    gen_symmetric,
    gen_tripod,
    layout,
    leaf_graph,
    link_number,
    linked,
    nested_pair,
    point,
    random_family_pair,
    separates,
    validate,
)
from circlink import family
from circlink.circle import (
    rank_gap,
    rank_link_number,
    rank_linked,
    rank_separates,
    rank_table,
)
from circlink.generators import random_circle_map

HERE = os.path.dirname(os.path.abspath(__file__))

# a small pool, so that random sets often share points
POOL = list(dict.fromkeys(point(Fraction(n, d)) for n in range(-3, 4) for d in (1, 2))) + [INF]
pool_points = st.sampled_from(POOL)
pool_sets = st.lists(pool_points, min_size=1, max_size=7, unique=True).map(CircleSet)


def ranked_with_decoy(*sets):
    # rank the sets inside a larger table, so their ranks are not contiguous
    decoy = (point(Fraction(-7, 3)), point(Fraction(1, 3)), point(9))
    return rank_table([s.points for s in sets] + [decoy])[1][:len(sets)]


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NotDisjointError, ValueError) as exc:
        return type(exc), str(exc)


# ── kernels ──────────────────────────────────────────────────────────────

@given(a_set=pool_sets, b_set=pool_sets)
def test_linked_and_counts_match_oracle(a_set, b_set):
    expected = oracle.linked(a_set, b_set)
    a, b = ranked_with_decoy(a_set, b_set)
    assert linked(a_set, b_set) == expected
    assert rank_linked(a, b) == expected
    if a_set.intersection(b_set):
        assert outcome(link_number, a_set, b_set) == outcome(oracle.link_number_counts,
                                                             a_set, b_set)
    else:
        # the one kernel equals each of the four counts the oracle computes
        counts = oracle.link_number_counts(a_set, b_set)
        assert (rank_link_number(a, b),) * 4 == counts
        assert (link_number(a_set, b_set),) * 4 == counts


@given(a_set=pool_sets, x=pool_points)
def test_gap_index_matches_oracle(a_set, x):
    expected = outcome(oracle.gap_index, a_set, x)
    assert outcome(a_set.gap_index, x) == expected
    if x not in a_set:
        a, (r,) = ranked_with_decoy(a_set, CircleSet([x]))
        assert rank_gap(a, r) == expected


@settings(max_examples=200)
@given(barrier=pool_sets, first=pool_sets, second=pool_sets)
def test_separates_matches_oracle(barrier, first, second):
    expected = outcome(oracle.separates, barrier, first, second)
    assert outcome(separates, barrier, first, second) == expected
    if not isinstance(expected, tuple):
        assert rank_separates(*ranked_with_decoy(barrier, first, second)) == expected


@settings(max_examples=300)
@given(st.permutations(POOL), st.integers(1, 5), st.integers(1, 4), st.integers(1, 4))
def test_separates_matches_oracle_on_disjoint_triples(order, k1, k2, k3):
    barrier, first, second = (CircleSet(order[lo:hi]) for lo, hi in
                              ((0, k1), (k1, k1 + k2), (k1 + k2, k1 + k2 + k3)))
    expected = oracle.separates(barrier, first, second)
    assert separates(barrier, first, second) == expected
    assert rank_separates(*ranked_with_decoy(barrier, first, second)) == expected


def test_kernel_corpus_covers_shared_points_and_inf():
    rng = random.Random(20)
    seen = set()
    for _ in range(3000):
        a_set, b_set = (CircleSet(rng.sample(POOL, rng.randint(1, 6))) for _ in range(2))
        a, b = ranked_with_decoy(a_set, b_set)
        expected = oracle.linked(a_set, b_set)
        assert rank_linked(a, b) == expected
        shared = bool(a_set.intersection(b_set))
        if not shared:
            counts = oracle.link_number_counts(a_set, b_set)
            assert (rank_link_number(a, b),) * 4 == counts
            assert (link_number(a_set, b_set),) * 4 == counts
        seen.add((expected, shared, INF in a_set or INF in b_set))
    # linked and unlinked, with and without shared points and INF
    assert len(seen) == 8


# seven ranks, INF last
CHORD_POINTS = tuple(point(x) for x in (-3, -1, 0, Fraction(1, 2), 2, 7)) + (INF,)
CHORDS = list(itertools.combinations(range(len(CHORD_POINTS)), 2))


def test_chord_link_number_matches_set_count_and_oracle():
    # the closed form for two chords against the set count it replaced, on
    # every pair of 2-rank tuples, shared ranks included; on disjoint pairs
    # also against the four counts computed point by point
    disjoint = 0
    for a, b in itertools.product(CHORDS, repeat=2):
        n = rank_link_number(a, b)
        assert n == len({bisect_left(a, x) % 2 for x in b}), (a, b)
        if not set(a) & set(b):
            disjoint += 1
            sets = (CircleSet([CHORD_POINTS[r] for r in t]) for t in (a, b))
            assert (n,) * 4 == oracle.link_number_counts(*sets), (a, b)
    assert (len(CHORDS), disjoint) == (21, 210)


# points whose floats collide: near 1, near 0 (underflow), beyond the float
# range (overflow, level with INF), and 1/(3e17) beside 1/(3e17 + 1)
BIG = 10 ** 400
NEAR = [point(Fraction(10 ** 20 + k, 10 ** 20)) for k in range(3)] + [
    point(Fraction(1, BIG)), point(Fraction(-1, BIG)), point(0),
    point(BIG), point(BIG + 1), point(-BIG), point(-BIG - 1),
    point(Fraction(1, 3 * 10 ** 17)), point(Fraction(1, 3 * 10 ** 17 + 1)), point(1), INF]
near_sets = st.lists(st.sampled_from(NEAR + POOL), min_size=1, max_size=6,
                     unique=True).map(CircleSet)


def test_near_points_collide_as_floats():
    # the float sort key alone leaves these ties to the exact comparison
    assert {p.num / p.den for p in NEAR[:3]} == {1.0}
    assert {p.num / p.den for p in NEAR[3:6]} == {0.0}
    assert NEAR[10].num / NEAR[10].den == NEAR[11].num / NEAR[11].den
    with pytest.raises(OverflowError):
        NEAR[6].num / NEAR[6].den


@settings(max_examples=200)
@given(st.lists(near_sets, min_size=1, max_size=5))
def test_rank_table_matches_oracle(sets):
    groups = [s.points for s in sets]
    assert rank_table(groups) == oracle.rank_table(groups)


# ── validation ───────────────────────────────────────────────────────────

def reported(plus, minus) -> list:
    try:
        validate(plus, minus)
    except FamilyValidationError as exc:
        return list(exc.violations)
    return []


small_families = st.lists(st.lists(pool_points, min_size=1, max_size=4, unique=True)
                          .map(CircleSet), min_size=1, max_size=6)


@settings(max_examples=150)
@given(plus=small_families, minus=small_families)
def test_validate_reports_what_all_pairs_loops_report(plus, minus):
    assert reported(plus, minus) == oracle.violations(plus, minus)


def test_validate_on_seeded_invalid_pairs_with_every_kind():
    rng = random.Random(4)
    kinds_seen = set()
    all_three = 0
    for _ in range(300):
        plus, minus = ([CircleSet(rng.sample(POOL, rng.randint(1, 4)))
                        for _ in range(rng.randint(2, 7))] for _ in range(2))
        got = reported(plus, minus)
        assert got == oracle.violations(plus, minus)
        kinds = {v.kind for v in got}
        kinds_seen |= kinds
        all_three += len(kinds) == 3
    assert kinds_seen == {"WithinFamilyOverlap", "WithinFamilyLinked", "CrossIntersectionTooBig"}
    assert all_three > 0


# ── disc and leaf trees ──────────────────────────────────────────────────

def touching_pair():
    return validate([CircleSet([0, 3]), CircleSet([4, 7])],
                    [CircleSet([3, 5]), CircleSet([7, 10])])


def wrap_chain_pair():
    # both minus chords touch plus 0 and run on into its wrap interval, on
    # either side of INF: a leaf chain ordered across the wrap
    return validate([CircleSet([0, 10])], [CircleSet([10, 12]), CircleSet([-3, 0])])


def recorded_cases():
    yield "grid(3)", gen_grid(3)
    yield "grid(6)", gen_grid(6)
    yield "tripod", gen_tripod()
    yield "star(5)", gen_star(5)
    yield "nested_pair(3, 0)", nested_pair(3, 0)
    yield "nested_pair(3, 1)", nested_pair(3, 1)
    yield "figure", gen_figure()
    yield "symmetric", gen_symmetric()[0]
    yield "touching", touching_pair()
    for k in range(5):
        yield ("touching mapped by random_circle_map(%d)" % k,
               random_circle_map(k).apply_pair(touching_pair()))
    yield "wrap chain", wrap_chain_pair()
    for k in range(5):
        yield ("wrap chain mapped by random_circle_map(%d)" % k,
               random_circle_map(k).apply_pair(wrap_chain_pair()))
    for s in range(60):
        yield "random_family_pair(%d)" % s, random_family_pair(s)


def disc_and_leaves_digest(fp) -> str:
    doc = {"disc": especial_disc(fp).to_json(),
           "leaves": [leaf_graph(fp, name, e).to_json()
                      for name in ("plus", "minus") for e in range(len(fp.family(name)))]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_disc_and_leaf_trees_match_pointwise_bytes():
    # digests of the same JSON made by the point-by-point implementation
    with open(os.path.join(HERE, "data", "disc_and_leaves_sha256.json")) as fh:
        recorded = json.load(fh)
    got = {name: disc_and_leaves_digest(fp) for name, fp in recorded_cases()}
    assert got == recorded


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2 ** 32))
def test_disc_matches_oracle_on_random_pairs(seed):
    fp = random_family_pair(seed)
    assert especial_disc(fp).to_json() == oracle.especial_disc(fp).to_json()


def test_pairs_made_without_validate_rank_on_first_use():
    fp = nested_pair(3, 1)
    for other in (FamilyPair(fp.plus, fp.minus), pickle.loads(pickle.dumps(fp))):
        assert other.points == fp.points
        assert other.ranks("plus") == fp.ranks("plus")
        assert other.ranks("minus") == fp.ranks("minus")
        assert especial_disc(other) == oracle.especial_disc(fp)


def test_pair_is_classified_once_across_especial_disc_and_layout(monkeypatch):
    kernel_calls = []
    disc_calls = []
    real_kernel = family.rank_link_number
    real_disc = family.especial_disc

    def counted_kernel(a, b):
        kernel_calls.append((a, b))
        return real_kernel(a, b)

    def counted_disc(fp):
        disc_calls.append(fp)
        return real_disc(fp)

    monkeypatch.setattr(family, "rank_link_number", counted_kernel)
    monkeypatch.setattr(family, "especial_disc", counted_disc)
    base = random_circle_map(2).apply_pair(touching_pair())
    disjoint_pairs = 4 - len(base.boundary)
    assert disjoint_pairs == 2
    # one classification alone counts the interior pair but not the disjoint
    # pair the laminar forest shows to be unlinked
    kernel_calls.clear()
    family.especial_disc(validate(base.plus, base.minus))
    once = list(kernel_calls)
    assert len(once) == len(base.interior) == 1
    for first in ("disc", "layout"):
        fp = validate(base.plus, base.minus)
        kernel_calls.clear()
        disc_calls.clear()
        if first == "disc":
            disc = family.especial_disc(fp)
            sd = layout(fp)
        else:
            sd = layout(fp)
            disc = family.especial_disc(fp)
        assert sd.disc is disc
        # one classification: each tested cross pair counted once, and one
        # especial_disc call does the work
        assert kernel_calls == once
        assert len(disc_calls) == 1 + (first == "layout")
    fp = gen_grid(8)
    kernel_calls.clear()
    family.especial_disc(fp)
    layout(fp)
    assert len(kernel_calls) == 64
