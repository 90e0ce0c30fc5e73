"""The laminar forest against the all-pairs loops it replaced.

One sweep over a family's ranks (family.LaminarForest) gives how its sets
nest. especial_disc tests only the cross pairs the minus forest lists,
validate tests all pairs of a family only when the sweep rejects it,
nesting_report reads each gap's elements as one run, separation_interval
reads the tree path between two sets, and a leaf tree's virtual vertex
tests only each chain end's neighbour. The oracles test every pair:
allpairs_oracle.py for the disc, the report, the separation chains and the
chain ends, pointwise_oracle.py for the violations.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import allpairs_oracle
import pointwise_oracle
from circlink import (
    INF,
    CircleSet,
    FamilyPair,
    FamilyValidationError,
    InvariantViolation,
    especial_disc,
    gen_figure,
    gen_grid,
    gen_symmetric,
    leaf_graph,
    nested_pair,
    nesting_report,
    point,
    random_family_pair,
    separation_interval,
    validate,
)
from circlink import family
from circlink.straighten import VIRTUAL
from test_family import concentric_pair
from test_locate import KINDS, drawn_pair, to_inf
from test_straighten import chain_leaf_pair


def assert_matches_all_pairs(fp):
    fresh = FamilyPair(fp.plus, fp.minus)
    assert especial_disc(fp) == allpairs_oracle.especial_disc(fresh)
    assert nesting_report(fp).entries == allpairs_oracle.nesting_report(fresh).entries
    assert validate(fp.plus, fp.minus) == fp


@settings(max_examples=120)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2 ** 32))
def test_forest_stages_match_all_pairs_loops(kind, seed):
    assert_matches_all_pairs(drawn_pair(kind, seed))


def test_forest_corpus_covers_inf_and_separators():
    seen = set()
    for depth in range(1, 6):
        for seed in range(6):
            fp = nested_pair(depth, seed)
            if seed % 2:
                fp = to_inf(fp.points[seed % len(fp.points)]).apply_pair(fp)
            assert_matches_all_pairs(fp)
            has_inf = fp.points[-1].is_infinite
            for e in nesting_report(fp).entries:
                seen.add((has_inf, e.separated))
    for k, kind in enumerate(KINDS):
        for seed in range(8):
            assert_matches_all_pairs(drawn_pair(kind, 13 * seed + k))
    assert seen == {(i, s) for i in (False, True) for s in (False, True)}


# ── families that are not laminar ────────────────────────────────────────

def _fresh_after(points, r):
    # a new point between rank r and the next one, cyclically
    p = points[r]
    if p.is_infinite:
        return point(points[0].frac - 1)
    if r + 1 == len(points) or points[r + 1].is_infinite:
        return point(p.frac + 1)
    return point((p.frac + points[r + 1].frac) / 2)


def _fresh_before(points, r):
    return _fresh_after(points, r - 1) if r else point(points[0].frac - 1)


HOWS = ("overlapping", "linked", "enclosing INF")


def broken_pair(kind, seed, how):
    """A drawn pair with one set added to a family that breaks laminarity,
    or None when the pair has no set to break it against."""
    fp = drawn_pair(kind, seed)
    rng = random.Random(seed)
    points = fp.points
    names = ["plus", "minus"]
    rng.shuffle(names)
    for name in names:
        sets = fp.ranks(name)
        if how == "overlapping":
            # shares a marked point of the family and holds no other rank
            r = rng.choice(sets[rng.randrange(len(sets))])
            new = [points[r], _fresh_after(points, r)]
        elif how == "linked":
            # holds one rank of a set and a point on each side of it
            wide = [s for s in sets if len(s) > 1]
            if not wide:
                continue
            s = rng.choice(wide)
            t = rng.randrange(len(s) - 1)
            new = [_fresh_after(points, s[t]), _fresh_after(points, s[t + 1])]
        else:
            # straddles the first rank of the set holding INF, and nothing else
            holder = [s for s in sets if points[s[-1]].is_infinite]
            if not holder or len(holder[0]) < 2:
                continue
            r = holder[0][0]
            new = [_fresh_before(points, r), _fresh_after(points, r)]
        plus, minus = list(fp.plus), list(fp.minus)
        (plus if name == "plus" else minus).append(CircleSet(new))
        return name, plus, minus
    return None


def reported(plus, minus):
    with pytest.raises(FamilyValidationError) as info:
        validate(plus, minus)
    return list(info.value.violations)


def assert_reports_match(name, plus, minus):
    assert reported(plus, minus) == pointwise_oracle.violations(plus, minus)
    # the sweep flags the family with the added set
    with pytest.raises(InvariantViolation) as info:
        FamilyPair(plus, minus).forest(name)
    assert info.value.invariant == "hull-overlap"
    return info.value.counts


@settings(max_examples=150)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2 ** 32),
       st.sampled_from(HOWS))
def test_validate_reports_every_violation_of_non_laminar_families(kind, seed, how):
    broken = broken_pair(kind, seed, how)
    if broken is not None:
        assert_reports_match(*broken)


def test_non_laminar_corpus_covers_every_way_to_break():
    made = {how: 0 for how in HOWS}
    for k, kind in enumerate(KINDS):
        for seed in range(24):
            for how in HOWS:
                broken = broken_pair(kind, 5 * seed + k, how)
                if broken is None:
                    continue
                name, plus, minus = broken
                counts = assert_reports_match(name, plus, minus)
                made[how] += 1
                if how == "enclosing INF":
                    # the added set, last of its family, is open when the
                    # set holding INF opens
                    sets = plus if name == "plus" else minus
                    holder = next(i for i, s in enumerate(sets) if INF in s)
                    assert counts == (name, len(sets) - 1, holder)
    assert min(made.values()) >= 20, made


# ── cost ─────────────────────────────────────────────────────────────────

def classification_calls(monkeypatch, fp):
    calls = [0]
    real = family._meet_or_link

    def counted(*args):
        calls[0] += 1
        return real(*args)

    fp = validate(fp.plus, fp.minus)
    monkeypatch.setattr(family, "_meet_or_link", counted)
    disc = especial_disc(fp)
    monkeypatch.setattr(family, "_meet_or_link", real)
    return calls[0], disc, fp


def forest_height(fp, name):
    parent = fp.forest(name).parent

    def depth(k):
        d = 0
        while k is not None:
            d += 1
            k = parent[k]
        return d

    return max(depth(k) for k in range(len(parent)))


def test_classification_grows_with_the_output_and_the_forest(monkeypatch):
    for depth in range(5, 9):
        calls, disc, fp = classification_calls(monkeypatch, nested_pair(depth, 3))
        z = len(disc.interior) + len(disc.boundary)
        height = forest_height(fp, "minus")
        # each rank of a plus set tests its owner and straddlers, at most
        # one per level of the minus forest, and each row the INF holder
        bound = sum(len(a) * (height + 1) + 1 for a in fp.ranks("plus"))
        assert z <= calls <= bound, (depth, z, calls, bound)
        # all pairs would be 261 121 at depth 8
        assert calls * 100 < len(fp.plus) * len(fp.minus)


def test_dense_grid_tests_every_pair(monkeypatch):
    for n in (3, 12):
        calls, disc, _ = classification_calls(monkeypatch, gen_grid(n))
        assert calls == len(disc.interior) == n * n


# ── separation chains and chain ends ─────────────────────────────────────

def inf_nested_pairs(depths):
    for depth in depths:
        for seed in range(6):
            fp = nested_pair(depth, seed)
            if seed % 2:
                fp = to_inf(fp.points[seed % len(fp.points)]).apply_pair(fp)
            yield fp


def assert_chains_match_all_pairs(fp):
    """Every ordered query of both families; returns the chains."""
    fresh = FamilyPair(fp.plus, fp.minus)
    chains = []
    for name in ("plus", "minus"):
        n = len(fp.family(name))
        for i in range(n):
            for j in range(n):
                chain = separation_interval(fp, name, i, j)
                assert chain == allpairs_oracle.separation_interval(fresh, name, i, j)
                chains.append((fp, name, chain))
    return chains


@settings(max_examples=60)
@given(st.sampled_from(KINDS), st.integers(min_value=0, max_value=2 ** 32))
def test_separation_matches_all_pairs_oracle(kind, seed):
    assert_chains_match_all_pairs(drawn_pair(kind, seed))


def triple_kind(forest, a, b, c):
    """Which case of separation_interval's proof makes b separate a from c:
    b between its tree child and its tree parent, b beside a sibling (or a
    root beside a root) with its tree child on the other side, or b the
    kept shared ancestor between two of its tree children."""
    up = forest.tree_parent
    if up(a) == b == up(c):
        return "shared"
    for x, y in ((a, c), (c, a)):
        if up(x) == b and up(b) == y:
            return "parent"
        if up(x) == b and up(y) == up(b):
            return "siblings" if up(b) is not None else "roots"
    return None


def test_separation_corpus_covers_inf_and_long_chains():
    chains = []
    for fp in inf_nested_pairs(range(1, 5)):
        chains += assert_chains_match_all_pairs(fp)
    for k, kind in enumerate(KINDS):
        for seed in range(30):
            chains += assert_chains_match_all_pairs(drawn_pair(kind, 13 * seed + k))
    chains += assert_chains_match_all_pairs(concentric_pair())
    # the set holding INF inside a chain, and chains past twenty separators
    inf_inside = [c for fp, name, c in chains
                  if fp.forest(name).inf_owner in c[1:-1]]
    assert inf_inside
    assert max(len(c) for _, _, c in chains) == 30
    # every triple is one case of the proof, and the corpus holds each case
    kinds = {triple_kind(fp.forest(name), *c[t - 1:t + 2])
             for fp, name, c in chains for t in range(1, len(c) - 1)}
    assert kinds == {"parent", "siblings", "roots", "shared"}


def test_separation_makes_one_call_per_chain_link(monkeypatch):
    calls = [0]
    real = family.rank_separates

    def counted(barrier, first, second):
        calls[0] += 1
        return real(barrier, first, second)

    monkeypatch.setattr(family, "rank_separates", counted)
    for fp in [concentric_pair()] + list(inf_nested_pairs([4])):
        for name in ("plus", "minus"):
            n = len(fp.family(name))
            for i in range(n):
                for j in range(n):
                    calls[0] = 0
                    separation_interval(fp, name, i, j)
                    # only the innermost shared ancestor is tested
                    assert calls[0] <= 1
    calls[0] = 0
    assert separation_interval(concentric_pair(), "plus", 0, 29) == list(range(30))
    # the shared ancestor is 0 itself
    assert calls[0] == 0


def assert_ends_match_all_members(fp):
    """Compare each leaf graph's virtual edges with the all-members end test;
    returns the graphs that have a virtual vertex."""
    graphs = []
    for name in ("plus", "minus"):
        for e in range(len(fp.family(name))):
            g = leaf_graph(fp, name, e)
            if g.virtual_count:
                assert [x for x in g.edges if VIRTUAL in x] == allpairs_oracle.virtual_edges(fp, g)
                graphs.append(g)
    return graphs


def test_chain_ends_match_all_members_oracle():
    pairs = [random_family_pair(seed) for seed in range(200)]
    pairs += [nested_pair(depth, seed) for depth in range(1, 5) for seed in range(3)]
    pairs += [gen_figure(), gen_symmetric()[0]]
    graphs = [g for fp in pairs for g in assert_ends_match_all_members(fp)]
    assert len(graphs) >= 20


def test_virtual_vertex_joins_the_inner_end_of_a_long_chain():
    fp = chain_leaf_pair()
    g = leaf_graph(fp, "plus", 0)
    assert g.vertices == ((0, 2), (0, 1), (0, 0), (0, 3))
    assert g.edges == (((0, 2), (0, 1)), ((0, 1), (0, 0)),
                       (VIRTUAL, (0, 2)), (VIRTUAL, (0, 3)))
    assert assert_ends_match_all_members(fp) == [g]
