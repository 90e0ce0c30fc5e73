"""Leaf trees from one pass over the opposite ranks.

straighten.leaf_graph reads each Z-point's sector signature and its chain
key from one bisection per opposite rank, and passes a chain triple whose
middle set is the tree parent of one neighbour and the tree child of the
other without a rank_separates call. leaf_oracle.leaf_graph is the builder
it replaced, which recomputes the signatures with rank_gap and checks every
triple; every case below must give an equal LeafGraph from both, or the
same exception with the same arguments.
"""

import cProfile
import pstats

import pytest

import leaf_oracle
from circlink import (
    INF,
    gen_figure,
    gen_grid,
    gen_symmetric,
    gen_tripod,
    nested_pair,
    random_family_pair,
    straighten,
    validate,
)
from circlink.circle import rank_separates
from circlink.errors import GroupOrderNotTotalError
from circlink.family import LaminarForest
from circlink.generators import random_circle_map
from test_locate import KINDS, drawn_pair
from test_planarity import shared_point_pair
from test_straighten import chain_leaf_pair


def _outcome(build, fp, family, element):
    try:
        return build(fp, family, element)
    except GroupOrderNotTotalError as exc:
        return (type(exc), exc.args)


def _same_leaves(fp, label=None) -> int:
    """Compare both builders on every element; the number that raised."""
    raised = 0
    for family, n in (("plus", len(fp.plus)), ("minus", len(fp.minus))):
        for element in range(n):
            got = _outcome(straighten.leaf_graph, fp, family, element)
            assert got == _outcome(leaf_oracle.leaf_graph, fp, family, element), \
                (label, family, element)
            raised += isinstance(got, tuple)
    return raised


def test_generated_pairs_match_oracle():
    pairs = [random_family_pair(seed) for seed in range(120)]
    pairs += [nested_pair(depth, seed) for depth in (2, 3, 4) for seed in range(3)]
    pairs += [gen_figure(), gen_tripod(), gen_symmetric()[0]]
    for fp in pairs:
        assert _same_leaves(fp) == 0


def test_grid_image_matches_oracle():
    fp = random_circle_map(0).apply_pair(gen_grid(40))
    assert _same_leaves(fp) == 0
    assert sum(len(straighten.leaf_graph(fp, "plus", i).edges) for i in range(40)) == 40 * 39


def test_shared_point_pairs_match_oracle():
    # pairs whose cross pairs share marked points reach wrap intervals,
    # points on the leaf itself and groups the chain checks reject
    raising = sum(1 for seed in range(3000) if _same_leaves(shared_point_pair(seed), seed))
    # 5 % of the draws have an element whose groups are not ordered
    assert raising == 150


def test_leaf_graph_makes_no_rank_gap_call():
    fp = gen_grid(16)
    fp.disc
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for element in range(16):
            straighten.leaf_graph(fp, "plus", element)
            straighten.leaf_graph(fp, "minus", element)
    finally:
        profiler.disable()
    calls = {(f[0].rsplit("/", 1)[-1], f[2]): s[1]
             for f, s in pstats.Stats(profiler).stats.items()}
    assert calls[("straighten.py", "leaf_graph")] == 32
    # every chain runs along its forest's tree parents, which pass the chain
    # checks, except at the plus roots 0 and 1: they are siblings under no
    # set, so rank_separates still checks the triple centred on plus set 1,
    # once in each minus leaf
    assert calls[("circle.py", "rank_separates")] == 16
    assert ("circle.py", "rank_gap") not in calls


# ── chains through the set holding INF ───────────────────────────────────

def chain_triples(fp):
    """(forest, middle, first, last): the opposite set indices of every
    three consecutive members of a leaf chain, over both families' leaves."""
    for family, side, opp in (("plus", 1, "minus"), ("minus", 0, "plus")):
        forest = fp.forest(opp)
        for element in range(len(fp.family(family))):
            chain_edges = [(u[side], v[side]) for u, v in
                           straighten.leaf_graph(fp, family, element).edges
                           if straighten.VIRTUAL not in (u, v)]
            for (a, b), (b2, c) in zip(chain_edges, chain_edges[1:]):
                if b == b2:
                    yield forest, b, a, c


def test_chains_through_the_inf_holder_match_oracle(monkeypatch):
    # plus 0 = {15, 25} crosses three nested minus sets, the outer one
    # holding INF, in the chain 0, 1, 2
    forest_child = validate([[15, 25]], [[14, 16], [12, 18], [10, 22, INF]])
    # {12, 18} lies outside {22, 24, INF}'s finite span: a root, adopted
    adopted = validate([[15, 25]], [[14, 16], [12, 18], [22, 24, INF]])
    # {2, 4} and {24, 26} are roots adopted by {10, 20, INF}, which has no
    # tree parent itself: rank_separates checks the triple
    between_roots = validate([[3, 25]], [[2, 4], [10, 20, INF], [24, 26]])
    for fp, holder, parents, checked in ((forest_child, 2, [1, 2, None], 0),
                                         (adopted, 2, [1, None, None], 0),
                                         (between_roots, 1, [None] * 3, 1)):
        forest = fp.forest("minus")
        assert forest.inf_owner == holder
        assert forest.parent == parents
        calls = []

        def counted(barrier, first, second):
            calls.append(barrier)
            return rank_separates(barrier, first, second)

        with monkeypatch.context() as patch:
            patch.setattr(straighten, "rank_separates", counted)
            assert _same_leaves(fp) == 0
        leaf = straighten.leaf_graph(fp, "plus", 0)
        assert leaf.edges == (((0, 0), (0, 1)), ((0, 1), (0, 2)))
        # the chain's one triple, centred on minus set 1
        assert calls.count(fp.ranks("minus")[1]) == checked


def test_inf_corpus_matches_oracle_and_covers_adoption():
    # drawn_pair moves a marked point to INF on every odd seed, but for
    # the random kind
    adopted = 0
    for k, kind in enumerate(KINDS[1:]):
        for seed in range(1, 60, 2):
            fp = drawn_pair(kind, 7 * seed + 2 * k)
            assert fp.points[-1].is_infinite
            assert _same_leaves(fp, (kind, seed)) == 0
            for forest, b, a, c in chain_triples(fp):
                holder = forest.inf_owner
                if forest.tree_parent(b) == holder != forest.parent[b] and holder in (a, c):
                    adopted += 1
    # chains pass from an adopted root to the INF holder; a forest child of
    # the holder beside it in a chain is the hand-built case above
    assert adopted


def test_a_tree_parent_separates_its_child_from_its_own_parent():
    # the forest fact the chain checks rely on, tested on every set
    pairs = [drawn_pair(kind, seed) for kind in KINDS for seed in range(40)]
    pairs += [shared_point_pair(seed) for seed in range(200)]
    checked = {"forest": 0, "adopted": 0}
    for fp in pairs:
        for family in ("plus", "minus"):
            sets, forest = fp.ranks(family), fp.forest(family)
            for a in range(len(sets)):
                b = forest.tree_parent(a)
                c = None if b is None else forest.tree_parent(b)
                if c is not None:
                    assert rank_separates(sets[b], sets[a], sets[c])
                    checked["forest" if forest.parent[b] == c else "adopted"] += 1
    assert checked["forest"] and checked["adopted"]


@pytest.mark.parametrize("parents, checks", [
    ({0: 1, 1: 2}, 0),      # the chain descends the tree
    ({2: 1, 1: 0}, 0),      # the chain ascends it
    ({0: 2, 1: 2}, 1),      # 1 is 2's child but not 0's parent
    ({1: 0, 2: 0}, 1),      # 1 is 0's child but not 2's parent
    ({}, 1),                # three roots
])
def test_rank_separates_checks_the_triples_the_parents_do_not(monkeypatch, parents, checks):
    # plus 0's chain is minus 2, 1, 0; the tree parents are replaced, so
    # only the test that reads them decides whether rank_separates runs
    fp = chain_leaf_pair()
    fp.disc
    sets = fp.ranks("minus")
    calls = []

    def counted(barrier, first, second):
        if (barrier, {first, second}) == (sets[1], {sets[0], sets[2]}):
            calls.append(barrier)
        return rank_separates(barrier, first, second)

    monkeypatch.setattr(LaminarForest, "tree_parent", lambda forest, k: parents.get(k))
    monkeypatch.setattr(straighten, "rank_separates", counted)
    straighten.leaf_graph(fp, "plus", 0)
    assert len(calls) == checks
