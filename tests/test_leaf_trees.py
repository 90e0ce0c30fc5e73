"""Leaf trees from one pass over the opposite ranks.

straighten.leaf_graph reads each Z-point's sector signature and its chain
key from one bisection per opposite rank. leaf_oracle.leaf_graph is the
builder it replaced, which recomputes both with rank_gap; every case below
must give an equal LeafGraph from both, or the same exception with the same
arguments.
"""

import cProfile
import pstats

import leaf_oracle
from circlink import (
    gen_figure,
    gen_grid,
    gen_symmetric,
    gen_tripod,
    nested_pair,
    random_family_pair,
    straighten,
)
from circlink.errors import GroupOrderNotTotalError
from circlink.generators import random_circle_map
from test_planarity import shared_point_pair


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
    # rank_separates still runs the chain checks, 14 to a leaf
    assert calls[("circle.py", "rank_separates")] == 32 * 14
    assert ("circle.py", "rank_gap") not in calls
