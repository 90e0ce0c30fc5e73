"""Leaf trees from one pass over the opposite ranks.

straighten.leaf_graph reads each Z-point's sector signature and its chain
key from one bisection per opposite rank, and checks no chain triple (its
docstring proves that every one is ordered). leaf_oracle.leaf_graph is the
builder it replaced, which recomputes the signatures with rank_gap and
checks every triple; every case below must give an equal LeafGraph from
both, or the same exception with the same arguments.
"""

import cProfile
import pstats
import random

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
from circlink.circle import rank_gap, rank_separates
from circlink.errors import GroupOrderNotTotalError, InvariantViolation
from circlink.generators import random_circle_map
from test_locate import KINDS, drawn_pair
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


def _long_groups(fp):
    """(signature, gap count) of every group of three or more members, the
    groups with a middle member, over the leaves of both families."""
    for family, side, opp in (("plus", 1, "minus"), ("minus", 0, "plus")):
        opp_sets = fp.ranks(opp)
        for element, lam in enumerate(fp.ranks(family)):
            sizes = {}
            for z in fp.fiber(family, element):
                sig = tuple(sorted({rank_gap(lam, r) for r in opp_sets[z[side]]
                                    if r not in lam}))
                sizes[sig] = sizes.get(sig, 0) + 1
            yield from ((sig, len(lam)) for sig, size in sizes.items()
                        if sig and size >= 3)


def test_shared_point_pairs_match_oracle():
    # pairs whose cross pairs share marked points reach wrap intervals,
    # points on the leaf itself and chains whose ends the end test rejects
    raising = single = wrap = 0
    for seed in range(3000):
        fp = shared_point_pair(seed)
        raising += bool(_same_leaves(fp, seed))
        for sig, gaps in _long_groups(fp):
            single += len(sig) == 1
            wrap += sig[0] == gaps - 1
    # 5 % of the draws have an element whose chain ends are not ordered
    assert raising == 150
    # the cases of leaf_graph's proof where a middle member meets one gap
    # of the leaf's set, so lies in the fiber by a shared point, and where
    # that gap is the wrap gap
    assert (single, wrap) == (14, 11)


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
    # no chain triple is checked, and a grid leaf has one chain, so no end
    assert ("circle.py", "rank_separates") not in calls
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


def test_chains_through_the_inf_holder_match_oracle():
    # plus 0 = {15, 25} crosses three nested minus sets, the outer one
    # holding INF, in the chain 0, 1, 2
    forest_child = validate([[15, 25]], [[14, 16], [12, 18], [10, 22, INF]])
    # {12, 18} lies outside {22, 24, INF}'s finite span: a root, adopted
    adopted = validate([[15, 25]], [[14, 16], [12, 18], [22, 24, INF]])
    # {2, 4} and {24, 26} are roots adopted by {10, 20, INF}, which has no
    # tree parent itself
    between_roots = validate([[3, 25]], [[2, 4], [10, 20, INF], [24, 26]])
    for fp, holder, parents in ((forest_child, 2, [1, 2, None]),
                                (adopted, 2, [1, None, None]),
                                (between_roots, 1, [None] * 3)):
        forest = fp.forest("minus")
        assert forest.inf_owner == holder
        assert forest.parent == tuple(parents)
        assert _same_leaves(fp) == 0
        leaf = straighten.leaf_graph(fp, "plus", 0)
        assert leaf.edges == (((0, 0), (0, 1)), ((0, 1), (0, 2)))


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
    # the gap fact that separation_interval's chains rest on, tested on
    # every set
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


# ── the tree check ───────────────────────────────────────────────────────

def _walk_is_tree(verts, edges) -> bool:
    """The adjacency walk that LeafGraph.is_tree replaced."""
    if not verts:
        return not edges
    if len(edges) != len(verts) - 1:
        return False
    adj = {v: [] for v in verts}
    for u, v in edges:
        if u not in adj or v not in adj:
            return False
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(verts)


def test_union_find_tree_check_matches_the_walk():
    # small graphs over a few Z-points and the virtual vertex: random trees,
    # some with one edge redrawn, and random edge lists, with repeated
    # vertices, self-loops and ends outside the vertices
    rng = random.Random(0)
    atoms = [(i, j) for i in range(3) for j in range(3)]
    trees = 0
    for _ in range(20000):
        vertices = tuple(rng.sample(atoms, rng.randint(0, 6)))
        if vertices and rng.random() < 0.1:
            vertices += (rng.choice(vertices),)
        virtual = int(rng.random() < 0.3)
        verts = vertices + (straighten.VIRTUAL,) * virtual
        pool = verts + (rng.choice(atoms),)
        if verts and rng.random() < 0.6:
            edges = [(verts[rng.randrange(k)], verts[k])[::rng.choice((1, -1))]
                     for k in range(1, len(verts))]
            rng.shuffle(edges)
            if edges and rng.random() < 0.5:
                edges[rng.randrange(len(edges))] = (rng.choice(pool), rng.choice(pool))
        else:
            edges = [(rng.choice(pool), rng.choice(pool))
                     for _ in range(rng.randint(0, len(verts)))]
        expected = _walk_is_tree(verts, tuple(edges))
        try:
            straighten.LeafGraph("plus", 0, vertices, virtual, tuple(edges))
        except InvariantViolation as exc:
            assert not expected and exc.invariant == "leaf-tree", (vertices, virtual, edges)
        else:
            assert expected, (vertices, virtual, edges)
        trees += expected
    assert 6000 < trees < 14000
