"""The leaf-tree builder that straighten.leaf_graph replaced.

It rebuilds each member's sector signature with one rank_gap call per
opposite rank and finds a chain's order from those (gap, rank) pairs again.
straighten.leaf_graph reads the same from each rank's distance from the
element's first rank along the circle: its gap is where that distance falls
among the element's own, and a chain's order is the least distance of each
member. The tests require equal trees, or the same exception with the same
arguments, from both.
"""

from circlink.circle import rank_gap, rank_separates
from circlink.errors import GroupOrderNotTotalError
from circlink.straighten import VIRTUAL, LeafGraph


def leaf_graph(fp, family: str, element: int) -> LeafGraph:
    """Build the leaf tree over the fiber of one element.

    Every predicate runs on the rank tuples of the pair.
    """
    fiber = fp.fiber(family, element)
    lam = fp.ranks(family)[element]
    if family == "plus":
        opp_sets = fp.ranks("minus")
        opp_of = lambda z: z[1]
    else:
        opp_sets = fp.ranks("plus")
        opp_of = lambda z: z[0]
    if not fiber:
        return LeafGraph(family, element, (), 0, ())

    # sector signature: which complementary intervals of lam the opposite
    # element meets (shared marked points sit on lam itself and don't count)
    on_lam = set(lam)
    gap_pts = {}
    for z in fiber:
        gap_pts[z] = [(rank_gap(lam, r), r) for r in opp_sets[opp_of(z)] if r not in on_lam]

    groups = {}
    for z in fiber:
        sig = frozenset(g for g, _ in gap_pts[z])
        key = (tuple(sorted(sig)), z) if not sig else (tuple(sorted(sig)),)
        groups.setdefault(key, []).append(z)
    group_keys = sorted(groups)

    chains = []
    for key in group_keys:
        members = groups[key]
        if len(members) == 1:
            chains.append(members)
            continue
        g0 = key[0][0]
        start = lam[g0]

        def arc_key(r):
            # order along the circle starting just after lam[g0]
            return (0 if start < r else 1, r)

        def first_point(z):
            return min((r for g, r in gap_pts[z] if g == g0), key=arc_key)

        chain = sorted(members, key=lambda z: arc_key(first_point(z)))
        for t in range(1, len(chain) - 1):
            a = opp_sets[opp_of(chain[t - 1])]
            b = opp_sets[opp_of(chain[t])]
            c = opp_sets[opp_of(chain[t + 1])]
            if not rank_separates(b, a, c):
                raise GroupOrderNotTotalError((chain[t - 1], chain[t], chain[t + 1]))
        chains.append(chain)

    vertices = [z for chain in chains for z in chain]
    edges = []
    for chain in chains:
        for t in range(len(chain) - 1):
            edges.append((chain[t], chain[t + 1]))

    virtual_count = 0
    if len(chains) >= 2:
        virtual_count = 1
        for gi, chain in enumerate(chains):
            if len(chain) == 1:
                edges.append((VIRTUAL, chain[0]))
                continue
            anchor_chain = chains[0] if gi != 0 else chains[1]
            anchor = opp_sets[opp_of(anchor_chain[0])]

            def inner(end_z, next_z):
                # the chain passed its neighbour checks, so it is a path in
                # the family's nesting tree: some member separates the end
                # from the anchor exactly when the end's neighbour does
                return not rank_separates(opp_sets[opp_of(next_z)],
                                          opp_sets[opp_of(end_z)], anchor)

            lo, hi = inner(chain[0], chain[1]), inner(chain[-1], chain[-2])
            if lo == hi:
                raise GroupOrderNotTotalError((chain[0], chain[-1]))
            edges.append((VIRTUAL, chain[0] if lo else chain[-1]))

    return LeafGraph(family, element, tuple(vertices), virtual_count, tuple(edges))
