"""The all-pairs loops that the laminar forest replaced.

especial_disc tested every cross pair row by row, and nesting_report put
every other element of a family in its gap of each element, then searched
each gap for a separator pair by pair. separation_interval tested every
element as a separator and sorted them by how many others they separate
from i, and a leaf tree's virtual vertex joined the end of each chain that
no other member separates from the anchor. The library reads the laminar
forest instead (family.LaminarForest) and checks only neighbours; the tests
require identical answers.
"""

from circlink import (
    CirclePoint,
    EspecialDisc,
    GroupOrderNotTotalError,
    NotLinearlyOrderedError,
)
from circlink.circle import rank_gap, rank_separates
from circlink.family import NestingEntry, NestingReport, _check_index, _meet_or_link
from circlink.straighten import VIRTUAL
from pointwise_oracle import arcs


def especial_disc(fp) -> EspecialDisc:
    """Every cross pair classified on the rank table, row by row."""
    points = fp.points
    minus = fp.ranks("minus")
    interior = []
    boundary = []
    for i, a in enumerate(fp.ranks("plus")):
        members = frozenset(a)
        for j, b in enumerate(minus):
            c = _meet_or_link(points, a, members, b)
            if isinstance(c, CirclePoint):
                boundary.append((i, j, c))
            elif c != 1:
                interior.append((i, j, c))
    return EspecialDisc(len(fp.plus), len(fp.minus), interior, boundary)


def nesting_report(fp) -> NestingReport:
    """The report from gap buckets filled by testing every other element."""
    entries = []
    for name in ("plus", "minus"):
        sets = fp.ranks(name)
        for e, lam in enumerate(sets):
            buckets = {g: [] for g in range(len(lam))}
            for k, other in enumerate(sets):
                if k == e:
                    continue
                gaps = {rank_gap(lam, r) for r in other}
                # family validity forces every other element into one gap
                assert len(gaps) == 1
                buckets[gaps.pop()].append(k)
            for g, (a, b) in enumerate(arcs(fp.family(name)[e])):
                inside = buckets[g]
                separator = None
                for k in inside:
                    for m in inside:
                        if m != k and rank_separates(sets[k], lam, sets[m]):
                            separator = k
                            break
                    if separator is not None:
                        break
                entries.append(NestingEntry(name, e, a, b, separator is not None,
                                            separator))
    return NestingReport(entries)


def separation_interval(fp, family, i, j) -> list:
    """The chain from every separating element, ordered by how many others
    each one separates from i; all triples are checked up to 20 separators,
    consecutive ones beyond."""
    n = len(fp.family(family))
    _check_index(n, i, family)
    _check_index(n, j, family)
    sets = fp.ranks(family)
    if i == j:
        return [i]
    middles = [k for k in range(len(sets))
               if k != i and k != j and rank_separates(sets[k], sets[i], sets[j])]
    if not middles:
        return [i, j]

    def between(a: int, b: int, c: int) -> bool:
        return rank_separates(sets[b], sets[a], sets[c])

    ranked = sorted(middles, key=lambda k: sum(1 for m in middles if m != k and between(i, m, k)))
    chain = [i] + ranked + [j]
    if len(middles) <= 20:
        for t in range(1, len(chain) - 1):
            for p in range(t):
                for s in range(t + 1, len(chain)):
                    if not between(chain[p], chain[t], chain[s]):
                        raise NotLinearlyOrderedError((chain[p], chain[t], chain[s]))
    else:
        # long chains: consecutive triples still pin the order, full check is cubic
        for t in range(1, len(chain) - 1):
            if not between(chain[t - 1], chain[t], chain[t + 1]):
                raise NotLinearlyOrderedError((chain[t - 1], chain[t], chain[t + 1]))
    return chain


def virtual_edges(fp, graph) -> list:
    """The virtual vertex's edges in a leaf graph, each chain's end chosen by
    testing every other member of the chain against the end and the anchor.

    The chains are read back from the graph: its vertices are listed chain
    by chain, and each chain's edges join consecutive members.
    """
    side = 1 if graph.family == "plus" else 0
    sets = fp.ranks("minus" if side else "plus")
    joined = {e for e in graph.edges if VIRTUAL not in e}
    chains = []
    for z in graph.vertices:
        if chains and (chains[-1][-1], z) in joined:
            chains[-1].append(z)
        else:
            chains.append([z])
    if len(chains) < 2:
        return []
    out = []
    for gi, chain in enumerate(chains):
        anchor = sets[chains[1 if gi == 0 else 0][0][side]]

        def inner(end):
            e = sets[end[side]]
            return not any(rank_separates(sets[m[side]], e, anchor)
                           for m in chain if m != end)

        if len(chain) == 1:
            out.append((VIRTUAL, chain[0]))
            continue
        lo, hi = inner(chain[0]), inner(chain[-1])
        if lo == hi:
            raise GroupOrderNotTotalError((chain[0], chain[-1]))
        out.append((VIRTUAL, chain[0] if lo else chain[-1]))
    return out
