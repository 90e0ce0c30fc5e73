"""The all-pairs loops that the laminar forest replaced.

especial_disc tested every cross pair row by row, and nesting_report put
every other element of a family in its gap of each element, then searched
each gap for a separator pair by pair. The library reads the laminar forest
instead (family.LaminarForest); the tests require identical answers.
"""

from circlink import CirclePoint, EspecialDisc
from circlink.circle import complementary_intervals, rank_gap, rank_separates
from circlink.family import NestingEntry, NestingReport, _meet_or_link


def especial_disc(fp) -> EspecialDisc:
    """Every cross pair classified on the rank table, row by row."""
    index = fp.index
    points = index.points
    minus = index.ranks("minus")
    interior = []
    boundary = []
    for i, a in enumerate(index.ranks("plus")):
        members = frozenset(a)
        for j, b in enumerate(minus):
            c = _meet_or_link(points, a, members, b, (i, j))
            if isinstance(c, CirclePoint):
                boundary.append((i, j, c))
            elif c != 1:
                interior.append((i, j, c))
    return EspecialDisc(len(fp.plus), len(fp.minus), interior, boundary)


def nesting_report(fp) -> NestingReport:
    """The report from gap buckets filled by testing every other element."""
    entries = []
    for name in ("plus", "minus"):
        sets = fp.index.ranks(name)
        for e, lam in enumerate(sets):
            buckets = {g: [] for g in range(len(lam))}
            for k, other in enumerate(sets):
                if k == e:
                    continue
                gaps = {rank_gap(lam, r) for r in other}
                # family validity forces every other element into one gap
                assert len(gaps) == 1
                buckets[gaps.pop()].append(k)
            intervals = complementary_intervals(fp.family(name)[e])
            for g, interval in enumerate(intervals):
                inside = buckets[g]
                separator = None
                for k in inside:
                    for m in inside:
                        if m != k and rank_separates(sets[k], lam, sets[m]):
                            separator = k
                            break
                    if separator is not None:
                        break
                entries.append(NestingEntry(name, e, interval.a, interval.b,
                                            separator is not None, separator))
    return NestingReport(entries)
