"""The global crossing scan that layout ran before it certified planarity
locally.

_detect_crossings groups every leaf edge by its exact supporting line and
checks every pair of lines whose float boxes meet; it shares no code with
straighten._leaf_crossings, nor with plane_oracle.crossings_by_pairs, and
the tests require equal answers from all three.
"""

from bisect import bisect_right
from functools import cmp_to_key
from math import gcd
from operator import itemgetter

from circlink.hullgeom import _h_line


def _line_key(hp: tuple, hq: tuple) -> tuple:
    # canonical integer line through two distinct homogeneous points
    a, b, c = _h_line(hp, hq)
    g = gcd(a, b, c)
    a, b, c = a // g, b // g, c // g
    if (a or b or c) < 0:
        a, b, c = -a, -b, -c
    return (a, b, c)


def _span_cmp(e: tuple, f: tuple) -> int:
    # exact (lo, hi) order of two spans; denominators are positive
    d = e[0] * f[1] - f[0] * e[1]
    if not d:
        d = e[2] * f[3] - f[2] * e[3]
    return (d > 0) - (d < 0)


def _sort_spans(entries: list) -> None:
    """Sort spans (lo_n, lo_d, hi_n, hi_d, leaf, edge, flo, fhi) in place
    by their exact (lo, hi), stably.

    flo and fhi are the correctly rounded floats of lo and hi, monotone in
    the exact values: sorting by them leaves only runs of tied floats out
    of order, and an exact sort by cross-multiplication then fixes those.
    """
    entries.sort(key=itemgetter(6, 7))
    if any(a[6] == b[6] for a, b in zip(entries, entries[1:])):
        entries.sort(key=cmp_to_key(_span_cmp))


def _stab(entries, flos, fmaxhi, pn, pd, fpos):
    """Entries whose closed span contains pn/pd, with pd > 0.

    The float arrays only narrow the scan window; every candidate is
    confirmed by integer cross-multiplication.
    """
    k = bisect_right(flos, fpos + 1e-9) - 1
    out = []
    floor = fpos - 1e-9
    while k >= 0 and fmaxhi[k] >= floor:
        e = entries[k]
        # lo <= pos <= hi exactly
        if e[0] * pd <= pn * e[1] and pn * e[3] <= e[2] * pd:
            out.append(e)
        k -= 1
    return out


def leaf_position(sd):
    """The position(family, element, v) of _detect_crossings on a layout: a
    Z-point's layout position, or its leaf's virtual vertex."""

    def position(family, element, v):
        if isinstance(v, str):
            return sd.virtual_positions[(family, element)]
        return sd.layout[v]

    return position


def _detect_crossings(leaves, position) -> list:
    """All edge pairs from distinct leaves that meet away from a shared vertex.

    Segments are grouped by supporting line. On one line, a crossing is a
    positive-length span overlap; endpoint contact collapses to a shared
    vertex. Across two lines the only candidate is the exact meet of the
    lines, checked against each group with a stabbing query. Positions along
    a line are kept as integer numerator/denominator pairs read from the
    points' triples.
    """
    groups = {}
    boxes = {}
    for leaf in leaves:
        lid = (leaf.family, leaf.element)
        for idx, (u, v) in enumerate(leaf.edges):
            hp = position(leaf.family, leaf.element, u)._h
            hq = position(leaf.family, leaf.element, v)._h
            if hp == hq:
                continue
            line = _line_key(hp, hq)
            axis = 0 if abs(line[1]) >= abs(line[0]) else 1
            # int / int is correctly rounded, as float(Fraction) is
            pf = (hp[0] / hp[2], hp[1] / hp[2])
            qf = (hq[0] / hq[2], hq[1] / hq[2])
            # denominators of normalised triples are positive
            ln, ld, flo = hp[axis], hp[2], pf[axis]
            hn, hd, fhi = hq[axis], hq[2], qf[axis]
            if hn * ld < ln * hd:
                ln, ld, flo, hn, hd, fhi = hn, hd, fhi, ln, ld, flo
            groups.setdefault(line, []).append((ln, ld, hn, hd, lid, idx, flo, fhi))
            x0, x1 = sorted((pf[0], qf[0]))
            y0, y1 = sorted((pf[1], qf[1]))
            fb = boxes.get(line)
            if fb is None:
                boxes[line] = [x0, x1, y0, y1]
            else:
                fb[0] = min(fb[0], x0)
                fb[1] = max(fb[1], x1)
                fb[2] = min(fb[2], y0)
                fb[3] = max(fb[3], y1)

    found = set()
    prepared = []
    for line in sorted(groups):
        entries = groups[line]
        _sort_spans(entries)
        flos = [e[6] for e in entries]
        fmaxhi = []
        running = None
        for e in entries:
            if running is None or e[7] > running:
                running = e[7]
            fmaxhi.append(running)
        # collinear case: spans meeting in more than a point always cross
        for i in range(len(entries)):
            lo_n, lo_d, hi_n, hi_d, lid_i, idx_i, _, _ = entries[i]
            for j in range(i + 1, len(entries)):
                e = entries[j]
                if e[0] * hi_d >= hi_n * e[1]:
                    break
                if e[4] == lid_i:
                    continue
                found.add(tuple(sorted(((lid_i[0], lid_i[1], idx_i),
                                        (e[4][0], e[4][1], e[5])))))
        box = boxes[line]
        # float boxes only prune; meets are confirmed exactly below
        prepared.append((line, entries, flos, fmaxhi,
                         (box[0] - 1e-9, box[1] + 1e-9,
                          box[2] - 1e-9, box[3] + 1e-9)))

    for gi in range(len(prepared)):
        line_a, ent_a, flos_a, fmaxhi_a, box_a = prepared[gi]
        axis_a = 0 if abs(line_a[1]) >= abs(line_a[0]) else 1
        for gj in range(gi + 1, len(prepared)):
            line_b, ent_b, flos_b, fmaxhi_b, box_b = prepared[gj]
            if box_b[0] > box_a[1] or box_b[1] < box_a[0] \
                    or box_b[2] > box_a[3] or box_b[3] < box_a[2]:
                continue
            pw = line_a[0] * line_b[1] - line_a[1] * line_b[0]
            if pw == 0:
                continue
            px = line_a[1] * line_b[2] - line_a[2] * line_b[1]
            py = line_a[2] * line_b[0] - line_a[0] * line_b[2]
            if pw < 0:
                px, py, pw = -px, -py, -pw
            pn_a = px if axis_a == 0 else py
            hits_a = _stab(ent_a, flos_a, fmaxhi_a, pn_a, pw, pn_a / pw)
            if not hits_a:
                continue
            axis_b = 0 if abs(line_b[1]) >= abs(line_b[0]) else 1
            pn_b = px if axis_b == 0 else py
            hits_b = _stab(ent_b, flos_b, fmaxhi_b, pn_b, pw, pn_b / pw)
            if not hits_b:
                continue
            for lo_n, lo_d, hi_n, hi_d, lid_i, idx_i, _, _ in hits_a:
                end_i = pn_a * lo_d == lo_n * pw or pn_a * hi_d == hi_n * pw
                for e in hits_b:
                    if e[4] == lid_i:
                        continue
                    if end_i and (pn_b * e[1] == e[0] * pw
                                  or pn_b * e[3] == e[2] * pw):
                        continue
                    found.add(tuple(sorted(((lid_i[0], lid_i[1], idx_i),
                                            (e[4][0], e[4][1], e[5])))))
    return sorted(found)
