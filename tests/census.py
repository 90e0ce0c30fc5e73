"""Every valid pair on n marked points, one per rotation class.

A family on the points 0, ..., n - 1 is a set of disjoint, pairwise
unlinked, nonempty sets: a noncrossing partition of the points it uses.
There are sum over k of C(n, k) Catalan(k) of them, the empty one
included: 15, 51, 188 and 731 for n = 3 to 6. pairs(n) lists each pair of
nonempty families that together use all n points and whose cross pairs
share at most one point, so each passes validate, once per class under
the rotation x -> x + 1 mod n: 45, 373, 3 497 and 39 885 pairs for n = 3
to 6. The points are the circle parameters 0, ..., n - 1, so the n
rotations of a pair have the same circle order but other plane points.

Run as a script, it checks the census at n: every pair validates and
passes quotient_check, and a pair without a boundary Z-point lays out with
no crossing under each of its n rotations. It reports how many of the
pairs with one raise or cross, pinning neither, then runs the command line
on a seeded sample of the pairs and exits 1 on any failure:

    PYTHONPATH=src python tests/census.py 6
"""

import json
import os
import random
import subprocess
import sys
import tempfile
from functools import cache
from itertools import combinations, product

from circlink import especial_disc, layout, quotient_check, validate
from circlink.errors import GroupOrderNotTotalError


def _noncrossing(seq):
    """Every noncrossing partition of the sorted tuple seq, as a tuple of
    sorted blocks."""
    if not seq:
        yield ()
        return
    first, rest = seq[0], seq[1:]
    for size in range(len(rest) + 1):
        for chosen in combinations(range(len(rest)), size):
            # the points between two members of first's block, and those
            # after the last, partition among themselves
            cuts = (-1,) + chosen + (len(rest),)
            gaps = [list(_noncrossing(rest[a + 1:b])) for a, b in zip(cuts, cuts[1:])]
            block = (first,) + tuple(rest[i] for i in chosen)
            for parts in product(*gaps):
                yield (block,) + sum(parts, ())


def families(n: int) -> list:
    """Every family on the points 0, ..., n - 1, each a sorted tuple of sets."""
    return [tuple(sorted(f)) for k in range(n + 1) for used in combinations(range(n), k)
            for f in _noncrossing(used)]


def rotate(sets, r: int, n: int) -> tuple:
    return tuple(sorted(tuple(sorted((x + r) % n for x in s)) for s in sets))


@cache
def pairs(n: int) -> tuple:
    """(plus, minus) for one pair of each rotation class, in a fixed order."""
    fams = [(f, sum(1 << x for s in f for x in s)) for f in families(n) if f]
    everything = (1 << n) - 1
    found = []
    for plus, used in fams:
        plus_masks = [sum(1 << x for x in s) for s in plus]
        for minus, other in fams:
            if used | other != everything:
                continue
            if any(bin(a & sum(1 << x for x in s)).count("1") > 1
                   for a in plus_masks for s in minus):
                continue
            if all((plus, minus) <= (rotate(plus, r, n), rotate(minus, r, n))
                   for r in range(1, n)):
                found.append((plus, minus))
    return tuple(found)


def lay_out(fp):
    """layout's crossings, or None when a leaf tree raises."""
    try:
        return layout(fp).crossings
    except GroupOrderNotTotalError:
        return None


def census(n: int, lay=lay_out) -> dict:
    """The checks and counts named in the module docstring, with lay in
    place of lay_out; each failure is a line of the "failures" list."""
    counts = {"pairs": 0, "with_boundary": 0, "raise": 0, "crossed": 0, "failures": []}
    for plus, minus in pairs(n):
        fp = validate(plus, minus)
        counts["pairs"] += 1
        if not quotient_check(fp).ok:
            counts["failures"].append("quotient_check fails on %r" % ((plus, minus),))
        if especial_disc(fp).boundary:
            counts["with_boundary"] += 1
            crossings = lay(fp)
            counts["raise"] += crossings is None
            counts["crossed"] += bool(crossings)
            continue
        for r in range(n):
            crossings = lay(validate(rotate(plus, r, n), rotate(minus, r, n)))
            if crossings is None or crossings:
                counts["failures"].append("rotation %d of %r raises or crosses"
                                          % (r, (plus, minus)))
    return counts


def cli_sample(n: int, size: int, seed: int) -> list:
    """Run validate, disc and render on size of the pairs on n points, drawn
    with seed; each failure is a line of the returned list. A pair whose leaf
    trees raise makes render exit 1 with GroupOrderNotTotalError."""
    failures = []
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "pair.json")
        for plus, minus in random.Random(seed).sample(pairs(n), size):
            fp = validate(plus, minus)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(fp.to_json(), fh)
            runs = [(["validate", path], 0, {"ok": True, "plus": len(plus), "minus": len(minus)}),
                    (["disc", path], 0, especial_disc(fp).to_json()),
                    (["render", path, "--out", os.path.join(d, "pic")],
                     1 if lay_out(fp) is None else 0, None)]
            for argv, want, answer in runs:
                proc = subprocess.run([sys.executable, "-m", "circlink"] + argv,
                                      capture_output=True, text=True, timeout=120)
                if (proc.returncode != want or proc.stderr
                        or (answer is not None and json.loads(proc.stdout) != answer)):
                    failures.append("%s on %r: exit %d, %s" % (argv[0], (plus, minus),
                                                               proc.returncode, proc.stderr))
    return failures


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    counts = census(n)
    failures = counts.pop("failures") + cli_sample(n, 40, seed=n)
    print(json.dumps(dict(counts, n=n, cli_sample=40, failed=len(failures)), sort_keys=True))
    for line in failures[:20]:
        print(line)
    sys.exit(1 if failures else 0)
