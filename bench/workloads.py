"""The benchmark's workloads: seeded inputs, command sequences and output facts.

Each workload is one family pair made from the seed and a fixed sequence of
commands run on it. The seed sets ``nested_pair``'s seed; for the grid and
star workloads it picks the ``random_circle_map(seed)`` image the base
fixture is pushed through, which keeps |Z| and every linking number but
changes the bignum sizes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from circlink.family import especial_disc
from circlink.generators import gen_grid, gen_star, nested_pair, random_circle_map

IDENTITY_MAP = {"m": [["1", "0"], ["0", "1"]]}

# Commands run as `python -m circlink <command>`, except quotient_check,
# which has no subcommand and runs through bench/qcheck.py.
CLI_COMMANDS = ("validate", "classify", "disc", "render", "equivariance")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # base fixture: grid, star or nested
    size: int          # grid n, star k or nesting depth
    tiny_size: int     # size used by the smoke test
    commands: tuple


WORKLOADS = {w.name: w for w in (
    # Dense classification, segment cells, leaf trees, the crossing scan and
    # multi-megabyte SVGs: the build side of straighten, hullgeom and render.
    Workload("grid_dense", "grid", 120, 3, ("validate", "classify", "disc", "render")),
    # 127 x 127 cross pairs but only a handful of Z-points: the all-pairs work
    # in family and circle dominates, hullgeom and render are almost idle.
    Workload("nested_sparse", "nested", 6, 2, ("validate", "disc", "render")),
    # One pair of 200-gons: Fraction polygon clipping and bignum growth in
    # hullgeom; family is idle.
    Workload("star_polygon", "star", 200, 5, ("render", "equivariance", "quotient_check")),
    # Point queries over a grid: verification cost quadratic in |Z|, the read
    # side of the layers grid_dense builds.
    Workload("grid_verify", "grid", 44, 3, ("equivariance", "quotient_check")),
)}


def build_pair(w: Workload, size: int, seed: int):
    if w.kind == "nested":
        return nested_pair(size, seed)
    base = gen_grid(size) if w.kind == "grid" else gen_star(size)
    return random_circle_map(seed).apply_pair(base)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, sort_keys=True) + "\n")


def write_inputs(w: Workload, size: int, seed: int, directory: str):
    """Generate the pair and write pair.json and map.json; returns the pair."""
    fp = build_pair(w, size, seed)
    _write_json(os.path.join(directory, "pair.json"), fp.to_json())
    _write_json(os.path.join(directory, "map.json"), IDENTITY_MAP)
    return fp


class Expected:
    """What the outputs of one workload input must say."""

    def __init__(self, w: Workload, size: int, fp):
        self.w = w
        self.size = size
        self.n_plus = len(fp.plus)
        self.n_minus = len(fp.minus)
        if w.kind == "grid":
            self.interior = [{"plus": i, "minus": j, "link_number": 2}
                             for i in range(size) for j in range(size)]
            self.boundary = []
        elif w.kind == "star":
            self.interior = [{"plus": 0, "minus": 0, "link_number": size}]
            self.boundary = []
        else:
            # a fresh in-process classification is the oracle for nested pairs
            disc = especial_disc(fp).to_json()
            self.interior = disc["interior"]
            self.boundary = disc["boundary"]


def check_output(command: str, code: int, stdout: bytes, files: dict, exp: Expected,
                 out_prefix: str) -> list:
    """Facts about one command's output; returns a list of problems."""
    if code != 0:
        return ["%s exited with %d" % (command, code)]
    try:
        doc = json.loads(stdout)
    except ValueError:
        return ["%s printed no JSON" % command]
    n_z = len(exp.interior) + len(exp.boundary)
    problems = []

    def want(cond, what):
        if not cond:
            problems.append("%s: %s" % (command, what))

    if command == "validate":
        want(doc == {"ok": True, "plus": exp.n_plus, "minus": exp.n_minus}, "wrong summary")
    elif command == "classify":
        rows = doc.get("pairs", [])
        want(len(rows) == exp.n_plus * exp.n_minus, "wrong row count")
        linked = [r for r in rows if r.get("class") == "linked"]
        want(len(linked) == len(exp.interior), "wrong linked count")
        if exp.w.kind == "grid":
            want(all(r.get("n") == 2 for r in linked), "grid link number not 2")
    elif command == "disc":
        want(doc.get("interior") == exp.interior, "interior differs from the expected Z-points")
        want(doc.get("boundary") == exp.boundary, "boundary differs from the expected Z-points")
    elif command == "render":
        want(doc == {"written": [out_prefix + "-input.svg", out_prefix + "-straightened.svg"]},
             "wrong paths")
        svg_in = files.get("input.svg", b"")
        svg_st = files.get("straightened.svg", b"")
        want(svg_in.count(b'id="cell-') == len(exp.interior), "wrong cell count in input SVG")
        want(svg_st.count(b'id="z-') == n_z, "wrong Z-point count in straightened SVG")
    elif command == "equivariance":
        want(doc.get("ok") is True and doc.get("failures") == [], "identity map not equivariant")
        want(doc.get("plus_permutation") == list(range(exp.n_plus))
             and doc.get("minus_permutation") == list(range(exp.n_minus)),
             "identity map permutes elements")
    elif command == "quotient_check":
        want(doc.get("ok") is True and doc.get("failures") == [], "collapse clauses fail")
        want(doc.get("cells_checked") == len(exp.interior), "wrong cell count")
        if exp.w.kind == "star":
            # two alternating k-gons meet in a 2k-gon: its vertices and barycenter
            want(doc.get("points_sampled") == 2 * exp.size + 1, "star cell is not a 2k-gon")
    return problems
