"""Where the library computes in floats: only where a float cannot decide
anything exact.

Every predicate works on ints and exact rationals. A float may appear only
at the sites listed below, each with the reason it cannot change an exact
answer. The walk finds true division, float() calls, float literals and
the math names that are floats or return them (math.inf, math.sqrt and the
like); sys.hash_info.inf is an int and does not count.

The float-blind runs then take the one float that orders anything,
circle._approx, away: patched to a constant, every point ties and the exact
sort orders them all; patched to a coarse key that keeps the order, both the
float order and the exact tie-break run. Every command's answer, the
quotient check and both pictures must stay the same bytes.
"""

import ast
import json
import math
import os
from fractions import Fraction

import pytest

from childenv import SRC
from circlink import CirclinkError, FamilyPair, quotient_check
from circlink import circle
from circlink.cli import main
from test_locate import drawn_pair
from test_planarity import shared_point_pair

# the math functions that return ints
INT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "trunc"}

# (module, enclosing function or class scope) -> why a float is harmless there
ALLOWED = {
    ("circle", "_approx"):
        "rank_table's sort key: correctly rounded, so ties are re-sorted exactly",
    ("render", "<module>"):
        "the fixed stroke widths, radii and opacity, formatted once",
    ("render", "RenderOptions.__post_init__"):
        "refuses a size no float holds, since the picture is drawn in floats",
    ("render", "_Canvas.__init__"):
        "the picture's centre and radius in pixels, for presentation only",
    ("render", "_Canvas.xy"):
        "pixel coordinates of an exact point, for presentation only",
}


def _float_sites(tree):
    """The scopes of tree holding a float operation, with the line of each."""
    from_math = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            from_math |= {a.asname or a.name for a in node.names if a.name not in INT_MATH}
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name if scope == "<module>" else scope + "." + node.name
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append((scope, node.lineno, "true division"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            sites.append((scope, node.lineno, "float()"))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            sites.append((scope, node.lineno, "float literal"))
        elif (isinstance(node, ast.Name) and node.id in from_math
              or isinstance(node, ast.Attribute) and node.attr not in INT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            sites.append((scope, node.lineno, "math float"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return sites


def _sources():
    package = os.path.join(SRC, "circlink")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name[:-3], ast.parse(fh.read())


def test_every_float_site_is_allowed():
    found = {}
    for module, tree in _sources():
        for scope, line, what in _float_sites(tree):
            found.setdefault((module, scope), []).append("%s.py:%d %s" % (module, line, what))
    unlisted = {key: sites for key, sites in found.items() if key not in ALLOWED}
    assert unlisted == {}
    # an entry whose floats are gone is dropped from the list
    assert sorted(found) == sorted(ALLOWED)


def test_the_walk_sees_each_kind_and_not_the_hash_inf():
    tree = ast.parse("import math, sys\n"
                     "from math import gcd, inf as big\n"
                     "X = sys.hash_info.inf\n"
                     "def f(a, b):\n"
                     "    a /= b\n"
                     "    return a // b, float(a), 0.5, big, math.inf, a / b, gcd(a, b)\n"
                     "def g(a):\n"
                     "    return math.isqrt(a), math.sqrt(a)\n")
    assert sorted(what for _, _, what in _float_sites(tree)) == [
        "float literal", "float()", "math float", "math float", "math float",
        "true division", "true division"]
    assert {scope for scope, _, _ in _float_sites(tree)} == {"f", "g"}


# ── float-blind runs ─────────────────────────────────────────────────────

def constant_key(key):
    return 0.0


def coarse_key(key):
    # floor(num / (4 den)), exact and monotone in num / den, so runs of
    # points tie; INF sorts last, as _approx sorts it
    num, den = key
    return num // (4 * den) if den else math.inf


BLIND_CORPUS = {
    kind: [lambda kind=kind, seed=seed: drawn_pair(kind, seed) for seed in range(10)]
    for kind in ("grid", "star", "nested", "random", "bignum")}
BLIND_CORPUS["shared-point"] = [lambda seed=seed: shared_point_pair(seed) for seed in range(50)]

IDENTITY_MAP = {"m": [["1", "0"], ["0", "1"]]}


def answers(tmp_path, capsys, fp):
    """Every command's exit code and stdout on fp, its quotient check and
    its two pictures, each pair read from its file afresh."""
    pair = str(tmp_path / "pair.json")
    with open(pair, "w", encoding="utf-8") as fh:
        json.dump(fp.to_json(), fh)
    identity = str(tmp_path / "map.json")
    with open(identity, "w", encoding="utf-8") as fh:
        json.dump(IDENTITY_MAP, fh)
    prefix = str(tmp_path / "pic")
    found = {}
    for args in (["validate", pair], ["classify", pair], ["disc", pair],
                 ["equivariance", pair, "--map", identity],
                 ["straighten", pair, "--point", "0,0"],
                 ["straighten", pair, "--point", "-1/3,2/7"],
                 ["render", pair, "--out", prefix, "--labels"]):
        code = main(args)
        found[" ".join(args[:1] + args[2:])] = (code, capsys.readouterr().out)
    for suffix in ("-input.svg", "-straightened.svg"):
        if os.path.exists(prefix + suffix):
            with open(prefix + suffix, "rb") as fh:
                found[suffix] = fh.read()
            os.unlink(prefix + suffix)
    try:
        with open(pair, encoding="utf-8") as fh:
            found["quotient_check"] = quotient_check(FamilyPair.from_json(json.load(fh))).to_json()
    except CirclinkError as exc:
        found["quotient_check"] = (type(exc).__name__, str(exc))
    return found


def test_the_coarse_key_keeps_the_order_and_ties():
    keys = {(p.num, p.den) for builds in BLIND_CORPUS.values() for build in builds
            for p in build().points}
    exact = sorted(keys, key=lambda k: (not k[1], Fraction(k[0], k[1] or 1)))
    coarse = [coarse_key(k) for k in exact]
    assert coarse == sorted(coarse)
    # most points share their key with another
    assert len(set(coarse)) < len(keys) / 2, (len(set(coarse)), len(keys))


@pytest.mark.parametrize("name", sorted(BLIND_CORPUS))
def test_blind_floats_change_no_answer(tmp_path, capsys, monkeypatch, name):
    for build in BLIND_CORPUS[name]:
        fp = build()
        exact = answers(tmp_path, capsys, fp)
        assert "-straightened.svg" in exact or name == "shared-point"
        for key in (constant_key, coarse_key):
            with monkeypatch.context() as patch:
                patch.setattr(circle, "_approx", key)
                assert answers(tmp_path, capsys, fp) == exact, key.__name__
