"""Where the library computes in floats: only where a float cannot decide
anything exact.

Every predicate works on ints and exact rationals. A float may appear only
at the sites listed below, each with the reason it cannot change an exact
answer. The walk finds true division, float() calls, float literals and
the math names that are floats or return them (math.inf, math.sqrt and the
like); sys.hash_info.inf is an int and does not count.
"""

import ast
import os

from childenv import SRC

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
