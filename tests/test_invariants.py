"""Stated invariants are real checks: typed errors that survive python -O.

Each check runs in a fresh interpreter, once normally and once under -O,
which strips assert statements; both runs must raise the same typed error.
The command line answers a violation with JSON and exit code 1. A ratchet lists the asserts left in the library, so none can be added.
"""

import ast
import glob
import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from childenv import SRC, child_env
from circlink import InvariantViolation, PlanePoint, gen_grid, hullgeom, layout
from circlink.cli import main


PRELUDE = """
from circlink import (CircleMap, CircleSet, CirclinkError, ConvexCell, EspecialDisc,
                      FamilyPair, PlanePoint, check_equivariance, hullgeom, point,
                      straighten)
try:
    {call}
except (CirclinkError, ValueError) as exc:
    print(type(exc).__name__, getattr(exc, "invariant", ""), getattr(exc, "counts", ""),
          getattr(exc, "point", ""))
"""

# (check, the call that breaks it, what the run prints)
CHECKS = [
    ("cell-dim0-count", "ConvexCell(0, [PlanePoint(0, 0), PlanePoint(1, 0)])", "ValueError   "),
    ("cell-dim1-count", "ConvexCell(1, [PlanePoint(0, 0), PlanePoint(0, 0)])", "ValueError   "),
    ("cell-dim2-count", "ConvexCell(2, [PlanePoint(0, 0), PlanePoint(1, 0)])", "ValueError   "),
    ("cell-vertex-in-disc", "ConvexCell(1, [PlanePoint(0, 0), PlanePoint(1, 1)])",
     "OutsideDiscError   (1, 1)"),
    # Y = 0 and 2Y + D = 0, the line y = -1/2
    ("parallel-lines", "hullgeom._h_line_cross((0, 1, 0), (0, 2, 1))",
     "InvariantViolation parallel-lines ((0, 1, 0), (0, 2, 1)) "),
    ("plane-apply-in-disc", "CircleMap(2, 1, 1, 1).plane_apply(PlanePoint(1, '1/1000'))",
     "OutsideDiscError   (1, 1/1000)"),
    # an unvalidated pair listing one set twice: both copies map onto the first
    ("permutation-collision",
     "check_equivariance(FamilyPair([CircleSet([0, 3]), CircleSet([0, 3])], "
     "[CircleSet([2, 5])]), CircleMap.identity())",
     "InvariantViolation permutation-collision ('plus', 0, 1, 0) "),
    # (1, 0) is listed as interior and as boundary
    ("duplicate-z-point", "EspecialDisc(2, 1, [(1, 0, 2), (0, 0, 3)], [(1, 0, point(5))])",
     "InvariantViolation duplicate-z-point (1, 0) "),
    # two vertices and no edge: (family, element, edges, vertices)
    ("leaf-tree", "straighten.LeafGraph('plus', 0, ((0, 0), (0, 1)), 0, ())",
     "InvariantViolation leaf-tree ('plus', 0, 0, 2) "),
]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["normal", "optimized"])
@pytest.mark.parametrize("check,call,printed", CHECKS, ids=[c[0] for c in CHECKS])
def test_invariant_is_a_typed_check(check, call, printed, flags):
    env = child_env()
    proc = subprocess.run([sys.executable] + flags + ["-c", PRELUDE.format(call=call)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == printed + "\n"


def test_command_line_answers_a_violation_as_json(monkeypatch, tmp_path, capsys):
    # every barycenter moved to the centre: two Z-points share a position
    monkeypatch.setattr(hullgeom.ConvexCell, "barycenter", lambda cell: PlanePoint(0, 0))
    with pytest.raises(InvariantViolation) as info:
        layout(gen_grid(2))
    assert info.value.invariant == "layout-collision"
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(gen_grid(2).to_json()), encoding="utf-8")
    assert main(["render", str(path), "--out", str(tmp_path / "pic")]) == 1
    # structured JSON, not a traceback, and no picture left behind
    assert json.loads(capsys.readouterr().out) == {
        "error": "InvariantViolation", "message": str(info.value)}
    assert os.listdir(tmp_path) == ["grid.json"]


# (module, enclosing definition) of each assert still allowed in src/
ALLOWED_ASSERTS = Counter()


def _asserts(path) -> list:
    with open(path) as f:
        tree = ast.parse(f.read(), path)
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Assert):
                found.append((os.path.basename(path), ".".join(scope), child.lineno))
            visit(child, scope)

    visit(tree, ())
    return found


def test_no_new_asserts_in_the_library():
    found = [a for path in sorted(glob.glob(os.path.join(SRC, "circlink", "*.py")))
             for a in _asserts(path)]
    extra = Counter((name, scope) for name, scope, _ in found) - ALLOWED_ASSERTS
    assert not extra, "asserts vanish under -O; raise a typed error instead: %s" % [
        a for a in found if (a[0], a[1]) in extra]
