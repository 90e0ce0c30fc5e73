"""What a process loads: the lazy package namespace and per-command imports."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import circlink
from childenv import SRC, child_env
from circlink import nested_pair


# Imported by no command: dataclasses pulls in inspect, ast, dis and
# tokenize; render escapes text itself instead of importing html, and the
# file writers open their temporary files without tempfile; fractions, which
# loads decimal, is imported only where a caller hands the library a
# Fraction or other non-integer, or where one is read back (CirclePoint.frac,
# PlanePoint.x and .y), never to read a number on the wire, decimals
# included. typing is not needed either: the annotations are strings,
# written with | and collections.abc.
HEAVY = ("dataclasses", "inspect", "html", "tempfile", "fractions", "decimal", "typing")


def _fresh(code, *args):
    """Run code in a fresh `python -S` process (no site hooks preloading
    modules) and return the JSON on its last stdout line."""
    proc = subprocess.run([sys.executable, "-S", "-c", code] + list(args),
                          capture_output=True, text=True, timeout=60,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


REPORT = ("import json, sys; print(json.dumps("
          "[sorted(m for m in sys.modules if m.split('.')[0] == 'circlink'), "
          "sorted(m for m in %r if m in sys.modules)]))" % (HEAVY,))


# The circlink modules each command loads: the read commands' set and what
# the others add to it. No command loads analysis, and only render loads svg
READ = ("circle", "cli", "errors", "family", "render")
LOADS = {
    "render": READ + ("hullgeom", "straighten", "svg"),
    "equivariance": READ + ("hullgeom", "straighten", "symmetry"),
    "straighten": READ + ("hullgeom", "straighten"),
    # generators imports symmetry at module level
    "gen": READ + ("generators", "hullgeom", "straighten", "symmetry"),
    # as bench/qcheck.py runs it, with no command line
    "quotient_check": ("circle", "errors", "family", "hullgeom", "straighten"),
}


def _modules(names):
    return sorted(["circlink"] + ["circlink." + name for name in names])


def test_read_commands_load_only_their_modules(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(nested_pair(3, 0).to_json()), encoding="utf-8")
    code = ("import sys\n"
            "from circlink import cli\n"
            "for cmd in ('validate', 'classify', 'disc'):\n"
            "    assert cli.main([cmd, sys.argv[1]]) == 0, cmd\n" + REPORT)
    loaded, heavy = _fresh(code, str(path))
    assert loaded == ["circlink", "circlink.circle", "circlink.cli", "circlink.errors",
                      "circlink.family", "circlink.render"]
    assert loaded == _modules(READ)
    assert heavy == []


@pytest.mark.parametrize("command", ["render", "equivariance", "equivariance-decimal", "straighten",
                                     "straighten-decimal", "straighten-outside", "gen",
                                     "quotient_check"])
def test_commands_load_no_heavy_module(tmp_path, command):
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps(nested_pair(3, 0).to_json()), encoding="utf-8")
    # the identity, spelled with unreduced fractions
    identity = tmp_path / "map.json"
    identity.write_text('{"m": [["1/2", "0"], ["0", "2/4"]]}', encoding="utf-8")
    decimal = tmp_path / "decimal.json"
    decimal.write_text('{"m": [["0.5", "0"], ["0", "1/2"]]}', encoding="utf-8")
    # command: (expected exit code, argv)
    argv = {
        "render": (0, ["render", str(pair), "--out", str(tmp_path / "pic")]),
        "equivariance": (0, ["equivariance", str(pair), "--map", str(identity)]),
        "equivariance-decimal": (0, ["equivariance", str(pair), "--map", str(decimal)]),
        "straighten": (0, ["straighten", str(pair), "--point", "-1/3,1/4"]),
        "straighten-decimal": (0, ["straighten", str(pair), "--point", "-.5,0.25"]),
        # the error message spells the point without fractions
        "straighten-outside": (1, ["straighten", str(pair), "--point", "2,0"]),
        "gen": (0, ["gen", "--kind", "nested", "--depth", "3"]),
    }
    if command == "quotient_check":
        # as bench/qcheck.py runs it, with no subcommand
        code = ("import json, sys\n"
                "from circlink import straighten\n"
                "from circlink.family import FamilyPair\n"
                "with open(sys.argv[1], encoding='utf-8') as fh:\n"
                "    assert straighten.quotient_check(FamilyPair.from_json(json.load(fh))).ok\n"
                + REPORT)
        loaded, heavy = _fresh(code, str(pair))
    else:
        expected, args = argv[command]
        code = ("import sys\nfrom circlink import cli\n"
                "assert cli.main(sys.argv[2:]) == int(sys.argv[1])\n" + REPORT)
        loaded, heavy = _fresh(code, str(expected), *args)
    assert loaded == _modules(LOADS[command.split("-")[0]])
    assert heavy == []


def test_package_import_loads_no_submodule():
    loaded, heavy = _fresh("import circlink\n" + REPORT)
    assert loaded == ["circlink"]
    assert heavy == []


def test_submodule_import_loads_only_its_dependencies():
    loaded, _ = _fresh("from circlink import straighten\n" + REPORT)
    assert "circlink.straighten" in loaded
    for name in ("symmetry", "render", "generators", "cli"):
        assert "circlink." + name not in loaded


def test_no_source_file_imports_dataclasses():
    package = os.path.join(SRC, "circlink")
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert all(a.name != "dataclasses" for a in node.names), name
            elif isinstance(node, ast.ImportFrom):
                assert node.module != "dataclasses", name


def test_value_classes_declare_only_their_fields():
    # Frozen writes __init__, __eq__ and __hash__ and gives the repr; a value
    # class adds at most a __post_init__ check. README lists every value class
    package = os.path.join(SRC, "circlink")
    post_init = []
    values = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ClassDef)
                    and any(isinstance(b, ast.Name) and b.id == "Frozen" for b in node.bases)):
                continue
            values.append(node.name)
            methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
            assert not methods & {"__init__", "__eq__", "__hash__", "__repr__"}, node.name
            if "__post_init__" in methods:
                post_init.append(node.name)
    with open(os.path.join(SRC, os.pardir, "README.md"), encoding="utf-8") as fh:
        listed = re.search(r"The value classes \(([^)]*)\)", fh.read()).group(1)
    assert sorted(values) == sorted(re.findall(r"`(\w+)`", listed))
    assert post_init == ["EspecialDisc", "RenderOptions", "LeafGraph"]


def test_value_contract_holds_under_optimize():
    # the generated methods keep the dataclass contract with asserts stripped
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           os.path.join(tests, "test_values.py")],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    assert proc.returncode == 0, proc.stdout + proc.stderr


# ── the lazy namespace ───────────────────────────────────────────────────

def test_every_exported_name_is_its_defining_object():
    for name in circlink.__all__:
        if name == "__version__":
            continue
        obj = getattr(circlink, name)
        module = importlib.import_module(obj.__module__)
        assert module.__name__.startswith("circlink."), name
        assert getattr(module, name) is obj, name


def test_dir_covers_all_names_and_submodules():
    # in a fresh process, before any name has been read and cached
    listed, loaded = _fresh(
        "import json, sys, circlink\n"
        "print(json.dumps([dir(circlink), sorted(m for m in sys.modules if 'circlink' in m)]))")
    assert set(circlink.__all__) <= set(listed)
    assert {"circle", "family", "render", "straighten", "symmetry"} <= set(listed)
    assert loaded == ["circlink"]


def test_star_import_binds_every_name():
    ns = {}
    exec("from circlink import *", ns)
    for name in circlink.__all__:
        assert ns[name] is getattr(circlink, name), name


def test_submodules_resolve_as_attributes_and_by_from_import():
    from circlink import hullgeom

    assert hullgeom is sys.modules["circlink.hullgeom"]
    loaded, _ = _fresh("import circlink\n"
                       "assert circlink.symmetry.CircleMap is circlink.CircleMap\n" + REPORT)
    assert "circlink.symmetry" in loaded


def test_unknown_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        circlink.no_such_name
    with pytest.raises(ImportError):
        exec("from circlink import no_such_name", {})


# ── names defined where no command loads them ────────────────────────────

# old module -> the names it resolves from the module that now defines them
MOVED = {
    "family": ("analysis", (
        "IntersectingAt", "DisjointUnlinked", "DisjointLinked", "PairClass", "classify_pair",
        "fiber_plus", "fiber_minus", "prong_count", "separation_interval", "NestingEntry",
        "NestingReport", "nesting_report")),
    "hullgeom": ("analysis", (
        "cell_intersection", "_clip", "_seg_seg", "_cell_from_h", "_cell_contains_h",
        "_h_between")),
    "render": ("svg", (
        "_fmt", "_Canvas", "_cell_line", "_text_line", "_input_lines", "_straightened_lines")),
}


@pytest.mark.parametrize("old", sorted(MOVED))
def test_moved_names_resolve_at_their_old_path(old):
    new, names = MOVED[old]
    defining = importlib.import_module("circlink." + new)
    for name in names:
        ns = {}
        exec("from circlink.%s import %s" % (old, name), ns)
        assert ns[name] is defining.__dict__[name], name
        assert getattr(importlib.import_module("circlink." + old), name) is ns[name], name


@pytest.mark.parametrize("old", ["family", "hullgeom"])
def test_star_imports_bind_the_moved_names(old):
    from circlink import analysis

    public = [name for name in MOVED[old][1] if name in circlink.__all__]
    assert public
    for source in ("circlink", "circlink." + old):
        ns = {}
        exec("from %s import *" % source, ns)
        for name in public:
            assert ns[name] is analysis.__dict__[name], (source, name)
            assert getattr(circlink, name) is ns[name], name


def test_moved_names_load_only_their_module():
    loaded, _ = _fresh("from circlink.family import nesting_report\n" + REPORT)
    assert loaded == _modules(("analysis", "circle", "errors", "family", "hullgeom"))
    loaded, _ = _fresh("from circlink.render import _Canvas\n" + REPORT)
    assert loaded == _modules(("errors", "render", "svg"))


def test_dir_lists_the_moved_names_without_loading_them():
    listed, loaded = _fresh(
        "import json, sys\n"
        "from circlink import family, hullgeom, render\n"
        "print(json.dumps([dir(family) + dir(hullgeom) + dir(render),\n"
        "                  sorted(m for m in sys.modules if m.startswith('circlink'))]))")
    for _, names in MOVED.values():
        assert set(names) <= set(listed)
    assert loaded == _modules(("circle", "errors", "family", "hullgeom", "render"))


def test_moved_values_pickle():
    import pickle

    from circlink.family import IntersectingAt, nesting_report

    for value in (IntersectingAt(circlink.point("1/3")), nesting_report(nested_pair(3, 0))):
        clone = pickle.loads(pickle.dumps(value))
        assert clone == value and type(clone) is type(value)
        assert type(clone).__module__ == "circlink.analysis"


@pytest.mark.parametrize("old", sorted(MOVED))
def test_unknown_name_on_a_module_with_moved_names_raises(old):
    module = importlib.import_module("circlink." + old)
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from circlink.%s import no_such_name" % old, {})
