"""The process entry: the frozen heap, a closed stdout, one entry function."""

import gc
import importlib
import json
import os
import re
import runpy
import subprocess
import sys

import pytest

from childenv import child_env
from circlink import (
    CircleMap,
    FamilyPair,
    check_equivariance,
    cli,
    especial_disc,
    gen_grid,
    layout,
    nested_pair,
    nesting_report,
    prong_count,
    quotient_check,
    render_input_svg,
    render_straightened_svg,
    separation_interval,
    straighten_point,
    validate,
)
from circlink.generators import random_circle_map

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = child_env()
SVGS = ("pic-input.svg", "pic-straightened.svg")


def _write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@pytest.fixture
def files(tmp_path):
    return {"pair": _write(tmp_path / "pair.json", nested_pair(3, 0).to_json()),
            "map": _write(tmp_path / "map.json", {"m": [["1", "0"], ["0", "1"]]}),
            "out": str(tmp_path / "pic")}


def test_main_leaves_the_heap_unfrozen(files, capsys):
    before = gc.get_freeze_count()
    assert cli.main(["render", files["pair"], "--out", files["out"]]) == 0
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_main_leaves_the_collector_as_it_found_it(files, capsys, enabled):
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv in (["render", files["pair"], "--out", files["out"]],
                     ["validate", files["map"]]):
            cli.main(argv)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_run_freezes_the_heap_and_returns_mains_code(files):
    # run also turns the cyclic collector off before main, and leaves it off
    code = ("import gc, sys\n"
            "from circlink import cli\n"
            "real, during = cli.main, []\n"
            "cli.main = lambda: during.append(gc.isenabled()) or real()\n"
            "code = cli.run()\n"
            "sys.stderr.write('%d %s %s %s' % (code, during, gc.isenabled(),\n"
            "                                  gc.get_freeze_count() > 0))\n")
    for argv, expected in ((["validate", files["pair"]], "0 [False] False True"),
                           (["validate", files["map"]], "2 [False] False True")):
        proc = subprocess.run([sys.executable, "-c", code] + argv, capture_output=True,
                              text=True, env=ENV, timeout=60)
        assert proc.stderr == expected


def test_main_leaves_garbage_that_does_not_grow_with_the_answer(tmp_path, capsys):
    # with the collector off, what a command leaves in a cycle stays until
    # the process exits. The parser is built once per process, classify's
    # and disc's streamed rows sit in no cycle, and json.dumps leaves a fixed
    # number of objects (its pure-Python encoder on CPython 3.10 to 3.12)
    paths = {"small": _write(tmp_path / "small.json", nested_pair(2, 0).to_json()),
             "large": _write(tmp_path / "large.json", gen_grid(44).to_json())}
    was = gc.isenabled()
    gc.disable()
    left = {}
    try:
        for command in ("classify", "disc", "validate"):
            for size, path in paths.items():
                # a first call may import modules and fill caches
                assert cli.main([command, path]) == 0
                gc.collect()
                assert cli.main([command, path]) == 0
                left[command, size] = gc.collect()
    finally:
        if was:
            gc.enable()
    capsys.readouterr()
    for command in ("classify", "disc"):
        assert left[command, "small"] == left[command, "large"] == 0, command
    assert left["validate", "small"] == left["validate", "large"]


GRID = gen_grid(6)
BUILDS = {
    "validate": lambda: validate(GRID.plus, GRID.minus),
    "from_json": lambda: FamilyPair.from_json(GRID.to_json()),
    "apply_pair": lambda: random_circle_map(0).apply_pair(GRID),
}
STAGES = (
    ("especial_disc", especial_disc),
    ("cells", lambda fp: fp.cells()),
    ("layout", layout),
    ("quotient_check", lambda fp: quotient_check(fp).ok),
    ("check_equivariance", lambda fp: check_equivariance(fp, CircleMap(1, 0, 0, 1)).ok),
    ("render_input_svg", render_input_svg),
    ("render_straightened_svg", lambda fp: render_straightened_svg(layout(fp))),
    ("straighten_point",
     lambda fp: [straighten_point(fp, cell.barycenter()) for cell in fp.cells().values()]),
    ("nesting_report", nesting_report),
    ("prong_count", lambda fp: [prong_count(fp, z) for z in fp.interior]),
    ("separation_interval", lambda fp: separation_interval(fp, "plus", 0, len(fp.plus) - 1)),
)


@pytest.mark.parametrize("build", list(BUILDS))
def test_a_dropped_pair_leaves_no_garbage_for_the_collector(build):
    # a command runs with the collector off, so a pair that sat in a cycle
    # would hold its disc, cells and leaves until the process exits. No
    # stage may leave garbage while the pair lives (check_equivariance
    # builds and drops an image pair), and the pair, dropped after every
    # stage has filled its caches, must be freed by reference counts alone
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        fp = BUILDS[build]()
        assert gc.collect() == 0, build
        for name, stage in STAGES:
            assert stage(fp) is not False, name
            assert gc.collect() == 0, name
        del fp
        assert gc.collect() == 0, build
    finally:
        if was:
            gc.enable()


@pytest.mark.parametrize("fixture", ["grid6", "nested3"])
def test_a_process_writes_the_bytes_of_main(fixture, tmp_path, capsys, monkeypatch):
    # the heap is frozen after main returns, so a file still open then would
    # lose its unflushed tail: every file must be closed inside main
    fp = gen_grid(6) if fixture == "grid6" else nested_pair(3, 0)
    _write(tmp_path / "pair.json", fp.to_json())
    argv = ["render", "pair.json", "--out", "pic", "--labels"]
    proc = subprocess.run([sys.executable, "-m", "circlink"] + argv, capture_output=True,
                          cwd=tmp_path, env=ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    written = {name: (tmp_path / name).read_bytes() for name in SVGS}
    for name in SVGS:
        (tmp_path / name).unlink()
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.encode("utf-8") == proc.stdout
    assert {name: (tmp_path / name).read_bytes() for name in SVGS} == written


@pytest.mark.parametrize("read", [16, 0])
def test_a_closed_stdout_ends_quietly(tmp_path, read):
    # classify's answer for grid(60) far exceeds a pipe's buffer, so the
    # process is still writing when the reader closes the pipe after 16
    # bytes; validate's short answer meets a pipe closed before it starts
    if read:
        argv = ["classify", _write(tmp_path / "grid.json", gen_grid(60).to_json())]
    else:
        argv = ["validate", _write(tmp_path / "pair.json", nested_pair(3, 0).to_json())]
    proc = subprocess.Popen([sys.executable, "-m", "circlink"] + argv,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=ENV)
    head = proc.stdout.read(read)
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert head == b'{\n  "pairs": [\n '[:read]
    assert (proc.returncode, err) == (1, b"")


def test_module_and_console_script_run_one_function(monkeypatch):
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as fh:
        scripts = fh.read().split("[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    module, name = re.search(r'^circlink = "([\w.]+):(\w+)"$', scripts, re.M).groups()
    assert getattr(importlib.import_module(module), name) is cli.run
    called = []
    monkeypatch.setattr(cli, "run", lambda: called.append(True) or 7)
    with pytest.raises(SystemExit) as info:
        runpy.run_module("circlink", run_name="__main__")
    assert (info.value.code, called) == (7, [True])
