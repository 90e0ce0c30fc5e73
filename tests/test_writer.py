"""The JSON writer of the command line: json.dumps(obj, sort_keys=True,
indent=2) byte for byte, without the json module's pure-Python encoder."""

import enum
import gc
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from childenv import child_env
from circlink import FamilyPair, gen_grid, gen_star, nested_pair, random_family_pair
from circlink.cli import _dumps, main
from circlink.family import especial_disc
from circlink.generators import random_circle_map
from test_planarity import shared_point_pair


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2)


# quotes, escapes, control characters, a lone surrogate and non-ASCII
TRICKY = st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", " ",
                          "\ud800", "é", "\U0001f600"])
TEXT = st.text(st.characters() | TRICKY)
BIG = 10 ** 4300 - 1        # the longest int str() converts
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(min_value=-BIG, max_value=BIG) | st.sampled_from([BIG, -BIG])
           | st.floats() | st.sampled_from([-0.0, 1e300, float("nan"), float("inf"),
                                            float("-inf")])
           | TEXT)


def values(leaves):
    return st.recursive(
        leaves,
        lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                       | st.dictionaries(TEXT, inner, max_size=5)),
        max_leaves=25)


@settings(max_examples=200)
@given(values(SCALARS))
def test_writes_the_bytes_json_writes(value):
    assert _dumps(value) == oracle(value)


class Opaque:
    pass


@settings(max_examples=150)
@given(values(SCALARS | st.sampled_from([set(), b"x", 1j, Opaque()])))
def test_raises_type_error_wherever_json_does(value):
    try:
        expected = oracle(value)
    except TypeError:
        with pytest.raises(TypeError):
            _dumps(value)
    else:
        assert _dumps(value) == expected


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


class Size(float):
    pass


@pytest.mark.parametrize("value", [
    {}, [], (), [{}, [], ()], {"a": {}, "b": []}, True, False, None, 0, -0.0, "",
    [True, 1, 1.0, False, 0], {"z": 1, "a": 2, "é": 3, "A": 4, "": 5},
    Colour.RED, [Colour.RED], Name("x\n"), {Name("k"): Name("v")}, Size(2.5), [Size(-0.0)],
    [float("nan"), float("inf"), float("-inf")], BIG, -BIG, (1, (2, (3,))),
])
def test_edge_values(value):
    assert _dumps(value) == oracle(value)


def test_refusals():
    # json raises for these too
    for bad in ({1: 2, "a": 3}, [set()], {"a": object()}, {(1, 2): 3}):
        with pytest.raises(TypeError):
            oracle(bad)
        with pytest.raises(TypeError):
            _dumps(bad)
    # str keys only: json would write 1 as "1"; no command emits such a key
    with pytest.raises(TypeError, match="keys must be str"):
        _dumps({1: 2})
    # ints past the conversion limit fail as in json
    for writer in (oracle, _dumps):
        with pytest.raises(ValueError):
            writer([10 ** 4300])


# Every subcommand through cli.main, under cProfile: stdout is json's bytes
# and the json module's encoder never runs.
PROBE = r"""
import cProfile, contextlib, io, json, os, pstats, sys
from circlink import cli, gen_grid

work = sys.argv[1]
pair = os.path.join(work, "pair.json")
identity = os.path.join(work, "map.json")
bad = os.path.join(work, "bad.json")
with open(pair, "w") as fh:
    json.dump(gen_grid(2).to_json(), fh)
with open(identity, "w") as fh:
    json.dump({"m": [["1", "0"], ["0", "1"]]}, fh)
with open(bad, "w") as fh:
    json.dump({"plus": [["0", "1"], ["1", "2"]], "minus": [["3"]]}, fh)
commands = [
    ["validate", pair], ["classify", pair], ["disc", pair],
    ["straighten", pair, "--point", "-13/17,10/17"],
    ["render", pair, "--out", os.path.join(work, "r")],
    ["equivariance", pair, "--map", identity],
    ["gen", "--kind", "symmetric", "--map-out", os.path.join(work, "g.json")],
    ["validate", bad], ["validate", identity],
]
report = []
for argv in commands:
    out = io.StringIO()
    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(out):
        profiler.enable()
        code = cli.main(argv)
        profiler.disable()
    calls = sum(s[1] for f, s in pstats.Stats(profiler).stats.items()
                if f[2] == "_make_iterencode")
    report.append([argv[0], code, calls, out.getvalue()])
with open(os.path.join(work, "g.json")) as fh:
    report.append(["map-out", 0, 0, fh.read()])
print(json.dumps(report))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_commands_never_run_the_json_encoder(tmp_path, flags):
    proc = subprocess.run([sys.executable] + flags + ["-c", PROBE, str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert [code for _, code, _, _ in report] == [0, 0, 0, 0, 0, 0, 0, 1, 2, 0]
    for name, _, calls, text in report:
        assert calls == 0, name
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


def test_leaves_no_garbage_for_the_collector():
    # a command runs with the collector off, so a cycle left by the writer
    # would keep every fragment of the answer until the process exits
    value = {"pairs": [{"plus": i, "minus": [i, None, {"n": 2.5}]} for i in range(50)]}
    # json's own encoder leaves cycles: run it before the first collection
    expected = oracle(value)
    was = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        text = _dumps(value)
        assert gc.collect() == 0
        assert text == expected
    finally:
        if was:
            gc.enable()


# classify and disc spell their row lists from per-shape templates; the
# oracles are the row dicts classify built before and EspecialDisc.to_json

def classify_oracle(fp):
    rows = []
    for i in range(len(fp.plus)):
        for j in range(len(fp.minus)):
            row = {"plus": i, "minus": j}
            if (i, j) in fp.boundary:
                row.update({"class": "intersecting", "point": str(fp.boundary[i, j])})
            elif (i, j) in fp.interior:
                row.update({"class": "linked", "n": fp.interior[i, j]})
            else:
                row["class"] = "unlinked"
            rows.append(row)
    return {"pairs": rows}


def wire(plus, minus, **labels):
    return FamilyPair.from_json(dict(plus=plus, minus=minus, **labels))


CORPORA = {
    "generated": lambda: [gen_grid(4), nested_pair(3, 0), gen_star(7),
                          random_circle_map(0).apply_pair(gen_grid(5))]
                         + [random_family_pair(seed) for seed in range(10)],
    # map images of pairs whose cross pairs share points: boundary rows
    # whose points are negative rationals
    "shared-point": lambda: [random_circle_map(seed).apply_pair(shared_point_pair(seed))
                             for seed in range(30)],
    "inf": lambda: [wire([["-1", "1"]], [["0", "inf"]]),
                    wire([["inf", "1"], ["2", "3"]], [["inf", "5/2"]])],
    # one element each: only linked, only meeting, neither
    "one-element": lambda: [wire([["0", "2"]], [["1", "3"]]), wire([["0", "1"]], [["1", "5"]]),
                            wire([["0"]], [["0"]]), wire([["0", "1"]], [["2", "3"]])],
    "labelled": lambda: [wire([["0", "3"], ["4", "7"]], [["2", "5"], ["1", "6"]],
                              plus_labels=["a", "\u00e9\"<"], minus_labels=["x", "y"])],
}


@pytest.mark.parametrize("corpus", list(CORPORA))
def test_classify_and_disc_write_the_bytes_json_writes(corpus, tmp_path, capsys):
    points, shapes = set(), set()
    for k, fp in enumerate(CORPORA[corpus]()):
        path = tmp_path / ("pair%d.json" % k)
        path.write_text(json.dumps(fp.to_json()), encoding="utf-8")
        for command, answer in (("classify", classify_oracle(fp)),
                                ("disc", especial_disc(fp).to_json())):
            assert main([command, str(path)]) == 0
            assert capsys.readouterr().out == oracle(answer) + "\n", (command, k)
        points.update(str(s) for _, _, s in fp.disc.boundary)
        shapes.add((bool(fp.disc.interior), bool(fp.disc.boundary)))
    # the corpora hold what they are named for
    assert {"shared-point": any(p.startswith("-") for p in points),
            "inf": "inf" in points,
            "one-element": {(True, False), (False, True), (False, False)} <= shapes,
            }.get(corpus, True)


class Writes:
    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)


@pytest.mark.parametrize("command", ["classify", "disc"])
def test_row_lists_stream_in_bounded_chunks(command, tmp_path, monkeypatch):
    # neither one string for the answer nor one write per row: with
    # PYTHONUNBUFFERED=1 each write is a system call
    fp = gen_grid(60)
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(fp.to_json()), encoding="utf-8")
    out = Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([command, str(path)]) == 0
    text = "".join(out.parts)
    answer = classify_oracle(fp) if command == "classify" else especial_disc(fp).to_json()
    assert text == oracle(answer) + "\n"
    assert 2 <= len(out.parts) <= len(fp.plus) + 4
    assert max(map(len, out.parts)) < len(text) // 2
