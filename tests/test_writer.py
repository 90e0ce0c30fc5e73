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
from circlink.cli import _dumps


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
