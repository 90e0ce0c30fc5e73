"""The JSON writer of the command line: json.dumps(obj, sort_keys=True,
indent=2) byte for byte. json.dumps writes every answer but classify's and
disc's row lists, which cli._stream spells from per-shape templates without
the json module's pure-Python encoder and cli._write writes in bounded
chunks."""

import enum
import json
import subprocess
import sys

import pytest

from childenv import child_env
from circlink import FamilyPair, gen_grid, gen_star, nested_pair, random_family_pair
from circlink import cli
from circlink.cli import _emit, main
from circlink.family import especial_disc
from circlink.generators import random_circle_map
from test_planarity import shared_point_pair


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2)


class Writes:
    def __init__(self):
        self.parts = []

    def write(self, text):
        self.parts.append(text)
        return len(text)


class Colour(enum.IntEnum):
    RED = 1


class Name(str):
    pass


class Size(float):
    pass


BIG = 10 ** 4300 - 1        # the longest int str() converts


@pytest.mark.parametrize("value", [
    {}, [], (), [{}, [], ()], {"a": {}, "b": []}, True, False, None, 0, -0.0, "",
    [True, 1, 1.0, False, 0], {"z": 1, "a": 2, "é": 3, "A": 4, "": 5},
    Colour.RED, [Colour.RED], Name("x\n"), {Name("k"): Name("v")}, Size(2.5), [Size(-0.0)],
    [float("nan"), float("inf"), float("-inf")], BIG, -BIG, (1, (2, (3,))),
])
def test_edge_values(value, monkeypatch):
    # an answer and its newline go out in one write: with
    # PYTHONUNBUFFERED=1 each write is a system call
    out = Writes()
    monkeypatch.setattr(sys, "stdout", out)
    _emit(value)
    assert out.parts == [oracle(value) + "\n"]


# Every subcommand through cli.main, under cProfile: stdout is json's bytes,
# and classify's and disc's row lists never fall back to the json module's
# pure-Python encoder. The other answers go through json.dumps, which runs
# that encoder on CPython 3.10 to 3.12 and not on 3.13.
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
        if name in ("classify", "disc"):
            assert calls == 0, name
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", name


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


def pieces(text):
    """The pieces of a row list answer in text: a row but the first of its
    list (which goes with its key), a key, a list's close and the answer's."""
    return (text.count("\n    {") - text.count("[\n    {") + text.count('\n  "')
            + text.count("\n  ]") + text.count("\n}\n"))


# a grid, whose disc has an empty boundary list; a pair whose cross pairs
# share points; a pair with no linked or meeting pair, whose disc lists
# are both empty
SMALL_CHUNKS = {"grid": lambda: gen_grid(6),
                "shared-point": lambda: random_circle_map(0).apply_pair(shared_point_pair(1)),
                "apart": lambda: wire([["0", "1"]], [["2", "3"]])}


@pytest.mark.parametrize("name", sorted(SMALL_CHUNKS))
@pytest.mark.parametrize("command", ["classify", "disc"])
def test_row_lists_go_out_in_whole_rows_chunk_pieces_a_write(command, name, tmp_path,
                                                               monkeypatch):
    fp = SMALL_CHUNKS[name]()
    assert bool(fp.disc.boundary) == (name == "shared-point")
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(fp.to_json()), encoding="utf-8")
    monkeypatch.setattr(cli, "_CHUNK", 7)
    out = Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert main([command, str(path)]) == 0
    answer = classify_oracle(fp) if command == "classify" else especial_disc(fp).to_json()
    assert "".join(out.parts) == oracle(answer) + "\n"
    for k, part in enumerate(out.parts):
        # each write starts and ends between rows, with 7 pieces but the last
        assert part.startswith(("{\n", ",\n", "\n  ]", "\n}"))
        assert part.endswith(("}", "]", "\n")) or part[-1].isdigit()
        assert pieces(part) == 7 if k < len(out.parts) - 1 else 0 < pieces(part) <= 7
