"""The render command streams each picture into its file.

cmd_render hands the write of a temporary file to the private picture
writers, which emit one line per SVG element, and renames the file when the
picture is complete. These tests check that the files are the bytes of the
public render_*_svg strings, that a failure part-way through a picture
leaves neither a partial target nor a temporary file behind, and that the
writer holds less memory than the picture it writes. The cleanup is no
assert in the library, so the module also runs under python -O.
"""

import hashlib
import json
import os
import tracemalloc

import pytest

from circlink import (
    FamilyPair,
    NotInteriorError,
    RenderOptions,
    gen_figure,
    gen_grid,
    gen_star,
    gen_tripod,
    layout,
    nested_pair,
    render_input_svg,
    render_straightened_svg,
    validate,
)
from circlink import render
from circlink.cli import main
from circlink.generators import random_circle_map
from circlink.render import _write_input, _write_straightened

FIXTURES = {
    "tripod": gen_tripod,
    "figure": gen_figure,
    "grid-image": lambda: random_circle_map(0).apply_pair(gen_grid(5)),
    "star-image": lambda: random_circle_map(1).apply_pair(gen_star(7)),
    "nested": lambda: nested_pair(3, 0),
}


def write_fixture(tmp_path, fp):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(fp.to_json()), encoding="utf-8")
    return str(path)


def render_files(tmp_path, capsys, pair_path, *flags):
    prefix = str(tmp_path / "pic")
    code = main(["render", pair_path, "--out", prefix, *flags])
    return code, json.loads(capsys.readouterr().out), prefix


def leftovers(directory):
    return sorted(n for n in os.listdir(directory) if n.startswith(".circlink-"))


# ── byte identity ────────────────────────────────────────────────────────

@pytest.mark.parametrize("labels", [False, True], ids=["plain", "labels"])
@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_streamed_files_are_the_library_strings(tmp_path, capsys, name, labels):
    pair_path = write_fixture(tmp_path, FIXTURES[name]())
    code, out, prefix = render_files(tmp_path, capsys, pair_path,
                                     *(["--labels"] if labels else []))
    assert code == 0
    assert out == {"written": [prefix + "-input.svg", prefix + "-straightened.svg"]}
    fp = FamilyPair.from_json(json.loads(open(pair_path, encoding="utf-8").read()))
    opts = RenderOptions(labels=labels)
    with open(prefix + "-input.svg", "rb") as fh:
        assert fh.read() == render_input_svg(fp, opts).encode("utf-8")
    with open(prefix + "-straightened.svg", "rb") as fh:
        assert fh.read() == render_straightened_svg(layout(fp), opts).encode("utf-8")
    assert leftovers(tmp_path) == []


def test_streamed_files_follow_the_size_flags(tmp_path, capsys):
    fp = FIXTURES["grid-image"]()
    code, _, prefix = render_files(tmp_path, capsys, write_fixture(tmp_path, fp),
                                   "--width", "333", "--height", "901", "--labels")
    assert code == 0
    opts = RenderOptions(width=333, height=901, labels=True)
    with open(prefix + "-input.svg", "rb") as fh:
        assert fh.read() == render_input_svg(fp, opts).encode("utf-8")
    with open(prefix + "-straightened.svg", "rb") as fh:
        assert fh.read() == render_straightened_svg(layout(fp), opts).encode("utf-8")


# SHA-256 of the input and straightened pictures rendered with --labels, by
# pair and size flags.
# The anchored pair's layout has a segment cell (0, 0), a point cell (1, 2),
# a boundary anchor (1, 1) and a virtual vertex on plus 1, so these pin the
# segment stroke, the dot radii and every colour as well as the labels
PINNED = {
    ("tripod", "default"): [
        "8d499507a6bc74952547b6fd37f67005666c1f6fe38e153d1ace11aedd57b376",
        "13361344f1ea09aba466b4508366a84bc4ea98ece910b0d61d958bb5e9c30aee"],
    ("tripod", "333x901"): [
        "49765b62aca2e6f9ceddbdeb9f36ab2f26e1ecf897af3d8506d33e7b2875f34b",
        "3635808275ceabb06ebe8b9fbcddf3e7327151d2909f9bed8ccb1c4182394ca8"],
    ("anchored", "default"): [
        "cdc1c480f90eb4c6a8b3e293c50639930499b45216df45653b65a085692a2e42",
        "c76020f92147a9a3cdcef9e40d3b5012154771a2d72806a17af4c98bbc633d4a"],
    ("anchored", "333x901"): [
        "c27e722c6cc9aa21c4d2a43d327568258a8a85a71641cf02eda1503724e8c0be",
        "2e2b6f3cbc3ae4d90fceaf54b87e1f72249b07dd974f9a67b1365eb40c2768ba"],
}

PINNED_PAIRS = {
    "tripod": gen_tripod,
    "anchored": lambda: validate([[0, 4], [9, 11]], [[1, 3, 5, 7], [11, 13], [10, 20]]),
}


SIZE_FLAGS = {"default": (), "333x901": ("--width", "333", "--height", "901")}


@pytest.mark.parametrize("name,size", sorted(PINNED))
def test_labelled_render_bytes(tmp_path, capsys, name, size):
    pair_path = write_fixture(tmp_path, PINNED_PAIRS[name]())
    code, _, prefix = render_files(tmp_path, capsys, pair_path, "--labels", *SIZE_FLAGS[size])
    assert code == 0
    digests = [hashlib.sha256(open(prefix + suffix, "rb").read()).hexdigest()
               for suffix in ("-input.svg", "-straightened.svg")]
    assert digests == PINNED[(name, size)]


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_writers_hand_over_one_line_per_element(name):
    fp = FIXTURES[name]()
    sd = layout(fp)
    opts = RenderOptions(labels=True)
    for writer, subject, whole in ((_write_input, fp, render_input_svg(fp, opts)),
                                   (_write_straightened, sd, render_straightened_svg(sd, opts))):
        lines = []
        writer(subject, opts, lines.append)
        assert "".join(lines) == whole
        assert lines[0].startswith("<svg ") and lines[-1] == "</svg>\n"
        for line in lines:
            assert line.startswith("<") and line.endswith(">\n")
            assert line.count("\n") == 1


# ── atomicity after a failure part-way through a picture ─────────────────

@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "overwrite"])
def test_failure_mid_picture_leaves_no_partial_file(tmp_path, capsys, monkeypatch, existing):
    fp = random_circle_map(0).apply_pair(gen_grid(12))
    pair_path = write_fixture(tmp_path, fp)
    straight = tmp_path / "pic-straightened.svg"
    if existing:
        straight.write_bytes(b"<svg>old picture</svg>\n")

    # _fmt is called once per new number; fail the straightened picture
    # near its end, well after its first lines have reached the file
    counted = []
    real = render._fmt
    monkeypatch.setattr(render, "_fmt", lambda v: counted.append(v) or real(v))
    render_input_svg(fp)
    input_calls = len(counted)
    render_straightened_svg(layout(fp))
    fail_at = input_calls + (len(counted) - input_calls) * 9 // 10
    error = NotInteriorError((7, 7))
    seen = {}

    def failing(v):
        counted.append(v)
        if len(counted) == fail_at:
            seen["temporary"] = [os.path.getsize(tmp_path / n) for n in leftovers(tmp_path)]
            raise error
        return real(v)

    counted.clear()
    monkeypatch.setattr(render, "_fmt", failing)
    code, out, prefix = render_files(tmp_path, capsys, pair_path)

    assert code == 1
    assert out == {"error": "NotInteriorError", "message": str(error)}
    # the straightened picture was being written to disk when it failed
    assert len(seen["temporary"]) == 1 and seen["temporary"][0] > 0
    assert leftovers(tmp_path) == []
    if existing:
        assert straight.read_bytes() == b"<svg>old picture</svg>\n"
    else:
        assert not straight.exists()
    # the input picture was complete before the failure and stays written
    with open(prefix + "-input.svg", "rb") as fh:
        assert fh.read() == render_input_svg(fp).encode("utf-8")


def test_failure_in_the_first_picture_writes_neither(tmp_path, capsys, monkeypatch):
    fp = FIXTURES["grid-image"]()
    pair_path = write_fixture(tmp_path, fp)
    calls = []

    def failing(v):
        calls.append(v)
        if len(calls) == 5:
            raise NotInteriorError((0, 0))
        return "%.12g" % v

    monkeypatch.setattr(render, "_fmt", failing)
    code, out, _ = render_files(tmp_path, capsys, pair_path)
    assert code == 1
    assert out["error"] == "NotInteriorError"
    assert sorted(os.listdir(tmp_path)) == ["pair.json"]


# ── memory ───────────────────────────────────────────────────────────────

def test_straightened_writer_holds_less_than_the_picture():
    # n = 120: on smaller grids the per-point pixel cache dominates the peak
    # whichever way the picture is emitted
    sd = layout(random_circle_map(0).apply_pair(gen_grid(120)))
    size = 0

    def count(line):
        nonlocal size
        size += len(line.encode("utf-8"))

    tracemalloc.start()
    try:
        _write_straightened(sd, RenderOptions(), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 4_000_000
    assert peak < 1.5 * size, (peak, size)
