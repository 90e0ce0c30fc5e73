"""The render command streams each picture into its file.

cmd_render formats every Z-point once into a pixel table, which both
pictures draw from, and hands each picture's lines to the write of a
temporary file in chunks of at most _CHUNK lines, one SVG element to a line;
it renames the file when the picture is complete. These tests check that
the files are the bytes of the public render_*_svg strings, that every
write holds whole lines and at most _CHUNK of them, that each position is
formatted once, that a failure part-way through a picture leaves neither a
partial target nor a temporary file behind, and that the writers hold less
memory than the pictures they write. The cleanup is no assert in the
library, so the module also runs under python -O.
"""

import hashlib
import json
import os
import tracemalloc
from pathlib import Path

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
from circlink import cli, render
from circlink.cli import _CHUNK, _write, main
from circlink.generators import random_circle_map
from circlink.hullgeom import hull
from circlink.render import _Canvas, _input_lines, _straightened_lines

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
    fp = FamilyPair.from_json(json.loads(Path(pair_path).read_text(encoding="utf-8")))
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
    digests = [hashlib.sha256(Path(prefix + suffix).read_bytes()).hexdigest()
               for suffix in ("-input.svg", "-straightened.svg")]
    assert digests == PINNED[(name, size)]


# a grid image of 1 089 point cells, so a chunk boundary falls among the
# cell dots, and the anchored pair, whose segment cell sits among point cells
CHUNKED = dict(FIXTURES, **{
    "grid-33-image": lambda: random_circle_map(0).apply_pair(gen_grid(33)),
    "anchored": PINNED_PAIRS["anchored"]})


def cli_writes(fp, opts):
    """The writes cmd_render hands each picture's file, from one pixel table."""
    sd = layout(fp)
    canvas = _Canvas(opts)
    at = canvas.table(sd.layout)
    pictures = []
    for lines, whole in ((_input_lines(fp, canvas, at), render_input_svg(fp, opts)),
                         (_straightened_lines(sd, canvas, at), render_straightened_svg(sd, opts))):
        writes = []
        _write(lines, writes.append)
        pictures.append((writes, whole))
    return pictures


@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_writes_hold_whole_lines_in_chunks(name, monkeypatch):
    fp = CHUNKED[name]()
    # at 7 lines a write, leaf groups and runs of dots split across writes
    for chunk_lines in (_CHUNK, 7):
        monkeypatch.setattr(cli, "_CHUNK", chunk_lines)
        for writes, whole in cli_writes(fp, RenderOptions(labels=True)):
            assert "".join(writes) == whole
            assert writes[0].startswith("<svg ") and writes[-1].endswith("</svg>\n")
            for chunk in writes:
                assert chunk.startswith("<") and chunk.endswith(">\n")
                assert chunk.count("\n") <= chunk_lines
            # every write but the last is full
            assert len(writes) == -(-whole.count("\n") // chunk_lines)


def test_each_position_is_formatted_once(tmp_path, capsys, monkeypatch):
    fp = random_circle_map(0).apply_pair(gen_grid(12))
    sd = layout(fp)
    calls = []

    def counting(v):
        calls.append(v)
        return "%.12g" % v

    monkeypatch.setattr(render, "_fmt", counting)
    code, _, _ = render_files(tmp_path, capsys, write_fixture(tmp_path, fp))
    assert code == 0
    assert all(cell.dim == 0 for cell in fp.cells().values())
    # the boundary circle's centre and radius, every layout and virtual
    # position once, and each hull vertex; a point cell is drawn at its
    # Z-point's position
    hull_vertices = sum(len(hull(s)._h) for s in fp.plus + fp.minus)
    assert len(calls) == 3 + 2 * (len(sd.layout) + len(sd.virtual_positions) + hull_vertices)


# ── atomicity after a failure part-way through a picture ─────────────────

@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "overwrite"])
def test_failure_mid_picture_leaves_no_partial_file(tmp_path, capsys, monkeypatch, existing):
    fp = random_circle_map(0).apply_pair(gen_grid(24))
    pair_path = write_fixture(tmp_path, fp)
    straight = tmp_path / "pic-straightened.svg"
    if existing:
        straight.write_bytes(b"<svg>old picture</svg>\n")

    # fail the straightened picture at a line near its end, after its first
    # chunk has reached the file
    count = render_straightened_svg(layout(fp)).count("\n")
    fail_at = count * 9 // 10
    assert fail_at > _CHUNK
    error = NotInteriorError((7, 7))
    seen = {}
    real = render._straightened_lines

    def failing_lines(sd, canvas, at):
        for k, line in enumerate(real(sd, canvas, at), 1):
            if k == fail_at:
                seen["temporary"] = [os.path.getsize(tmp_path / n) for n in leftovers(tmp_path)]
                raise error
            yield line

    monkeypatch.setattr(render, "_straightened_lines", failing_lines)
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
    seen = {}
    real = cli._write

    def failing_write(lines, write):
        # the input picture is written first: its first chunk reaches the
        # temporary file, then its write fails
        def failing(chunk):
            write(chunk)
            seen["temporary"] = leftovers(tmp_path)
            raise NotInteriorError((0, 0))

        real(lines, failing)

    monkeypatch.setattr(cli, "_write", failing_write)
    code, out, _ = render_files(tmp_path, capsys, pair_path)
    assert code == 1
    assert out["error"] == "NotInteriorError"
    assert len(seen["temporary"]) == 1
    assert sorted(os.listdir(tmp_path)) == ["pair.json"]


# ── memory ───────────────────────────────────────────────────────────────

@pytest.fixture(scope="module")
def grid_120():
    # n = 120: on smaller grids the per-Z-point pixel table dominates the peak
    # whichever way the picture is emitted
    fp = random_circle_map(0).apply_pair(gen_grid(120))
    return fp, layout(fp)


def traced_write(lines_of):
    """The bytes written and the peak memory traced while lines_of() builds
    a picture's lines and they are written."""
    size = 0

    def count(chunk):
        nonlocal size
        size += len(chunk.encode("utf-8"))

    tracemalloc.start()
    try:
        _write(lines_of(), count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return size, peak


def test_straightened_writer_holds_less_than_the_picture(grid_120):
    _, sd = grid_120

    def lines():
        # the pixel table, which the CLI builds for both pictures, counts here
        canvas = _Canvas(RenderOptions())
        return _straightened_lines(sd, canvas, canvas.table(sd.layout))

    size, peak = traced_write(lines)
    assert size > 4_000_000
    assert peak < 1.5 * size, (peak, size)


def test_input_writer_holds_less_than_the_picture(grid_120):
    fp, sd = grid_120
    canvas = _Canvas(RenderOptions())
    at = canvas.table(sd.layout)
    size, peak = traced_write(lambda: _input_lines(fp, canvas, at))
    assert size > 1_000_000
    # a chunk of lines, joined and handed over: well under the picture
    assert peak < size / 2, (peak, size)
