"""The render command streams each picture into its file.

cmd_render hands the write of a temporary file to the private picture
writers, which emit one line per SVG element, and renames the file when the
picture is complete. These tests check that the files are the bytes of the
public render_*_svg strings, that a failure part-way through a picture
leaves neither a partial target nor a temporary file behind, and that the
writer holds less memory than the picture it writes. The cleanup is no
assert in the library, so the module also runs under python -O.
"""

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
