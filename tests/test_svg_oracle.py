"""The pictures are the bytes of the per-element writers in svg_oracle.

render writes each picture from element templates in chunks and formats
every Z-point once, into one pixel table for both pictures; svg_oracle
formats every position where it draws it and writes one element per call.
Both pictures must match the oracle's, through the public render_*_svg and
through the table cmd_render shares, with and without labels and at two
sizes. A pair that layout refuses must be refused alike on both sides.
"""

import pytest

from circlink import (
    CirclinkError,
    FamilyPair,
    RenderOptions,
    layout,
    random_family_pair,
    render_input_svg,
    render_straightened_svg,
)
from circlink.render import _Canvas, _input_lines

import svg_oracle as oracle
from test_planarity import shared_point_pair
from test_streaming import FIXTURES, PINNED_PAIRS


def labelled(build):
    # labels that need escaping, and one with quotes that stay as they are
    data = build().to_json()
    for name, tag in (("plus", "a&b%d"), ("minus", "<x>\"y'%d")):
        data[name + "_labels"] = [tag % i for i in range(len(data[name]))]
    return FamilyPair.from_json(data)


CORPUS = {
    "fixtures": list(FIXTURES.values()),
    "labelled": [lambda build=build: labelled(build) for build in FIXTURES.values()],
    "pinned": list(PINNED_PAIRS.values()),
    "random": [lambda seed=seed: random_family_pair(seed) for seed in range(50)],
    "shared-point": [lambda seed=seed: shared_point_pair(seed) for seed in range(200)],
}

OPTIONS = [RenderOptions(width=w, height=h, labels=labels)
           for w, h in ((720, 720), (333, 901)) for labels in (False, True)]


def outcome(draw):
    try:
        return draw()
    except CirclinkError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_pictures_are_the_oracle_bytes(name):
    refused = 0
    for build in CORPUS[name]:
        fp = build()
        for opts in OPTIONS:
            expected = oracle.render_input_svg(fp, opts)
            assert render_input_svg(fp, opts) == expected
            straightened = outcome(lambda: render_straightened_svg(layout(fp), opts))
            assert straightened == outcome(
                lambda: oracle.render_straightened_svg(layout(fp), opts))
            if isinstance(straightened, tuple):
                refused += 1
                continue
            # the input picture drawn from the straightened picture's table
            canvas = _Canvas(opts)
            at = canvas.table(layout(fp).layout)
            assert "".join(_input_lines(fp, canvas, at)) == expected
    if name == "shared-point":
        # the corpus reaches the refusals
        assert refused
