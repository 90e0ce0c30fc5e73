"""SVG rendering of the input disc and the straightened disc.

Pictures are presentation only: every coordinate is the decimal expansion of
an exact rational to 12 significant digits, and the element structure (ids,
counts) is deterministic so renders can be snapshot-tested structurally.
Each picture is made as a stream of lines, one SVG element to a line, by
svg, which only the render command imports: every command loads this module
for RenderOptions' argparse defaults, and compiles no drawing code. The
command line's writer, cli._write, hands the lines to a file in chunks, and
render_input_svg and render_straightened_svg join them.
"""

from __future__ import annotations

from .errors import Frozen, MalformedInputError

__all__ = ["RenderOptions", "render_input_svg", "render_straightened_svg"]

# The drawing code, defined in svg; each name still resolves here on its
# first read, and dir() lists it (PEP 562), as circlink's do
_SVG = frozenset(("_fmt", "_Canvas", "_cell_line", "_text_line", "_input_lines",
                  "_straightened_lines"))


def __getattr__(name):
    if name not in _SVG:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    from . import svg

    value = globals()[name] = getattr(svg, name)
    return value


def __dir__():
    return sorted(set(globals()) | _SVG)


# The fixed drawing values: the margin between the disc and the viewport
# edge in pixels, the colours of the two families and of the linked region,
# and the stroke widths, dot radii (a virtual vertex's is 0.8 of a point's)
# and region opacity, spelled as svg._fmt spells them.
MARGIN = 24
PLUS_COLOR = "#2563eb"
MINUS_COLOR = "#dc2626"
REGION_COLOR = "#a78bfa"
STROKE_WIDTH = "2"
LEAF_STROKE_WIDTH = "1.6"
POINT_RADIUS = "3"
VIRTUAL_RADIUS = "2.4"
REGION_OPACITY = "0.55"


class RenderOptions(Frozen, width=720, height=720, labels=False):
    """The viewport size in pixels and whether to label the sets and Z-points.

    width and height are ints and labels is a bool; any other type (a float
    size, a bool size, a str) raises MalformedInputError at its field. The
    disc radius is min(width, height) / 2 - MARGIN, so a size of at most
    2 * MARGIN (48) raises MalformedInputError at "width" or "height",
    whichever is smaller ("width" on a tie). The picture is drawn in floats,
    so a size no float holds, 2**1024 - 2**970 or more, raises
    MalformedInputError at its field ("width" if both are).
    """

    __slots__ = ("width", "height", "labels")

    def __post_init__(self):
        for name in ("width", "height"):
            value = getattr(self, name)
            # a bool is an int, but not a size
            if not isinstance(value, int) or isinstance(value, bool):
                raise MalformedInputError("%s must be an int, not %s"
                                          % (name, type(value).__name__), name)
        if not isinstance(self.labels, bool):
            raise MalformedInputError("labels must be a bool, not %s"
                                      % type(self.labels).__name__, "labels")
        if min(self.width, self.height) <= 2 * MARGIN:
            raise MalformedInputError("width and height must exceed %d pixels" % (2 * MARGIN),
                                      "width" if self.width <= self.height else "height")
        for name in ("width", "height"):
            try:
                float(getattr(self, name))
            except OverflowError:
                raise MalformedInputError("%s is too large for a float" % name, name) from None


def render_input_svg(fp: FamilyPair, opts: RenderOptions = RenderOptions()) -> str:
    """The embedded picture as one string; the CLI streams it to its file."""
    from .svg import _Canvas, _input_lines

    canvas = _Canvas(opts)
    at = {z: canvas.xy(cell._h[0]) for z, cell in fp.cells().items() if not cell.dim}
    return "".join(_input_lines(fp, canvas, at))


def render_straightened_svg(sd: StraightenedDisc, opts: RenderOptions = RenderOptions()) -> str:
    """The straightened picture as one string; the CLI streams it to its file."""
    from .svg import _Canvas, _straightened_lines

    canvas = _Canvas(opts)
    return "".join(_straightened_lines(sd, canvas, canvas.table(sd.layout)))
