"""The lines of the SVG pictures, for render and the command line.

Each picture is made as a stream of lines, one SVG element to a line,
filled in from per-kind templates and a pixel table of the Z-points. Every
coordinate is the decimal expansion of an exact rational to 12 significant
digits. Of the commands only render imports this module, and the library's
render_input_svg and render_straightened_svg import it when called.
"""

from __future__ import annotations

from .render import (
    LEAF_STROKE_WIDTH,
    MARGIN,
    MINUS_COLOR,
    PLUS_COLOR,
    POINT_RADIUS,
    REGION_COLOR,
    REGION_OPACITY,
    STROKE_WIDTH,
    VIRTUAL_RADIUS,
)


def _fmt(v: float) -> str:
    return "%.12g" % v


class _Canvas:
    """The frame of a picture: head, its first two lines (the <svg> tag and
    the boundary circle), and xy, which formats a homogeneous triple
    (X, Y, D) as the pixel pair (x, y) that the element templates take.
    table formats a dict of points once, so each element is drawn from
    lookups."""

    def __init__(self, opts: RenderOptions):
        self.labels = opts.labels
        self.cx = opts.width / 2.0
        self.cy = opts.height / 2.0
        self.radius = min(opts.width, opts.height) / 2.0 - MARGIN
        self.head = (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            'width="%d" height="%d" viewBox="0 0 %d %d">\n'
            % (opts.width, opts.height, opts.width, opts.height),
            '<circle id="boundary" cx="%s" cy="%s" r="%s" fill="none" '
            'stroke="#111111" stroke-width="%s"/>\n'
            % (_fmt(self.cx), _fmt(self.cy), _fmt(self.radius), STROKE_WIDTH))

    def xy(self, h: tuple) -> tuple:
        """The formatted pixel coordinates of h."""
        # int / int is correctly rounded, as float(Fraction(X, D)) is
        return (_fmt(self.cx + self.radius * (h[0] / h[2])),
                _fmt(self.cy - self.radius * (h[1] / h[2])))

    def table(self, points: dict) -> dict:
        """The pixel pair of each point of a dict of PlanePoints, by key."""
        xy = self.xy
        return {key: xy(p._h) for key, p in points.items()}


# Each element is one line, written by an f-string template of its kind. An
# f-string joins its pieces without parsing a format at run time: a leaf
# edge takes about 310 ns where the %-template took 570 (CPython 3.11)


def _cell_line(canvas: _Canvas, eid: str, cell, color: str, filled: bool) -> str:
    pts = [canvas.xy(h) for h in cell._h]
    if cell.dim == 0:
        (x, y), = pts
        return f'<circle id="{eid}" cx="{x}" cy="{y}" r="{POINT_RADIUS}" fill="{color}"/>\n'
    if cell.dim == 1:
        (x1, y1), (x2, y2) = pts
        return (f'<line id="{eid}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="{color}" stroke-width="{STROKE_WIDTH}"/>\n')
    if filled:
        style = f'fill="{color}" fill-opacity="{REGION_OPACITY}" stroke="{color}" stroke-width="1"'
    else:
        style = f'fill="none" stroke="{color}" stroke-width="{STROKE_WIDTH}"'
    points = " ".join(f"{x},{y}" for x, y in pts)
    return f'<polygon id="{eid}" points="{points}" {style}/>\n'


def _text_line(eid: str, xy: tuple, content: str, color: str) -> str:
    # html.escape(content, quote=False), without importing html: "&" first
    content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    x, y = xy
    return f'<text id="{eid}" x="{x}" y="{y}" font-size="12" fill="{color}">{content}</text>\n'


def _input_lines(fp: FamilyPair, canvas: _Canvas, at: dict):
    """The embedded picture, one element per line: circle, hulls, and the
    shaded linked region. A point cell is drawn at its Z-point's entry of
    at: the pixel pair of the cell's one vertex, which is also where the
    straightened picture places that Z-point."""
    from .hullgeom import hull, param_to_point

    yield from canvas.head
    for name, color in (("plus", PLUS_COLOR), ("minus", MINUS_COLOR)):
        for i, s in enumerate(fp.family(name)):
            yield _cell_line(canvas, f"hull-{name}-{i}", hull(s), color, False)
    # a point cell, as every cell of a grid is, is drawn from the table
    for z, cell in fp.cells().items():
        i, j = z
        if cell.dim:
            yield _cell_line(canvas, f"cell-{i}-{j}", cell, REGION_COLOR, True)
        else:
            x, y = at[z]
            yield (f'<circle id="cell-{i}-{j}" cx="{x}" cy="{y}" r="{POINT_RADIUS}" '
                   f'fill="{REGION_COLOR}"/>\n')
    if canvas.labels:
        for name, sets, labels, color in (("plus", fp.plus, fp.plus_labels, PLUS_COLOR),
                                          ("minus", fp.minus, fp.minus_labels, MINUS_COLOR)):
            for i, s in enumerate(sets):
                tag = labels[i] if labels else f"{name}{i}"
                yield _text_line(f"label-{name}-{i}",
                                 canvas.xy(param_to_point(s.points[0])._h), tag, color)
    yield "</svg>\n"


def _straightened_lines(sd: StraightenedDisc, canvas: _Canvas, at: dict):
    """The straightened picture, one element per line: circle, leaf trees,
    Z-points. at holds the pixel pair of every Z-point (canvas.table of the
    layout), so each leaf edge is two lookups and one template."""
    from .straighten import VIRTUAL

    yield from canvas.head
    virtual = canvas.table(sd.virtual_positions)
    for leaves, color in ((sd.leaves_plus, PLUS_COLOR), (sd.leaves_minus, MINUS_COLOR)):
        for leaf in leaves:
            gid = f"leaf-{leaf.family}-{leaf.element}"
            start = virtual.get((leaf.family, leaf.element))
            yield f'<g id="{gid}">\n'
            for idx, (u, v) in enumerate(leaf.edges):
                # a virtual vertex only ever starts an edge
                x1, y1 = start if u is VIRTUAL else at[u]
                x2, y2 = at[v]
                yield (f'<line id="{gid}-e{idx}" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                       f'stroke="{color}" stroke-width="{LEAF_STROKE_WIDTH}"/>\n')
            yield '</g>\n'
    for (family, element), (x, y) in sorted(virtual.items()):
        yield (f'<circle id="virtual-{family}-{element}" cx="{x}" cy="{y}" '
               f'r="{VIRTUAL_RADIUS}" fill="#6b7280"/>\n')
    boundary = {(i, j) for i, j, _ in sd.disc.boundary}
    zs = sorted(sd.layout)
    for z in zs:
        i, j = z
        x, y = at[z]
        fill = "#111111" if z in boundary else REGION_COLOR
        yield f'<circle id="z-{i}-{j}" cx="{x}" cy="{y}" r="{POINT_RADIUS}" fill="{fill}"/>\n'
    if canvas.labels:
        for z in zs:
            i, j = z
            yield _text_line(f"zlabel-{i}-{j}", at[z], f"({i},{j})", "#374151")
    yield "</svg>\n"
