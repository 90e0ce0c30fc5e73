"""The SVG writers render used before it wrote from element templates in
chunks.

Each writer hands write one element per call and formats every position
where it draws it, so a point cell's vertex is formatted once for each
picture. The tests require the library's pictures to be these writers'
bytes, at every size and with and without labels.
"""

from __future__ import annotations

from circlink.render import (
    LEAF_STROKE_WIDTH,
    MARGIN,
    MINUS_COLOR,
    PLUS_COLOR,
    POINT_RADIUS,
    REGION_COLOR,
    REGION_OPACITY,
    STROKE_WIDTH,
    VIRTUAL_RADIUS,
    RenderOptions,
    _fmt,
)


class _Canvas:
    """An SVG picture handed to write as it is drawn, one element per line
    (each ending in a newline). Drawing methods take points as formatted
    pixel pairs (x, y), which xy formats from a homogeneous triple (X, Y, D)."""

    def __init__(self, opts: RenderOptions, write):
        self.write = write
        self.cx = opts.width / 2.0
        self.cy = opts.height / 2.0
        self.radius = min(opts.width, opts.height) / 2.0 - MARGIN
        write('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              'width="%d" height="%d" viewBox="0 0 %d %d">\n'
              % (opts.width, opts.height, opts.width, opts.height))

    def xy(self, h: tuple) -> tuple:
        """The formatted pixel coordinates of h."""
        # int / int is correctly rounded, as float(Fraction(X, D)) is
        return (_fmt(self.cx + self.radius * (h[0] / h[2])),
                _fmt(self.cy - self.radius * (h[1] / h[2])))

    def boundary(self) -> None:
        self.write(
            '<circle id="boundary" cx="%s" cy="%s" r="%s" fill="none" '
            'stroke="#111111" stroke-width="%s"/>\n'
            % (_fmt(self.cx), _fmt(self.cy), _fmt(self.radius), STROKE_WIDTH))

    def dot(self, eid: str, xy: tuple, color: str, r: str) -> None:
        self.write('<circle id="%s" cx="%s" cy="%s" r="%s" fill="%s"/>\n'
                   % (eid, xy[0], xy[1], r, color))

    def line(self, eid: str, p: tuple, q: tuple, color: str, width: str) -> None:
        self.write(
            '<line id="%s" x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"/>\n'
            % (eid, p[0], p[1], q[0], q[1], color, width))

    def polygon(self, eid: str, pts, color: str, filled: bool) -> None:
        coords = " ".join("%s,%s" % xy for xy in pts)
        if filled:
            style = 'fill="%s" fill-opacity="%s" stroke="%s" stroke-width="1"' % (
                color, REGION_OPACITY, color)
        else:
            style = 'fill="none" stroke="%s" stroke-width="%s"' % (color, STROKE_WIDTH)
        self.write('<polygon id="%s" points="%s" %s/>\n' % (eid, coords, style))

    def text(self, eid: str, xy: tuple, content: str, color: str) -> None:
        # html.escape(content, quote=False), without importing html: "&" first
        content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.write('<text id="%s" x="%s" y="%s" font-size="12" fill="%s">%s</text>\n'
                   % (eid, xy[0], xy[1], color, content))


def _draw_cell(canvas: _Canvas, eid: str, cell, color: str, filled: bool) -> None:
    pts = [canvas.xy(h) for h in cell._h]
    if cell.dim == 0:
        canvas.dot(eid, pts[0], color, POINT_RADIUS)
    elif cell.dim == 1:
        canvas.line(eid, pts[0], pts[1], color, STROKE_WIDTH)
    else:
        canvas.polygon(eid, pts, color, filled)


def _write_input(fp: FamilyPair, opts: RenderOptions, write) -> None:
    """The embedded picture: circle, hulls, and the shaded linked region."""
    from circlink.hullgeom import hull, param_to_point

    canvas = _Canvas(opts, write)
    canvas.boundary()
    for name, color in (("plus", PLUS_COLOR), ("minus", MINUS_COLOR)):
        for i, s in enumerate(fp.family(name)):
            _draw_cell(canvas, "hull-%s-%d" % (name, i), hull(s), color, False)
    # every cell of a grid is a point: one template draws those
    dot = '<circle id="cell-%%d-%%d" cx="%%s" cy="%%s" r="%s" fill="%s"/>\n' % (
        POINT_RADIUS, REGION_COLOR)
    for (i, j), cell in fp.cells().items():
        if cell.dim:
            _draw_cell(canvas, "cell-%d-%d" % (i, j), cell, REGION_COLOR, True)
        else:
            write(dot % ((i, j) + canvas.xy(cell._h[0])))
    if opts.labels:
        for name, sets, labels, color in (("plus", fp.plus, fp.plus_labels, PLUS_COLOR),
                                          ("minus", fp.minus, fp.minus_labels, MINUS_COLOR)):
            for i, s in enumerate(sets):
                tag = labels[i] if labels else "%s%d" % (name, i)
                canvas.text("label-%s-%d" % (name, i),
                            canvas.xy(param_to_point(s.points[0])._h), tag, color)
    write('</svg>\n')


def _write_straightened(sd: StraightenedDisc, opts: RenderOptions, write) -> None:
    """The straightened picture: circle, leaf trees, Z-points.

    Every position is distinct, so each is formatted once, into a pixel
    table keyed by Z-point (and by leaf for the virtual vertices), before
    the first leaf, and each leaf edge is drawn from the table.
    """
    from circlink.straighten import VIRTUAL

    canvas = _Canvas(opts, write)
    canvas.boundary()
    xy, line = canvas.xy, canvas.line
    at = {z: xy(p._h) for z, p in sd.layout.items()}
    virtual = {key: xy(p._h) for key, p in sd.virtual_positions.items()}
    for leaves, color in ((sd.leaves_plus, PLUS_COLOR), (sd.leaves_minus, MINUS_COLOR)):
        for leaf in leaves:
            key = (leaf.family, leaf.element)
            gid = "leaf-%s-%d" % key
            write('<g id="%s">\n' % gid)
            for idx, (u, v) in enumerate(leaf.edges):
                # a virtual vertex only ever starts an edge
                line("%s-e%d" % (gid, idx), virtual[key] if u is VIRTUAL else at[u], at[v],
                     color, LEAF_STROKE_WIDTH)
            write('</g>\n')
    for key in sorted(virtual):
        canvas.dot("virtual-%s-%d" % key, virtual[key], "#6b7280", VIRTUAL_RADIUS)
    boundary = {(i, j) for i, j, _ in sd.disc.boundary}
    for z in sorted(sd.layout):
        color = "#111111" if z in boundary else REGION_COLOR
        canvas.dot("z-%d-%d" % z, at[z], color, POINT_RADIUS)
    if opts.labels:
        for z in sorted(sd.layout):
            canvas.text("zlabel-%d-%d" % z, at[z], "(%d,%d)" % z, "#374151")
    write('</svg>\n')


def render_input_svg(fp: FamilyPair, opts: RenderOptions = RenderOptions()) -> str:
    """The embedded picture as one string; the CLI streams it to its file."""
    lines = []
    _write_input(fp, opts, lines.append)
    return "".join(lines)


def render_straightened_svg(sd: StraightenedDisc, opts: RenderOptions = RenderOptions()) -> str:
    """The straightened picture as one string; the CLI streams it to its file."""
    lines = []
    _write_straightened(sd, opts, lines.append)
    return "".join(lines)
