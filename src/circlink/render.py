"""SVG rendering of the input disc and the straightened disc.

Pictures are presentation only: every coordinate is the decimal expansion of
an exact rational to 12 significant digits, and the element structure (ids,
counts) is deterministic so renders can be snapshot-tested structurally.
"""

from __future__ import annotations

from .errors import Frozen, MalformedInputError

__all__ = ["RenderOptions", "render_input_svg", "render_straightened_svg"]


class RenderOptions(Frozen, width=720, height=720, margin=24, stroke_width=2.0,
                    leaf_stroke_width=1.6, point_radius=3.0, plus_color="#2563eb",
                    minus_color="#dc2626", region_color="#a78bfa", labels=False):
    """Stable render defaults; sizes in pixels.

    The disc radius is min(width, height) / 2 - margin, so a size of at most
    2 * margin raises MalformedInputError at "width" or "height", whichever
    is smaller ("width" on a tie).
    """

    __slots__ = ("width", "height", "margin", "stroke_width", "leaf_stroke_width",
                 "point_radius", "plus_color", "minus_color", "region_color", "labels")

    def __post_init__(self):
        if min(self.width, self.height) <= 2 * self.margin:
            raise MalformedInputError("width and height must exceed %d pixels" % (2 * self.margin),
                                      "width" if self.width <= self.height else "height")


def _fmt(v: float) -> str:
    return "%.12g" % v


class _Canvas:
    """An SVG picture handed to write as it is drawn, one element per line
    (each ending in a newline); points are homogeneous triples (X, Y, D)."""

    def __init__(self, opts: RenderOptions, write):
        self.opts = opts
        self.write = write
        self.cx = opts.width / 2.0
        self.cy = opts.height / 2.0
        self.radius = min(opts.width, opts.height) / 2.0 - opts.margin
        self._px = {}
        self._num = {}
        write('<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
              'width="%d" height="%d" viewBox="0 0 %d %d">\n'
              % (opts.width, opts.height, opts.width, opts.height))

    def num(self, v: float) -> str:
        """v formatted, once per canvas: widths and radii repeat per element."""
        text = self._num.get(v)
        if text is None:
            text = self._num[v] = _fmt(v)
        return text

    def px(self, h: tuple) -> tuple:
        """The formatted pixel coordinates of h, computed once per point."""
        xy = self._px.get(h)
        if xy is None:
            # int / int is correctly rounded, as float(Fraction(X, D)) is
            xy = self._px[h] = (_fmt(self.cx + self.radius * (h[0] / h[2])),
                                _fmt(self.cy - self.radius * (h[1] / h[2])))
        return xy

    def boundary(self) -> None:
        self.write(
            '<circle id="boundary" cx="%s" cy="%s" r="%s" fill="none" '
            'stroke="#111111" stroke-width="%s"/>\n'
            % (_fmt(self.cx), _fmt(self.cy), _fmt(self.radius), _fmt(self.opts.stroke_width)))

    def dot(self, eid: str, h: tuple, color: str, r: float) -> None:
        x, y = self.px(h)
        self.write('<circle id="%s" cx="%s" cy="%s" r="%s" fill="%s"/>\n'
                   % (eid, x, y, self.num(r), color))

    def line(self, eid: str, p: tuple, q: tuple, color: str, width: float) -> None:
        x1, y1 = self.px(p)
        x2, y2 = self.px(q)
        self.write(
            '<line id="%s" x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"/>\n'
            % (eid, x1, y1, x2, y2, color, self.num(width)))

    def polygon(self, eid: str, pts, color: str, fill: str, opacity: float) -> None:
        coords = " ".join("%s,%s" % self.px(h) for h in pts)
        if fill == "none":
            style = 'fill="none" stroke="%s" stroke-width="%s"' % (
                color, self.num(self.opts.stroke_width))
        else:
            style = 'fill="%s" fill-opacity="%s" stroke="%s" stroke-width="1"' % (
                fill, self.num(opacity), color)
        self.write('<polygon id="%s" points="%s" %s/>\n' % (eid, coords, style))

    def text(self, eid: str, h: tuple, content: str, color: str) -> None:
        x, y = self.px(h)
        # html.escape(content, quote=False), without importing html: "&" first
        content = content.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        self.write('<text id="%s" x="%s" y="%s" font-size="12" fill="%s">%s</text>\n'
                   % (eid, x, y, color, content))

    def open_group(self, gid: str) -> None:
        self.write('<g id="%s">\n' % gid)

    def close_group(self) -> None:
        self.write('</g>\n')

    def finish(self) -> None:
        self.write('</svg>\n')


def _draw_cell(canvas: _Canvas, eid: str, cell, color: str, fill: str, opacity: float) -> None:
    hv = cell._h
    if cell.dim == 0:
        canvas.dot(eid, hv[0], color, canvas.opts.point_radius)
    elif cell.dim == 1:
        canvas.line(eid, hv[0], hv[1], color, canvas.opts.stroke_width)
    else:
        canvas.polygon(eid, hv, color, fill, opacity)


def _write_input(fp: FamilyPair, opts: RenderOptions, write) -> None:
    """The embedded picture: circle, hulls, and the shaded linked region."""
    from .hullgeom import hull, param_to_point

    canvas = _Canvas(opts, write)
    canvas.boundary()
    for name, color in (("plus", opts.plus_color), ("minus", opts.minus_color)):
        for i, s in enumerate(fp.family(name)):
            _draw_cell(canvas, "hull-%s-%d" % (name, i), hull(s), color, "none", 0)
    for (i, j), cell in fp.index.cells().items():
        _draw_cell(canvas, "cell-%d-%d" % (i, j), cell, opts.region_color,
                   opts.region_color, 0.55)
    if opts.labels:
        for name, sets, color in (("plus", fp.plus, opts.plus_color),
                                  ("minus", fp.minus, opts.minus_color)):
            labels = fp.plus_labels if name == "plus" else fp.minus_labels
            for i, s in enumerate(sets):
                tag = labels[i] if labels else "%s%d" % (name, i)
                canvas.text("label-%s-%d" % (name, i), param_to_point(s.points[0])._h, tag, color)
    canvas.finish()


def _write_straightened(sd: StraightenedDisc, opts: RenderOptions, write) -> None:
    """The straightened picture: circle, leaf trees, Z-points."""
    canvas = _Canvas(opts, write)
    canvas.boundary()
    for leaves, color in ((sd.leaves_plus, opts.plus_color),
                          (sd.leaves_minus, opts.minus_color)):
        for leaf in leaves:
            canvas.open_group("leaf-%s-%d" % (leaf.family, leaf.element))
            for idx, (u, v) in enumerate(leaf.edges):
                p = sd.position(leaf.family, leaf.element, u)._h
                q = sd.position(leaf.family, leaf.element, v)._h
                canvas.line("leaf-%s-%d-e%d" % (leaf.family, leaf.element, idx),
                            p, q, color, opts.leaf_stroke_width)
            canvas.close_group()
    for (fam, el) in sorted(sd.virtual_positions):
        canvas.dot("virtual-%s-%d" % (fam, el), sd.virtual_positions[(fam, el)]._h,
                   "#6b7280", opts.point_radius * 0.8)
    for (i, j) in sorted(sd.layout):
        color = "#111111" if (i, j) in sd.boundary_anchors else opts.region_color
        canvas.dot("z-%d-%d" % (i, j), sd.layout[(i, j)]._h, color, opts.point_radius)
    if opts.labels:
        for (i, j) in sorted(sd.layout):
            canvas.text("zlabel-%d-%d" % (i, j), sd.layout[(i, j)]._h, "(%d,%d)" % (i, j), "#374151")
    canvas.finish()


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
