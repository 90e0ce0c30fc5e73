"""In-memory tracing of circlink's layers for the benchmark's traced pass.

A wrapper replaces a public function under every name a circlink module
imports it by (``circlink.straighten.especial_disc``,
``circlink.render.linked_cells`` and so on), so callers reach it unchanged.
Each wrapped call pushes a frame on a stack of open calls; its self time is
its duration minus the time of the wrapped calls made inside it. Layer
boundaries record a span (name, start, end, parent). Hot functions, called
thousands of times per pass, are only counted and timed in total. Counters
are computed from return values, and the time that takes is kept apart as
tracing overhead so it does not inflate any layer.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from circlink.family import DisjointUnlinked


class Tracer:
    def __init__(self):
        self.spans = []                    # [name, start, end, parent index, self_s]
        self.self_s = defaultdict(float)   # name -> summed self time
        self.calls = Counter()
        self.counters = Counter()
        self.maxima = Counter()
        self.overhead_s = 0.0
        self._stack = []                   # open calls: [nearest span index, child time]

    def call(self, name, fn, args, kwargs, span, count=None):
        stack = self._stack
        parent = stack[-1][0] if stack else None
        frame = [parent, 0.0]
        if span:
            frame[0] = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, 0.0])
        stack.append(frame)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            own = (t1 - t0) - frame[1]
            self.self_s[name] += own
            self.calls[name] += 1
            if span:
                self.spans[frame[0]][1:] = [t0, t1, parent, own]
            if stack:
                stack[-1][1] += t1 - t0
        if count is not None:
            count(self, result)
            t2 = perf_counter()
            self.overhead_s += t2 - t1
            if stack:
                stack[-1][1] += t2 - t1
        return result

    def wrap(self, name, fn, span, count=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, span, count)
        return traced


def _count_disc(tr, disc):
    tr.counters["family.pairs_classified"] += disc.n_plus * disc.n_minus
    tr.counters["family.z_points"] += len(disc.interior) + len(disc.boundary)


def _count_classify(tr, c):
    tr.counters["family.pairs_classified"] += 1
    tr.counters["family.z_points"] += not isinstance(c, DisjointUnlinked)


def _count_cell(tr, cell):
    if cell is None:
        return
    tr.counters["hullgeom.cells_dim%d" % cell.dim] += 1
    m = tr.maxima
    m["hullgeom.max_cell_vertices"] = max(m["hullgeom.max_cell_vertices"], len(cell.vertices))
    bits = max(max(q.numerator.bit_length(), q.denominator.bit_length())
               for v in cell.vertices for q in (v.x, v.y))
    m["hullgeom.max_coord_bits"] = max(m["hullgeom.max_coord_bits"], bits)


def _count_layout(tr, sd):
    tr.counters["straighten.leaf_edges"] += sum(
        len(leaf.edges) for leaf in sd.leaves_plus + sd.leaves_minus)
    tr.counters["straighten.crossings"] += len(sd.crossings)


def _count_quotient(tr, report):
    tr.counters["straighten.points_sampled"] += report.points_sampled


def _count_svg(tr, svg):
    tr.counters["render.svg_bytes"] += len(svg.encode("utf-8"))


# (defining module, function, layer name, span?, counter)
FUNCTIONS = (
    ("circlink.cli", "main", "cli.main", True, None),
    ("circlink.family", "validate", "family.validate", True, None),
    ("circlink.family", "especial_disc", "family.especial_disc", True, _count_disc),
    ("circlink.family", "classify_pair", "family.classify_pair", False, _count_classify),
    ("circlink.family", "prong_count", "family.prong_count", False, None),
    ("circlink.family", "fiber_plus", "family.fiber", False, None),
    ("circlink.family", "fiber_minus", "family.fiber", False, None),
    ("circlink.circle", "linked", "circle.linked", False, None),
    ("circlink.circle", "link_number", "circle.link_number", False, None),
    ("circlink.circle", "separates", "circle.separates", False, None),
    ("circlink.circle", "complementary_intervals", "circle.complementary_intervals", False, None),
    ("circlink.hullgeom", "hull", "hullgeom.hull", False, None),
    ("circlink.hullgeom", "cell_intersection", "hullgeom.cell_intersection", False, _count_cell),
    ("circlink.hullgeom", "linked_cells", "hullgeom.linked_cells", True, None),
    ("circlink.straighten", "layout", "straighten.layout", True, _count_layout),
    ("circlink.straighten", "quotient_check", "straighten.quotient_check", True, _count_quotient),
    ("circlink.symmetry", "check_equivariance", "symmetry.check_equivariance", True, None),
    ("circlink.render", "render_input_svg", "render.render_input_svg", True, _count_svg),
    ("circlink.render", "render_straightened_svg", "render.render_straightened_svg", True,
     _count_svg),
)

# (defining module, class, method, layer name, span?)
METHODS = (
    ("circlink.symmetry", "CircleMap", "apply_pair", "symmetry.apply_pair", True),
    ("circlink.circle", "CircleSet", "intersection", "circle.intersection", False),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "circlink" or n.startswith("circlink."))]
    undo = []
    try:
        for modname, attr, name, span, count in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = tracer.wrap(name, original, span, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for modname, clsname, attr, name, span in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, tracer.wrap(name, original, span))
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def layer_metrics(tr: Tracer, scale: float) -> dict:
    """The per-layer metrics of one traced pass; times multiplied by scale."""
    calls, self_s, counters = tr.calls, tr.self_s, tr.counters

    def secs(name):
        return self_s.get(name, 0.0) * scale

    pairs = counters["family.pairs_classified"]
    return {
        "family.especial_disc.calls": calls["family.especial_disc"],
        "family.especial_disc.self_s": secs("family.especial_disc"),
        "family.pairs_classified": pairs,
        "family.useful_ratio": counters["family.z_points"] / pairs if pairs else 0.0,
        "family.validate.self_s": secs("family.validate"),
        "family.classify_pair.calls": calls["family.classify_pair"],
        "family.fiber.self_s": secs("family.fiber"),
        "circle.linked.calls": calls["circle.linked"],
        "circle.link_number.calls": calls["circle.link_number"],
        "circle.self_s": sum(v for k, v in self_s.items() if k.startswith("circle.")) * scale,
        "hullgeom.cell_intersection.calls": calls["hullgeom.cell_intersection"],
        "hullgeom.cell_intersection.self_s": secs("hullgeom.cell_intersection"),
        "hullgeom.max_cell_vertices": tr.maxima["hullgeom.max_cell_vertices"],
        "hullgeom.max_coord_bits": tr.maxima["hullgeom.max_coord_bits"],
        "hullgeom.cells_dim0": counters["hullgeom.cells_dim0"],
        "hullgeom.cells_dim1": counters["hullgeom.cells_dim1"],
        "hullgeom.cells_dim2": counters["hullgeom.cells_dim2"],
        "hullgeom.linked_cells.calls": calls["hullgeom.linked_cells"],
        "hullgeom.hull.calls": calls["hullgeom.hull"],
        "straighten.layout.self_s": secs("straighten.layout"),
        "straighten.leaf_edges": counters["straighten.leaf_edges"],
        "straighten.crossings": counters["straighten.crossings"],
        "straighten.quotient_check.self_s": secs("straighten.quotient_check"),
        "straighten.points_sampled": counters["straighten.points_sampled"],
        "family.prong_count.calls": calls["family.prong_count"],
        "family.prong_count.self_s": secs("family.prong_count"),
        "symmetry.check_equivariance.self_s": secs("symmetry.check_equivariance"),
        "symmetry.apply_pair.calls": calls["symmetry.apply_pair"],
        "render.render_input_svg.self_s": secs("render.render_input_svg"),
        "render.render_straightened_svg.self_s": secs("render.render_straightened_svg"),
        "render.svg_bytes": counters["render.svg_bytes"],
        "cli.self_s": secs("cli.main"),
        "cli.stdout_bytes": counters["cli.stdout_bytes"],
    }
