"""The stored homogeneous triple against the two-Fraction forms it replaced.

PlanePoint stores one normalised triple (X, Y, D), and layout, the crossing
scan, the renderer and the verification queries read it directly. The
oracles in plane_oracle.py keep the Fraction forms; these tests require the
same text, equality, floats and crossings from both, and that the pipeline
no longer calls into fractions.py or numbers.py at all.
"""

import cProfile
import os
import pstats
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlink import (
    CircleMap,
    PlanePoint,
    check_equivariance,
    gen_grid,
    gen_star,
    hull,
    layout,
    quotient_check,
)
from circlink import render
from circlink.generators import random_circle_map
from circlink.render import RenderOptions, _Canvas, _fmt, render_input_svg, render_straightened_svg
from circlink.straighten import LeafGraph
from crossing_oracle import _detect_crossings, _sort_spans
from plane_oracle import FractionPoint, crossings_by_pairs

F = Fraction

# near-equal rationals whose floats tie (see test_ranks.NEAR), small ones,
# and numerators and denominators of thousands of bits
TIED = [F(10 ** 20 + k, 3 * 10 ** 20) for k in range(4)] + [
    F(1, 3 * 10 ** 17), F(1, 3 * 10 ** 17 + 1)]
BIG = [F(3 ** 2000 + 1, 2 ** 3200), F(-(5 ** 1500), 7 ** 1300 + 2), F(2 ** 4000 - 1, 2 ** 4001)]
rationals = st.one_of(
    st.fractions(max_denominator=60),
    st.sampled_from(TIED + BIG),
    st.builds(F, st.integers(-(2 ** 3000), 2 ** 3000), st.integers(1, 2 ** 3000)),
)


def test_tied_values_collide_as_floats():
    assert len({float(q) for q in TIED[:4]}) == 1
    assert float(TIED[4]) == float(TIED[5])


# ── the stored triple ────────────────────────────────────────────────────

@settings(max_examples=300)
@given(rationals, rationals, rationals, rationals)
@example(F(1, 6), F(1, 10), F(1, 6), F(1, 10))
@example(F(0), F(-3, 4), F(0), F(3, 4))
def test_plane_point_matches_fraction_pair(x, y, u, v):
    p, q = PlanePoint(x, y), PlanePoint(u, v)
    po, qo = FractionPoint(x, y), FractionPoint(u, v)
    assert (p.x, p.y) == (po.x, po.y)
    assert type(p.x) is Fraction and type(p.y) is Fraction
    assert (p == q) == (po == qo)
    assert (p.key() == q.key()) == (po == qo)
    if p == q:
        assert hash(p) == hash(q)
    assert (str(p), repr(p), p.to_json()) == (str(po), repr(po), po.to_json())
    assert PlanePoint.from_json(p.to_json()) == p
    X, Y, D = p.key()
    assert D > 0 and (X, Y) == (x * D, y * D)
    assert Fraction(X, D) == x and Fraction(Y, D) == y


def test_plane_point_accepts_what_fraction_accepts():
    assert PlanePoint("-13/17", 0.5) == PlanePoint(F(-13, 17), F(1, 2))
    assert PlanePoint(2, "3").key() == (2, 3, 1)
    assert PlanePoint(F(2, 4), F(1, 6)).key() == (3, 1, 6)


bits = st.integers(min_value=1, max_value=6000)


def _float_or_overflow(fn):
    try:
        return fn()
    except OverflowError:
        return "overflow"


@settings(max_examples=300)
@given(st.integers(-(2 ** 6000), 2 ** 6000), st.integers(1, 2 ** 6000), bits)
@example(2 ** 53 + 1, 2 ** 53, 1)                        # a tie broken to even
@example(3 * 2 ** 4000 + 1, 2 ** 4001, 1)                # just above a tie
@example(-(10 ** 1200 + 1), 3 * 10 ** 1200, 1)
def test_int_division_is_the_fraction_float(num, den, shift):
    # what layout's float boxes and the renderer's pixels rely on: X / D for
    # an unreduced triple is float(Fraction(X, D)), also past 2**1000
    for X, D in ((num, den), (num, den << shift), (num % den, den)):
        assert _float_or_overflow(lambda: X / D) == _float_or_overflow(
            lambda: float(Fraction(X, D)))
    canvas = _Canvas(RenderOptions())
    p = PlanePoint(F(num % den, den), F(-num % den, den << shift))
    x, y = p.x, p.y
    assert canvas.xy(p.key()) == (_fmt(canvas.cx + canvas.radius * float(x)),
                                  _fmt(canvas.cy - canvas.radius * float(y)))


def test_render_formats_each_constant_once(monkeypatch):
    calls = []
    monkeypatch.setattr(render, "_fmt", lambda v: calls.append(v) or _fmt(v))
    fp = random_circle_map(1).apply_pair(gen_grid(6))
    sd = layout(fp)
    # every end of a leaf edge is a Z-point or its leaf's virtual vertex
    points = {p._h for p in sd.layout.values()} | {p._h for p in sd.virtual_positions.values()}
    svg = render_straightened_svg(sd)
    # two coordinates per distinct point and the boundary circle's centre
    # (two) and radius; widths, radii and opacities are formatted at import,
    # not per element (60 leaf edges and 36 Z-points)
    assert svg.count("<line") == 60 and svg.count("<circle") > 36
    assert len(calls) == 2 * len(points) + 3
    calls.clear()
    points = {h for s in fp.plus + fp.minus for h in hull(s)._h}
    points |= {h for c in fp.cells().values() for h in c._h}
    render_input_svg(fp)
    assert len(calls) == 2 * len(points) + 3


# ── the span sort and the crossing scan ──────────────────────────────────

def _span(lo, hi, leaf, idx):
    if hi < lo:
        lo, hi = hi, lo
    # unreduced, as spans are read from triples of either end
    k = 1 + idx % 3
    return (lo.numerator * k, lo.denominator * k, hi.numerator, hi.denominator,
            ("plus", leaf), idx, float(lo), float(hi))


span_values = st.sampled_from(TIED + [F(0), F(1, 3), F(2, 5), F(1, 2), F(1), F(-1, 3)])


@settings(max_examples=300)
@given(st.lists(st.tuples(span_values, span_values), min_size=1, max_size=12))
def test_span_sort_matches_fraction_key(pairs):
    entries = [_span(lo, hi, k % 4, k) for k, (lo, hi) in enumerate(pairs)]
    want = sorted(entries, key=lambda e: (Fraction(e[0], e[1]), Fraction(e[2], e[3])))
    _sort_spans(entries)
    assert entries == want


def _path_leaves(paths):
    leaves, table = [], {}
    for el, pts in enumerate(paths):
        atoms = tuple((el, k) for k in range(len(pts)))
        edges = tuple(zip(atoms, atoms[1:]))
        leaves.append(LeafGraph("plus", el, atoms, 0, edges))
        for a, p in zip(atoms, pts):
            table[("plus", el, a)] = p
    return leaves, lambda f, e, v: table[(f, e, v)]


def _run_both(paths):
    leaves, position = _path_leaves([[PlanePoint(x, y) for x, y in pts] for pts in paths])
    got = _detect_crossings(leaves, position)
    _, oracle_position = _path_leaves([[FractionPoint(x, y) for x, y in pts] for pts in paths])
    return got, crossings_by_pairs(leaves, oracle_position)


def test_crossings_need_the_exact_tie_break():
    # three spans on one line whose low ends tie as floats: sorted by floats
    # alone, [v2, 1/2] lands after [v3, 2/5], whose start stops the scan
    # from [v1, v3] before it reaches [v2, 1/2]
    v1, v2, v3 = TIED[:3]
    paths = [[(v1, 0), (v3, 0)], [(v3, 0), (F(2, 5), 0)], [(v2, 0), (F(1, 2), 0)]]
    got, want = _run_both(paths)
    assert got == want
    assert (("plus", 0, 0), ("plus", 2, 0)) in got


# points on the x axis and on the diagonal, at float-tied positions, and a
# few off both, so spans share lines, tie and cross between lines
ON_LINES = [(q, 0) for q in TIED[:4] + [F(0), F(1, 2), F(2, 5)]] + \
    [(q, q) for q in TIED[:4] + [F(0), F(1, 2)]] + [(F(1, 3), F(-1, 2)), (F(0), F(1, 3))]


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from(ON_LINES), min_size=2, max_size=3),
                min_size=2, max_size=5))
def test_crossings_match_all_pairs_oracle(paths):
    got, want = _run_both(paths)
    assert got == want


# ── no Fraction arithmetic left in the pipeline ──────────────────────────

def _fraction_calls(prof) -> int:
    return sum(stat[1] for (filename, _, _), stat in pstats.Stats(prof).stats.items()
               if os.path.basename(filename) in ("fractions.py", "numbers.py"))


@pytest.mark.parametrize("make", [lambda: random_circle_map(3).apply_pair(gen_grid(16)),
                                  lambda: gen_star(20)], ids=["mapped-grid", "star"])
def test_pipeline_makes_no_fraction_calls(make):
    fp = make()
    identity = CircleMap(1, 0, 0, 1)
    results, counts = {}, {}

    def run(name, fn):
        prof = cProfile.Profile()
        results[name] = prof.runcall(fn)
        counts[name] = _fraction_calls(prof)

    run("cells", fp.cells)
    run("layout", lambda: layout(fp))
    run("render_input_svg", lambda: render_input_svg(fp))
    run("render_straightened_svg", lambda: render_straightened_svg(results["layout"]))
    run("quotient_check", lambda: quotient_check(fp))
    run("check_equivariance", lambda: check_equivariance(fp, identity))
    assert results["cells"] and results["quotient_check"].ok and results["check_equivariance"].ok
    assert counts == dict.fromkeys(counts, 0)
