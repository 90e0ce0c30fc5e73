"""Hull edge lines read off the end parameters, against the rim triples.

FamilyPair.lines gives each hull edge the line (q1 q2 - p1 p2,
p1 q2 + p2 q1, -(q1 q2 + p1 p2)) of its end parameters p1/q1 and p2/q2, INF
as 1/0, and the side test (hullgeom._in_cap) is one dot product with it.
The oracle is the cross product of the ends' rim triples
(q^2 - p^2, 2pq, q^2 + p^2) and the orientation test on them that the side
tests made before: the line must be an exact multiple of the one, and the
dot product's sign must give the other on every edge, the wrap edge and
both edges of a 2-point set included, for points inside, on and outside
the disc. Parameters have up to 4 096-bit parts.
"""

from itertools import combinations

from hypothesis import assume, given
from hypothesis import strategies as st

from circlink import INF, CirclePoint
from circlink.hullgeom import _edge_lines, _h_from_param, _h_line, _in_cap, _orient

BIG = 1 << 4096

# INF, or p/q with parts of up to 4 096 bits, small ones drawn often
parameter = st.one_of(
    st.just(INF),
    st.builds(CirclePoint, st.integers(-BIG, BIG), st.integers(1, BIG)),
    st.builds(CirclePoint, st.integers(-9, 9), st.integers(1, 9)),
)


def rim(u):
    """The unreduced rim triple of the parameter u = p/q, INF as 1/0."""
    p, q = u.num, u.den
    return (q * q - p * p, 2 * p * q, q * q + p * p)


def ranked(params):
    """The distinct parameters in circle order, INF last."""
    return tuple(sorted(dict.fromkeys(params)))


@given(parameter, parameter)
def test_rim_cross_product_is_twice_the_determinant_times_the_line(u, v):
    assume(u != v)
    line = _edge_lines((0, 1), (u, v))[1]
    det = u.num * v.den - v.num * u.den
    assert _h_line(rim(u), rim(v)) == tuple(2 * det * c for c in line)


@given(st.lists(parameter, min_size=2, max_size=6), st.lists(parameter, min_size=1, max_size=3))
def test_side_test_is_the_orientation_of_the_rim_triples(params, probes):
    points = ranked(params)
    assume(len(points) >= 2)
    s = tuple(range(len(points)))
    lines = _edge_lines(s, points)
    assert len(lines) == len(s)
    if len(s) == 2:
        assert lines[0] is lines[1]
    verts = [_h_from_param(u) for u in points]
    hs = []
    for w in probes:
        X, Y, D = _h_from_param(w)
        hs += [(X, Y, D), (2 * X, 2 * Y, D), (X, Y, 2 * D)]   # on, outside, inside
    # the vertices and the midpoints of edges lie on edge lines, those of
    # diagonals inside the hull
    hs += verts
    hs += [(a[0] * b[2] + b[0] * a[2], a[1] * b[2] + b[1] * a[2], 2 * a[2] * b[2])
           for a, b in combinations(verts, 2)]
    for e in s:
        for h in hs:
            assert _in_cap(lines, e, h) == (_orient(verts[s[e - 1]], verts[s[e]], h) < 0), (e, h)


@given(parameter, parameter)
def test_line_coefficients_have_at_most_2b_plus_2_bits(u, v):
    assume(u != v)
    b = max(abs(u.num).bit_length(), u.den.bit_length(), abs(v.num).bit_length(), v.den.bit_length())
    line = _edge_lines((0, 1), (u, v))[1]
    assert max(abs(c).bit_length() for c in line) <= 2 * b + 2
