"""Point location on a family nested 4 000 deep.

The plus chords [-k, k] for k = 1..4000 all straddle parameter 0, so a query
near the origin has a straddler path 4 000 sets long. locate reads that path
from the laminar forest per query; nothing quadratic in the depth is built.
"""

import tracemalloc
from fractions import Fraction

import pytest

from circlink import (
    MappedTo,
    NotInDomain,
    PlanePoint,
    cell_intersection,
    locate,
    straighten_point,
    validate,
)

from test_locate import family_hulls, locate_by_scan

DEPTH = 4000
F = Fraction


def deep_chain():
    return validate([[-k, k] for k in range(1, DEPTH + 1)], [["1/2", "40000"]])


@pytest.fixture(scope="module")
def chain():
    return deep_chain()


def chord_x(k):
    # the chord [-k, k] is the vertical segment x = (1 - k^2) / (1 + k^2)
    return F(1 - k * k, 1 + k * k)


def chord_top(k):
    return F(2 * k, 1 + k * k)


def test_first_query_builds_nothing_quadratic():
    fp = deep_chain()
    tracemalloc.start()
    try:
        result = straighten_point(fp, PlanePoint(0, 0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == NotInDomain()
    assert peak < 4 * 2 ** 20, peak


@pytest.mark.parametrize("k", [1, 2, 57, 1000, 2500, DEPTH])
def test_points_on_chords_at_every_depth(chain, k):
    pts = [PlanePoint(chord_x(k), 0), PlanePoint(chord_x(k), chord_top(k) / 3),
           PlanePoint(chord_x(k), -chord_top(k))]
    for p in pts:
        assert locate(chain, p) == locate_by_scan(chain, p) == (k - 1, None)
    # where the minus chord crosses chord k, both hulls hold the point
    meet = cell_intersection(family_hulls(chain, "plus")[k - 1], family_hulls(chain, "minus")[0])
    p = meet.vertices[0]
    assert locate(chain, p) == locate_by_scan(chain, p) == (k - 1, 0)
    assert straighten_point(chain, p) == MappedTo((k - 1, 0))


def test_point_off_every_chord(chain):
    for p in [PlanePoint((chord_x(2) + chord_x(3)) / 2, 0), PlanePoint(F(1, 2), F(1, 4))]:
        assert locate(chain, p) == locate_by_scan(chain, p) == (None, None)
        assert straighten_point(chain, p) == NotInDomain()
