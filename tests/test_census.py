"""Every valid pair on at most five marked points (tests/census.py).

On each pair the disc agrees with the point-by-point and the all-pairs
classifications, the leaf trees (and the elements whose trees raise) with
the builder they replaced, and layout's crossings with the global scan and
the all-pairs Fraction test. quotient_check passes, and a pair without a
boundary Z-point lays out with no crossing under each rotation. Pairs with
one still raise or cross (ROADMAP item 2); their counts are printed, not
pinned. CI runs n = 6 through the script.
"""

import pytest

import allpairs_oracle
import census
import pointwise_oracle
from circlink import especial_disc, layout
from circlink.errors import GroupOrderNotTotalError
from test_leaf_trees import _same_leaves
from test_planarity import assert_matches_oracles


def checked_layout(fp):
    """census.lay_out(fp), once every oracle agrees."""
    assert especial_disc(fp) == pointwise_oracle.especial_disc(fp) == allpairs_oracle.especial_disc(fp)
    if _same_leaves(fp):
        with pytest.raises(GroupOrderNotTotalError):
            layout(fp)
        return None
    return assert_matches_oracles(fp).crossings


def test_families_on_n_points():
    assert [len(census.families(n)) for n in (3, 4, 5, 6)] == [15, 51, 188, 731]


@pytest.mark.parametrize("n, classes", [(3, 45), (4, 373), (5, 3497)])
def test_every_small_pair_matches_the_oracles(n, classes):
    counts = census.census(n, checked_layout)
    assert counts.pop("failures") == []
    assert counts["pairs"] == classes
    print("census", n, counts)
