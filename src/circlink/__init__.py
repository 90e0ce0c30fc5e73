"""Exact linking analysis and straightening of chord families on the circle.

The library works over the rational circle (one point compactification of the
rationals) with exact arithmetic throughout: no floats enter any predicate.
Top level API, roughly in dependency order:

- circle: points, cyclic order, intervals, finite point sets, linking.
- family: admissible family pairs, pair classification, the especial disc.
- hullgeom: convex hulls of marked points inside the closed unit disc.
- straighten: the straightening map, leaf trees, quotient verification.
- symmetry: projective circle maps and equivariance checking.
- generators: deterministic and seeded example builders.
- render: SVG output for the input picture and the straightened picture.
"""

from .circle import (
    INF,
    CirclePoint,
    CircleSet,
    Orientation,
    OrientedInterval,
    complementary_intervals,
    cyclic_order,
    in_interval,
    link_number,
    link_number_counts,
    linked,
    open_interval,
    point,
    separates,
)
from .errors import (
    CirclinkError,
    EmptyLinkedCellError,
    FamilyValidationError,
    GroupOrderNotTotalError,
    InvariantViolation,
    MalformedInputError,
    NotDisjointError,
    NotInteriorError,
    NotLinearlyOrderedError,
    OutsideDiscError,
)
from .family import (
    DisjointLinked,
    DisjointUnlinked,
    EspecialDisc,
    FamilyPair,
    IntersectingAt,
    NestingReport,
    PairIndex,
    classify_pair,
    especial_disc,
    fiber_minus,
    fiber_plus,
    nesting_report,
    prong_count,
    separation_interval,
    validate,
)
from .generators import (
    GenSpec,
    gen_figure,
    gen_grid,
    gen_nested,
    gen_star,
    gen_symmetric,
    gen_tripod,
    nested_pair,
    random_family_pair,
    random_set_pair,
)
from .hullgeom import (
    ConvexCell,
    PlanePoint,
    cell_intersection,
    hull,
    linked_cells,
    locate,
    param_to_point,
    point_to_param,
)
from .render import RenderOptions, render_input_svg, render_straightened_svg
from .straighten import (
    LeafGraph,
    MappedTo,
    NotInDomain,
    OnBoundary,
    QuotientReport,
    StraightenedDisc,
    layout,
    leaf_graph,
    quotient_check,
    straighten_point,
)
from .symmetry import CircleMap, EquivarianceReport, apply, check_equivariance

__version__ = "0.1.0"

__all__ = [
    "CirclePoint", "CircleSet", "INF", "Orientation", "OrientedInterval",
    "complementary_intervals", "cyclic_order", "in_interval", "link_number",
    "link_number_counts", "linked", "open_interval", "point", "separates",
    "CirclinkError", "EmptyLinkedCellError", "FamilyValidationError",
    "GroupOrderNotTotalError", "InvariantViolation", "MalformedInputError",
    "NotDisjointError", "NotInteriorError", "NotLinearlyOrderedError", "OutsideDiscError",
    "DisjointLinked", "DisjointUnlinked", "EspecialDisc", "FamilyPair",
    "IntersectingAt", "NestingReport", "PairIndex", "classify_pair", "especial_disc",
    "fiber_minus", "fiber_plus", "nesting_report", "prong_count",
    "separation_interval", "validate",
    "GenSpec", "gen_figure", "gen_grid", "gen_nested", "gen_star",
    "gen_symmetric", "gen_tripod", "nested_pair", "random_family_pair",
    "random_set_pair",
    "ConvexCell", "PlanePoint", "cell_intersection", "hull", "linked_cells",
    "locate", "param_to_point", "point_to_param",
    "RenderOptions", "render_input_svg", "render_straightened_svg",
    "LeafGraph", "MappedTo", "NotInDomain", "OnBoundary", "QuotientReport",
    "StraightenedDisc", "layout", "leaf_graph", "quotient_check",
    "straighten_point",
    "CircleMap", "EquivarianceReport", "apply", "check_equivariance",
    "__version__",
]
