"""Exact linking analysis and straightening of chord families on the circle.

The library works over the rational circle (one point compactification of the
rationals) with exact arithmetic throughout: no floats enter any predicate.
Top level API, roughly in dependency order:

- circle: points, finite point sets, linking.
- family: admissible family pairs, pair classification, the especial disc.
- hullgeom: convex hulls of marked points inside the closed unit disc.
- straighten: the straightening map, leaf trees, quotient verification.
- symmetry: projective circle maps and equivariance checking.
- generators: deterministic and seeded example builders.
- render: SVG output for the input picture and the straightened picture.
"""

from importlib import import_module

# Each submodule and the public names it defines, in the order of __all__.
# Nothing is imported until a name is first read (PEP 562), so `import
# circlink` loads no submodule and each command loads only what it uses.
_EXPORTS = {
    "circle": (
        "CirclePoint", "CircleSet", "INF", "complementary_intervals", "link_number",
        "linked", "point", "separates",
    ),
    "errors": (
        "CirclinkError", "EmptyLinkedCellError", "FamilyValidationError",
        "GroupOrderNotTotalError", "InvariantViolation", "MalformedInputError",
        "NotDisjointError", "NotInteriorError", "OutsideDiscError",
    ),
    "family": (
        "DisjointLinked", "DisjointUnlinked", "EspecialDisc", "FamilyPair",
        "IntersectingAt", "NestingReport", "classify_pair", "especial_disc",
        "fiber_minus", "fiber_plus", "nesting_report", "prong_count",
        "separation_interval", "validate",
    ),
    "generators": (
        "GenSpec", "gen_figure", "gen_grid", "gen_nested", "gen_star", "gen_symmetric",
        "gen_tripod", "nested_pair", "random_family_pair", "random_set_pair",
    ),
    "hullgeom": (
        "ConvexCell", "PlanePoint", "cell_intersection", "hull", "linked_cells",
        "locate", "param_to_point", "point_to_param",
    ),
    "render": ("RenderOptions", "render_input_svg", "render_straightened_svg"),
    "straighten": (
        "LeafGraph", "MappedTo", "NotInDomain", "OnBoundary", "QuotientReport",
        "StraightenedDisc", "layout", "leaf_graph", "quotient_check", "straighten_point",
    ),
    "symmetry": ("CircleMap", "EquivarianceReport", "apply", "check_equivariance"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_SOURCE, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        # importing a submodule binds it in this namespace
        return import_module("." + name, __name__)
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | set(_SOURCE))
