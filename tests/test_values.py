"""The small value classes keep the contract of the frozen dataclasses they
replaced: construction, equality, hash, repr and immutability."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from circlink import (
    CircleMap,
    DisjointLinked,
    DisjointUnlinked,
    EquivarianceReport,
    EspecialDisc,
    GenSpec,
    IntersectingAt,
    LeafGraph,
    MappedTo,
    NestingReport,
    NotInDomain,
    OnBoundary,
    QuotientReport,
    RenderOptions,
    StraightenedDisc,
    check_equivariance,
    gen_grid,
    layout,
    nesting_report,
    point,
    quotient_check,
)
from circlink.circle import INF, CircleSet
from circlink.errors import (
    CirclinkError,
    EmptyLinkedCellError,
    FamilyValidationError,
    Frozen,
    GroupOrderNotTotalError,
    InvariantViolation,
    MalformedInputError,
    NotDisjointError,
    NotInteriorError,
    OutsideDiscError,
)
from circlink.family import LaminarForest, NestingEntry, Violation
from circlink.hullgeom import ConvexCell, PlanePoint

# (class, positional arguments, different positional arguments)
CASES = [
    (Violation, ("WithinFamilyOverlap", "plus", 0, 1, (point(2),)),
     ("WithinFamilyOverlap", "plus", 0, 2, (point(2),))),
    (IntersectingAt, (point(3),), (point(4),)),
    (DisjointUnlinked, (), None),
    (DisjointLinked, (2,), (3,)),
    (NestingEntry, ("minus", 4, point(1), point(2), True, 3),
     ("minus", 4, point(1), point(2), False, None)),
    (MappedTo, ((0, 1),), ((1, 0),)),
    (OnBoundary, (point("-5/2"),), (point("5/2"),)),
    (NotInDomain, (), None),
    (RenderOptions, (640, 480, True), (640,)),
    (GenSpec, ("nested", 2, 3, 4, 5), ("nested", 2, 3, 4, 6)),
    (LeafGraph, ("plus", 0, ((0, 0), (0, 1)), 0, (((0, 0), (0, 1)),)),
     ("minus", 2, ((0, 2), (1, 2)), 1, (("v0", (0, 2)), ("v0", (1, 2))))),
    # hashable failures: a report whose failures hold dicts has no hash
    (QuotientReport, (True, (), 4, 16), (False, (), 4, 16)),
    (EquivarianceReport, (True, (1, 0), (0, 1), ()), (False, None, None, ())),
    (NestingReport, ((NestingEntry("plus", 0, point(1), point(2), False, None),),), ((),)),
    (EspecialDisc, (2, 2, ((0, 0, 2), (1, 1, 3)), ((0, 1, point(5)),)),
     (2, 2, ((0, 0, 2), (1, 1, 3)), ())),
    # the forest of one chord on two ranks, and one differing in inf_owner
    (LaminarForest, ((0, 0), None, (None,), (None, None, 0, None, None)),
     ((0, 0), 0, (None,), (None, None, 0, None, None))),
]

# the defaults of the dataclasses, by class
DEFAULTS = {
    Violation: {"witness": ()},
    GenSpec: {"n": 2, "k": 3, "depth": 2, "seed": 0},
    RenderOptions: {"width": 720, "height": 720, "labels": False},
}

IDS = [case[0].__name__ for case in CASES]


def _fields(cls):
    return list(inspect.signature(cls).parameters)


def _dataclass_twin(cls):
    """The frozen dataclass with cls's fields and defaults, as it was declared."""
    spec = []
    for name, param in inspect.signature(cls).parameters.items():
        if param.default is inspect.Parameter.empty:
            spec.append((name, object))
        else:
            spec.append((name, object, dataclasses.field(default=param.default)))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def test_signatures_keep_the_dataclass_defaults():
    for cls, args, _ in CASES:
        params = inspect.signature(cls).parameters
        defaults = {n: p.default for n, p in params.items()
                    if p.default is not inspect.Parameter.empty}
        assert defaults == DEFAULTS.get(cls, {}), cls.__name__
        assert list(params) == list(cls.__slots__), cls.__name__


@pytest.mark.parametrize("cls,args,other", CASES, ids=IDS)
def test_matches_a_frozen_dataclass(cls, args, other):
    twin = _dataclass_twin(cls)
    value, expected = cls(*args), twin(*args)
    assert repr(value) == repr(expected)
    assert hash(value) == hash(expected) == hash(tuple(args) + tuple(
        DEFAULTS.get(cls, {})[f] for f in _fields(cls)[len(args):]))
    assert value == cls(*args)
    assert not value != cls(*args)
    if other is not None:
        assert value != cls(*other)
        assert (value == cls(*other)) == (expected == twin(*other))


@pytest.mark.parametrize("cls,args,other", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, args, other):
    names = _fields(cls)
    value = cls(*args)
    assert cls(**dict(zip(names, args))) == value
    assert tuple(getattr(value, n) for n in names[:len(args)]) == tuple(args)
    defaults = DEFAULTS.get(cls, {})
    for name in names[len(args):]:
        assert getattr(value, name) == defaults[name]


@pytest.mark.parametrize("cls,args,other", CASES, ids=IDS)
def test_fields_are_read_only(cls, args, other):
    value = cls(*args)
    for name in _fields(cls) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*args)


@pytest.mark.parametrize("cls,args,other", CASES, ids=IDS)
def test_copies_and_pickles(cls, args, other):
    value = cls(*args)
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert clone == value and type(clone) is cls


def test_equality_only_within_a_class():
    assert DisjointUnlinked() == DisjointUnlinked()
    assert DisjointUnlinked() != NotInDomain()
    assert IntersectingAt(point(1)) != OnBoundary(point(1))
    assert DisjointLinked(2) != 2 and MappedTo((0, 1)) != (0, 1)
    assert len({DisjointUnlinked(), DisjointUnlinked(), NotInDomain()}) == 2


def test_render_options_defaults_by_keyword():
    opts = RenderOptions(width=100, labels=True)
    assert (opts.width, opts.height, opts.labels) == (100, 720, True)
    assert RenderOptions() == RenderOptions(**DEFAULTS[RenderOptions])


def test_results_compare_by_value_and_are_read_only():
    # each result equals the one recomputed from a fresh pair
    fp, again = gen_grid(3), gen_grid(3)
    reports = [quotient_check(fp), check_equivariance(fp, CircleMap(1, 0, 0, 1)),
               nesting_report(fp)]
    assert reports == [quotient_check(again), check_equivariance(again, CircleMap(1, 0, 0, 1)),
                       nesting_report(again)]
    sd, sd_again = layout(fp), layout(again)
    leaves = sd.leaves_plus + sd.leaves_minus
    assert leaves == sd_again.leaves_plus + sd_again.leaves_minus
    # and hashes by value
    assert len(set(leaves + sd_again.leaves_plus)) == len(leaves)
    for report, field in zip(reports, ("ok", "ok", "entries")):
        with pytest.raises(AttributeError):
            setattr(report, field, None)
    for leaf in leaves:
        with pytest.raises(AttributeError):
            leaf.edges = ()


def test_layout_is_a_value():
    # its dict fields leave it out of CASES: it compares by value but has no hash
    fp = gen_grid(3)
    sd = layout(fp)
    assert type(sd) is StraightenedDisc and sd == layout(fp) and not sd != layout(gen_grid(3))
    assert sd != layout(gen_grid(2))
    for clone in (copy.copy(sd), copy.deepcopy(sd), pickle.loads(pickle.dumps(sd))):
        assert clone == sd and type(clone) is StraightenedDisc
    assert repr(sd) == repr(_dataclass_twin(StraightenedDisc)(
        *(getattr(sd, f) for f in StraightenedDisc.__slots__)))
    for name in _fields(StraightenedDisc) + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(sd, name, None)
        with pytest.raises(AttributeError):
            delattr(sd, name)
    with pytest.raises(TypeError):
        hash(sd)
    assert sd == layout(fp)


# ── hand-written values and errors ───────────────────────────────────────

# (value, its fields): each rebuilds through its constructor, or through
# hullgeom._point and _cell, when pickled or copied
HAND_WRITTEN = [
    (point("-5/2"), ("num", "den")),
    (INF, ("num", "den")),
    (CircleSet(["1/2", 0, "inf"]), ("points",)),
    (CircleMap(1, "1/2", 0, 1), ("a", "b", "c", "d")),
    (PlanePoint("1/2", "-1/3"), ("_h", "x", "y")),
    (ConvexCell(1, [PlanePoint(0, 0), PlanePoint("1/2", 0)]), ("dim", "_h", "vertices")),
    (ConvexCell(2, [PlanePoint(0, 0), PlanePoint("1/2", 0), PlanePoint(0, "1/3")]),
     ("dim", "_h")),
]


@pytest.mark.parametrize("value,fields", HAND_WRITTEN,
                         ids=[type(v).__name__ for v, _ in HAND_WRITTEN])
def test_hand_written_values_are_read_only_and_round_trip(value, fields):
    before, digest = repr(value), hash(value)
    for name in fields + ("extra",):
        with pytest.raises(AttributeError):
            setattr(value, name, 7)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == before and hash(value) == digest
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value and hash(clone) == digest
        assert repr(clone) == before


def test_a_point_keeps_its_hash():
    # a point that took a new num would sit in the wrong hash bucket
    p = point(1)
    table = {p: "one"}
    with pytest.raises(AttributeError):
        p.num = 7
    assert table[point(1)] == "one" and p == 1


def _error_classes(cls=CirclinkError):
    out = [cls]
    for sub in cls.__subclasses__():
        out += _error_classes(sub)
    return out


# one or more errors of every CirclinkError class, each made when its test
# runs; z of any shape makes a message
ERRORS = [
    lambda: CirclinkError("plain"),
    lambda: NotDisjointError((point(1), point("1/2"))),
    lambda: OutsideDiscError(PlanePoint(2, "1/3")),
    lambda: NotInteriorError((0, 1)),
    lambda: NotInteriorError((0, 0, 0)),
    lambda: EmptyLinkedCellError((2, 3)),
    lambda: EmptyLinkedCellError((0,)),
    lambda: GroupOrderNotTotalError(((0, 1), (2, 3))),
    lambda: FamilyValidationError([
        Violation("WithinFamilyOverlap", "plus", 0, 1, (point(2),)),
        Violation("CrossIntersectionTooBig", "cross", 1, 0)]),
    lambda: InvariantViolation("hull-overlap", ("plus", 0, 1)),
    lambda: InvariantViolation("layout-collision", (0, 0), (0, 1)),
    lambda: InvariantViolation("x", (), (0, 0, 0)),
    lambda: MalformedInputError("bad", "$.plus[0]"),
    lambda: MalformedInputError("bad"),
]


def test_every_error_class_has_a_case():
    assert {type(make()) for make in ERRORS} == set(_error_classes())


def test_messages_of_int_pairs_keep_their_bytes():
    assert str(EmptyLinkedCellError((2, 3))) == "linked pair (2, 3) has an empty cell"
    assert str(InvariantViolation("layout-collision", (0, 0), (0, 1))) == (
        "invariant 'layout-collision' fails at (0, 1): (0, 0)")
    assert str(NotInteriorError((0, 1))) == "(0, 1) is not an interior Z-point"


@pytest.mark.parametrize("make", ERRORS, ids=range(len(ERRORS)))
def test_errors_round_trip_with_their_fields(make):
    error = make()
    # notes, which add_note keeps from 3.11 on, come back with the fields
    error.__notes__ = ["seen in a test"]
    for clone in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
        assert type(clone) is type(error)
        assert vars(clone) == vars(error)
        assert str(clone) == str(error) and clone.args == error.args


# ── errors that no command raises ────────────────────────────────────────

def _frozen_with_a_stray_default():
    class Pair(Frozen, c=0):
        __slots__ = ("a", "b")


LIBRARY_ERRORS = [
    (lambda: ConvexCell(3, [PlanePoint(0, 0)]), ValueError, "dim must be 0, 1, or 2"),
    (lambda: GenSpec(kind="bogus").build(), ValueError, "unknown kind 'bogus'"),
    (_frozen_with_a_stray_default, TypeError, "Pair has no field c"),
    (lambda: point(object()), TypeError, "cannot make a CirclePoint from <object"),
    (lambda: CircleSet([]), ValueError, "a CircleSet must be nonempty"),
    (lambda: INF.frac, ValueError, "INF has no finite value"),
    (lambda: PlanePoint.from_json(["1"]), MalformedInputError, "point must be a [x, y] pair"),
]


@pytest.mark.parametrize("call, error, message", LIBRARY_ERRORS, ids=range(len(LIBRARY_ERRORS)))
def test_library_errors(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert message in str(info.value)


def test_nesting_report_json():
    separated = NestingEntry("plus", 1, point(2), point(7), True, 2)
    unseparated = NestingEntry("minus", 0, point("15/2"), point("3/2"), False, None)
    assert NestingReport((separated, unseparated)).to_json() == {
        "entries": [
            {"family": "plus", "element": 1, "interval": ["2", "7"], "separated": True,
             "separator": 2},
            {"family": "minus", "element": 0, "interval": ["15/2", "3/2"], "separated": False,
             "separator": None},
        ],
        "defect_count": 1,
    }
