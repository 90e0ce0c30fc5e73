"""Structured errors shared across the library, and the base of its values.

Every error that callers are expected to catch carries enough fields to
rebuild the offending configuration; messages alone are never the contract.
"""

from __future__ import annotations


class Immutable:
    """Base of the classes whose attributes cannot be assigned or deleted.

    A subclass's constructor sets its fields with object.__setattr__; after
    that, assignment and deletion raise AttributeError. Pickle restores slot
    state through __setattr__, so each subclass rebuilds in __reduce__.
    A functools.cached_property writes into the instance __dict__ without
    __setattr__, so a subclass may still cache what it derives.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class Frozen(Immutable):
    """Base of the small immutable value classes, declared by their fields.

    A subclass lists its fields in __slots__, in constructor order, and gives
    the defaults of trailing fields as class keywords, as in
    `class GenSpec(Frozen, n=2, k=3, depth=2, seed=0)`. For each subclass
    this base writes the __init__, __eq__ and __hash__ a frozen dataclass
    would generate, compiled once: __init__ sets each field with
    object.__setattr__ and ends by calling __post_init__ when the class has
    one, equality compares field tuples within one class, and the hash is
    that of the field tuple. Field assignment and deletion raise
    AttributeError (see Immutable), and the repr, pickle and copy support
    are the dataclass's, with each int field of the repr spelled by
    _digits.
    """

    __slots__ = ()

    def __init_subclass__(cls, **defaults):
        fields = cls.__slots__
        unknown = sorted(set(defaults) - set(fields))
        if unknown:
            raise TypeError("%s has no field %s" % (cls.__qualname__, ", ".join(unknown)))

        def row(obj):
            return "(%s)" % "".join("%s.%s, " % (obj, f) for f in fields)

        params = "".join(", %s=_defaults[%r]" % (f, f) if f in defaults else ", " + f
                         for f in fields)
        lines = ["def __init__(self%s):" % params]
        lines += ["    _set(self, %r, %s)" % (f, f) for f in fields]
        if hasattr(cls, "__post_init__"):
            lines.append("    self.__post_init__()")
        lines += ["    return None",  # a body for a class with no fields
                  "def __eq__(self, other):",
                  "    if other.__class__ is self.__class__:",
                  "        return %s == %s" % (row("self"), row("other")),
                  "    return NotImplemented",
                  "def __hash__(self):",
                  "    return hash(%s)" % row("self")]
        namespace = {"__name__": cls.__module__, "_set": object.__setattr__,
                     "_defaults": defaults}
        exec("\n".join(lines), namespace)
        for name in ("__init__", "__eq__", "__hash__"):
            fn = namespace[name]
            fn.__qualname__ = "%s.%s" % (cls.__qualname__, name)
            setattr(cls, name, fn)

    def __reduce__(self):
        return (self.__class__, tuple(getattr(self, n) for n in self.__slots__))

    def __repr__(self) -> str:
        # an int field, not a bool, is spelled past str's digit limit too
        values = [getattr(self, n) for n in self.__slots__]
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%s" % (n, _digits(v) if type(v) is int else repr(v))
            for n, v in zip(self.__slots__, values)))


def _digits(n: int) -> str:
    """str(n), also for an int with more digits than str converts
    (sys.get_int_max_str_digits()): such an int is split at a power of ten
    into a high and a low part, each spelled alone."""
    try:
        return str(n)
    except ValueError:
        k = n.bit_length() * 3 // 20    # about half its digits: log10(2) > 3/10
        high, low = divmod(abs(n), 10 ** k)
        return "-" * (n < 0) + _digits(high) + _digits(low).zfill(k)


def _spell(value, limit: int = 60) -> str:
    """str(value) for a message, cut to limit characters with "...".

    A message spells each point or value through this, so it stays short
    and is always made. A point of the library spells an int of any length
    (_digits), but str of a bare int with more digits than
    sys.get_int_max_str_digits() raises ValueError, and a value holding one
    is spelled by its type's name instead. The error's fields keep the value
    itself.
    """
    try:
        text = str(value)
    except ValueError:
        text = "<%s too long to spell>" % type(value).__name__
    return text if len(text) <= limit else text[:limit - 3] + "..."


class CirclinkError(Exception):
    """Base class for all library errors.

    Each subclass keeps its constructor's arguments as attributes of the
    same names, and pickle and copy rebuild the error from them, so a copy
    has the same fields and message; notes and any other attribute come
    back as its state. Errors stay assignable, as add_note needs. A
    message spells each point, Z-point or count with _spell, so a z of any
    shape still makes one, and a point too long to spell makes a short one.
    """

    def __reduce__(self):
        code = getattr(type(self).__init__, "__code__", None)
        if code is None:
            return super().__reduce__()
        names = code.co_varnames[1:code.co_argcount]
        return (type(self), tuple([getattr(self, n) for n in names]), self.__dict__)


class NotDisjointError(CirclinkError):
    """Two point sets that were required to be disjoint share points."""

    def __init__(self, shared):
        self.shared = tuple(shared)
        super().__init__("sets share points: %s" % (", ".join(_spell(p) for p in self.shared)))


class OutsideDiscError(CirclinkError):
    """A plane point lies strictly outside the closed unit disc."""

    def __init__(self, point):
        self.point = point
        # str(point) spells x and y as str(Fraction) does, importing no fractions
        super().__init__("point %s is outside the closed unit disc" % _spell(point))


class NotInteriorError(CirclinkError):
    """An index pair is not an interior Z-point of the given pair of families."""

    def __init__(self, z):
        self.z = z
        super().__init__("%s is not an interior Z-point" % _spell(z))


class EmptyLinkedCellError(CirclinkError):
    """A pair listed as linked has no cell: its jump-edge walk did not
    close after exactly its linking number of rounds. This is a bug."""

    def __init__(self, z):
        self.z = z
        super().__init__("linked pair %s has an empty cell" % _spell(z))


class GroupOrderNotTotalError(CirclinkError):
    """Both ends of a leaf-graph chain, or neither, face the virtual vertex.

    witness is the chain's first and last Z-points.
    """

    def __init__(self, witness):
        self.witness = tuple(witness)
        super().__init__("group members %s admit no separation chain" % _spell(self.witness))


class FamilyValidationError(CirclinkError):
    """A family pair violates the admissibility clauses.

    violations lists every violated clause, not just the first one found.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        lines = "; ".join(v.describe() for v in self.violations)
        super().__init__("invalid family pair: %s" % lines)


class InvariantViolation(CirclinkError):
    """A stated invariant failed on exact data; this is a bug, not bad input.

    invariant names the rule, counts holds the values that break it and z
    the Z-point they were computed for (None when there is none).
    """

    def __init__(self, invariant, counts, z=None):
        self.invariant = invariant
        self.counts = tuple(counts)
        self.z = tuple(z) if z is not None else None
        where = " at %s" % _spell(self.z) if self.z is not None else ""
        super().__init__("invariant '%s' fails%s: %s" % (invariant, where, _spell(self.counts)))


class MalformedInputError(CirclinkError):
    """Input text or JSON does not match the documented wire format."""

    def __init__(self, message, location=None):
        self.message = message
        self.location = location
        if location:
            message = "%s (at %s)" % (message, location)
        super().__init__(message)
