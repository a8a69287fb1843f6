"""Base classes of the records that validate, cache or are mutated.

The package's plain value records are typing.NamedTuple.  The others
(a generator set, a moment vector, a density curve, the Jacobi
coefficients, and the ladder's and the verify suite's mutable results) are
classes over __slots__ with an explicit __init__, on one of the two bases
here.  Making a class of either kind is cheap (a NamedTuple compiles a
one-line constructor, a slotted class nothing) and loads none of inspect,
ast, dis and tokenize: start-up is most of a short run.

A subclass names its fields in `_fields`, in constructor order, and sets
each of them in __init__.
"""
from __future__ import annotations


class Record:
    """== between records of one class, field by field, and a repr that
    names the fields.  Mutable, so unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A Record whose fields __init__ sets once, with _set_fields: assigning
    or deleting an attribute raises AttributeError, equal records hash
    equal, and copy and pickle rebuild a record through __init__."""

    __slots__ = ()

    def _set_fields(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()
