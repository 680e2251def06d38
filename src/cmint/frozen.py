"""A slotted base for the package's immutable value classes.

A subclass names its fields, in constructor order, in both `__slots__` and
`_fields`, and sets them in its own `__init__` with `object.__setattr__`.
Instances then compare, hash and print as the fields tuple does: equal only
to an instance of the same class with equal fields, `hash` of the fields
tuple, and a `Name(field=value, ...)` repr. Assignment raises
`AttributeError`. `CMFieldData` takes the same hash once and stores it.
"""

from __future__ import annotations


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            # the same object has the same fields, and a field tuple equals itself
            return self is other or self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({inner})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()
