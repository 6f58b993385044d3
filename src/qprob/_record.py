"""Frozen value classes with __slots__: the base class of every qprob value.

A subclass names its fields in __slots__, in constructor order, and its own
__init__ validates the arguments and then sets each field once with _set.
Record adds the rest of a frozen value, with no generated code and no import:
__match_args__ is the field names, a base class's first; assignment and
deletion raise AttributeError; two values are equal when they are of the
same class and their fields are equal, and hash as the tuple of their
fields; the repr lists the fields by name; and pickle and copy rebuild a
value by calling the class on its fields, validation and all.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        slots = (vars(base).get("__slots__", ()) for base in reversed(cls.__mro__))
        cls.__match_args__ = tuple(name for names in slots for name in names)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()
