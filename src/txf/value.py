"""Value classes: ``__slots__`` classes that compare, hash and print by their
fields, in slot order, as dataclasses do, without loading ``dataclasses``."""

from operator import attrgetter  # loaded already: re imports it

set_field = object.__setattr__  # how a Frozen __init__ sets a field


def set_fields(obj, values) -> None:
    """Set a Frozen value's fields from its ``__init__``, in slot order."""
    for name, value in zip(obj.__slots__, values):
        set_field(obj, name, value)


class Value:
    """Equal to an instance of its own class with equal fields; unhashable,
    as its fields may change. A subclass names its fields in ``__slots__``."""

    __slots__ = ()

    def __init_subclass__(cls):
        if cls.__slots__:  # not a method: self._fields_of(self), a tuple for 2+ fields
            cls._fields_of = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields_of(self) == other._fields_of(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Value):
    """A ``Value`` whose fields are set once, hashed as their tuple."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._fields_of(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):  # copy and pickle: (None, {field: value})
        for name, value in state[1].items():
            set_field(self, name, value)
