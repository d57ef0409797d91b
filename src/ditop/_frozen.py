"""A base for the small immutable value types that are not plain tuples."""

from __future__ import annotations

from operator import attrgetter

# subclass constructors fill their slots through this, past the guard below
set_field = object.__setattr__


class Frozen:
    """An immutable record kept in ``__slots__``.

    Two instances are equal, and hash alike, when they have the same
    class and equal compared fields: every slot, unless the subclass
    names fewer in ``_compared``.  A subclass constructor takes the
    slots positionally in order, which is how copies and pickles
    rebuild an instance.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(cls._compared or cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"
