"""The immutable record base of the package's value classes.

A record keeps its fields in ``__slots__`` and names, in ``_fields``, those
that take part in ``==``, ``hash`` and ``repr``.  Its ``__init__`` ends with
one ``self._fill(...)``, which sets the class's own slots in order through
the slots' own setters, bypassing the raising ``__setattr__``; a slot that
is filled after construction is written once by ``self._set(name, value)``,
through the same setter.  Every other assignment or deletion raises
AttributeError.

>>> class Pair(Record):
...     __slots__ = _fields = ("a", "b")
...     def __init__(self, a, b):
...         self._fill(a, b)
>>> Pair(1, b=2)
Pair(a=1, b=2)
>>> Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash((1, 2))
True
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Immutable record: value equality and hashing over the ``_fields``
    tuple, and ``repr`` as ``Name(field=value, ...)`` over the same fields.

    A class with identity semantics sets ``__eq__ = object.__eq__`` and
    ``__hash__ = object.__hash__``; an unhashable one sets ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _setters: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple([vars(cls)[f].__set__ for f in cls.__slots__])

    def _fill(self, *values) -> None:
        """Set the class's own slots, in ``__slots__`` order, to values."""
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)

    def _set(self, name: str, value) -> None:
        """Fill the slot ``name``, left empty at construction, with value."""
        getattr(self.__class__, name).__set__(self, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        args = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({args})"

