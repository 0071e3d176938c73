"""The immutable record base of the package's value classes.

A record keeps its fields in ``__slots__`` and names, in ``_fields``, those
that take part in ``==``, ``hash`` and ``repr``.  Its ``__init__`` fills the
slots through the slots' own setters, which :func:`setters` returns and
which bypass the raising ``__setattr__``; every later assignment or
deletion raises AttributeError.

>>> class Pair(Record):
...     __slots__ = _fields = ("a", "b")
...     def __init__(self, a, b):
...         _set_a(self, a)
...         _set_b(self, b)
>>> _set_a, _set_b = setters(Pair)
>>> Pair(1, b=2)
Pair(a=1, b=2)
>>> Pair(1, 2) == Pair(1, 2) and hash(Pair(1, 2)) == hash((1, 2))
True
"""

from __future__ import annotations

__all__ = ["Record", "setters"]


class Record:
    """Immutable record: value equality and hashing over the ``_fields``
    tuple, and ``repr`` as ``Name(field=value, ...)`` over the same fields.

    A class with identity semantics sets ``__eq__ = object.__eq__`` and
    ``__hash__ = object.__hash__``; an unhashable one sets ``__hash__ = None``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

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


def setters(cls, *names: str) -> tuple:
    """The setters of the named slots of ``cls`` (all its own ``__slots__``
    when none are named), in that order."""
    return tuple([vars(cls)[f].__set__ for f in names or cls.__slots__])
