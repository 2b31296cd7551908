"""Frozen value records: the base of the library's public value classes.

A subclass lists its fields as class annotations, in order; only the names
are read, so the annotations may stay strings.  A class attribute with a
field's name is that field's default.  Record then gives the subclass what
a frozen dataclass would: an __init__ that binds positional and keyword
arguments and calls __post_init__ when the class defines one, equality on
the field tuple within one class, the hash of the field tuple, a
``Name(field=value, ...)`` repr, __match_args__, and no assignment or
deletion of attributes.

Instances keep a __dict__, so __post_init__ and callers may still store
derived data with object.__setattr__; such attributes take no part in
equality, hashing or repr.  Nothing is generated with exec, so defining a
record costs no more than defining a plain class.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields = fields = cls._fields + tuple(own)
        cls.__match_args__ = fields
        for before, name in zip(fields, fields[1:]):
            if hasattr(cls, before) and not hasattr(cls, name):
                raise TypeError(f"non-default field {name!r} follows a default field")

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__qualname__}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        for name, value in zip(fields, args):
            if name in kwargs:
                raise TypeError(f"{cls.__qualname__}() got multiple values for "
                                f"argument {name!r}")
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif hasattr(cls, name):
                value = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument "
                            f"{next(iter(kwargs))!r}")
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
