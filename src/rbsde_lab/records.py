"""Immutable record classes that generate no code when the package loads.

Records that only hold results are ``typing.NamedTuple``s.  Records that
check their fields when built, keep cached properties, or compare by
identity are plain classes over :class:`Record`, which builds any of them
from ``_fields`` alone; a type writes its own ``__init__`` only to check
its fields.  Both kinds answer ``_fields``, ``_replace`` and ``_asdict``,
which is all the package reads of a record generically.  A ``_replace``
copy of a :class:`Record` goes through its class's ``__init__``, so it
passes the same checks as any other construction.
"""

from __future__ import annotations


class Record:
    """Fields named by ``_fields``, set once by ``__init__`` through :meth:`_set`.

    ``__init__`` takes the fields by position, then by name, and like a
    NamedTuple raises ``TypeError`` for an extra, unknown, repeated or
    missing one; a subclass that checks its fields writes its own, ending
    in ``self._set(...)``.  Assigning or deleting an attribute raises
    ``AttributeError``, the repr lists the fields by name, and equality is
    identity (see :class:`ValueRecord`).  A subclass declares ``__slots__``
    as its own fields, or none at all when a ``cached_property`` needs an
    instance dict.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values, **named) -> None:
        rest = self._fields[len(values):]
        if len(values) > len(self._fields) or named.keys() != set(rest):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {self._fields}; got "
                f"{len(values)} by position and {sorted(named)} by name"
            )
        self._set(*values, *(named[name] for name in rest))

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self._fields}

    def _replace(self, **changes):
        return type(self)(**{**self._asdict(), **changes})

    def __reduce__(self):
        # copies and pickles are rebuilt by ``__init__``; restoring slots
        # one by one would go through the ``__setattr__`` above
        return type(self), tuple(getattr(self, name) for name in self._fields)


class ValueRecord(Record):
    """A :class:`Record` equal to, and hashed as, any record of its type with
    the same :meth:`_key` (its field values, unless a subclass says otherwise)."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())
