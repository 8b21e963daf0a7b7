"""Record classes without generated code.

A record class lists its fields, in constructor order, in ``_fields`` and
writes its own ``__init__``. ``Record`` shows an instance as
``Name(field=value, ...)`` and compares two instances of the same class by
their fields; it leaves instances unhashable, as they may change.
``Frozen`` records hash by their fields and refuse assignment and deletion
with ``AttributeError``. A frozen class's ``__init__`` stores its fields
straight into the instance ``__dict__``, where ``functools.cached_property``
also stores what it computes: neither passes through the guard. An
``__init__`` may also store there a value derived from its fields, as
``relalg.Table`` does with its scope entries, and the parser stores there
the resolution it computes, which the cached property would otherwise
compute; such a value, like a cached one, is not a field.
"""


class Record:
    """A record shown and compared by the fields named in ``_fields``."""

    __slots__ = ()
    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    __hash__ = None


class Frozen(Record):
    """A record whose fields are set once, by ``__init__``, and hashed."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)
