"""Record classes written out in full, so that importing them generates no
code. A record class lists its fields in ``__match_args__`` and sets them in
its own ``__init__``. `Record` gives equality (same class, equal fields) and
the repr ``Name(field=value, ...)``, and is unhashable; a `Frozen` record
refuses assignment, and its ``__init__`` writes each field with `set_field`."""

set_field = object.__setattr__


class Record:
    def _key(self):
        return (type(self),) + tuple([_nested(getattr(self, f)) for f in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__match_args__))


def _nested(value):
    if isinstance(value, Frozen):
        return value._key()
    records = type(value) is tuple and value and isinstance(value[0], Frozen)
    return tuple(map(_nested, value)) if records else value


class Frozen(Record):
    """A Record set once, its key and hash kept on first use. The key holds
    the key of each Frozen record in its fields or in a tuple field of
    records, so two trees of records compare and hash as nested tuples, in C.

    ``_records`` names what a class keeps beside its fields; a subclass
    that adds its own extends the tuple, and its ``__init__`` calls
    `_unkept` after writing the fields."""

    _records = ("_kept", "_hash")

    def _unkept(self):
        """Write each record unset. CPython 3.11 stops adding names to a
        class's shared attribute keys once about 30 of its instances exist,
        and a name that no longer fits gives the instance a ``__dict__``,
        which takes every field load off the specialized path; written by
        the first instances, every name fits."""
        for name in self._records:
            set_field(self, name, None)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    def _key(self):
        key = getattr(self, "_kept", None)
        if key is None:
            key = Record._key(self)
            set_field(self, "_kept", key)
        return key

    def __hash__(self):
        kept = getattr(self, "_hash", None)
        if kept is None:
            kept = hash(self._key())
            set_field(self, "_hash", kept)
        return kept
