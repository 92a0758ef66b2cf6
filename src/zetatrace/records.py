"""Value semantics for the pipeline's slotted record classes.

A record class lists its fields first in ``__slots__``, in constructor
order, and returns them as a tuple from ``_fields``.  An instance equals only
an instance of its own class with an equal field tuple; a ``Record`` is
unhashable, a ``FrozenRecord`` hashes its field tuple.  A frozen record is
never assigned to after its constructor returns: its hash depends on that.
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{type(self).__name__}({args})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())
