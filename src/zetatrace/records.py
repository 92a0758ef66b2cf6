"""Value semantics for the pipeline's slotted record classes.

A record's fields are its constructor's parameters, in order, and lead its
``__slots__`` (defining the class raises ``TypeError`` otherwise); a later
slot, such as a factor's ``fold_key``, is not a field.  A subclass without a
constructor keeps its parent's fields.  ``_fields`` returns their values as a
tuple, which ``==``, the hash and the ``repr`` read: an instance equals only
an instance of its own class with an equal field tuple.  A ``Record`` is
unhashable.  A ``FrozenRecord`` hashes its field tuple, so only when every
field hashes: a ``ParamPoly`` has no hash, so hashing a ``ZetaTerm``,
``TAsymTerm``, ``MeroFactorProduct``, ``ReducedIntegral`` or ``MatrixSymbol``
raises ``TypeError``.  A frozen record is never assigned to after its
constructor returns: its hash depends on that.
"""

from operator import attrgetter


class Record:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        if "__init__" not in cls.__dict__:
            return
        code = cls.__init__.__code__
        names = code.co_varnames[1:code.co_argcount + code.co_kwonlyargcount]
        if tuple(cls.__slots__[:len(names)]) != names:
            raise TypeError(f"{cls.__name__}: the constructor's parameters {names} must lead __slots__")
        get = attrgetter(*names)
        cls._fields = (lambda self: (get(self),)) if len(names) == 1 else (lambda self: get(self))
        cls.__match_args__ = names

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __repr__(self):
        args = ", ".join(f"{name}={value!r}" for name, value in zip(self.__match_args__, self._fields()))
        return f"{type(self).__name__}({args})"


class FrozenRecord(Record):
    __slots__ = ()

    def __hash__(self):
        return hash(self._fields())
