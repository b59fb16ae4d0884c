"""The base class of the package's immutable value types.

It stands in for ``dataclasses.dataclass(frozen=True)``, whose import
(inspect, ast, dis and tokenize) and generated methods cost a command more
start-up time than most commands spend computing.  A record is built in one
way: its values are bound to its fields in order, then its ``__post_init__``
checks them.
"""


class Record:
    """An immutable record.  A subclass names its fields in ``_fields``; the
    constructor takes one value per field, in that order, and then calls
    ``__post_init__``, which a subclass overrides to check or normalise its
    fields (rebinding one with ``object.__setattr__``).  Two records are
    equal when they are of the same class with equal fields, a record
    hashes as the tuple of its fields, and assigning or deleting an
    attribute raises AttributeError."""

    _fields = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(
                f"{type(self).__name__}({', '.join(self._fields)}) takes "
                f"{len(self._fields)} values, got {len(values)}"
            )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _astuple(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"
