"""The base of the package's immutable value records.

A subclass of ``Record`` declares its fields as class annotations, in order,
and a field's default as a class attribute of the same name.  That is the
frozen-dataclass spelling, and records behave like frozen dataclasses:

* ``Name(*args, **kwargs)`` binds the arguments to the fields, raises
  ``TypeError`` on a missing, unknown or duplicated argument, and then calls
  ``__post_init__`` (which may normalise a field with
  ``object.__setattr__``);
* two records are equal when they have the same class and equal field
  tuples, and a record hashes as its field tuple;
* ``repr`` is ``Name(field=value, ...)``;
* assigning or deleting an attribute raises ``AttributeError``.

The field list is read once, when the class is created, and no source is
generated or executed, so defining a record costs one pass over its
annotations.  The tests check every record against a frozen dataclass built
from the same fields.
"""


class Record:
    _fields = ()
    _defaults = {}  # field -> default, for the fields that have one

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(f for f in cls.__annotations__ if f not in cls._fields)
        cls._defaults = {f: getattr(cls, f) for f in cls._fields if hasattr(cls, f)}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            self.__dict__.update(self._bind(args, kwargs))
        else:
            self.__dict__.update(zip(fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs):
        """The field values by name: the positional arguments, the keyword
        arguments, then the defaults."""
        fields, name = cls._fields, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional "
                            f"arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for key in kwargs:
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values.update(kwargs)
        if len(values) < len(fields):
            for key, default in cls._defaults.items():
                values.setdefault(key, default)
            if len(values) < len(fields):
                raise TypeError(f"{name}() missing required arguments: " + ", ".join(
                    repr(f) for f in fields if f not in values))
        return values

    def __post_init__(self):
        pass

    def _astuple(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
