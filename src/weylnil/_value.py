"""The frozen value base of weylnil's generators, records and verdicts.

A subclass names its fields in ``__slots__``, in order, after the fields of
its bases; a subclass that adds no field declares ``__slots__ = ()`` and
keeps its parent's fields.  ``Value``'s one ``__init__`` binds its arguments
to the fields: positional arguments fill the fields from the first, keywords
fill fields by name, and a field given neither takes its value from the
class's ``_defaults`` dict, which may name trailing fields only and holds
immutable values, since every instance shares it.  Too many arguments, an
unknown keyword, a field given twice or a field left without a value raise
``TypeError`` before any field is set.  A subclass that checks or normalizes
its input defines its own ``__init__`` and passes the fields on through
``super().__init__``.  A built value keeps its fields: calling ``__init__``
on it again raises ``TypeError``, whatever the arguments, before any field
is set, so a value hashed into a set or dict cannot be rebound.  The binder
tells a built value from a blank one by what the value refers to
(``gc.get_referents`` reads the non-empty slots without raising); a class
with no fields keeps ``object.__init__``, which takes no arguments.

Equality, hashing, ``repr``, pickling, copying and positional ``match``
patterns read that field tuple, ``__match_args__``, as a frozen dataclass's
generated methods would, but no code is generated when the class is defined.
"""

from gc import get_referents as _referents


class Value:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the fields of every class in the MRO, bases first
        names = tuple(name for base in reversed(cls.__mro__) for name in vars(base).get("__slots__", ()))
        cls.__match_args__ = names
        if not names and cls.__init__ is Value.__init__:
            cls.__init__ = object.__init__
        # each field's slot descriptor setter: cheaper than object.__setattr__ by name
        cls._setters = tuple(getattr(cls, name).__set__ for name in names)
        cls._blank = _referents(object.__new__(cls))

    def __init__(self, *args, **kwargs):
        if _referents(self) != self._blank:
            raise TypeError(f"{type(self).__qualname__} is already built; its fields cannot be rebound")
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._bind(args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of any call but one positional argument per field."""
        names, defaults = cls.__match_args__, cls._defaults
        given = len(args)
        if given > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments but {given} were given")
        for name in kwargs:
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if names.index(name) < given:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
        values = list(args)
        for name in names[given:]:
            if name in kwargs:
                values.append(kwargs[name])
            elif name in defaults:
                values.append(defaults[name])
            else:
                missing = [name for name in names[given:] if name not in kwargs and name not in defaults]
                raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(map(repr, missing))}")
        return values

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if type(other) is type(self):
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__match_args__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
