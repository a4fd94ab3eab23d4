"""The frozen value base of weylnil's generators, records and verdicts.

A subclass names its fields in ``__slots__``, in order, and ``Value``'s one
``__init__`` binds its arguments to them: positional arguments fill the
fields from the first, keywords fill fields by name, and a field given
neither takes its value from the class's ``_defaults`` dict, which may name
trailing fields only and holds immutable values, since every instance shares
it.  Too many arguments, an unknown keyword, a field given twice or a field
left without a value raise ``TypeError`` before any field is set.  A
subclass that checks or normalizes its input defines its own ``__init__``
and passes the fields on through ``super().__init__``.

Equality, hashing, ``repr``, pickling, copying and positional ``match``
patterns read that field tuple, as a frozen dataclass's generated methods
would, but no code is generated when the class is defined.
"""

_set = object.__setattr__  # looked up once, not once per field


class Value:
    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """The field values of any call but one positional argument per field."""
        names, defaults = cls.__slots__, cls._defaults
        if len(args) > len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments but {len(args)} were given")
        bound = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls.__qualname__}() got an unexpected keyword argument {name!r}")
            if name in bound:
                raise TypeError(f"{cls.__qualname__}() got multiple values for argument {name!r}")
            bound[name] = value
        missing = [name for name in names if name not in bound and name not in defaults]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(map(repr, missing))}")
        return [bound[name] if name in bound else defaults[name] for name in names]

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if type(other) is type(self):
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
