"""The base of the package's value records.

A record lists its fields in ``__slots__``.  Unless its class defines
``__init__``, the base writes one that takes the fields in order, with
defaults for the trailing ones from ``defaults=(...)`` in the class
statement, as ``collections.namedtuple`` does.  The base gives every
record a ``Class(field=value, ...)`` repr, equality with records of its
own class only, and copies and pickles that go through the constructor.
A record is frozen unless its class is declared with ``frozen=False``:
a frozen record has a value hash, and its fields cannot be assigned or
deleted once ``__init__`` has set them with ``_set_field``.  A mutable
record is unhashable.
"""

_set_field = object.__setattr__


class _Record:
    __slots__ = ()

    def __init_subclass__(
        cls, frozen: bool = True, defaults: tuple = (), **kwargs
    ) -> None:
        super().__init_subclass__(**kwargs)
        # The constructor, equality and hash are written out for each
        # class so that they cost what hand-written methods do.
        fields = cls.__slots__
        own_init = "__init__" in cls.__dict__
        sets = "".join(f"    _set_field(self, {name!r}, {name})\n" for name in fields)
        mine = "".join(f"self.{name}, " for name in fields)
        theirs = "".join(f"other.{name}, " for name in fields)
        methods: dict = {}
        exec(
            ("" if own_init else f"def __init__(self, {', '.join(fields)}):\n{sets}")
            + "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n",
            {"__name__": cls.__module__, "_set_field": _set_field},
            methods,
        )
        if not own_init:
            methods["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            methods["__init__"].__defaults__ = defaults or None
            cls.__init__ = methods["__init__"]
        cls.__eq__ = methods["__eq__"]
        cls.__hash__ = methods["__hash__"] if frozen else None
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
