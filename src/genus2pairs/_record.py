"""The base of the package's value records.

A record lists its fields in ``__slots__`` and writes its own
``__init__``.  The base gives it a ``Class(field=value, ...)`` repr,
equality with records of its own class only, and copies and pickles
that go through the constructor.  A record is frozen unless its class
is declared with ``frozen=False``: a frozen record has a value hash,
and its fields cannot be assigned or deleted once its ``__init__`` has
set them with ``_set_field``.  A mutable record is unhashable.
"""

_set_field = object.__setattr__


class _Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # Equality and hash read the fields as one tuple, written out
        # for each class so that they cost what hand-written methods do.
        mine = "".join(f"self.{name}, " for name in cls.__slots__)
        theirs = "".join(f"other.{name}, " for name in cls.__slots__)
        methods: dict = {}
        exec(
            "def __eq__(self, other):\n"
            "    if other.__class__ is self.__class__:\n"
            f"        return ({mine}) == ({theirs})\n"
            "    return NotImplemented\n"
            "def __hash__(self):\n"
            f"    return hash(({mine}))\n",
            {},
            methods,
        )
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
