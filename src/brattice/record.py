"""Frozen value records, without importing `dataclasses`.

A record class lists its fields as annotated class attributes, in order; a
value assigned in the class body is that field's default.  Records behave
like frozen dataclasses: they take their fields positionally or by keyword,
run `__post_init__` when the class has one (which may set fields through
`object.__setattr__`), refuse attribute assignment and deletion, compare
equal only to a record of the same class with equal fields, hash as the
tuple of their fields and print as `Name(field=value, ...)`.

Importing `dataclasses` loads `inspect`, `ast` and `dis`, the largest part
of the CLI's start-up; this module loads nothing.  Each class compiles one
`__init__`, which stores the fields straight into the instance dict, when
its first instance is made, so classes a run never builds cost nothing.
"""


def _first_init(self, *args, **kwargs):
    """Compile the class's own `__init__`, install it, and run it: each class
    pays for the compile when its first instance is made."""
    cls = self.__class__
    defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}
    params = "".join(f", {n}=_d[{n!r}]" if n in defaults else f", {n}" for n in cls._fields)
    body = "".join(f"\n    d[{n!r}] = {n}" for n in cls._fields)
    if hasattr(cls, "__post_init__"):
        body += "\n    self.__post_init__()"
    namespace = {"_d": defaults}
    exec(f"def __init__(self{params}):\n    d = self.__dict__{body}", namespace)
    cls.__init__ = namespace["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__(self, *args, **kwargs)


class Record:
    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls.__init__ = _first_init

    def _values(self):
        return tuple(getattr(self, n) for n in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
