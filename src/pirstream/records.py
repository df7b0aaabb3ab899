"""Records: the package's value classes, built by one small base class.

A record class derives from ``Record`` and lists its fields as class
annotations, in order.  A field given a class value has it as its
default; one given ``Fresh(make)`` gets a new ``make()`` for each record.
Each class's ``__init__`` is compiled once, takes the fields by position
or keyword, sets each by ``object.__setattr__`` (not through the
instance ``__dict__``, which would make every later attribute read
slower) and then runs the class's ``__post_init__``, if it has one.

A record compares, hashes and prints by its fields in order, as
``Name(field=value, ...)``, and refuses assignment and deletion with
``AttributeError``.  It pickles its fields alone, not what its
``cached_property``s built or kept (kernel maps are closures, which
pickle cannot carry), so a copy starts cold wherever it was made.

The standard library's generator of such classes imports ``inspect`` and
builds each class by several ``exec``s: with it, every process start-up
spent about 25 ms on the fourteen classes it built here.
"""


class Fresh:
    """A field default made anew for each record by ``make()``."""

    def __init__(self, make):
        self.make = make


class Record:
    """The base of every record class (see the module docstring)."""

    _fields = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = names = tuple(cls.__annotations__)
        env = {"_setattr": object.__setattr__}
        params, body = [], []
        for name in names:
            if name not in cls.__dict__:
                params.append(name)
                continue
            default = env["_default_" + name] = cls.__dict__[name]
            params.append(f"{name}=_default_{name}")
            if isinstance(default, Fresh):
                body.append(f" if {name} is _default_{name}:"
                            f" {name} = _default_{name}.make()")
                delattr(cls, name)
        body += [f" _setattr(self, {name!r}, {name})" for name in names]
        if hasattr(cls, "__post_init__"):
            body.append(" self.__post_init__()")
        values = "".join(f"self.{name}, " for name in names)
        exec(f"def __init__(self, {', '.join(params)}):\n" + "\n".join(body)
             + f"\ndef _values(self): return ({values})", env)
        cls.__init__, cls._values = env["__init__"], env["_values"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self._fields, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __getstate__(self) -> dict:
        return dict(zip(self._fields, self._values()))
