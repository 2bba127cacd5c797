"""Immutable value classes without ``dataclasses``.

``dataclasses`` imports ``inspect``, which brings ``ast``, ``dis`` and
``tokenize`` with it: about 0.7 MiB of resident memory and a few
milliseconds of start-up in every process that imports decreal, for
code the package never calls.  :func:`frozen` gives the package's value
types what ``dataclass(frozen=True)`` gave them.

Each class's ``__init__`` is generated source, compiled by ``exec`` when
the class is first instantiated, not when it is decorated: compiling
costs about 60 us a class, and most of the package's value types are
never built in a given process.  The first call compiles the method,
installs it on the class and calls it, so every later instance is built
by the compiled method alone.

:class:`lazy` makes the fields that these types compute on first read.
"""

from __future__ import annotations

from operator import attrgetter


def frozen(cls: type) -> type:
    """Make ``cls`` an immutable value type over its annotated fields.

    Adds ``__init__`` (the fields in annotation order, class-level values
    as defaults, then ``__post_init__`` when the class has one),
    ``__repr__``, and ``__eq__`` / ``__hash__`` by field values between
    instances of the same class; methods the class defines itself are
    kept.  Assigning or deleting an attribute raises ``AttributeError``,
    so ``__post_init__`` normalises fields with ``object.__setattr__``.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {f: cls.__dict__[f] for f in fields if f in cls.__dict__}
    post_init = hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        # generated source, as dataclasses does it: a plain signature
        # gives the usual argument errors and costs no more than a
        # hand-written one
        params = "".join(f", {f}=_defaults[{f!r}]" if f in defaults
                         else f", {f}" for f in fields)
        body = [f"    _set(self, {f!r}, {f})" for f in fields]
        if post_init:
            body.append("    self.__post_init__()")
        namespace = {"_set": object.__setattr__, "_defaults": defaults}
        exec(f"def __init__(self{params}):\n"
             + ("\n".join(body) or "    pass"), namespace)
        cls.__init__ = namespace["__init__"]
        namespace["__init__"](self, *args, **kwargs)

    key = attrgetter(*fields) if fields else (lambda self: ())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        values = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{type(self).__qualname__}({values})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    methods = {"__init__": __init__, "__eq__": __eq__,
               "__hash__": __hash__, "__repr__": __repr__,
               "__setattr__": __setattr__, "__delattr__": __delattr__}
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


class lazy:
    """A field computed on first read and kept in the instance's
    ``__dict__``, which shadows this descriptor from then on.

    It is ``functools.cached_property`` without its lock: on Python 3.10
    and 3.11 that takes one ``RLock`` per field of a class, shared by
    every instance, so a long first read of one value blocks the same
    field of all the others.  Python 3.12 dropped the lock, and this is what remains.  Two
    threads that read a field first at once may both compute it, so the
    function must be pure: either result may be the one kept.
    """

    def __init__(self, fn):
        self._fn = fn
        self.__doc__ = fn.__doc__

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self._name] = self._fn(obj)
        return value
