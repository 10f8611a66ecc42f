"""Frozen, slotted value records: the one declaration behind tortb's classes.

A class decorated with :func:`record` names its fields by its annotations,
in order, and their defaults by its class attributes.  The record keeps its
values in ``__slots__``, so an instance carries no ``__dict__`` and takes no
weak references.  The slots belong to a plain twin class, the record's base:
its ``__new__`` fills a twin by plain attribute stores, switches its
``__class__`` to the record, which adds no slot, then calls the class's
``__post_init__``, if it has one; that check may still set a field through
``object.__setattr__``.  Records compare and hash by their field values,
refuse assignment and deletion, and pickle and copy through the class, so
every check runs again.  :func:`replace` is the one way to change a field,
and ``copy.replace`` (Python 3.13+) calls it.
"""

from typing import Any, TypeVar

_T = TypeVar("_T")


def replace(obj: _T, /, **changes: Any) -> _T:
    """A new record like ``obj`` with ``changes``, built and checked by its class.

    A name that is not a field raises ``TypeError``.
    """
    return obj.__class__(**{**dict(zip(obj.__slots__, obj._astuple())), **changes})


def _eq(self: Any, other: Any) -> Any:
    if other.__class__ is self.__class__:
        return self._astuple() == other._astuple()
    return NotImplemented


def _hash(self: Any) -> int:
    return hash(self._astuple())


def _repr(self: Any) -> str:
    values = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._astuple()))
    return f"{self.__class__.__qualname__}({values})"


def _setattr(self: Any, name: str, value: Any) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self: Any, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _reduce(self: Any) -> tuple[type, tuple[Any, ...]]:
    return self.__class__, self._astuple()


def record(cls: type[_T]) -> type[_T]:
    """``cls`` rebuilt as a frozen record with ``__slots__``; see the module docstring."""
    fields = tuple(cls.__annotations__)
    defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
    twin = type(cls)(f"_{cls.__name__}", cls.__bases__, {"__slots__": fields})
    scope: dict[str, Any] = {f"_default_{name}": value for name, value in defaults.items()}
    scope.update(_new=object.__new__, _twin=twin, _post_init=getattr(cls, "__post_init__", None))
    parameters = ", ".join(f"{n}=_default_{n}" if n in defaults else n for n in fields)
    lines = [f"def __new__(cls, {parameters}):", "    self = _new(_twin)"]
    lines += [f"    self.{name} = {name}" for name in fields] + ["    self.__class__ = cls"]
    if scope["_post_init"] is not None:
        lines.append("    _post_init(self)")
    lines += ["    return self", "def _astuple(self):",
              f"    return ({''.join(f'self.{n}, ' for n in fields)})"]
    exec("\n".join(lines), scope)
    namespace = {key: value for key, value in cls.__dict__.items()
                 if key not in defaults and key not in ("__dict__", "__weakref__")}
    for name in ("__new__", "_astuple"):
        scope[name].__qualname__ = f"{cls.__qualname__}.{name}"
        namespace[name] = scope[name]
    namespace.update(__slots__=(), __match_args__=fields, __qualname__=cls.__qualname__,
                     __eq__=_eq, __hash__=_hash, __repr__=_repr, __setattr__=_setattr,
                     __delattr__=_delattr, __reduce__=_reduce, __replace__=replace)
    cls = type(cls)(cls.__name__, (twin,), namespace)
    cls.__slots__ = fields  # the twin's, which the record's instances hold
    return cls
