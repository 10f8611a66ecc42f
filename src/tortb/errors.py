"""Exception types, and the input checks that raise them, shared across the package."""

import sys
from numbers import Real
from typing import Any


class TortbError(Exception):
    """Base class for all domain errors raised by this package."""


class NegativeRelativeSpeed(TortbError):
    """The hazard cause is faster than the ego vehicle; closing speed is undefined."""


class SpeedAboveModelRange(TortbError):
    """Relative speed exceeds the last calibrated speed band."""


class UnidentifiableUnknown(TortbError):
    """The anchor scenario gives its unknown coefficient a zero multiplier."""


class NegativeCoefficient(TortbError):
    """A solved coefficient came out negative; the anchor set is inconsistent."""


class DependencyOrderError(TortbError):
    """An anchor needs a coefficient that only a later anchor solves."""


class SchemaError(TortbError, ValueError):
    """An input breaks a rule: a range, a type, a key or a line.  Also a ``ValueError``.

    ``field`` names the input that broke a type or range rule, as the check
    was given it: the JSON key, for a fault read from a file.  It is None for
    the other rules.  Each :class:`located` block a fault leaves prefixes its
    message, so it is one object, traceback and all, from its check to the caller.
    """

    def __init__(self, message: str = "", field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class NonUniformSampling(TortbError):
    """Drive-log timestamps deviate from the declared sample rate."""


class MissingTorMarker(TortbError):
    """No drive-log row carries tor_flag=1."""


class MultipleTorMarkers(TortbError):
    """More than one drive-log row carries tor_flag=1."""


class WindowOutOfRange(TortbError):
    """Requested analysis window extends beyond the log extent."""


class EmptyGroup(TortbError):
    """Descriptive statistics requested for an empty collection."""


def check_type(name: str, value: Any, types: type | tuple[type, ...], what: str) -> None:
    """Raise ``SchemaError`` unless ``value`` is an instance of ``types`` and not a bool.

    ``what`` names the expected type in the message, as in "a DriverProfile".
    """
    if isinstance(value, bool) or not isinstance(value, types):
        raise SchemaError(f"{name} must be {what}, got {value!r}", field=name)


def check_range(
    name: str, value: float, lo: float, hi: float = sys.float_info.max, *, above: bool = False
) -> None:
    """Raise ``SchemaError`` unless ``lo <= value <= hi`` (``lo < value <= hi`` with ``above``).

    Every ordered comparison with NaN is false, so only this positive form
    rejects NaN.  The default ``hi`` rejects infinities and ints too large
    for a float.  A bool is refused, though it compares as 0 or 1, and so is
    numpy's, which is not a ``numbers.Real``.  A plain float or int skips
    that check, which costs several times the rest of this function.
    """
    if type(value) not in (float, int):
        check_type(name, value, Real, "a number")
    if (lo < value if above else lo <= value) and value <= hi:
        return
    op, bracket = (">", "(") if above else (">=", "[")
    bound = f"finite and {op} {lo}" if hi == sys.float_info.max else f"within {bracket}{lo}, {hi}]"
    raise SchemaError(f"{name} must be {bound}, got {shown(value)}", field=name)


def check_count(name: str, value: Any, lo: float, hi: float = sys.float_info.max) -> None:
    """Raise ``SchemaError`` unless ``value`` is an int, not a bool, within ``[lo, hi]``."""
    check_type(name, value, int, "an integer")
    check_range(name, value, lo, hi)


def to_float(name: str, value: Any) -> float:
    """``value`` as a float: a number, not a bool; an int past the float range is refused.

    A plain float or int skips the type check, as in :func:`check_range`.
    """
    if type(value) is float:
        return value
    if type(value) is not int:
        check_type(name, value, Real, "a number")
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{name} must be finite, got {shown(value)}", field=name) from None


def shown(value: Any) -> str:
    """``str(value)``, or the size of an int with too many digits to print."""
    try:
        return str(value)
    except ValueError:  # an int with more digits than sys.get_int_max_str_digits()
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"


class located:
    """Prefix the message of a ``TortbError`` leaving the block with ``where: ``, in place."""

    __slots__ = ("where",)

    def __init__(self, where: str) -> None:
        self.where = where

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind: Any, exc: BaseException | None, traceback: Any) -> None:
        if isinstance(exc, TortbError):
            exc.args = (f"{self.where}: {exc}",)
