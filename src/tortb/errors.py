"""Exception types, and the input checks that raise them, shared across the package."""

import sys
from typing import Any, Callable


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


class SchemaError(TortbError):
    """Input file does not match the expected schema."""


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


class EmptyBatch(TortbError):
    """Batch simulation requested with no episode configs."""


def check_range(
    name: str, value: float, lo: float, hi: float = sys.float_info.max, *, above: bool = False
) -> None:
    """Raise ``ValueError`` unless ``lo <= value <= hi`` (``lo < value <= hi`` with ``above``).

    Every ordered comparison with NaN is false, so only this positive form
    rejects NaN.  The default ``hi`` rejects infinities and ints too large
    for a float.
    """
    if (lo < value if above else lo <= value) and value <= hi:
        return
    op, bracket = (">", "(") if above else (">=", "[")
    bound = f"finite and {op} {lo}" if hi == sys.float_info.max else f"within {bracket}{lo}, {hi}]"
    try:
        shown = str(value)
    except ValueError:  # an int with more digits than sys.get_int_max_str_digits()
        shown = f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    raise ValueError(f"{name} must be {bound}, got {shown}")


def build(cls: Callable[..., Any], where: str, **kwargs: Any) -> Any:
    """Construct ``cls``; a value it rejects becomes a SchemaError prefixed with ``where``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from None
