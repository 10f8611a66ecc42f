"""Population summary statistics, in numpy's float64 summation order.

:func:`describe` gives numpy's ``mean`` and ``std`` bit for bit without
importing numpy, and :func:`_mean` the mean lateral displacement of
:mod:`tortb.drivelog`, so tortb writes the bytes it wrote when numpy did.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import reduce
from operator import add

from .errors import EmptyGroup, SchemaError, to_float
from .records import record


@record
class SummaryStats:
    """Population descriptive statistics."""

    mean: float
    std: float  # population standard deviation
    min: float
    max: float
    n: int


def _pairwise_sum(values: list[float], lo: int, n: int) -> float:
    """Sum of ``values[lo:lo + n]`` in the order of numpy's float64 ``add.reduce``.

    Fewer than 8 values are added in turn from 0.0.  Up to 128 values go to
    8 accumulators, each the running sum of every 8th value of the whole
    groups of 8; the accumulators are added as a balanced tree and the rest
    added in turn.  A longer run is split in two at a multiple of 8 near its
    middle, and the halves are summed the same way.
    """
    if n < 8:
        return reduce(add, values[lo:lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, values[lo + j:end:8]) for j in range(8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end:lo + n], total)
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values, lo, half) + _pairwise_sum(values, lo + half, n - half)


def _mean(values: list[float]) -> float:
    """numpy's float64 ``mean`` of a non-empty list of floats, bit for bit."""
    # numpy starts the reduction from the identity 0.0, which turns a -0.0 sum into 0.0.
    return (0.0 + _pairwise_sum(values, 0, len(values))) / len(values)


def describe(values: Iterable[float]) -> SummaryStats:
    """Population mean/std/min/max over a non-empty collection of numbers.

    The mean and std equal numpy's ``mean`` and ``std`` of the values
    as a float64 array, bit for bit.  ``min`` and ``max`` give the first of
    equal values, so ``0.0`` and ``-0.0`` keep the order they came in.
    """
    arr = [value if type(value) is float else to_float("value", value) for value in values]
    if not arr:
        raise EmptyGroup("cannot describe an empty collection")
    mean = _mean(arr)
    std = math.sqrt(_mean([d * d for d in [value - mean for value in arr]]))
    # Finite values near the float limit can still overflow the sum or the squares.
    for name, stat in (("mean", mean), ("std", std)):
        if not math.isfinite(stat):
            raise SchemaError(f"{name} of {len(arr)} values is not finite, got {stat}")
    return SummaryStats(mean=mean, std=std, min=min(arr), max=max(arr), n=len(arr))
