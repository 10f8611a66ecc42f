"""describe() against numpy's float64 mean and std, bit for bit."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tortb import drivelog
from tortb.errors import EmptyGroup, SchemaError
from tortb.stats import SummaryStats, describe

# numpy sums up to 7 values in turn, up to 128 in 8 accumulators, and
# splits a longer run in two at a multiple of 8; 8193 values and more are
# longer than its default buffer.
LENGTHS = (st.integers(1, 7) | st.integers(8, 128) | st.integers(129, 8192)
           | st.integers(8193, 20000))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def numpy_describe(values):
    """describe() as numpy computes it: the oracle.  None when the mean or
    the std is not finite, which describe() refuses."""
    arr = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, std = float(np.mean(arr)), float(np.std(arr))
    if not (math.isfinite(mean) and math.isfinite(std)):
        return None
    return SummaryStats(mean=mean, std=std, min=float(np.min(arr)), max=float(np.max(arr)),
                        n=arr.size)


def assert_describes_as_numpy(values):
    expected = numpy_describe(values)
    if expected is None:
        with pytest.raises(SchemaError, match=f"^(mean|std) of {len(values)} values is not finite"):
            describe(values)
        return
    got = describe(values)
    # Bits, not values: 0.0 == -0.0, and a mean an ulp off would still be close.
    assert (got.mean.hex(), got.std.hex()) == (expected.mean.hex(), expected.std.hex())
    # Equal values, as the sign of a zero min or max is pinned below instead.
    assert (got.min, got.max, got.n) == (expected.min, expected.max, expected.n)


@given(n=LENGTHS, seed=st.integers(0, 2**32 - 1),
       loc=st.floats(-1e3, 1e3), scale=st.sampled_from([1e-300, 1e-8, 1.0, 1e8, 1e150]))
@example(n=129, seed=0, loc=0.0, scale=1.0)  # the first split: 64 + 65
@example(n=135, seed=1, loc=0.0, scale=1.0)  # 64 + 71: a tail of 7 after the 8 accumulators
@example(n=8191, seed=2, loc=1.0, scale=1.0)
@example(n=8193, seed=3, loc=-1.0, scale=1e8)
def test_describe_is_numpys_mean_and_std(n, seed, loc, scale):
    rng = random.Random(seed)
    assert_describes_as_numpy([rng.gauss(loc, 1.0) * scale for _ in range(n)])


@given(values=st.lists(FINITE, min_size=1, max_size=300))
@example(values=[1e308, 1e308])
@example(values=[1e200, 3e200])
@example(values=[-0.0] * 9)
def test_describe_matches_numpy_on_any_finite_values(values):
    assert_describes_as_numpy(values)


def test_min_and_max_take_the_first_of_equal_values():
    """``0.0 == -0.0``, so the zero that comes first is kept; on [0.0, -0.0]
    numpy's min and max both give -0.0."""
    for values, sign in (([0.0, -0.0], 1.0), ([-0.0, 0.0], -1.0)):
        stats = describe(values)
        assert math.copysign(1.0, stats.min) == math.copysign(1.0, stats.max) == sign


def test_describe_refuses_an_empty_collection():
    with pytest.raises(EmptyGroup):
        describe(iter([]))


def test_drivelog_reexports_the_same_objects():
    assert drivelog.describe is describe and drivelog.SummaryStats is SummaryStats
