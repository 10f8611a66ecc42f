"""Deterministic discrete-time takeover episodes for round-trip testing.

An episode issues a takeover request (TOR), draws the driver's required
time to complete the takeover and avoidance maneuver from the same
component model used for budgeting (plus optional bounded uniform noise),
classifies the outcome against a deadline, and synthesizes a fixed-rate
drive log: a steering step when the driver's hands return to the wheel, a
smooth lane-change displacement profile, and an acceleration pulse during
the maneuver.

The kinematics are deliberately schematic.  The model operates on time
components, and the simulator exists to consistency-test the budgeting and
log-analysis paths, not to reproduce vehicle dynamics.  Noise is uniform
(bounded support) rather than Gaussian so coverage statements hold exactly
at band edges.  An episode is its config and a seed.  A batch seeds each
episode by a fixed mixing rule, so its results do not depend on execution
order.  An episode's noise is the first draw of numpy's
``default_rng(seed).uniform``, computed here bit for bit without loading
``numpy.random``, so every seed gives the same episodes either way.  Logs
are computed with ``math`` alone, so simulating imports no numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from enum import Enum
from typing import TYPE_CHECKING

from .defaults import _T_EPS, CSV_HEADER, PRE_WINDOW_S, SAMPLE_RATE_HZ
from .errors import SchemaError, check_count, check_range, check_type, located
from .model import (
    DEFAULT_COEFFICIENTS,
    CoefficientSet,
    DriverProfile,
    ScenarioSpec,
    TakeoverContext,
    estimate_tortb,
    ndrtc_lookup,
)
from .records import record

if TYPE_CHECKING:
    from .drivelog import DriveLog

LOG_LEAD_IN_S = PRE_WINDOW_S  # automation phase kept before the TOR
LOG_TAIL_S = 1.0  # padding after the last event of interest
LANE_CHANGE_AMPLITUDE_M = 3.5  # one lane width
ACCEL_PULSE_PEAK = 1.0  # [m/s^2], half-sine during the maneuver
STEERING_STEP = 0.2  # fraction of full range at response onset
MAX_LOG_S = 3600.0  # longest log an episode may synthesize, lead-in included
# Every log starts at t = 0 on the sample grid, with the TOR at one fixed row.
_TOR_ROW = round(LOG_LEAD_IN_S * SAMPLE_RATE_HZ)
_TOR_TIME = _TOR_ROW / SAMPLE_RATE_HZ
# repr of k / SAMPLE_RATE_HZ, k = 0, 1, ..., up to the longest log rendered so
# far.  It grows by binding a new list, never in place, so a concurrent render
# may see it short but never half built.
_time_texts: list[str] = []

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def mix_seed(base_seed: int, index: int) -> int:
    """Per-episode seed: SplitMix64 finalizer of ``base_seed + golden * (index+1)``.

    Spreads consecutive indices across the full 64-bit space so episode
    streams are independent; the rule is fixed, so a batch is reproducible
    from its base seed alone.
    """
    z = (base_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _uniform(seed: int, low: float, high: float) -> float:
    """numpy's ``random.default_rng(seed).uniform(low, high)``, without numpy.

    ``SeedSequence(seed)`` hashes the seed's little-endian 32-bit words into
    a pool of four and mixes the pool; a seed below 2**64 has at most two
    words, and the rest of the pool hashes 0.  ``generate_state(4, uint64)``
    expands the pool into a PCG64 state and increment.  The generator's
    first XSL-RR output, cut to 53 bits, places the draw in the range.
    """
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    pool = [hashmix(seed >> 32 * i & _MASK32) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = 0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src]) & _MASK32
                pool[dst] = mixed ^ mixed >> 16
    # generate_state: eight 32-bit words, paired into four little-endian uint64.
    hash_const = 0x8B51F9DD
    words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    u0, u1, u2, u3 = (words[2 * k] | words[2 * k + 1] << 32 for k in range(4))
    # PCG64 takes (u0, u1) as its 128-bit seed and (u2, u3) as its increment,
    # high word first.  Seeding steps the generator twice, the draw once.
    inc = ((u2 << 64 | u3) << 1 | 1) & _MASK128
    state = ((((u0 << 64 | u1) + inc) * _PCG64_MULT + inc) * _PCG64_MULT + inc) & _MASK128
    out = (state >> 64 ^ state) & _MASK64
    rot = state >> 122
    out = (out >> rot | out << (64 - rot)) & _MASK64
    return low + (high - low) * ((out >> 11) * 2.0**-53)


class Classification(Enum):
    """Episode outcome against the deadline."""

    SUCCESS = "success"  # finished at or before the deadline
    LATE = "late"  # overran the deadline by less than the maneuver itself
    COLLISION = "collision"  # overran by at least one full maneuver duration


@record
class EpisodeConfig:
    """Everything one episode needs but its seed; immutable."""

    driver: DriverProfile
    scenario: ScenarioSpec
    ctx: TakeoverContext
    coeffs: CoefficientSet = DEFAULT_COEFFICIENTS
    deadline: float | None = None  # [s]; None: budgeted for budget_driver or driver
    budget_driver: DriverProfile | None = None  # profile the deadline is budgeted for
    response_noise: float = 0.0  # [s] half-width of the uniform perturbation
    maneuver_duration: float = 2.0  # [s]

    def __post_init__(self) -> None:
        check_type("driver", self.driver, DriverProfile, "a DriverProfile")
        check_type("scenario", self.scenario, ScenarioSpec, "a ScenarioSpec")
        check_type("ctx", self.ctx, TakeoverContext, "a TakeoverContext")
        check_type("coeffs", self.coeffs, CoefficientSet, "a CoefficientSet")
        if self.deadline is not None:
            check_range("deadline", self.deadline, 0)
            if self.budget_driver is not None:
                raise SchemaError("deadline and budget_driver exclude each other, got both")
        check_type("budget_driver", self.budget_driver, (DriverProfile, type(None)),
                   "a DriverProfile or None")
        # A half-width beyond MAX_LOG_S is longer than any log an episode may
        # write, and near 1e308 the uniform draw's range would overflow.
        check_range("response_noise", self.response_noise, 0, MAX_LOG_S)
        check_range("maneuver_duration", self.maneuver_duration, 0, above=True)


@record
class EpisodeOutcome:
    """Result of one simulated takeover episode: its times, config and seed.

    The margin and classification are computed from them, and :attr:`log`
    synthesizes the drive log again on each access, so a batch of outcomes
    holds no log arrays, however many episodes it has.
    """

    required_time: float  # [s] driver's time to complete takeover and maneuver
    deadline: float  # [s]
    config: EpisodeConfig  # the config the episode ran with
    seed: int  # the seed of its noise draw

    @property
    def margin(self) -> float:
        """[s], deadline - required_time."""
        return self.deadline - self.required_time

    @property
    def classification(self) -> Classification:
        margin = self.margin
        if margin >= 0:
            return Classification.SUCCESS
        if margin <= -self.config.maneuver_duration:
            return Classification.COLLISION
        return Classification.LATE

    @property
    def log(self) -> DriveLog:
        """The episode's drive log, synthesized anew on each access.

        Every access allocates and validates a new log with the same
        values; keep the result when it is needed more than once.
        """
        from .drivelog import DriveLog

        rows, *shape = _log_extent(self.config, self.required_time, self.deadline)
        columns = zip(*_rows(range(rows), *shape))
        return DriveLog(*columns, tor_time=_TOR_TIME, sample_rate=SAMPLE_RATE_HZ)


def response_onset(cfg: EpisodeConfig) -> float:
    """Seconds from TOR to first steering input: stimulus response plus
    non-driving-task disengagement."""
    return cfg.driver.srt + ndrtc_lookup(cfg.ctx.ndrt_class, cfg.coeffs)


def _log_extent(
    cfg: EpisodeConfig, required: float, deadline: float
) -> tuple[int, float, float, float]:
    """Rows, response onset, maneuver start [s after the TOR] and maneuver
    duration of the episode's log.

    Raises ``SchemaError`` when the log would span more than ``MAX_LOG_S``,
    before anything is allocated.
    """
    onset = response_onset(cfg)
    maneuver_start = max(onset, required - cfg.maneuver_duration)
    maneuver_end = maneuver_start + cfg.maneuver_duration
    horizon = max(maneuver_end, deadline) + LOG_TAIL_S
    if not LOG_LEAD_IN_S + horizon <= MAX_LOG_S:
        raise SchemaError(
            f"drive log would span {LOG_LEAD_IN_S + horizon:g} s, above the "
            f"{MAX_LOG_S:g} s limit (deadline {deadline:g} s, required time "
            f"{required:g} s, maneuver {cfg.maneuver_duration:g} s)"
        )
    rows = math.ceil((LOG_LEAD_IN_S + horizon) / (1.0 / SAMPLE_RATE_HZ)) + 1
    return rows, onset, maneuver_start, cfg.maneuver_duration


def _rows(ks: Iterable[int], onset: float, start: float,
          duration: float) -> Iterator[tuple[float, float, float, float, float]]:
    """Rows ``ks`` of a log: t, lateral displacement, acceleration, steering
    and brake, for a response at ``onset`` and a maneuver from ``start`` to
    ``start + duration`` [s after the TOR]."""
    for k in ks:
        t = k / SAMPLE_RATE_HZ
        rel = t - _TOR_TIME
        # A subnormal maneuver duration overflows the ramp to +-inf, clipped
        # to a step.  Clipped as numpy's clip clips: a ramp of -0.0 stays -0.0.
        ramp = (rel - start) / duration
        u = 0.0 if ramp < 0.0 else 1.0 if ramp > 1.0 else ramp
        yield (
            t,
            LANE_CHANGE_AMPLITUDE_M * u * u * (3.0 - 2.0 * u),
            ACCEL_PULSE_PEAK * math.sin(math.pi * u),
            # The slack absorbs timestamp rounding so the step lands on the
            # first sample at or after the onset.
            STEERING_STEP if rel >= onset - _T_EPS else 0.0,
            0.0,
        )


def run_episode(cfg: EpisodeConfig, seed: int = 0) -> EpisodeOutcome:
    """Run one deterministic episode; identical config and seed give identical output.

    The required time is the budget estimated with the driver's own
    parameters plus a uniform draw in [-response_noise, +response_noise],
    clamped at 0.  The draw is the first of numpy's
    ``default_rng(seed).uniform``, so every seed gives the episode it
    gave when simulate drew through ``numpy.random``.  The deadline is
    ``cfg.deadline`` when set, else the budget estimated for
    ``budget_driver`` when set, else the driver's own budget, without the
    draw.  The log's extent is checked here, so an episode whose log would
    exceed ``MAX_LOG_S`` fails now rather than when its log is first read.
    """
    check_type("cfg", cfg, EpisodeConfig, "an EpisodeConfig")
    check_count("seed", seed, 0, _MASK64)
    own_budget = estimate_tortb(cfg.driver, cfg.scenario, cfg.ctx, cfg.coeffs).total
    required = max(own_budget + _uniform(seed, -cfg.response_noise, cfg.response_noise), 0.0)
    if cfg.deadline is not None:
        deadline = float(cfg.deadline)
    elif cfg.budget_driver is None:
        deadline = own_budget
    else:
        deadline = estimate_tortb(cfg.budget_driver, cfg.scenario, cfg.ctx, cfg.coeffs).total
    _log_extent(cfg, required, deadline)
    return EpisodeOutcome(required_time=required, deadline=deadline, config=cfg, seed=seed)


def run_batch(configs: list[EpisodeConfig], base_seed: int) -> tuple[EpisodeOutcome, ...]:
    """Each config's outcome, in order; an empty list gives ``()``.

    Episode ``i`` is seeded with ``mix_seed(base_seed, i)``, and its outcome
    holds ``configs[i]`` itself, not a copy.  A batch keeps no totals: its
    counts and margin statistics are one line each over the outcomes.
    """
    # Any integer: mix_seed reduces it modulo 2**64.
    check_type("base_seed", base_seed, int, "an integer")
    outcomes = []
    for i, cfg in enumerate(configs):
        with located(f"episodes[{i}]"):
            outcomes.append(run_episode(cfg, mix_seed(base_seed, i)))
    return tuple(outcomes)


def log_texts(outcomes: Iterable[EpisodeOutcome]) -> Iterator[str]:
    """Each outcome's drive log as CSV text, in order.

    Each text equals ``drive_log_to_csv(outcome.log)`` byte for byte, but no
    ``DriveLog`` is made.  One log is rendered at a time, so memory does not
    grow with the number of outcomes.
    """
    for outcome in outcomes:
        yield _log_text(*_log_extent(outcome.config, outcome.required_time, outcome.deadline))


def _log_text(rows: int, onset: float, start: float, duration: float) -> str:
    """The CSV text of a log of the given extent.

    The rows of a run that repeats every value column and the flag differ
    only in their timestamp, so a run is written as the timestamps' grid
    texts joined by one shared suffix.  :func:`_rows` is evaluated only at
    run starts and on the maneuver's rows.  Elsewhere a row's values change
    only where steering steps, the ramp rises above 0 and the ramp reaches
    1.  Each of those tests is monotone in the row, as IEEE subtraction and
    division by a positive number are, so bisection finds the first row
    that passes it.  Below 0 the ramp clips to 0.0; it can be -0.0 only on
    the TOR row, where ``rel`` is 0.0, which is a run of its own.
    """
    global _time_texts
    grid_text = _time_texts
    if len(grid_text) < rows:
        grid_text = _time_texts = grid_text + [
            repr(k / SAMPLE_RATE_HZ) for k in range(len(grid_text), rows)]

    # The tests of _rows.  Before the TOR row, rel < 0 <= start and every test fails.
    def first(test: Callable[[int], bool], lo: int = _TOR_ROW) -> int:
        return bisect_left(range(rows), True, lo, key=test)

    step = first(lambda k: k / SAMPLE_RATE_HZ - _TOR_TIME >= onset - _T_EPS)
    moving = first(lambda k: (k / SAMPLE_RATE_HZ - _TOR_TIME - start) / duration > 0.0)
    still = first(lambda k: (k / SAMPLE_RATE_HZ - _TOR_TIME - start) / duration >= 1.0, moving)
    bounds = sorted({0, _TOR_ROW, _TOR_ROW + 1, step, moving, still, rows})

    texts = [",".join(CSV_HEADER) + "\n"]
    for a, b in zip(bounds, bounds[1:]):
        _, *values = next(_rows((a,), onset, start, duration))
        flag = "1\n" if a == _TOR_ROW else "0\n"
        if moving <= a < still:
            tail = f",{values[2]!r},{values[3]!r},{flag}"
            texts += [f"{grid_text[k]},{lateral!r},{acceleration!r}{tail}"
                      for k, (_, lateral, acceleration, _, _)
                      in zip(range(a, b), _rows(range(a, b), onset, start, duration))]
        else:
            run = ",".join(["", *map(repr, values), flag])
            texts.append(run.join(grid_text[a:b]) + run)
    return "".join(texts)


def __getattr__(name: str) -> object:
    # drivelog's DriveLog, imported on first use of the name.
    if name == "DriveLog":
        from .drivelog import DriveLog

        return DriveLog
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
