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
at band edges.  Episodes are independent: each owns a generator seeded per
a fixed mixing rule, so batch results do not depend on execution order.
An episode's noise is the first draw of numpy's
``default_rng(seed).uniform``, computed here bit for bit without loading
``numpy.random``, so every seed gives the same episodes either way.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from enum import Enum
from itertools import repeat

import numpy as np

from .drivelog import _T_EPS, CSV_HEADER, PRE_WINDOW_S, SAMPLE_RATE_HZ
from .drivelog import DriveLog, SummaryStats, describe
from .errors import (EmptyBatch, SchemaError, check_count, check_range, check_type,
                     check_types, located)
from .model import (
    DEFAULT_COEFFICIENTS,
    CoefficientSet,
    DriverProfile,
    ScenarioSpec,
    TakeoverContext,
    estimate_tortb,
    ndrtc_lookup,
)

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
#: Rows of drive log that :func:`log_texts` builds and renders at once; a
#: longer log is rendered alone.
CHUNK_ROWS = 1 << 14

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
    """``np.random.default_rng(seed).uniform(low, high)``, without ``numpy.random``.

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


@dataclass(frozen=True)
class EpisodeConfig:
    """Everything one episode needs; immutable and fully seeded."""

    driver: DriverProfile
    scenario: ScenarioSpec
    ctx: TakeoverContext
    coeffs: CoefficientSet = DEFAULT_COEFFICIENTS
    deadline: float | None = None  # [s]; None: budgeted for budget_driver or driver
    budget_driver: DriverProfile | None = None  # profile the deadline is budgeted for
    response_noise: float = 0.0  # [s] half-width of the uniform perturbation
    maneuver_duration: float = 2.0  # [s]
    seed: int = 0

    def __post_init__(self) -> None:
        check_types(self, driver=DriverProfile, scenario=ScenarioSpec, ctx=TakeoverContext,
                    coeffs=CoefficientSet)
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
        check_count("seed", self.seed, 0, _MASK64)


@dataclass(frozen=True)
class EpisodeOutcome:
    """Result of one simulated takeover episode.

    The drive log is not stored: the outcome keeps its seeded config, and
    :attr:`log` synthesizes the log again on each access.  A batch of
    outcomes therefore holds no log arrays, however many episodes it has.
    """

    required_time: float  # [s] driver's time to complete takeover and maneuver
    deadline: float  # [s]
    classification: Classification
    margin: float  # [s], deadline - required_time
    config: EpisodeConfig  # seeded config the episode ran with

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def log(self) -> DriveLog:
        """The episode's drive log, synthesized anew on each access.

        Every access allocates and validates a new log with the same
        values; keep the result when it is needed more than once.
        """
        extent = _log_extent(self.config, self.required_time, self.deadline)
        return DriveLog(*_channels([extent]), tor_time=_TOR_TIME, sample_rate=SAMPLE_RATE_HZ)


def response_onset(cfg: EpisodeConfig) -> float:
    """Seconds from TOR to first steering input: stimulus response plus
    non-driving-task disengagement."""
    return cfg.driver.srt + ndrtc_lookup(cfg.ctx.ndrt_class, cfg.coeffs)


def _classify(margin: float, maneuver_duration: float) -> Classification:
    if margin >= 0:
        return Classification.SUCCESS
    if margin <= -maneuver_duration:
        return Classification.COLLISION
    return Classification.LATE


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


def _channels(extents: Sequence[tuple[int, float, float, float]]) -> tuple[np.ndarray, ...]:
    """The t, lateral, acceleration, steering and brake channels of the logs
    of the given extents, laid end to end in one array each."""
    rows, onset, start, duration = zip(*extents)
    first_row = np.repeat(np.cumsum(rows) - rows, rows)
    onset, start, duration = (np.repeat(col, rows) for col in (onset, start, duration))
    t = (np.arange(first_row.size) - first_row) / SAMPLE_RATE_HZ
    rel = t - _TOR_TIME
    # The slack absorbs timestamp rounding so the step lands on the first
    # sample at or after the onset.
    steering = np.where(rel >= onset - _T_EPS, STEERING_STEP, 0.0)
    # A subnormal maneuver duration overflows the ramp to +-inf, clipped to a step.
    with np.errstate(over="ignore"):
        u = np.clip((rel - start) / duration, 0.0, 1.0)
    lateral = LANE_CHANGE_AMPLITUDE_M * u * u * (3.0 - 2.0 * u)
    acceleration = ACCEL_PULSE_PEAK * np.sin(np.pi * u)
    return t, lateral, acceleration, steering, np.zeros(t.size)


def run_episode(cfg: EpisodeConfig) -> EpisodeOutcome:
    """Run one deterministic episode; identical config gives identical output.

    The required time is the budget estimated with the driver's own
    parameters plus a uniform draw in [-response_noise, +response_noise],
    clamped at 0.  The draw is the first of numpy's
    ``default_rng(cfg.seed).uniform``, so every seed gives the episode it
    gave when simulate drew through ``numpy.random``.  The deadline is
    ``cfg.deadline`` when set, else the budget estimated for
    ``budget_driver`` when set, else the driver's own budget, without the
    draw.  The log's extent is checked here, so an episode whose log would
    exceed ``MAX_LOG_S`` fails now rather than when its log is first read.
    """
    own_budget = estimate_tortb(cfg.driver, cfg.scenario, cfg.ctx, cfg.coeffs).total
    required = max(own_budget + _uniform(cfg.seed, -cfg.response_noise, cfg.response_noise), 0.0)
    if cfg.deadline is not None:
        deadline = float(cfg.deadline)
    elif cfg.budget_driver is None:
        deadline = own_budget
    else:
        deadline = estimate_tortb(cfg.budget_driver, cfg.scenario, cfg.ctx, cfg.coeffs).total
    _log_extent(cfg, required, deadline)
    margin = deadline - required
    return EpisodeOutcome(
        required_time=required,
        deadline=deadline,
        classification=_classify(margin, cfg.maneuver_duration),
        margin=margin,
        config=cfg,
    )


@dataclass(frozen=True)
class BatchReport:
    """Outcomes plus aggregate counts and the margin distribution."""

    outcomes: tuple[EpisodeOutcome, ...]
    n_success: int
    n_late: int
    n_collision: int
    margin_stats: SummaryStats


def run_batch(configs: list[EpisodeConfig], base_seed: int) -> BatchReport:
    """Run every config with per-episode seeds derived via :func:`mix_seed`."""
    if not configs:
        raise EmptyBatch("no episode configs")
    # Any integer: mix_seed reduces it modulo 2**64.
    check_type("base_seed", base_seed, int, "an integer")
    outcomes = []
    for i, cfg in enumerate(configs):
        with located(f"episodes[{i}]"):
            outcomes.append(run_episode(replace(cfg, seed=mix_seed(base_seed, i))))
    counts = {cls: 0 for cls in Classification}
    for outcome in outcomes:
        counts[outcome.classification] += 1
    return BatchReport(
        outcomes=tuple(outcomes),
        n_success=counts[Classification.SUCCESS],
        n_late=counts[Classification.LATE],
        n_collision=counts[Classification.COLLISION],
        margin_stats=describe(o.margin for o in outcomes),
    )


def log_texts(outcomes: Iterable[EpisodeOutcome]) -> Iterator[str]:
    """Each outcome's drive log as CSV text, in order.

    Each text equals ``drive_log_to_csv(outcome.log)`` byte for byte, but
    no ``DriveLog`` is made.  Logs are built and rendered a chunk at a time:
    as many whole logs as fit in ``CHUNK_ROWS`` rows, or one longer log on
    its own, so memory does not grow with the number of outcomes.
    """
    chunk: list[tuple[int, float, float, float]] = []
    size = 0
    for outcome in outcomes:
        extent = _log_extent(outcome.config, outcome.required_time, outcome.deadline)
        if chunk and size + extent[0] > CHUNK_ROWS:
            yield from _render_chunk(chunk)
            chunk, size = [], 0
        chunk.append(extent)
        size += extent[0]
    if chunk:
        yield from _render_chunk(chunk)


def _render_chunk(extents: list[tuple[int, float, float, float]]) -> Iterator[str]:
    """The CSV text of the log of each extent.

    The rows of a run that repeats every value column and the flag differ
    only in their timestamp, so a run is written as the timestamps' grid
    texts joined by one shared suffix.  The values at run starts are
    rendered through one pool of distinct bit patterns: keyed by bits, not
    by value, since ``-0.0 == 0.0`` would write one as the other.
    """
    global _time_texts
    rows = [extent[0] for extent in extents]
    starts = np.cumsum(rows) - rows
    _, *values = _channels(extents)
    bits = np.stack(values).view(np.uint64)
    size = bits.shape[1]
    flag = np.zeros(size, dtype=bool)
    flag[starts + _TOR_ROW] = True
    new_run = np.empty(size, dtype=bool)
    new_run[1:] = (bits[:, 1:] != bits[:, :-1]).any(axis=0) | (flag[1:] != flag[:-1])
    new_run[starts] = True  # so no run crosses into the next log
    run_at = np.flatnonzero(new_run)
    # Each run's suffix: the text of its values and flag after the timestamp.
    pool, inverse = np.unique(bits[:, run_at].ravel(), return_inverse=True)
    pool_texts = np.array(list(map(repr, pool.view(np.float64).tolist())), dtype=object)
    texts = pool_texts[inverse].reshape(len(values), -1)
    flag_text = np.where(flag[run_at], "1\n", "0\n").tolist()
    suffixes = list(map(",".join, zip(repeat(""), *texts.tolist(), flag_text)))
    # Each log's first run, and each run's rows counted from the start of its log.
    first_run = np.searchsorted(run_at, starts).tolist() + [run_at.size]
    offset = np.repeat(starts, np.diff(first_run))
    run_first = (run_at - offset).tolist()
    run_end = (np.append(run_at[1:], size) - offset).tolist()
    grid_text = _time_texts
    if len(grid_text) < max(rows):
        grid_text = _time_texts = grid_text + [
            repr(k / SAMPLE_RATE_HZ) for k in range(len(grid_text), max(rows))]
    header = ",".join(CSV_HEADER) + "\n"
    for lo, hi in zip(first_run, first_run[1:]):
        yield header + "".join([
            suffix.join(grid_text[a:b]) + suffix
            for a, b, suffix in zip(run_first[lo:hi], run_end[lo:hi], suffixes[lo:hi])
        ])
