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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .drivelog import DriveLog, SummaryStats, describe
from .errors import EmptyBatch, check_range
from .model import (
    DEFAULT_COEFFICIENTS,
    CoefficientSet,
    DriverProfile,
    ScenarioSpec,
    TakeoverContext,
    estimate_tortb,
    ndrtc_lookup,
)

SAMPLE_RATE_HZ = 20.0
LOG_LEAD_IN_S = 5.0  # automation phase kept before the TOR (fits the default analysis window)
LOG_TAIL_S = 1.0  # padding after the last event of interest
MAX_LOG_S = 3600.0  # longest log an episode may synthesize, lead-in included
LANE_CHANGE_AMPLITUDE_M = 3.5  # one lane width
ACCEL_PULSE_PEAK = 1.0  # [m/s^2], half-sine during the maneuver
STEERING_STEP = 0.2  # fraction of full range at response onset

_MASK64 = (1 << 64) - 1


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
        if self.deadline is not None:
            check_range("deadline", self.deadline, 0)
        # A half-width beyond MAX_LOG_S is longer than any log an episode may
        # write, and near 1e308 the uniform draw's range would overflow.
        check_range("response_noise", self.response_noise, 0, MAX_LOG_S)
        check_range("maneuver_duration", self.maneuver_duration, 0, above=True)
        check_range("seed", self.seed, 0, _MASK64)


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
        return _synthesize_log(self.config, self.required_time, self.deadline)


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
) -> tuple[float, float, float]:
    """Response onset, maneuver start and log horizon [s after the TOR].

    Raises ``ValueError`` when the log would span more than ``MAX_LOG_S``,
    before anything is allocated.
    """
    onset = response_onset(cfg)
    maneuver_start = max(onset, required - cfg.maneuver_duration)
    maneuver_end = maneuver_start + cfg.maneuver_duration
    horizon = max(maneuver_end, deadline) + LOG_TAIL_S
    if not LOG_LEAD_IN_S + horizon <= MAX_LOG_S:
        raise ValueError(
            f"drive log would span {LOG_LEAD_IN_S + horizon:g} s, above the "
            f"{MAX_LOG_S:g} s limit (deadline {deadline:g} s, required time "
            f"{required:g} s, maneuver {cfg.maneuver_duration:g} s)"
        )
    return onset, maneuver_start, horizon


def _synthesize_log(cfg: EpisodeConfig, required: float, deadline: float) -> DriveLog:
    dt = 1.0 / SAMPLE_RATE_HZ
    onset, maneuver_start, horizon = _log_extent(cfg, required, deadline)
    n = int(np.ceil((LOG_LEAD_IN_S + horizon) / dt)) + 1
    t = np.arange(n, dtype=float) / SAMPLE_RATE_HZ
    tor_index = int(round(LOG_LEAD_IN_S * SAMPLE_RATE_HZ))
    tor_time = float(t[tor_index])
    rel = t - tor_time

    # 1e-9 absorbs timestamp rounding so the step lands on the first
    # sample at or after the onset.
    steering = np.where(rel >= onset - 1e-9, STEERING_STEP, 0.0)
    u = np.clip((rel - maneuver_start) / cfg.maneuver_duration, 0.0, 1.0)
    lateral = LANE_CHANGE_AMPLITUDE_M * u * u * (3.0 - 2.0 * u)
    acceleration = ACCEL_PULSE_PEAK * np.sin(np.pi * u)
    brake = np.zeros(n)

    return DriveLog(
        t=t,
        lateral_displacement=lateral,
        acceleration=acceleration,
        steering=steering,
        brake=brake,
        tor_time=tor_time,
        sample_rate=SAMPLE_RATE_HZ,
    )


def run_episode(cfg: EpisodeConfig) -> EpisodeOutcome:
    """Run one deterministic episode; identical config gives identical output.

    The required time is the budget estimated with the driver's own
    parameters plus a uniform draw in [-response_noise, +response_noise]
    from a generator seeded with ``cfg.seed``, clamped at 0.  The deadline
    is ``cfg.deadline`` when set, else the budget estimated for
    ``budget_driver`` when set, else the driver's own budget, without the
    draw.  The log's extent is checked here, so an episode whose log would
    exceed ``MAX_LOG_S`` fails now rather than when its log is first read.
    """
    rng = np.random.default_rng(cfg.seed)
    own_budget = estimate_tortb(cfg.driver, cfg.scenario, cfg.ctx, cfg.coeffs).total
    required = max(own_budget + rng.uniform(-cfg.response_noise, cfg.response_noise), 0.0)
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
    outcomes = []
    for i, cfg in enumerate(configs):
        try:
            outcomes.append(run_episode(replace(cfg, seed=mix_seed(base_seed, i))))
        except ValueError as exc:
            raise ValueError(f"episodes[{i}]: {exc}") from None
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
