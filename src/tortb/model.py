"""Core takeover-request time-budget (TORTB) model.

The budget is the number of seconds between a takeover request (TOR) and
the critical situation, within which the driver must have completed the
takeover maneuver.  It is additive in second-valued terms:

    total = srt + dec + noa_term + noj_term + rsc + ndrtc - oc

* ``srt``: the driver's visual stimulus response time.
* ``dec``: driving-experience coefficient, banded by weekly mileage.
* ``noa_term`` / ``noj_term``: observation time per interacting traffic
  agent and per adjoining road at the decision point.
* ``rsc``: relative-speed coefficient, banded by the closing speed toward
  the cause of the critical situation.
* ``ndrtc``: time to disengage from the non-driving-related task (zero for
  hands-free tasks).
* ``oc``: learning-effect deduction from the second exposure on.

The three middle terms form the scenario-specific time (SST).  Each term
is computed once, in ``_budget_terms``, and returned by
:func:`estimate_tortb` in its ``components``.  Addition is performed
strictly left to right, so a given input always produces the same bit
pattern.  Everything in this module is a pure function of
immutable values and is safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

from .defaults import SCENARIO_NAMES, NdrtClass
from .errors import (
    NegativeRelativeSpeed,
    SchemaError,
    SpeedAboveModelRange,
    check_count,
    check_range,
    check_type,
    check_types,
)

# Typical visual stimulus response range [s]; profiles outside it are
# accepted but flagged in the estimate's warnings.
VISUAL_SRT_RANGE = (0.18, 0.27)


def round_coefficient(value: float) -> float:
    """Round a coefficient to one decimal, halves away from zero.

    Coefficients are published at one-decimal precision (1.85 -> 1.9,
    0.1667 -> 0.2, 0.371 -> 0.4).  Built-in ``round`` uses banker's
    rounding and would turn 0.25 into 0.2, so this goes through
    :class:`~decimal.Decimal` on the shortest repr.  The context holds the
    310 digits of the largest float at one decimal; the default 28 would
    raise ``InvalidOperation`` from about 1e27 up.
    """
    from decimal import ROUND_HALF_UP, Context, Decimal
    check_range("value", value, -sys.float_info.max)
    return float(
        Decimal(repr(value)).quantize(
            Decimal("0.1"), rounding=ROUND_HALF_UP, context=Context(prec=310)
        )
    )


@dataclass(frozen=True)
class DriverProfile:
    """Per-driver inputs feeding the SRT and DEC terms."""

    srt: float  # visual stimulus response time [s]
    experience_km_per_week: float  # weekly driving distance [km/wk]

    def __post_init__(self) -> None:
        check_range("srt", self.srt, 0, 1)
        check_range("experience_km_per_week", self.experience_km_per_week, 0)


@dataclass(frozen=True)
class ScenarioSpec:
    """Static description of the takeover scenario at the decision point.

    ``noj`` counts the adjoining roads excluding the ego vehicle's own
    approach (a four-way intersection entered by the ego has ``noj=3``).
    ``hazard_speed`` is 0 for stationary causes such as a junction or a
    parked car.
    """

    noa: int  # interacting traffic agents
    noj: int  # adjoining roads at the decision point
    ego_speed: float  # [km/hr]
    hazard_speed: float = 0.0  # [km/hr]
    label: str = ""

    def __post_init__(self) -> None:
        # The counts enter the budget as floats, so they must fit in one.
        check_count("noa", self.noa, 0)
        check_count("noj", self.noj, 0)
        check_range("ego_speed", self.ego_speed, 0)
        check_range("hazard_speed", self.hazard_speed, 0)
        check_type("label", self.label, str, "a string")


@dataclass(frozen=True)
class TakeoverContext:
    """Driver-state inputs that are not part of the scenario geometry."""

    ndrt_class: NdrtClass
    ordinal: int  # 1 = first exposure to this scenario class

    def __post_init__(self) -> None:
        check_types(self, ndrt_class=NdrtClass)
        check_count("ordinal", self.ordinal, 1)


def _validate_bands(
    name: str, bands: tuple[tuple[float, float], ...], *, values_decrease: bool
) -> tuple[tuple[float, float], ...]:
    """Check a band table, each entry a number before it becomes a float; return the floats."""
    check_type(name, bands, (tuple, list), "a tuple of (upper, value) pairs")
    if not bands:
        raise SchemaError(f"{name} must contain at least one band")
    for i, band in enumerate(bands):
        if not isinstance(band, (tuple, list)) or len(band) != 2:
            raise SchemaError(f"{name}[{i}] must be an (upper, value) pair, got {band!r}")
        check_range(f"{name} upper bounds[{i}]", band[0], 0)
        check_range(f"{name} values[{i}]", band[1], 0)
    uppers, values = ([float(x) for x in column] for column in zip(*bands))
    if not all(a < b for a, b in zip(uppers, uppers[1:])):
        raise SchemaError(f"{name} upper bounds must strictly increase, got {uppers}")
    if any(b > a if values_decrease else b < a for a, b in zip(values, values[1:])):
        trend = "increase" if values_decrease else "decrease"
        raise SchemaError(f"{name} values must not {trend} with the band key")
    return tuple(zip(uppers, values))


@dataclass(frozen=True)
class CoefficientSet:
    """The model constants, all in seconds.

    Band tables map an input to a value through the first band whose upper
    bound is greater than or equal to the input; upper bounds are
    inclusive.  ``rsc_bands`` are keyed by relative speed [km/hr] and must
    not decrease with speed; inputs above the last band are outside the
    calibrated range and raise :class:`SpeedAboveModelRange`.
    ``dec_bands`` are keyed by weekly driving distance [km/wk] and must
    not increase with experience; inputs above the last band clamp to
    ``dec_floor``.
    """

    c_noa: float  # [s] per interacting traffic agent
    c_noj: float  # [s] per adjoining road
    rsc_bands: tuple[tuple[float, float], ...]  # (upper bound [km/hr], value [s])
    dec_bands: tuple[tuple[float, float], ...]  # (upper bound [km/wk], value [s])
    dec_floor: float  # [s] beyond the last dec band
    ndrtc_handheld: float  # [s] handheld-task disengagement penalty
    oc_repeat: float  # [s] deduction from the second exposure on

    def __post_init__(self) -> None:
        for name in ("c_noa", "c_noj", "dec_floor", "ndrtc_handheld", "oc_repeat"):
            check_range(name, getattr(self, name), 0)
        for name, values_decrease in (("rsc_bands", False), ("dec_bands", True)):
            bands = _validate_bands(name, getattr(self, name), values_decrease=values_decrease)
            object.__setattr__(self, name, bands)

    def rounded(self) -> "CoefficientSet":
        """Copy with the scalar coefficients at one-decimal precision.

        This is the set the published example table is computed with
        (notably the handheld penalty 2.73 -> 2.7).  The band tables are
        already stated at their final precision and are left untouched.
        """
        return replace(
            self,
            c_noa=round_coefficient(self.c_noa),
            c_noj=round_coefficient(self.c_noj),
            ndrtc_handheld=round_coefficient(self.ndrtc_handheld),
            oc_repeat=round_coefficient(self.oc_repeat),
        )


#: Published coefficient set (scalar coefficients at their source precision).
DEFAULT_COEFFICIENTS = CoefficientSet(
    c_noa=1.9,
    c_noj=0.2,
    rsc_bands=((50.0, 0.25), (80.0, 0.5), (130.0, 1.0)),
    dec_bands=((30.0, 2.0), (100.0, 1.5), (200.0, 1.0)),
    dec_floor=1.0,
    ndrtc_handheld=2.73,
    oc_repeat=0.4,
)

#: Same set with the calibrated coefficients before one-decimal rounding:
#: 1.85 s per agent, 0.5/3 s per junction, 0.053 * 7 s repeat deduction.
#: Reproduces the anchor budgets exactly (7.0 s at the calibration bound).
RAW_COEFFICIENTS = replace(
    DEFAULT_COEFFICIENTS,
    c_noa=1.85,
    c_noj=0.5 / 3,
    oc_repeat=0.371,
)

#: Bundled scenario presets.  S2's single adjoining road models the exit
#: ramp branch and is an extrapolated preset (never used for calibration).
SCENARIO_PRESETS: dict[str, ScenarioSpec] = dict(zip(SCENARIO_NAMES, (
    ScenarioSpec(
        noa=2,
        noj=0,
        ego_speed=130.0,
        hazard_speed=0.0,
        label="stationary car ahead on the highway at 130 km/hr, one approaching vehicle",
    ),
    ScenarioSpec(
        noa=0,
        noj=1,
        ego_speed=50.0,
        hazard_speed=0.0,
        label="take the highway exit at 50 km/hr (exit ramp counted as one adjoining road)",
    ),
    ScenarioSpec(
        noa=2,
        noj=3,
        ego_speed=80.0,
        hazard_speed=0.0,
        label="right turn at a four-way country-road intersection at 80 km/hr, "
        "bicyclist and pedestrian at the turn",
    ),
), strict=True))


def ndrtc_lookup(
    ndrt_class: NdrtClass, coeffs: CoefficientSet = DEFAULT_COEFFICIENTS
) -> float:
    """Disengagement penalty [s] for the given task class."""
    if ndrt_class is NdrtClass.HANDS_FREE:
        return 0.0
    return coeffs.ndrtc_handheld


@dataclass(frozen=True)
class TortbEstimate:
    """A budget estimate with its full component breakdown.

    ``components`` carries the keys ``srt``, ``dec``, ``noa_term``,
    ``noj_term``, ``rsc``, ``sst``, ``ndrtc`` and ``oc``, all in seconds.
    Unless a warning says the total was clamped,
    ``total == srt + dec + noa_term + noj_term + rsc + ndrtc - oc``
    evaluated left to right.
    """

    total: float
    components: dict[str, float]
    warnings: tuple[str, ...] = ()


def _band(bands: tuple[tuple[float, float], ...], key: float) -> float | None:
    """Value of the first band whose inclusive upper bound is >= ``key``; None past the last."""
    for upper, value in bands:
        if key <= upper:
            return value
    return None


def _budget_terms(
    driver: DriverProfile,
    scenario: ScenarioSpec,
    ctx: TakeoverContext,
    coeffs: CoefficientSet,
) -> tuple[dict[str, float], float]:
    """The budget's components and their unclamped sum.

    Each term is computed here and nowhere else, from inputs their
    constructors have range-checked.  A hazard faster than the ego raises
    :class:`NegativeRelativeSpeed`.  Every input is finite, but a product
    such as ``noa * c_noa`` or the sum can still overflow; that raises
    ``SchemaError`` naming the first non-finite component, or ``total``.
    """
    dec = _band(coeffs.dec_bands, driver.experience_km_per_week)
    if dec is None:
        dec = coeffs.dec_floor
    rs = scenario.ego_speed - scenario.hazard_speed
    if rs < 0:
        raise NegativeRelativeSpeed(
            f"hazard at {scenario.hazard_speed} km/hr is faster than ego at "
            f"{scenario.ego_speed} km/hr; the model does not define receding hazards"
        )
    rsc = _band(coeffs.rsc_bands, rs)
    if rsc is None:
        raise SpeedAboveModelRange(
            f"relative speed {rs:g} km/hr is above the last calibrated band "
            f"({coeffs.rsc_bands[-1][0]:g} km/hr)"
        )
    noa_term = scenario.noa * coeffs.c_noa
    noj_term = scenario.noj * coeffs.c_noj
    ndrtc = ndrtc_lookup(ctx.ndrt_class, coeffs)
    oc = 0.0 if ctx.ordinal == 1 else coeffs.oc_repeat
    # Fixed left-to-right evaluation keeps the breakdown bit-reproducible.
    total = driver.srt + dec + noa_term + noj_term + rsc + ndrtc - oc
    components = {
        "srt": driver.srt,
        "dec": dec,
        "noa_term": noa_term,
        "noj_term": noj_term,
        "rsc": rsc,
        "sst": noa_term + noj_term + rsc,
        "ndrtc": ndrtc,
        "oc": oc,
    }
    # A non-finite component makes the total non-finite too, so one check
    # of the total finds every overflow.
    if not math.isfinite(total):
        name = next((k for k, v in components.items() if not math.isfinite(v)), "total")
        value = components.get(name, total)
        raise SchemaError(f"budget term {name} overflows to {value}")
    return components, total


def estimate_tortb(
    driver: DriverProfile,
    scenario: ScenarioSpec,
    ctx: TakeoverContext,
    coeffs: CoefficientSet = DEFAULT_COEFFICIENTS,
) -> TortbEstimate:
    """Estimate the takeover-request time budget for one situation.

    The total can only go negative with pathological coefficient sets; in
    that case it is clamped to 0 and a warning is attached, since a budget
    below zero is meaningless.
    """
    warnings: list[str] = []
    lo, hi = VISUAL_SRT_RANGE
    if not lo <= driver.srt <= hi:
        warnings.append(
            f"srt {driver.srt:g} s is outside the typical visual stimulus "
            f"response range [{lo:g}, {hi:g}] s"
        )
    components, total = _budget_terms(driver, scenario, ctx, coeffs)
    if total < 0:
        warnings.append(f"negative budget {total:.6g} s clamped to 0")
        total = 0.0
    return TortbEstimate(total=total, components=components, warnings=tuple(warnings))
