"""Core takeover-request time-budget (TORTB) model.

The budget is the number of seconds between a takeover request (TOR) and
the critical situation, within which the driver must have completed the
takeover maneuver.  It is additive in second-valued terms, in the
paper's notation SRT + DEC + SST + NDRTC - OC, and never below 0:

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
is computed once, in :func:`estimate_tortb`, and held as a field of the
:class:`TortbEstimate` it returns, whose ``unclamped`` property is the one
place the terms are summed.  Addition is performed strictly left to
right, so a given input always produces the same bit pattern.
Everything in this module is a pure function of immutable values and is
safe to call concurrently.
"""

from __future__ import annotations

import math
import sys

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
from .records import record, replace

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


@record
class DriverProfile:
    """Per-driver inputs feeding the SRT and DEC terms."""

    srt: float  # visual stimulus response time [s]
    experience_km_per_week: float  # weekly driving distance [km/wk]

    def __post_init__(self) -> None:
        check_range("srt", self.srt, 0, 1)
        check_range("experience_km_per_week", self.experience_km_per_week, 0)


@record
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


@record
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


@record
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


@record
class TortbEstimate:
    """A budget estimate with its full component breakdown, all in seconds.

    Each term of the budget is a field.  ``unclamped``, ``total`` and
    ``warnings`` are computed from the terms on each read, so an estimate
    holds nothing but its seven terms.
    """

    srt: float
    dec: float
    noa_term: float
    noj_term: float
    rsc: float
    ndrtc: float
    oc: float

    @property
    def unclamped(self) -> float:
        """The budget before the clamp at 0, summed left to right."""
        return (self.srt + self.dec + self.noa_term + self.noj_term + self.rsc + self.ndrtc
                - self.oc)

    @property
    def total(self) -> float:
        """The budget: ``unclamped``, or 0 where that is negative."""
        unclamped = self.unclamped
        return 0.0 if unclamped < 0 else unclamped

    @property
    def warnings(self) -> tuple[str, ...]:
        """An SRT outside :data:`VISUAL_SRT_RANGE`, then a negative budget clamped to 0."""
        lo, hi = VISUAL_SRT_RANGE
        warnings = []
        if not lo <= self.srt <= hi:
            warnings.append(f"srt {self.srt:g} s is outside the typical visual stimulus "
                            f"response range [{lo:g}, {hi:g}] s")
        unclamped = self.unclamped
        if unclamped < 0:
            warnings.append(f"negative budget {unclamped:.6g} s clamped to 0")
        return tuple(warnings)

    @property
    def components(self) -> dict[str, float]:
        """The terms and the SST, keyed ``srt``, ``dec``, ``noa_term``,
        ``noj_term``, ``rsc``, ``sst``, ``ndrtc``, ``oc``; a new dict on each access."""
        return {"srt": self.srt, "dec": self.dec, "noa_term": self.noa_term,
                "noj_term": self.noj_term, "rsc": self.rsc,
                "sst": self.noa_term + self.noj_term + self.rsc, "ndrtc": self.ndrtc,
                "oc": self.oc}


def _band(bands: tuple[tuple[float, float], ...], key: float) -> float | None:
    """Value of the first band whose inclusive upper bound is >= ``key``; None past the last."""
    for upper, value in bands:
        if key <= upper:
            return value
    return None


def estimate_tortb(
    driver: DriverProfile,
    scenario: ScenarioSpec,
    ctx: TakeoverContext,
    coeffs: CoefficientSet = DEFAULT_COEFFICIENTS,
) -> TortbEstimate:
    """Estimate the takeover-request time budget for one situation.

    Each term is computed here and nowhere else, from inputs their
    constructors have range-checked.  A hazard faster than the ego raises
    :class:`NegativeRelativeSpeed`.  Every input is finite, but a product
    such as ``noa * c_noa`` or the sum can still overflow; that raises
    ``SchemaError`` naming the first non-finite component, or ``total``.
    The sum can only go negative with pathological coefficient sets; the
    estimate's ``total`` then reads 0 and its ``warnings`` say so, since a
    budget below zero is meaningless.
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
    est = TortbEstimate(
        driver.srt, dec, scenario.noa * coeffs.c_noa, scenario.noj * coeffs.c_noj, rsc,
        ndrtc_lookup(ctx.ndrt_class, coeffs), 0.0 if ctx.ordinal == 1 else coeffs.oc_repeat)
    # A non-finite component makes the sum non-finite too, so one check of
    # the sum finds every overflow.
    unclamped = est.unclamped
    if not math.isfinite(unclamped):
        components = est.components
        name = next((k for k, v in components.items() if not math.isfinite(v)), "total")
        raise SchemaError(f"budget term {name} overflows to {components.get(name, unclamped)}")
    return est
