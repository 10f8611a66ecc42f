"""Solve unknown model coefficients from anchor scenarios.

The budget formula is linear in every coefficient, so an anchor scenario
with a known suitable budget pins exactly one unknown.  The solver does
not restate the formula: it reads the estimate's unclamped sum with the
unknown set to 0, subtracts that from the known budget, and divides by
the unknown's signed weight (agent count for the per-agent coefficient,
junction count for the per-junction coefficient, -1 for the
repeat-exposure deduction, 0 when the anchor does not involve it).
Anchors are solved in sequence, feeding each solved value into later
anchors either at full precision or at the one-decimal publishing
precision.

The repeat-exposure deduction can also be derived directly as the product
of an ordinal effect size and an upper-bound budget; that is a product,
not a linear-residual solve, so it lives in :func:`derive_oc`.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable

from .defaults import Chaining
from .errors import (
    DependencyOrderError,
    NegativeCoefficient,
    SchemaError,
    UnidentifiableUnknown,
    check_range,
    check_types,
    located,
)
from .model import (
    CoefficientSet,
    DriverProfile,
    ScenarioSpec,
    TakeoverContext,
    estimate_tortb,
    round_coefficient,
)
from .records import record, replace


class UnknownCoefficient(Enum):
    """Which coefficient an anchor case solves for."""

    C_NOA = "c_noa"
    C_NOJ = "c_noj"
    OC = "oc"


@record
class AnchorCase:
    """One scenario with a known suitable budget, pinning one unknown.

    The driver profile is the slowest/least-experienced bound the budget
    was validated for, so solved coefficients stay conservative.
    """

    scenario: ScenarioSpec
    driver: DriverProfile
    ctx: TakeoverContext
    known_tortb: float  # [s]
    unknown: UnknownCoefficient

    def __post_init__(self) -> None:
        check_types(self, scenario=ScenarioSpec, driver=DriverProfile, ctx=TakeoverContext,
                    unknown=UnknownCoefficient)
        check_range("known_tortb", self.known_tortb, 0, above=True)


@record
class SolvedCoefficient:
    """Raw and rounded value for one unknown, plus the rounding residual.

    ``residual`` is the known budget minus its reconstruction with every
    so-far-solved coefficient at its rounded value.
    """

    unknown: UnknownCoefficient
    raw: float  # [s]
    rounded: float  # [s]
    residual: float  # [s]


@record
class CalibrationResult:
    """Solved coefficients in solve order."""

    sequence: tuple[SolvedCoefficient, ...]

    @property
    def solved(self) -> dict[UnknownCoefficient, SolvedCoefficient]:
        """Each solved coefficient keyed by its unknown, in a new dict on each access."""
        return {coefficient.unknown: coefficient for coefficient in self.sequence}


# Per unknown: the CoefficientSet field it names and its signed weight in an
# anchor's budget equation (0 when the anchor does not involve it).
_UNKNOWNS: dict[UnknownCoefficient, tuple[str, Callable[[AnchorCase], float]]] = {
    UnknownCoefficient.C_NOA: ("c_noa", lambda a: float(a.scenario.noa)),
    UnknownCoefficient.C_NOJ: ("c_noj", lambda a: float(a.scenario.noj)),
    UnknownCoefficient.OC: ("oc_repeat", lambda a: 0.0 if a.ctx.ordinal == 1 else -1.0),
}


def solve_coefficient(
    anchor: AnchorCase, known: CoefficientSet
) -> tuple[float, float]:
    """Solve the anchor's unknown given every other coefficient.

    Returns ``(raw, rounded)`` in seconds; ``rounded`` is the raw value at
    one-decimal half-up precision.
    """
    field, weight = _UNKNOWNS[anchor.unknown]
    mult = weight(anchor)
    if mult == 0:
        raise UnidentifiableUnknown(
            f"anchor '{anchor.scenario.label or anchor.unknown.value}' gives "
            f"{anchor.unknown.value} a zero multiplier"
        )
    # The unclamped sum with the unknown at 0 is every other term, bit for
    # bit (x + 0.0 == x); the clamped total would be wrong when it is < 0.
    known_sum = estimate_tortb(
        anchor.driver, anchor.scenario, anchor.ctx, replace(known, **{field: 0.0})
    ).unclamped
    raw = (anchor.known_tortb - known_sum) / mult
    if raw < 0:
        raise NegativeCoefficient(
            f"solving {anchor.unknown.value} yields {raw:.6g} s; "
            "the anchor set is inconsistent"
        )
    check_range(f"solved {field}", raw, 0)
    return raw, round_coefficient(raw)


def calibrate_sequence(
    anchors: list[AnchorCase],
    seed_coeffs: CoefficientSet,
    chaining: Chaining = Chaining.USE_RAW,
) -> tuple[CalibrationResult, CoefficientSet]:
    """Solve the anchors in order, feeding solved values forward.

    ``chaining`` selects whether the raw or the rounded value of each
    solved coefficient is substituted into later anchors; raw chaining
    reproduces the published sequence (the junction coefficient was solved
    with the unrounded 1.85 agent coefficient).  Returns the per-unknown
    results and the seed set updated with the chained values.
    """
    unknowns = [a.unknown for a in anchors]
    if len(set(unknowns)) != len(unknowns):
        raise SchemaError("each anchor must solve a distinct unknown")
    current = seed_coeffs
    rounded_chain = seed_coeffs
    solved: list[SolvedCoefficient] = []
    for i, anchor in enumerate(anchors):
        with located(f"anchors[{i}]"):
            for later in unknowns[i + 1:]:
                if _UNKNOWNS[later][1](anchor) != 0:
                    raise DependencyOrderError(
                        f"anchor for {anchor.unknown.value} needs {later.value}, "
                        "which a later anchor solves"
                    )
            raw, rounded = solve_coefficient(anchor, current)
            field = _UNKNOWNS[anchor.unknown][0]
            chained = raw if chaining is Chaining.USE_RAW else rounded
            current = replace(current, **{field: chained})
            rounded_chain = replace(rounded_chain, **{field: rounded})
            reconstruction = estimate_tortb(
                anchor.driver, anchor.scenario, anchor.ctx, rounded_chain
            ).total
            solved.append(SolvedCoefficient(anchor.unknown, raw, rounded,
                                            anchor.known_tortb - reconstruction))
    return CalibrationResult(tuple(solved)), current


def derive_oc(
    ordinal_effect_size: float, upper_bound_tortb: float
) -> tuple[float, float]:
    """Repeat-exposure deduction as effect size times the upper-bound budget."""
    check_range("ordinal_effect_size", ordinal_effect_size, 0, 1)
    check_range("upper_bound_tortb", upper_bound_tortb, 0, above=True)
    raw = ordinal_effect_size * upper_bound_tortb
    return raw, round_coefficient(raw)
