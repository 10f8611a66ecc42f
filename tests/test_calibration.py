"""Tests for the sequential coefficient calibration."""

import numpy as np
import pytest

from tortb import (
    DEFAULT_COEFFICIENTS,
    SCENARIO_PRESETS,
    AnchorCase,
    Chaining,
    DependencyOrderError,
    DriverProfile,
    NdrtClass,
    NegativeCoefficient,
    ScenarioSpec,
    TakeoverContext,
    UnidentifiableUnknown,
    UnknownCoefficient,
    calibrate_sequence,
    derive_oc,
    estimate_tortb,
    solve_coefficient,
)
from tortb.records import replace

#: Slowest/least-experienced calibration bound: srt rounds up to 0.3 s,
#: experience in the top dec band (2 s).
BOUND = DriverProfile(srt=0.3, experience_km_per_week=20)
FIRST_DRIVE = TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1)


def s1_anchor(tortb=7.0):
    return AnchorCase(
        scenario=SCENARIO_PRESETS["S1"],
        driver=BOUND,
        ctx=FIRST_DRIVE,
        known_tortb=tortb,
        unknown=UnknownCoefficient.C_NOA,
    )


def s3_anchor(tortb=7.0):
    return AnchorCase(
        scenario=SCENARIO_PRESETS["S3"],
        driver=BOUND,
        ctx=FIRST_DRIVE,
        known_tortb=tortb,
        unknown=UnknownCoefficient.C_NOJ,
    )


@pytest.mark.parametrize("known", [0.0, -1.0, float("nan"), float("inf")])
def test_anchor_validation(known):
    with pytest.raises(ValueError, match="known_tortb"):
        s1_anchor(tortb=known)


def test_solve_agent_coefficient_from_s1():
    raw, rounded = solve_coefficient(s1_anchor(), DEFAULT_COEFFICIENTS)
    assert raw == pytest.approx(1.85, abs=1e-9)
    assert rounded == 1.9


def test_solve_junction_coefficient_raw_chained():
    result, _ = calibrate_sequence([s1_anchor(), s3_anchor()], DEFAULT_COEFFICIENTS)
    noa = result.solved[UnknownCoefficient.C_NOA]
    noj = result.solved[UnknownCoefficient.C_NOJ]
    assert (noa.raw, noa.rounded) == (pytest.approx(1.85, abs=1e-9), 1.9)
    # Solved with the unrounded 1.85: (7 - (0.3 + 2 + 3.7 + 0.5)) / 3.
    assert noj.raw == pytest.approx(0.5 / 3, abs=1e-9)
    assert abs(noj.raw - 0.1667) < 1e-3
    assert noj.rounded == 0.2


def test_solve_junction_coefficient_rounded_chained():
    result, coeffs = calibrate_sequence(
        [s1_anchor(), s3_anchor()], DEFAULT_COEFFICIENTS, Chaining.USE_ROUNDED
    )
    noj = result.solved[UnknownCoefficient.C_NOJ]
    # With the rounded 1.9 fed forward: (7 - (0.3 + 2 + 3.8 + 0.5)) / 3.
    assert noj.raw == pytest.approx((7 - (0.3 + 2 + 2 * 1.9 + 0.5)) / 3, abs=1e-9)
    assert noj.rounded == 0.1
    assert coeffs.c_noa == 1.9
    assert coeffs.c_noj == 0.1


def test_zero_residual_anchor_solves_to_zero():
    # Known terms alone already reach the budget; multiplier is one agent.
    driver = DriverProfile(srt=0.2, experience_km_per_week=80)
    scenario = ScenarioSpec(noa=1, noj=0, ego_speed=80)
    known = 0.2 + 1.5 + 0.5
    anchor = AnchorCase(
        scenario=scenario,
        driver=driver,
        ctx=FIRST_DRIVE,
        known_tortb=known,
        unknown=UnknownCoefficient.C_NOA,
    )
    raw, rounded = solve_coefficient(anchor, DEFAULT_COEFFICIENTS)
    assert raw == pytest.approx(0.0, abs=1e-12)
    assert rounded == 0.0


def test_unidentifiable_unknowns():
    no_agents = replace(s1_anchor(), scenario=ScenarioSpec(noa=0, noj=0, ego_speed=130))
    with pytest.raises(UnidentifiableUnknown):
        solve_coefficient(no_agents, DEFAULT_COEFFICIENTS)
    first_drive_oc = replace(s1_anchor(), unknown=UnknownCoefficient.OC)
    with pytest.raises(UnidentifiableUnknown):
        solve_coefficient(first_drive_oc, DEFAULT_COEFFICIENTS)


def test_inconsistent_anchor_raises():
    with pytest.raises(NegativeCoefficient):
        solve_coefficient(s1_anchor(tortb=1.0), DEFAULT_COEFFICIENTS)


def test_dependency_order_error():
    # S3 involves agents, so the junction anchor cannot run first.
    with pytest.raises(DependencyOrderError):
        calibrate_sequence([s3_anchor(), s1_anchor()], DEFAULT_COEFFICIENTS)


def test_duplicate_unknowns_rejected():
    with pytest.raises(ValueError):
        calibrate_sequence([s1_anchor(), s1_anchor()], DEFAULT_COEFFICIENTS)


def test_empty_anchor_list_is_noop():
    result, coeffs = calibrate_sequence([], DEFAULT_COEFFICIENTS)
    assert result.solved == {}
    assert coeffs == DEFAULT_COEFFICIENTS


def test_order_independence_for_independent_unknowns():
    agents_only = AnchorCase(
        scenario=ScenarioSpec(noa=2, noj=0, ego_speed=100),
        driver=BOUND,
        ctx=FIRST_DRIVE,
        known_tortb=6.5,
        unknown=UnknownCoefficient.C_NOA,
    )
    junctions_only = AnchorCase(
        scenario=ScenarioSpec(noa=0, noj=2, ego_speed=40),
        driver=BOUND,
        ctx=FIRST_DRIVE,
        known_tortb=3.5,
        unknown=UnknownCoefficient.C_NOJ,
    )
    forward, coeffs_fwd = calibrate_sequence(
        [agents_only, junctions_only], DEFAULT_COEFFICIENTS
    )
    backward, coeffs_bwd = calibrate_sequence(
        [junctions_only, agents_only], DEFAULT_COEFFICIENTS
    )
    assert coeffs_fwd == coeffs_bwd
    for unknown in (UnknownCoefficient.C_NOA, UnknownCoefficient.C_NOJ):
        assert forward.solved[unknown].raw == backward.solved[unknown].raw


def test_raw_reconstruction_residual_below_1e9():
    _, coeffs = calibrate_sequence([s1_anchor(), s3_anchor()], DEFAULT_COEFFICIENTS)
    for anchor in (s1_anchor(), s3_anchor()):
        total = estimate_tortb(anchor.driver, anchor.scenario, anchor.ctx, coeffs).total
        assert abs(anchor.known_tortb - total) < 1e-9


def test_rounded_reconstruction_residuals():
    result, _ = calibrate_sequence([s1_anchor(), s3_anchor()], DEFAULT_COEFFICIENTS)
    # 0.3 + 2 + 2*1.9 + 1 = 7.1 against the known 7.0.
    assert result.solved[UnknownCoefficient.C_NOA].residual == pytest.approx(-0.1, abs=1e-9)
    # 0.3 + 2 + 3.8 + 0.6 + 0.5 = 7.2.
    assert result.solved[UnknownCoefficient.C_NOJ].residual == pytest.approx(-0.2, abs=1e-9)


def test_oc_anchor_solves_via_negative_multiplier():
    true = replace(DEFAULT_COEFFICIENTS, oc_repeat=0.7)
    ctx = TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=2)
    scenario = ScenarioSpec(noa=1, noj=0, ego_speed=60)
    known = estimate_tortb(BOUND, scenario, ctx, true).total
    anchor = AnchorCase(
        scenario=scenario, driver=BOUND, ctx=ctx, known_tortb=known,
        unknown=UnknownCoefficient.OC,
    )
    raw, rounded = solve_coefficient(anchor, DEFAULT_COEFFICIENTS)
    assert raw == pytest.approx(0.7, abs=1e-9)
    assert rounded == 0.7


def test_solve_uses_unclamped_known_sum():
    # The known terms sum to -0.4 s here; clamping that at 0 would give 0.5.
    zeroed = replace(
        DEFAULT_COEFFICIENTS,
        rsc_bands=((130.0, 0.0),),
        dec_bands=((200.0, 0.0),),
        dec_floor=0.0,
        ndrtc_handheld=0.0,
        oc_repeat=0.4,
    )
    anchor = AnchorCase(
        scenario=ScenarioSpec(noa=2, noj=0, ego_speed=60),
        driver=DriverProfile(srt=0.0, experience_km_per_week=20),
        ctx=TakeoverContext(ndrt_class=NdrtClass.HAND_HELD, ordinal=2),
        known_tortb=1.0,
        unknown=UnknownCoefficient.C_NOA,
    )
    assert solve_coefficient(anchor, zeroed) == (0.7, 0.7)


@pytest.mark.parametrize(
    "effect,bound,raw,rounded",
    [(0.053, 7, 0.371, 0.4), (0.0, 7, 0.0, 0.0), (0.5, 10, 5.0, 5.0)],
)
def test_derive_oc(effect, bound, raw, rounded):
    got_raw, got_rounded = derive_oc(effect, bound)
    assert got_raw == pytest.approx(raw, abs=1e-9)
    assert got_rounded == rounded


def test_derive_oc_validation():
    with pytest.raises(ValueError):
        derive_oc(1.5, 7)
    with pytest.raises(ValueError):
        derive_oc(0.5, 0)
    with pytest.raises(ValueError, match="upper_bound_tortb"):
        derive_oc(0.5, float("nan"))


def test_random_anchor_round_trips():
    """Solved raw values reproduce the known budget to 1e-9."""
    rng = np.random.default_rng(1234)
    unknowns = list(UnknownCoefficient)
    for i in range(300):
        true = replace(
            DEFAULT_COEFFICIENTS,
            c_noa=float(rng.uniform(0.5, 3.0)),
            c_noj=float(rng.uniform(0.05, 1.0)),
            ndrtc_handheld=float(rng.uniform(0.0, 4.0)),
            oc_repeat=float(rng.uniform(0.0, 1.0)),
        )
        unknown = unknowns[i % len(unknowns)]
        scenario = ScenarioSpec(
            noa=int(rng.integers(1, 5)),
            noj=int(rng.integers(1, 5)),
            ego_speed=float(rng.uniform(0, 130)),
        )
        ordinal = 2 if unknown is UnknownCoefficient.OC else int(rng.integers(1, 4))
        ctx = TakeoverContext(
            ndrt_class=NdrtClass(rng.choice(["handsfree", "handheld"])), ordinal=ordinal
        )
        driver = DriverProfile(
            srt=float(rng.uniform(0, 1)),
            experience_km_per_week=float(rng.uniform(0, 400)),
        )
        anchor = AnchorCase(
            scenario=scenario,
            driver=driver,
            ctx=ctx,
            known_tortb=estimate_tortb(driver, scenario, ctx, true).total,
            unknown=unknown,
        )
        # Seed the unknown with a wrong value; the solver must not peek at it.
        attr = {
            UnknownCoefficient.C_NOA: "c_noa",
            UnknownCoefficient.C_NOJ: "c_noj",
            UnknownCoefficient.OC: "oc_repeat",
        }[unknown]
        seed = replace(true, **{attr: 0.123})
        result, solved_set = calibrate_sequence([anchor], seed)
        assert result.solved[unknown].raw == pytest.approx(getattr(true, attr), abs=1e-9)
        total = estimate_tortb(driver, scenario, ctx, solved_set).total
        assert abs(anchor.known_tortb - total) < 1e-9
