"""Unit and property tests for the budget model."""

import bisect
import itertools
import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tortb import (
    DEFAULT_COEFFICIENTS,
    RAW_COEFFICIENTS,
    SCENARIO_PRESETS,
    DriverProfile,
    NdrtClass,
    NegativeRelativeSpeed,
    ScenarioSpec,
    SpeedAboveModelRange,
    TakeoverContext,
    compute_sst,
    dec_lookup,
    estimate_tortb,
    ndrtc_lookup,
    oc_lookup,
    relative_speed,
    round_coefficient,
    rsc_lookup,
)
from tortb.model import VISUAL_SRT_RANGE

TABLE_DRIVER = DriverProfile(srt=0.2, experience_km_per_week=80.0)


def make_inputs(srt, experience, noa, noj, rs, ndrt, ordinal):
    return (
        DriverProfile(srt=srt, experience_km_per_week=experience),
        ScenarioSpec(noa=noa, noj=noj, ego_speed=rs, hazard_speed=0.0),
        TakeoverContext(ndrt_class=ndrt, ordinal=ordinal),
    )


# ---------------------------- relative speed ----------------------------


@pytest.mark.parametrize(
    "ego,hazard,expected", [(80, 50, 30), (130, 0, 130), (50, 50, 0)]
)
def test_relative_speed(ego, hazard, expected):
    assert relative_speed(ego, hazard) == expected


def test_relative_speed_receding_hazard():
    with pytest.raises(NegativeRelativeSpeed):
        relative_speed(50, 80)


def test_relative_speed_rejects_negative_inputs():
    with pytest.raises(ValueError):
        relative_speed(-1, 0)
    with pytest.raises(ValueError, match="ego_speed"):
        relative_speed(math.nan, 0)
    with pytest.raises(ValueError, match="hazard_speed"):
        relative_speed(50, math.nan)


# ------------------------------- lookups --------------------------------


@pytest.mark.parametrize("rs,expected", [(30, 0.25), (80, 0.5), (130, 1.0), (0, 0.25)])
def test_rsc_lookup(rs, expected):
    assert rsc_lookup(rs) == expected


def test_rsc_above_model_range():
    with pytest.raises(SpeedAboveModelRange):
        rsc_lookup(131)


def test_lookups_reject_nan():
    with pytest.raises(ValueError, match="rs must be >= 0"):
        rsc_lookup(math.nan)
    with pytest.raises(ValueError, match="experience_km_per_week"):
        dec_lookup(math.nan)
    with pytest.raises(ValueError, match=r"^ordinal must be >= 1, got nan$"):
        oc_lookup(math.nan)


@pytest.mark.parametrize(
    "experience,expected",
    [(80, 1.5), (30, 2.0), (5000, 1.0), (0, 2.0), (100, 1.5), (200, 1.0)],
)
def test_dec_lookup(experience, expected):
    assert dec_lookup(experience) == expected


def test_band_edges_inclusive():
    """Upper bounds belong to their band; anything above flips to the next."""
    for edge, at_edge, above in ((50.0, 0.25, 0.5), (80.0, 0.5, 1.0)):
        assert rsc_lookup(edge) == at_edge
        assert rsc_lookup(math.nextafter(edge, math.inf)) == above
    assert rsc_lookup(130.0) == 1.0
    with pytest.raises(SpeedAboveModelRange):
        rsc_lookup(math.nextafter(130.0, math.inf))
    for edge, at_edge, above in ((30.0, 2.0, 1.5), (100.0, 1.5, 1.0), (200.0, 1.0, 1.0)):
        assert dec_lookup(edge) == at_edge
        assert dec_lookup(math.nextafter(edge, math.inf)) == above


def test_ndrtc_lookup():
    assert ndrtc_lookup(NdrtClass.HANDS_FREE) == 0.0
    assert ndrtc_lookup(NdrtClass.HAND_HELD) == 2.73
    zeroed = replace(DEFAULT_COEFFICIENTS, ndrtc_handheld=0.0)
    assert ndrtc_lookup(NdrtClass.HAND_HELD, zeroed) == 0.0


def test_oc_lookup():
    assert oc_lookup(1) == 0.0
    assert oc_lookup(2) == 0.4
    assert oc_lookup(7) == 0.4
    with pytest.raises(ValueError):
        oc_lookup(0)


# ------------------------------ rounding --------------------------------


@pytest.mark.parametrize(
    "value,expected",
    [(1.85, 1.9), (0.16666666666666666, 0.2), (0.371, 0.4), (0.25, 0.3), (2.73, 2.7),
     (1e30, 1e30), (1.7976931348623157e308, 1.7976931348623157e308)],
)
def test_round_coefficient_half_up(value, expected):
    assert round_coefficient(value) == expected


@given(st.floats(min_value=0, max_value=100, allow_nan=False))
def test_round_coefficient_idempotent(value):
    once = round_coefficient(value)
    assert round_coefficient(once) == once


def test_rounded_set_touches_only_scalars():
    rounded = DEFAULT_COEFFICIENTS.rounded()
    assert rounded.ndrtc_handheld == 2.7
    assert rounded.c_noa == 1.9
    assert rounded.rsc_bands == DEFAULT_COEFFICIENTS.rsc_bands
    assert rounded.dec_bands == DEFAULT_COEFFICIENTS.dec_bands


# ---------------------------- domain types ------------------------------


def test_driver_profile_validation():
    with pytest.raises(ValueError):
        DriverProfile(srt=1.5, experience_km_per_week=10)
    with pytest.raises(ValueError):
        DriverProfile(srt=0.2, experience_km_per_week=-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="srt"):
            DriverProfile(srt=bad, experience_km_per_week=10)
        with pytest.raises(ValueError, match="experience_km_per_week"):
            DriverProfile(srt=0.3, experience_km_per_week=bad)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(noa=-1, noj=0, ego_speed=50)
    with pytest.raises(ValueError):
        ScenarioSpec(noa=0, noj=0, ego_speed=-5)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="ego_speed"):
            ScenarioSpec(noa=0, noj=0, ego_speed=bad)
        with pytest.raises(ValueError, match="hazard_speed"):
            ScenarioSpec(noa=0, noj=0, ego_speed=50, hazard_speed=bad)
    with pytest.raises(ValueError, match="noa"):
        ScenarioSpec(noa=10**400, noj=0, ego_speed=50)
    with pytest.raises(ValueError, match="noj"):
        ScenarioSpec(noa=0, noj=10**400, ego_speed=50)


def test_context_validation():
    with pytest.raises(ValueError):
        TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=0)
    with pytest.raises(ValueError, match="ordinal"):
        TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=math.nan)


def test_coefficient_set_validation():
    with pytest.raises(ValueError):
        replace(DEFAULT_COEFFICIENTS, c_noa=-0.1)
    with pytest.raises(ValueError):
        replace(DEFAULT_COEFFICIENTS, rsc_bands=((80.0, 0.5), (50.0, 0.25)))
    with pytest.raises(ValueError):
        replace(DEFAULT_COEFFICIENTS, rsc_bands=((50.0, 0.5), (80.0, 0.25)))
    with pytest.raises(ValueError):
        replace(DEFAULT_COEFFICIENTS, dec_bands=((30.0, 1.0), (100.0, 1.5)))
    with pytest.raises(ValueError):
        replace(DEFAULT_COEFFICIENTS, rsc_bands=())
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="c_noa"):
            replace(DEFAULT_COEFFICIENTS, c_noa=bad)
        with pytest.raises(ValueError, match="oc_repeat"):
            replace(DEFAULT_COEFFICIENTS, oc_repeat=bad)
        with pytest.raises(ValueError, match="rsc_bands values"):
            replace(DEFAULT_COEFFICIENTS, rsc_bands=((50.0, bad),))
        with pytest.raises(ValueError, match="dec_bands values"):
            replace(DEFAULT_COEFFICIENTS, dec_bands=((30.0, 2.0), (100.0, bad)))
    with pytest.raises(ValueError, match="rsc_bands upper bounds"):
        replace(DEFAULT_COEFFICIENTS, rsc_bands=((math.nan, 0.25),))
    with pytest.raises(ValueError, match="dec_bands upper bounds"):
        replace(DEFAULT_COEFFICIENTS, dec_bands=((30.0, 2.0), (math.nan, 1.5)))


def test_scenario_presets():
    s1, s2, s3 = SCENARIO_PRESETS["S1"], SCENARIO_PRESETS["S2"], SCENARIO_PRESETS["S3"]
    assert (s1.noa, s1.noj, s1.ego_speed, s1.hazard_speed) == (2, 0, 130.0, 0.0)
    assert (s2.noa, s2.noj, s2.ego_speed, s2.hazard_speed) == (0, 1, 50.0, 0.0)
    assert (s3.noa, s3.noj, s3.ego_speed, s3.hazard_speed) == (2, 3, 80.0, 0.0)


# --------------------------- scenario time ------------------------------


def test_sst_s1_preset():
    sst = compute_sst(SCENARIO_PRESETS["S1"])
    assert sst.noa_term == pytest.approx(3.8, abs=1e-9)
    assert sst.noj_term == 0.0
    assert sst.rsc == 1.0
    assert sst.total == pytest.approx(4.8, abs=1e-9)


def test_sst_only_rsc_survives():
    sst = compute_sst(ScenarioSpec(noa=0, noj=0, ego_speed=30))
    assert sst.total == pytest.approx(0.25, abs=1e-9)


def test_sst_s3_preset():
    assert compute_sst(SCENARIO_PRESETS["S3"]).total == pytest.approx(4.9, abs=1e-9)


# ----------------------------- estimation -------------------------------


def test_estimate_reference_row_1():
    est = estimate_tortb(
        TABLE_DRIVER,
        ScenarioSpec(noa=1, noj=0, ego_speed=80),
        TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1),
    )
    assert est.total == pytest.approx(4.1, abs=0.001)
    assert est.warnings == ()


def test_estimate_reference_row_4():
    # Handheld rows of the reference table use the one-decimal set (2.7 s).
    est = estimate_tortb(
        TABLE_DRIVER,
        ScenarioSpec(noa=2, noj=0, ego_speed=130, hazard_speed=50),
        TakeoverContext(ndrt_class=NdrtClass.HAND_HELD, ordinal=1),
        DEFAULT_COEFFICIENTS.rounded(),
    )
    assert est.total == pytest.approx(8.7, abs=0.001)


def test_estimate_reference_row_6():
    est = estimate_tortb(
        TABLE_DRIVER,
        ScenarioSpec(noa=0, noj=1, ego_speed=100),
        TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=2),
    )
    assert est.total == pytest.approx(2.5, abs=0.001)


def test_estimate_raw_set_reproduces_anchor_budget():
    bound = DriverProfile(srt=0.3, experience_km_per_week=20)
    ctx = TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1)
    assert estimate_tortb(
        bound, SCENARIO_PRESETS["S1"], ctx, RAW_COEFFICIENTS
    ).total == pytest.approx(7.0, abs=1e-9)
    assert estimate_tortb(
        bound, SCENARIO_PRESETS["S3"], ctx, RAW_COEFFICIENTS
    ).total == pytest.approx(7.0, abs=1e-9)


def test_estimate_flags_srt_outside_visual_range():
    driver = DriverProfile(srt=0.3, experience_km_per_week=20)
    est = estimate_tortb(
        driver,
        SCENARIO_PRESETS["S1"],
        TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1),
    )
    assert any("visual stimulus" in w for w in est.warnings)
    assert est.total > 0


def test_estimate_clamps_negative_total():
    pathological = replace(DEFAULT_COEFFICIENTS, oc_repeat=20.0)
    est = estimate_tortb(
        DriverProfile(srt=0.18, experience_km_per_week=5000),
        ScenarioSpec(noa=0, noj=0, ego_speed=0),
        TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=2),
        pathological,
    )
    assert est.total == 0.0
    assert any("clamped" in w for w in est.warnings)


def test_estimate_propagates_speed_range_error():
    with pytest.raises(SpeedAboveModelRange):
        estimate_tortb(
            TABLE_DRIVER,
            ScenarioSpec(noa=0, noj=0, ego_speed=200),
            TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1),
        )


HUGE = int(1.7e308)  # fits in a float, so ScenarioSpec accepts it


@pytest.mark.parametrize(
    "noa,noj,ndrt,fields,term",
    [
        (HUGE, 0, NdrtClass.HANDS_FREE, {}, "noa_term"),
        (0, HUGE, NdrtClass.HANDS_FREE, {"c_noj": 1.9}, "noj_term"),
        (int(1e308), int(1e308), NdrtClass.HANDS_FREE, {"c_noa": 1.0, "c_noj": 1.0}, "sst"),
        # Every component is finite; only their sum overflows.
        (int(1e308), 0, NdrtClass.HAND_HELD, {"c_noa": 1.0, "ndrtc_handheld": 1e308}, "total"),
    ],
)
def test_estimate_rejects_an_overflowing_budget(noa, noj, ndrt, fields, term):
    with pytest.raises(ValueError, match=f"^budget term {term} overflows to inf$"):
        estimate_tortb(
            TABLE_DRIVER,
            ScenarioSpec(noa=noa, noj=noj, ego_speed=100.0),
            TakeoverContext(ndrt_class=ndrt, ordinal=1),
            replace(DEFAULT_COEFFICIENTS, **fields),
        )


# --------------------------- model properties ---------------------------

srts = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
experiences = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
speeds = st.floats(min_value=0.0, max_value=130.0, allow_nan=False)
counts = st.integers(min_value=0, max_value=5)
ndrts = st.sampled_from(list(NdrtClass))
ordinals = st.integers(min_value=1, max_value=4)


@given(srts, experiences, counts, counts, speeds, ndrts, ordinals)
def test_breakdown_reproduces_total_exactly(srt, exp, noa, noj, rs, ndrt, ordinal):
    est = estimate_tortb(*make_inputs(srt, exp, noa, noj, rs, ndrt, ordinal))
    c = est.components
    recomputed = (
        c["srt"] + c["dec"] + c["noa_term"] + c["noj_term"] + c["rsc"] + c["ndrtc"] - c["oc"]
    )
    if recomputed >= 0:
        assert est.total == recomputed
    assert c["sst"] == c["noa_term"] + c["noj_term"] + c["rsc"]


@given(srts, experiences, counts, counts, speeds, ndrts, ordinals)
def test_additivity_in_agent_count(srt, exp, noa, noj, rs, ndrt, ordinal):
    base = estimate_tortb(*make_inputs(srt, exp, noa, noj, rs, ndrt, ordinal)).total
    more = estimate_tortb(*make_inputs(srt, exp, noa + 1, noj, rs, ndrt, ordinal)).total
    assert more - base == pytest.approx(DEFAULT_COEFFICIENTS.c_noa, abs=1e-9)


@given(srts, experiences, counts, counts, speeds, ndrts, ordinals)
def test_additivity_in_junction_count(srt, exp, noa, noj, rs, ndrt, ordinal):
    base = estimate_tortb(*make_inputs(srt, exp, noa, noj, rs, ndrt, ordinal)).total
    more = estimate_tortb(*make_inputs(srt, exp, noa, noj + 1, rs, ndrt, ordinal)).total
    assert more - base == pytest.approx(DEFAULT_COEFFICIENTS.c_noj, abs=1e-9)


@given(srts, experiences, counts, speeds, speeds, ndrts, ordinals)
def test_monotone_in_relative_speed(srt, exp, noa, rs_a, rs_b, ndrt, ordinal):
    lo, hi = sorted((rs_a, rs_b))
    slow = estimate_tortb(*make_inputs(srt, exp, noa, 0, lo, ndrt, ordinal)).total
    fast = estimate_tortb(*make_inputs(srt, exp, noa, 0, hi, ndrt, ordinal)).total
    assert fast >= slow - 1e-12


@given(srts, experiences, experiences, counts, speeds, ndrts, ordinals)
def test_monotone_in_experience(srt, exp_a, exp_b, noa, rs, ndrt, ordinal):
    lo, hi = sorted((exp_a, exp_b))
    novice = estimate_tortb(*make_inputs(srt, lo, noa, 0, rs, ndrt, ordinal)).total
    veteran = estimate_tortb(*make_inputs(srt, hi, noa, 0, rs, ndrt, ordinal)).total
    assert veteran <= novice + 1e-12


@given(srts, experiences, counts, speeds, ordinals)
def test_monotone_in_ndrt_class(srt, exp, noa, rs, ordinal):
    free = estimate_tortb(
        *make_inputs(srt, exp, noa, 0, rs, NdrtClass.HANDS_FREE, ordinal)
    ).total
    held = estimate_tortb(
        *make_inputs(srt, exp, noa, 0, rs, NdrtClass.HAND_HELD, ordinal)
    ).total
    assert held >= free - 1e-12


@given(srts, experiences, counts, speeds, ndrts, st.integers(min_value=2, max_value=6))
def test_monotone_in_ordinal(srt, exp, noa, rs, ndrt, repeat_ordinal):
    first = estimate_tortb(*make_inputs(srt, exp, noa, 0, rs, ndrt, 1)).total
    later = estimate_tortb(*make_inputs(srt, exp, noa, 0, rs, ndrt, repeat_ordinal)).total
    assert later <= first + 1e-12


@given(srts)
def test_srt_warning_matches_range(srt):
    est = estimate_tortb(*make_inputs(srt, 80, 1, 0, 80, NdrtClass.HANDS_FREE, 1))
    lo, hi = VISUAL_SRT_RANGE
    flagged = any("visual stimulus" in w for w in est.warnings)
    assert flagged == (not lo <= srt <= hi)


# --------------------------- every band edge ----------------------------

# The published band tables, restated so the oracle does not read the
# model's own: (inclusive upper bound, value [s]).
RSC_TABLE = ((50.0, 0.25), (80.0, 0.5), (130.0, 1.0))
DEC_TABLE = ((30.0, 2.0), (100.0, 1.5), (200.0, 1.0))
DEC_FLOOR = 1.0


def _band_oracle(table, key, above):
    """Value of the first band whose upper bound is >= ``key``, found by
    bisection rather than the model's linear scan; ``above`` past the last."""
    i = bisect.bisect_left([upper for upper, _ in table], key)
    return table[i][1] if i < len(table) else above


def _around(table):
    return [x for upper, _ in table
            for x in (math.nextafter(upper, -math.inf), upper, math.nextafter(upper, math.inf))]


def test_every_band_edge_matches_the_oracle():
    """Each DEC and RSC edge +/- 1 ulp, one interior point per band and a
    point past the last, crossed with agents, junctions, task class,
    exposure and coefficient set (37 632 estimates)."""
    sets = [DEFAULT_COEFFICIENTS, RAW_COEFFICIENTS, DEFAULT_COEFFICIENTS.rounded()]
    for coeffs in sets:
        assert (coeffs.rsc_bands, coeffs.dec_bands, coeffs.dec_floor) == (
            RSC_TABLE, DEC_TABLE, DEC_FLOOR)
    experiences = [0.0, 15.0, 65.0, 150.0, 400.0] + _around(DEC_TABLE)
    speeds = [0.0, 25.0, 65.0, 105.0, 200.0] + _around(RSC_TABLE)
    srts = (0.0, 0.18, 0.27, 1.0)
    grid = itertools.product(
        experiences, speeds, range(4), range(4), NdrtClass, (1, 2), sets)
    mismatches, checked, rejected = [], 0, 0
    for i, (exp, rs, noa, noj, ndrt, ordinal, coeffs) in enumerate(grid):
        driver = DriverProfile(srt=srts[i % len(srts)], experience_km_per_week=exp)
        inputs = (driver, ScenarioSpec(noa=noa, noj=noj, ego_speed=rs),
                  TakeoverContext(ndrt_class=ndrt, ordinal=ordinal), coeffs)
        rsc = _band_oracle(RSC_TABLE, rs, None)
        checked += 1
        if rsc is None:
            try:
                estimate_tortb(*inputs)
            except SpeedAboveModelRange:
                rejected += 1
            else:
                mismatches.append((inputs, "accepted"))
            continue
        dec = _band_oracle(DEC_TABLE, exp, DEC_FLOOR)
        ndrtc = coeffs.ndrtc_handheld if ndrt is NdrtClass.HAND_HELD else 0.0
        oc = coeffs.oc_repeat if ordinal >= 2 else 0.0
        total = driver.srt + dec + noa * coeffs.c_noa + noj * coeffs.c_noj + rsc + ndrtc - oc
        est = estimate_tortb(*inputs)
        got = (est.components["dec"], est.components["rsc"], est.total)
        if got != (dec, rsc, total):
            mismatches.append((inputs, got, (dec, rsc, total)))
    assert not mismatches, mismatches[:5]
    assert (checked, rejected) == (37_632, 2 * 37_632 // 14)
