"""Every pinned input rejection: range rules, choices, log windows and empty lists."""

import math

import numpy as np
import pytest

from tortb.calibration import AnchorCase, UnknownCoefficient, calibrate_sequence, derive_oc
from tortb.cli import main
from tortb.drivelog import (
    DriveLog,
    TakeoverMetrics,
    avg_lateral_displacement,
    describe,
    detect_tot,
    max_acceleration,
    summarize,
)
from tortb import errors
from tortb.errors import (
    NegativeRelativeSpeed,
    SchemaError,
    SpeedAboveModelRange,
    WindowOutOfRange,
    check_range,
    located,
)
from tortb.fileio import (
    anchor_from_dict,
    coefficients_from_dict,
    coefficients_to_dict,
    context_from_dict,
    episode_config_from_dict,
    scenario_from_dict,
)
from tortb.model import (
    DEFAULT_COEFFICIENTS,
    SCENARIO_PRESETS,
    DriverProfile,
    NdrtClass,
    ScenarioSpec,
    TakeoverContext,
    estimate_tortb,
    round_coefficient,
)
from tortb.records import replace
from tortb.simulate import EpisodeConfig, run_batch, run_episode

DRIVER = DriverProfile(srt=0.2, experience_km_per_week=80.0)
SCENARIO = SCENARIO_PRESETS["S1"]
CTX = TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1)
T = np.arange(401) / 20.0
ZEROS = np.zeros(401)


def flat_log(**kwargs):
    """A 20 s, 20 Hz log of zeros with the TOR at 10 s."""
    return DriveLog(t=T, lateral_displacement=ZEROS, acceleration=ZEROS, steering=ZEROS,
                    brake=ZEROS, tor_time=10.0, **kwargs)


LOG = flat_log()
DRIVER_DOC = {"srt_s": 0.3, "experience_km_per_wk": 20}
CTX_DOC = {"ndrt": "handsfree", "ordinal": 1}
ANCHOR_DOC = {"scenario": "S1", "driver": DRIVER_DOC, "ctx": CTX_DOC, "known_tortb_s": 7.0,
              "unknown": "c_noa"}
EPISODE_DOC = {"driver": DRIVER_DOC, "scenario": "S1", "ctx": CTX_DOC}

# (site, call, exception type, full message)
REJECTIONS = [
    ("srt", lambda: DriverProfile(1.5, 80.0),
     SchemaError, "srt must be within [0, 1], got 1.5"),
    ("experience", lambda: DriverProfile(0.2, math.nan),
     SchemaError, "experience_km_per_week must be finite and >= 0, got nan"),
    ("noa", lambda: ScenarioSpec(noa=-1, noj=0, ego_speed=80.0),
     SchemaError, "noa must be finite and >= 0, got -1"),
    ("noj", lambda: ScenarioSpec(noa=1, noj=10**400, ego_speed=80.0),
     SchemaError, f"noj must be finite and >= 0, got {10**400}"),
    ("noa_over_str_limit", lambda: ScenarioSpec(noa=10**5000, noj=0, ego_speed=80.0),
     SchemaError, "noa must be finite and >= 0, got an int of 16610 bits"),
    ("noa_negative_over_str_limit", lambda: ScenarioSpec(noa=-10**5000, noj=0, ego_speed=80.0),
     SchemaError, "noa must be finite and >= 0, got a negative int of 16610 bits"),
    ("noa_float", lambda: ScenarioSpec(noa=1.5, noj=0, ego_speed=80.0),
     SchemaError, "noa must be an integer, got 1.5"),
    ("noj_bool", lambda: ScenarioSpec(noa=1, noj=True, ego_speed=80.0),
     SchemaError, "noj must be an integer, got True"),
    ("label_int", lambda: ScenarioSpec(noa=1, noj=0, ego_speed=80.0, label=5),
     SchemaError, "label must be a string, got 5"),
    ("noa_file_float",
     lambda: scenario_from_dict({"noa": 1.5, "noj": 0, "ego_speed_km_per_hr": 80}),
     SchemaError, "scenario: noa must be an integer, got 1.5"),
    ("label_file_int",
     lambda: scenario_from_dict({"noa": 1, "noj": 0, "ego_speed_km_per_hr": 80, "label": 5}),
     SchemaError, "scenario: label must be a string, got 5"),
    # The record checks its fields in order, so a bad count is named before a bad label.
    ("noa_file_float_and_label_int",
     lambda: scenario_from_dict({"noa": 1.5, "noj": 0, "ego_speed_km_per_hr": 80, "label": 5}),
     SchemaError, "scenario: noa must be an integer, got 1.5"),
    ("ego_speed", lambda: ScenarioSpec(noa=1, noj=0, ego_speed=math.inf),
     SchemaError, "ego_speed must be finite and >= 0, got inf"),
    ("hazard_speed", lambda: ScenarioSpec(noa=1, noj=0, ego_speed=80.0, hazard_speed=math.nan),
     SchemaError, "hazard_speed must be finite and >= 0, got nan"),
    ("ordinal", lambda: TakeoverContext(NdrtClass.HANDS_FREE, 0),
     SchemaError, "ordinal must be finite and >= 1, got 0"),
    ("ordinal_too_large", lambda: TakeoverContext(NdrtClass.HANDS_FREE, 10**400),
     SchemaError, f"ordinal must be finite and >= 1, got {10**400}"),
    ("ordinal_float", lambda: TakeoverContext(NdrtClass.HANDS_FREE, 1.5),
     SchemaError, "ordinal must be an integer, got 1.5"),
    ("ordinal_integral_float", lambda: TakeoverContext(NdrtClass.HANDS_FREE, 2.0),
     SchemaError, "ordinal must be an integer, got 2.0"),
    ("ordinal_bool", lambda: TakeoverContext(NdrtClass.HANDS_FREE, True),
     SchemaError, "ordinal must be an integer, got True"),
    ("ndrt_class_str", lambda: TakeoverContext("handsfree", 1),
     SchemaError, "ndrt_class must be an NdrtClass, got 'handsfree'"),
    ("c_noa", lambda: replace(DEFAULT_COEFFICIENTS, c_noa=math.nan),
     SchemaError, "c_noa must be finite and >= 0, got nan"),
    ("c_noj", lambda: replace(DEFAULT_COEFFICIENTS, c_noj=-0.5),
     SchemaError, "c_noj must be finite and >= 0, got -0.5"),
    ("dec_floor", lambda: replace(DEFAULT_COEFFICIENTS, dec_floor=math.inf),
     SchemaError, "dec_floor must be finite and >= 0, got inf"),
    ("ndrtc_handheld", lambda: replace(DEFAULT_COEFFICIENTS, ndrtc_handheld=-1.0),
     SchemaError, "ndrtc_handheld must be finite and >= 0, got -1.0"),
    ("oc_repeat", lambda: replace(DEFAULT_COEFFICIENTS, oc_repeat=math.nan),
     SchemaError, "oc_repeat must be finite and >= 0, got nan"),
    ("round_coefficient_inf", lambda: round_coefficient(math.inf),
     SchemaError, "value must be finite and >= -1.7976931348623157e+308, got inf"),
    ("round_coefficient_nan", lambda: round_coefficient(math.nan),
     SchemaError, "value must be finite and >= -1.7976931348623157e+308, got nan"),
    ("round_coefficient_bool", lambda: round_coefficient(True),
     SchemaError, "value must be a number, got True"),
    ("rsc_bands", lambda: replace(DEFAULT_COEFFICIENTS, rsc_bands=((50.0, 0.25), (80.0, math.nan))),
     SchemaError, "rsc_bands values[1] must be finite and >= 0, got nan"),
    ("dec_bands", lambda: replace(DEFAULT_COEFFICIENTS, dec_bands=((30.0, -2.0),)),
     SchemaError, "dec_bands values[0] must be finite and >= 0, got -2.0"),
    ("rsc_bands_int", lambda: replace(DEFAULT_COEFFICIENTS, rsc_bands=5),
     SchemaError, "rsc_bands must be a tuple of (upper, value) pairs, got 5"),
    ("rsc_bands_none", lambda: replace(DEFAULT_COEFFICIENTS, rsc_bands=None),
     SchemaError, "rsc_bands must be a tuple of (upper, value) pairs, got None"),
    ("dec_bands_three_items",
     lambda: replace(DEFAULT_COEFFICIENTS, dec_bands=((30.0, 2.0), (100.0, 1.5, 0.0))),
     SchemaError, "dec_bands[1] must be an (upper, value) pair, got (100.0, 1.5, 0.0)"),
    ("rsc_bands_str_value", lambda: replace(DEFAULT_COEFFICIENTS, rsc_bands=((50.0, "1"),)),
     SchemaError, "rsc_bands values[0] must be a number, got '1'"),
    ("rsc_bands_bool_bound", lambda: replace(DEFAULT_COEFFICIENTS, rsc_bands=((True, 1.0),)),
     SchemaError, "rsc_bands upper bounds[0] must be a number, got True"),
    ("rsc_bands_huge_bound", lambda: replace(DEFAULT_COEFFICIENTS, rsc_bands=((10**400, 1.0),)),
     SchemaError, f"rsc_bands upper bounds[0] must be finite and >= 0, got {10**400}"),
    ("dec_bands_negative_bound",
     lambda: replace(DEFAULT_COEFFICIENTS, dec_bands=((-5.0, 2.0), (100.0, 1.5))),
     SchemaError, "dec_bands upper bounds[0] must be finite and >= 0, got -5.0"),
    ("rsc_bands_file_empty",
     lambda: coefficients_from_dict({**coefficients_to_dict(DEFAULT_COEFFICIENTS),
                                     "rsc_bands": []}),
     SchemaError, "coefficients: rsc_bands list is empty"),
    ("known_tortb", lambda: AnchorCase(SCENARIO, DRIVER, CTX, 0.0, UnknownCoefficient.C_NOA),
     SchemaError, "known_tortb must be finite and > 0, got 0.0"),
    ("anchor_scenario_type", lambda: AnchorCase("S1", DRIVER, CTX, 7.0, UnknownCoefficient.C_NOA),
     SchemaError, "scenario must be a ScenarioSpec, got 'S1'"),
    ("anchor_driver_type", lambda: AnchorCase(SCENARIO, None, CTX, 7.0, UnknownCoefficient.C_NOA),
     SchemaError, "driver must be a DriverProfile, got None"),
    ("anchor_ctx_type", lambda: AnchorCase(SCENARIO, DRIVER, "x", 7.0, UnknownCoefficient.C_NOA),
     SchemaError, "ctx must be a TakeoverContext, got 'x'"),
    ("anchor_unknown_type", lambda: AnchorCase(SCENARIO, DRIVER, CTX, 7.0, "c_noa"),
     SchemaError, "unknown must be an UnknownCoefficient, got 'c_noa'"),
    ("ordinal_effect_size", lambda: derive_oc(math.nan, 7.0),
     SchemaError, "ordinal_effect_size must be within [0, 1], got nan"),
    ("upper_bound_tortb", lambda: derive_oc(0.053, math.inf),
     SchemaError, "upper_bound_tortb must be finite and > 0, got inf"),
    ("receding_hazard",
     lambda: estimate_tortb(DRIVER, ScenarioSpec(noa=1, noj=0, ego_speed=50.0, hazard_speed=80.0),
                            CTX),
     NegativeRelativeSpeed,
     "hazard at 80.0 km/hr is faster than ego at 50.0 km/hr; "
     "the model does not define receding hazards"),
    ("speed_above_last_band",
     lambda: estimate_tortb(DRIVER, ScenarioSpec(noa=1, noj=0,
                                                 ego_speed=math.nextafter(130.0, math.inf)), CTX),
     SpeedAboveModelRange,
     "relative speed 130 km/hr is above the last calibrated band (130 km/hr)"),
    ("episode_speed_above_band",
     lambda: run_batch([EpisodeConfig(DRIVER, SCENARIO, CTX),
                        EpisodeConfig(DRIVER, ScenarioSpec(noa=0, noj=0, ego_speed=200.0), CTX)],
                       0),
     SpeedAboveModelRange,
     "episodes[1]: relative speed 200 km/hr is above the last calibrated band (130 km/hr)"),
    ("anchor_receding_hazard",
     lambda: calibrate_sequence(
         [AnchorCase(ScenarioSpec(noa=1, noj=0, ego_speed=50.0, hazard_speed=80.0), DRIVER, CTX,
                     7.0, UnknownCoefficient.C_NOA)], DEFAULT_COEFFICIENTS),
     NegativeRelativeSpeed,
     "anchors[0]: hazard at 80.0 km/hr is faster than ego at 50.0 km/hr; "
     "the model does not define receding hazards"),
    ("solved_coefficient_overflow",
     lambda: calibrate_sequence(
         [AnchorCase(SCENARIO, DRIVER, replace(CTX, ordinal=2), 1.7e308,
                     UnknownCoefficient.C_NOA)], replace(DEFAULT_COEFFICIENTS, oc_repeat=1.7e308)),
     SchemaError, "anchors[0]: solved c_noa must be finite and >= 0, got inf"),
    ("deadline", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, deadline=-1.0),
     SchemaError, "deadline must be finite and >= 0, got -1.0"),
    ("response_noise", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, response_noise=1e308),
     SchemaError, "response_noise must be within [0, 3600.0], got 1e+308"),
    ("maneuver_duration", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, maneuver_duration=0.0),
     SchemaError, "maneuver_duration must be finite and > 0, got 0.0"),
    ("seed", lambda: run_episode(EpisodeConfig(DRIVER, SCENARIO, CTX), -1),
     SchemaError, "seed must be within [0, 18446744073709551615], got -1"),
    ("seed_float", lambda: run_episode(EpisodeConfig(DRIVER, SCENARIO, CTX), 1.5),
     SchemaError, "seed must be an integer, got 1.5"),
    ("seed_bool", lambda: run_episode(EpisodeConfig(DRIVER, SCENARIO, CTX), True),
     SchemaError, "seed must be an integer, got True"),
    ("seed_float_below_2_64", lambda: run_episode(EpisodeConfig(DRIVER, SCENARIO, CTX), 1e19),
     SchemaError, "seed must be an integer, got 1e+19"),
    ("base_seed_float", lambda: run_batch([EpisodeConfig(DRIVER, SCENARIO, CTX)], 1.5),
     SchemaError, "base_seed must be an integer, got 1.5"),
    ("base_seed_bool", lambda: run_batch([EpisodeConfig(DRIVER, SCENARIO, CTX)], True),
     SchemaError, "base_seed must be an integer, got True"),
    ("deadline_and_budget_driver",
     lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, deadline=3.0, budget_driver=DRIVER),
     SchemaError, "deadline and budget_driver exclude each other, got both"),
    ("deadline_bool", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, deadline=True),
     SchemaError, "deadline must be a number, got True"),
    ("response_noise_bool", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, response_noise=True),
     SchemaError, "response_noise must be a number, got True"),
    ("maneuver_duration_bool",
     lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, maneuver_duration=True),
     SchemaError, "maneuver_duration must be a number, got True"),
    ("budget_driver_type", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, budget_driver="x"),
     SchemaError, "budget_driver must be a DriverProfile or None, got 'x'"),
    ("driver_type", lambda: EpisodeConfig("x", SCENARIO, CTX),
     SchemaError, "driver must be a DriverProfile, got 'x'"),
    ("scenario_type", lambda: EpisodeConfig(DRIVER, "S1", CTX),
     SchemaError, "scenario must be a ScenarioSpec, got 'S1'"),
    ("ctx_type", lambda: EpisodeConfig(DRIVER, SCENARIO, None),
     SchemaError, "ctx must be a TakeoverContext, got None"),
    ("coeffs_type", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, coeffs="default"),
     SchemaError, "coeffs must be a CoefficientSet, got 'default'"),
    ("deadline_numpy_bool", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, deadline=np.True_),
     SchemaError, f"deadline must be a number, got {np.True_!r}"),
    ("srt_bool", lambda: DriverProfile(False, 80.0),
     SchemaError, "srt must be a number, got False"),
    ("sample_rate", lambda: flat_log(sample_rate=0.0),
     SchemaError, "sample_rate must be finite and > 0, got 0.0"),
    ("tor_time", lambda: DriveLog(T, ZEROS, ZEROS, ZEROS, ZEROS, tor_time=25.0),
     SchemaError, "tor_time must lie within the log extent [0, 20] s, got 25.0"),
    ("tor_time_nan", lambda: DriveLog(T, ZEROS, ZEROS, ZEROS, ZEROS, tor_time=math.nan),
     SchemaError, "tor_time must lie within the log extent [0, 20] s, got nan"),
    ("tor_time_too_large_for_a_float",
     lambda: DriveLog(T, ZEROS, ZEROS, ZEROS, ZEROS, tor_time=10**400),
     SchemaError, f"tor_time must lie within the log extent [0, 20] s, got {10**400}"),
    ("tor_time_over_str_limit",
     lambda: DriveLog(T, ZEROS, ZEROS, ZEROS, ZEROS, tor_time=10**5000),
     SchemaError, "tor_time must lie within the log extent [0, 20] s, got an int of 16610 bits"),
    ("tor_time_str", lambda: DriveLog(T, ZEROS, ZEROS, ZEROS, ZEROS, tor_time="0"),
     SchemaError, "tor_time must be a number, got '0'"),
    ("tor_time_none", lambda: DriveLog(T, ZEROS, ZEROS, ZEROS, ZEROS, tor_time=None),
     SchemaError, "tor_time must be a number, got None"),
    ("tor_time_bool",
     lambda: DriveLog(np.arange(3.0), *[np.zeros(3)] * 4, tor_time=True, sample_rate=1.0),
     SchemaError, "tor_time must be a number, got True"),
    ("channel_str", lambda: DriveLog(T, ["0.5"] * 401, ZEROS, ZEROS, ZEROS, tor_time=10.0),
     SchemaError, "channel lateral_displacement: value must be a number, got '0.5'"),
    ("channel_none", lambda: DriveLog(T, ZEROS, ZEROS, [None] * 401, ZEROS, tor_time=10.0),
     SchemaError, "channel steering: value must be a number, got None"),
    ("channel_nested", lambda: DriveLog(T[:, None], ZEROS, ZEROS, ZEROS, ZEROS, tor_time=10.0),
     SchemaError, "channel t: value must be a number, got array([0.])"),
    ("threshold", lambda: detect_tot(LOG, math.nan),
     SchemaError, "threshold must be within [0, 1], got nan"),
    ("pre_window", lambda: avg_lateral_displacement(LOG, math.inf, 5.0),
     SchemaError, "pre_window must be finite and > 0, got inf"),
    ("post_window", lambda: avg_lateral_displacement(LOG, 5.0, 0.0),
     SchemaError, "post_window must be finite and > 0, got 0.0"),
    ("window_before_log", lambda: avg_lateral_displacement(LOG, 11.0, 1.0),
     WindowOutOfRange, "window [-1, 11] s must be ordered and lie inside the log [0, 20] s"),
    ("window_after_log", lambda: avg_lateral_displacement(LOG, 1.0, 10.5),
     WindowOutOfRange, "window [9, 20.5] s must be ordered and lie inside the log [0, 20] s"),
    ("takeover_before_tor", lambda: max_acceleration(LOG, 9.0),
     WindowOutOfRange, "window [10, 9] s must be ordered and lie inside the log [0, 20] s"),
    ("takeover_after_log", lambda: max_acceleration(LOG, 21.0),
     WindowOutOfRange, "window [10, 21] s must be ordered and lie inside the log [0, 20] s"),
    ("describe_mean_overflow", lambda: describe([1e308, 1e308]),
     SchemaError, "mean of 2 values is not finite, got inf"),
    ("describe_std_overflow", lambda: describe([1e200, 3e200]),
     SchemaError, "std of 2 values is not finite, got inf"),
    ("summarize_overflow",
     lambda: summarize([TakeoverMetrics(1.0, 0.5, max_acc, 11.0) for max_acc in (1e200, 3e200)]),
     SchemaError, "max_acc: std of 2 values is not finite, got inf"),
    ("describe_str", lambda: describe(["1.5", "2.5"]),
     SchemaError, "value must be a number, got '1.5'"),
    ("describe_bool", lambda: describe([1.0, True]),
     SchemaError, "value must be a number, got True"),
    ("describe_numpy_bool", lambda: describe([np.float64(1.0), np.False_]),
     SchemaError, f"value must be a number, got {np.False_!r}"),
    ("describe_none", lambda: describe([None]),
     SchemaError, "value must be a number, got None"),
    ("describe_int_too_large_for_a_float", lambda: describe([1, 10**400]),
     SchemaError, f"value must be finite, got {10**400}"),
    ("summarize_str",
     lambda: summarize([TakeoverMetrics(tot="1.0", avg_ld=0.5, max_acc=None,
                                        takeover_time_abs=None)]),
     SchemaError, "tot: value must be a number, got '1.0'"),
    ("ndrt", lambda: context_from_dict({**CTX_DOC, "ndrt": "HANDSFREE"}),
     SchemaError, "ctx: ndrt must be one of ['handsfree', 'handheld'], got 'HANDSFREE'"),
    ("unknown_lower", lambda: anchor_from_dict({**ANCHOR_DOC, "unknown": "c_nox"}),
     SchemaError, "anchor: unknown must be one of ['c_noa', 'c_noj', 'oc'], got 'c_nox'"),
    ("unknown_upper", lambda: anchor_from_dict({**ANCHOR_DOC, "unknown": "C_NOX"}),
     SchemaError, "anchor: unknown must be one of ['c_noa', 'c_noj', 'oc'], got 'C_NOX'"),
    ("deadline_mode",
     lambda: episode_config_from_dict({**EPISODE_DOC, "deadline_mode": "Explicit"}),
     SchemaError,
     "episode: deadline_mode must be one of ['from_budget', 'explicit'], got 'Explicit'"),
]


# SchemaError rows whose rule is written out by hand rather than checked by
# check_type or check_range, so the exception names no field.
UNFIELDED = {"dec_bands_three_items", "rsc_bands_file_empty", "deadline_and_budget_driver",
             "tor_time", "tor_time_nan", "tor_time_too_large_for_a_float",
             "tor_time_over_str_limit", "describe_mean_overflow", "describe_std_overflow",
             "summarize_overflow", "ndrt", "unknown_lower", "unknown_upper", "deadline_mode"}


@pytest.mark.parametrize("site,call,error,message", REJECTIONS, ids=[r[0] for r in REJECTIONS])
def test_rejection_names_field_and_value(site, call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    if error is SchemaError:
        # Library callers that catch ValueError still catch every rejected value.
        assert isinstance(info.value, ValueError)
        # ``field`` is the name check_type or check_range was given, without the
        # prefix of a ``located`` block (noa_file_float, solved_coefficient_overflow).
        name = message.split(" must be ")[0].rpartition(": ")[2]
        assert info.value.field == (None if site in UNFIELDED else name)


@pytest.mark.parametrize("key,argv", [
    ("anchors", ["calibrate", "--anchors", "list.json", "--out", "out.json"]),
    ("episodes", ["simulate", "--config", "list.json", "--out-dir", "out"]),
])
def test_empty_list_file_is_refused_at_the_cli(key, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text(f'{{"{key}": []}}', encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: list.json: {key} list is empty\n")


@pytest.mark.parametrize("value", [0.0, 0.5, 1.0, 0, 1, 5e-324])
def test_check_range_accepts_both_closed_bounds(value):
    check_range("x", value, 0, 1)


@pytest.mark.parametrize("value", [math.nan, -math.nan, math.inf, -math.inf, -5e-324,
                                   1.0000000000000002, 2**64])
def test_check_range_rejects_nan_infinities_and_outside_values(value):
    with pytest.raises(ValueError, match=r"^x must be within \[0, 1\], got "):
        check_range("x", value, 0, 1)


def test_check_range_takes_numpy_numbers_but_not_numpy_bools():
    for value in (np.float64(0.5), np.float32(0.5), np.int64(1)):
        check_range("x", value, 0, 1)
    for value in (np.True_, np.False_):
        with pytest.raises(ValueError, match=r"^x must be a number, got "):
            check_range("x", value, 0, 1)


def test_check_range_default_upper_bound_is_the_largest_float():
    check_range("x", 1.7976931348623157e308, 0)
    for value in (math.inf, math.nan, 10**309):
        with pytest.raises(ValueError, match=r"^x must be finite and >= 0, got "):
            check_range("x", value, 0)


def test_check_range_above_excludes_the_lower_bound():
    check_range("x", 5e-324, 0, above=True)
    with pytest.raises(ValueError, match=r"^x must be finite and > 0, got 0.0$"):
        check_range("x", 0.0, 0, above=True)
    with pytest.raises(ValueError, match=r"^x must be within \(0, 1\], got 0$"):
        check_range("x", 0, 0, 1, above=True)


def test_check_types_builds_the_article_only_for_a_failed_check(monkeypatch):
    calls = []
    article = errors._article
    monkeypatch.setattr(errors, "_article", lambda noun: calls.append(noun) or article(noun))
    TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1)
    assert calls == []
    with pytest.raises(SchemaError, match=r"^ndrt_class must be an NdrtClass, got 'x'$"):
        TakeoverContext(ndrt_class="x", ordinal=1)
    assert calls == ["NdrtClass"]


def test_located_prefixes_a_rejection_with_its_origin_and_keeps_its_type():
    with located("here"):
        driver = DriverProfile(srt=0.2, experience_km_per_week=1.0)
    assert driver == DriverProfile(0.2, 1.0)
    with pytest.raises(SchemaError) as info:
        with located("--srt/--experience"):
            DriverProfile(srt=0.2, experience_km_per_week=-1.0)
    assert type(info.value) is SchemaError
    assert str(info.value) == (
        "--srt/--experience: experience_km_per_week must be finite and >= 0, got -1.0")
    with pytest.raises(SpeedAboveModelRange) as info:
        with located("outer"), located("inner"):
            raise SpeedAboveModelRange("too fast")
    assert type(info.value) is SpeedAboveModelRange
    assert str(info.value) == "outer: inner: too fast"


def test_located_leaves_a_fault_that_is_not_a_rejection_alone():
    fault = ValueError("boom")
    with pytest.raises(ValueError) as info:
        with located("here"):
            raise fault
    assert info.value is fault
