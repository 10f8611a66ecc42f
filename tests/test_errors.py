"""Every pinned input rejection: range rules, choices, log windows and empty lists."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tortb.calibration import AnchorCase, UnknownCoefficient, derive_oc
from tortb.cli import main
from tortb.drivelog import DriveLog, avg_lateral_displacement, detect_tot, max_acceleration
from tortb.errors import SchemaError, WindowOutOfRange, build, check_range
from tortb.fileio import anchor_from_dict, context_from_dict, episode_config_from_dict
from tortb.model import (
    DEFAULT_COEFFICIENTS,
    SCENARIO_PRESETS,
    DriverProfile,
    NdrtClass,
    ScenarioSpec,
    TakeoverContext,
)
from tortb.simulate import EpisodeConfig

DRIVER = DriverProfile(srt=0.2, experience_km_per_week=80.0)
SCENARIO = SCENARIO_PRESETS["S1"]
CTX = TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE)
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
     ValueError, "srt must be within [0, 1], got 1.5"),
    ("experience", lambda: DriverProfile(0.2, math.nan),
     ValueError, "experience_km_per_week must be finite and >= 0, got nan"),
    ("noa", lambda: ScenarioSpec(noa=-1, noj=0, ego_speed=80.0),
     ValueError, "noa must be finite and >= 0, got -1"),
    ("noj", lambda: ScenarioSpec(noa=1, noj=10**400, ego_speed=80.0),
     ValueError, f"noj must be finite and >= 0, got {10**400}"),
    ("noa_over_str_limit", lambda: ScenarioSpec(noa=10**5000, noj=0, ego_speed=80.0),
     ValueError, "noa must be finite and >= 0, got an int of 16610 bits"),
    ("noa_negative_over_str_limit", lambda: ScenarioSpec(noa=-10**5000, noj=0, ego_speed=80.0),
     ValueError, "noa must be finite and >= 0, got a negative int of 16610 bits"),
    ("ego_speed", lambda: ScenarioSpec(noa=1, noj=0, ego_speed=math.inf),
     ValueError, "ego_speed must be finite and >= 0, got inf"),
    ("hazard_speed", lambda: ScenarioSpec(noa=1, noj=0, ego_speed=80.0, hazard_speed=math.nan),
     ValueError, "hazard_speed must be finite and >= 0, got nan"),
    ("ordinal", lambda: TakeoverContext(NdrtClass.HANDS_FREE, 0),
     ValueError, "ordinal must be finite and >= 1, got 0"),
    ("ordinal_too_large", lambda: TakeoverContext(NdrtClass.HANDS_FREE, 10**400),
     ValueError, f"ordinal must be finite and >= 1, got {10**400}"),
    ("c_noa", lambda: replace(DEFAULT_COEFFICIENTS, c_noa=math.nan),
     ValueError, "c_noa must be finite and >= 0, got nan"),
    ("c_noj", lambda: replace(DEFAULT_COEFFICIENTS, c_noj=-0.5),
     ValueError, "c_noj must be finite and >= 0, got -0.5"),
    ("dec_floor", lambda: replace(DEFAULT_COEFFICIENTS, dec_floor=math.inf),
     ValueError, "dec_floor must be finite and >= 0, got inf"),
    ("ndrtc_handheld", lambda: replace(DEFAULT_COEFFICIENTS, ndrtc_handheld=-1.0),
     ValueError, "ndrtc_handheld must be finite and >= 0, got -1.0"),
    ("oc_repeat", lambda: replace(DEFAULT_COEFFICIENTS, oc_repeat=math.nan),
     ValueError, "oc_repeat must be finite and >= 0, got nan"),
    ("rsc_bands", lambda: replace(DEFAULT_COEFFICIENTS, rsc_bands=((50.0, 0.25), (80.0, math.nan))),
     ValueError, "rsc_bands values[1] must be finite and >= 0, got nan"),
    ("dec_bands", lambda: replace(DEFAULT_COEFFICIENTS, dec_bands=((30.0, -2.0),)),
     ValueError, "dec_bands values[0] must be finite and >= 0, got -2.0"),
    ("known_tortb", lambda: AnchorCase(SCENARIO, DRIVER, CTX, 0.0, UnknownCoefficient.C_NOA),
     ValueError, "known_tortb must be finite and > 0, got 0.0"),
    ("ordinal_effect_size", lambda: derive_oc(math.nan, 7.0),
     ValueError, "ordinal_effect_size must be within [0, 1], got nan"),
    ("upper_bound_tortb", lambda: derive_oc(0.053, math.inf),
     ValueError, "upper_bound_tortb must be finite and > 0, got inf"),
    ("deadline", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, deadline=-1.0),
     ValueError, "deadline must be finite and >= 0, got -1.0"),
    ("response_noise", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, response_noise=1e308),
     ValueError, "response_noise must be within [0, 3600.0], got 1e+308"),
    ("maneuver_duration", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, maneuver_duration=0.0),
     ValueError, "maneuver_duration must be finite and > 0, got 0.0"),
    ("seed", lambda: EpisodeConfig(DRIVER, SCENARIO, CTX, seed=-1),
     ValueError, "seed must be within [0, 18446744073709551615], got -1"),
    ("sample_rate", lambda: flat_log(sample_rate=0.0),
     ValueError, "sample_rate must be finite and > 0, got 0.0"),
    ("tor_time", lambda: DriveLog(T, ZEROS, ZEROS, ZEROS, ZEROS, tor_time=25.0),
     ValueError, "tor_time must lie within the log extent [0, 20] s, got 25.0"),
    ("tor_time_nan", lambda: DriveLog(T, ZEROS, ZEROS, ZEROS, ZEROS, tor_time=math.nan),
     ValueError, "tor_time must lie within the log extent [0, 20] s, got nan"),
    ("threshold", lambda: detect_tot(LOG, math.nan),
     ValueError, "threshold must be within [0, 1], got nan"),
    ("pre_window", lambda: avg_lateral_displacement(LOG, math.inf, 5.0),
     ValueError, "pre_window must be finite and > 0, got inf"),
    ("post_window", lambda: avg_lateral_displacement(LOG, 5.0, 0.0),
     ValueError, "post_window must be finite and > 0, got 0.0"),
    ("window_before_log", lambda: avg_lateral_displacement(LOG, 11.0, 1.0),
     WindowOutOfRange, "window [-1, 11] s must be ordered and lie inside the log [0, 20] s"),
    ("window_after_log", lambda: avg_lateral_displacement(LOG, 1.0, 10.5),
     WindowOutOfRange, "window [9, 20.5] s must be ordered and lie inside the log [0, 20] s"),
    ("takeover_before_tor", lambda: max_acceleration(LOG, 9.0),
     WindowOutOfRange, "window [10, 9] s must be ordered and lie inside the log [0, 20] s"),
    ("takeover_after_log", lambda: max_acceleration(LOG, 21.0),
     WindowOutOfRange, "window [10, 21] s must be ordered and lie inside the log [0, 20] s"),
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


@pytest.mark.parametrize("call,error,message", [r[1:] for r in REJECTIONS],
                         ids=[r[0] for r in REJECTIONS])
def test_rejection_names_field_and_value(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


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


def test_build_prefixes_a_rejected_value_with_its_origin():
    assert build(DriverProfile, "here", srt=0.2, experience_km_per_week=1.0) == DriverProfile(
        0.2, 1.0)
    with pytest.raises(SchemaError) as info:
        build(DriverProfile, "--srt/--experience", srt=0.2, experience_km_per_week=-1.0)
    assert str(info.value) == (
        "--srt/--experience: experience_km_per_week must be finite and >= 0, got -1.0")
