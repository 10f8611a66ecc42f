"""Tests for the JSON file layer: round trips and strict rejection."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tortb import (
    DEFAULT_COEFFICIENTS,
    RAW_COEFFICIENTS,
    SCENARIO_PRESETS,
    DriverProfile,
    NdrtClass,
    ScenarioSpec,
    SchemaError,
    TakeoverContext,
)
from tortb import fileio

DRIVER = {"srt_s": 0.3, "experience_km_per_wk": 20}
CTX = {"ndrt": "handsfree", "ordinal": 1}
ANCHOR = {
    "scenario": "S1",
    "driver": DRIVER,
    "ctx": CTX,
    "known_tortb_s": 7.0,
    "unknown": "c_noa",
}
EPISODE = {"driver": DRIVER, "scenario": "S1", "ctx": CTX}
INLINE_SCENARIO = {"noa": 1, "noj": 2, "ego_speed_km_per_hr": 90}
COEFFS = fileio.coefficients_to_dict(DEFAULT_COEFFICIENTS)


# ------------------------------ round trips ------------------------------


@pytest.mark.parametrize("coeffs", [DEFAULT_COEFFICIENTS, RAW_COEFFICIENTS])
def test_coefficients_round_trip(coeffs, tmp_path):
    assert fileio.coefficients_from_dict(fileio.coefficients_to_dict(coeffs)) == coeffs
    path = tmp_path / "coeffs.json"
    fileio.dump_coefficients(coeffs, path)
    assert fileio.load_coefficients(path) == coeffs


@pytest.mark.parametrize(
    "driver",
    [DriverProfile(srt=0.2, experience_km_per_week=80.0),
     DriverProfile(srt=0.0, experience_km_per_week=0.1 + 0.2)],
)
def test_driver_round_trip(driver):
    assert fileio.driver_from_dict(fileio.driver_to_dict(driver)) == driver


@pytest.mark.parametrize(
    "scenario",
    [*SCENARIO_PRESETS.values(),
     ScenarioSpec(noa=3, noj=1, ego_speed=120.5, hazard_speed=35.25, label="x")],
)
def test_scenario_round_trip(scenario):
    data = json.loads(json.dumps(fileio.scenario_to_dict(scenario)))
    assert fileio.scenario_from_dict(data) == scenario


@pytest.mark.parametrize(
    "ctx",
    [TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1),
     TakeoverContext(ndrt_class=NdrtClass.HAND_HELD, ordinal=4)],
)
def test_context_round_trip(ctx):
    assert fileio.context_from_dict(fileio.context_to_dict(ctx)) == ctx


# --------------------------- malformed documents -------------------------


def episode(**fields):
    return {"episodes": [{**EPISODE, **fields}]}


def anchor(**fields):
    return {"anchors": [{**ANCHOR, **fields}]}


def coeffs(**fields):
    return {**COEFFS, **fields}


def band(key, i, **fields):
    bands = [dict(b) for b in COEFFS[key]]
    bands[i].update(fields)
    return coeffs(**{key: bands})


NAN = float("nan")

# (loader, document, text the SchemaError must contain)
MALFORMED = [
    ("coefficients", coeffs(c_noa_s=NAN), "c_noa_s"),
    ("coefficients", coeffs(c_noj_s=float("inf")), "c_noj_s"),
    ("coefficients", coeffs(dec_floor_s=1e999), "dec_floor"),
    ("coefficients", coeffs(c_noa_s="1.9"), "c_noa_s"),
    ("coefficients", coeffs(oc_repeat_s=True), "oc_repeat_s"),
    ("coefficients", coeffs(ndrtc_handheld_s=10**400), "ndrtc_handheld_s"),
    ("coefficients", band("rsc_bands", 0, value_s=NAN), "value_s"),
    ("coefficients", band("dec_bands", 2, upper_km_per_wk=NAN), "upper_km_per_wk"),
    ("coefficients", band("rsc_bands", 1, upper_km_per_hr=None), "upper_km_per_hr"),
    ("coefficients", coeffs(rsc_bands=[1]), "rsc_bands[0]"),
    ("coefficients", coeffs(rsc_bands=5), "rsc_bands"),
    ("coefficients", coeffs(dec_bands={"upper_km_per_wk": 30}), "dec_bands"),
    ("coefficients", [COEFFS], "expected a JSON object"),
    ("anchors", anchor(known_tortb_s=NAN), "known_tortb_s"),
    ("anchors", anchor(known_tortb_s=1e999), "known_tortb"),
    ("anchors", anchor(driver={**DRIVER, "srt_s": "0.3"}), "srt_s"),
    ("anchors", anchor(scenario={**INLINE_SCENARIO, "label": 5}), "label"),
    ("anchors", {"anchors": ["unknown"]}, "anchors[0]"),
    ("anchors", {"anchors": [[1]]}, "anchors[0]"),
    ("anchors", {"anchors": {"0": ANCHOR}}, "anchors"),
    ("anchors", {}, "anchors"),
    ("episodes", episode(response_noise_s=NAN), "response_noise_s"),
    ("episodes", episode(maneuver_duration_s=1e999), "maneuver_duration"),
    ("episodes", episode(scenario={**INLINE_SCENARIO, "noa": 2.7}), "noa"),
    ("episodes", episode(scenario={**INLINE_SCENARIO, "noa": True}), "noa"),
    ("episodes", episode(scenario={**INLINE_SCENARIO, "noj": "1"}), "noj"),
    ("episodes", episode(ctx={**CTX, "ordinal": 1.9}), "ordinal"),
    ("episodes", episode(driver={**DRIVER, "srt_s": "0.3"}), "srt_s"),
    ("episodes", episode(budget_driver={**DRIVER, "experience_km_per_wk": NAN}),
     "experience_km_per_wk"),
    ("episodes", episode(coefficients=coeffs(c_noa_s=NAN)), "c_noa_s"),
    ("episodes", episode(deadline_mode="explicit", explicit_deadline_s="3"),
     "explicit_deadline_s"),
    ("episodes", {**episode(), "base_seed": True}, "base_seed"),
    ("episodes", {**episode(), "base_seed": 1.5}, "base_seed"),
    ("episodes", {"episodes": [[1]]}, "episodes[0]"),
    ("episodes", {"episodes": ["driver"]}, "episodes[0]"),
    ("episodes", {"episodes": 3}, "episodes"),
    ("episodes", episode(scenario={**INLINE_SCENARIO, "noa": 10**400}), "noa"),
    ("anchors", {"anchors": []}, "anchors list is empty"),
    ("anchors", anchor(scenario="S9"), "unknown preset 'S9'"),
    ("anchors", anchor(unknown="C_NOA"), "unknown must be one of"),
    ("episodes", {"episodes": []}, "episodes list is empty"),
]

LOADERS = {
    "coefficients": fileio.load_coefficients,
    "anchors": fileio.load_anchors,
    "episodes": fileio.load_episode_configs,
}


@pytest.mark.parametrize("loader,document,expected", MALFORMED,
                         ids=[f"{i}-{m[0]}-{m[2]}" for i, m in enumerate(MALFORMED)])
def test_malformed_document_raises_schema_error(loader, document, expected, tmp_path):
    path = tmp_path / "doc.json"
    # json.dumps writes NaN and Infinity literals, which the loader must reject.
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        LOADERS[loader](path)
    assert "doc.json" in str(info.value) and expected in str(info.value)


def test_integral_numbers_read_as_floats(tmp_path):
    path = tmp_path / "doc.json"
    driver = {"srt_s": 0, "experience_km_per_wk": 20}
    path.write_text(json.dumps(anchor(known_tortb_s=7, driver=driver)), encoding="utf-8")
    (case,) = fileio.load_anchors(path)
    assert type(case.known_tortb) is float and case.known_tortb == 7.0
    assert type(case.driver.srt) is float


# ------------------------------- property --------------------------------

KEYS = sorted(
    set(COEFFS) | set(ANCHOR) | set(EPISODE) | set(DRIVER) | set(CTX) | set(INLINE_SCENARIO)
    | {"upper_km_per_hr", "upper_km_per_wk", "value_s", "hazard_speed_km_per_hr", "label",
       "coefficients", "budget_driver", "deadline_mode", "explicit_deadline_s",
       "response_noise_s", "maneuver_duration_s"}
)
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.just(10**400)
    | st.floats()
    | st.text(max_size=12)
    | st.sampled_from(["S1", "S4", "handsfree", "handheld", "c_noa", "oc", "explicit"])
)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=6), children, max_size=6),
    max_leaves=20,
)


def overrides(valid):
    """A valid document with some keys replaced by arbitrary JSON values."""
    return st.dictionaries(st.sampled_from(sorted(valid)), JSON_VALUES, max_size=3).map(
        lambda changed: {**valid, **changed}
    )


FROM_DICT = [
    (fileio.episode_config_from_dict, {**EPISODE, "coefficients": COEFFS}),
    (fileio.anchor_from_dict, ANCHOR),
    (fileio.coefficients_from_dict, COEFFS),
]


@pytest.mark.parametrize("from_dict,valid", FROM_DICT, ids=[f.__name__ for f, _ in FROM_DICT])
@settings(max_examples=100)
@given(data=st.data())
def test_only_schema_errors_escape(from_dict, valid, data):
    document = data.draw(JSON_VALUES | overrides(valid))
    try:
        from_dict(document, "doc")
    except SchemaError:
        pass
