"""Tests for the JSON file layer: round trips and strict rejection."""

import json
import sys

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
from tortb.records import replace

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


# --------------------------- keys and defaults ---------------------------

RAW_COEFFS = fileio.coefficients_to_dict(RAW_COEFFICIENTS)
# (reader, writer or None, a document holding every key with a value other
# than its default, the keys it may leave out with the field each fills,
# the other keys the reader accepts)
RECORDS = [
    (fileio.coefficients_from_dict, fileio.coefficients_to_dict, RAW_COEFFS, {}, set()),
    (fileio.driver_from_dict, fileio.driver_to_dict, DRIVER, {}, set()),
    (fileio.scenario_from_dict, fileio.scenario_to_dict,
     {**INLINE_SCENARIO, "hazard_speed_km_per_hr": 30, "label": "x"},
     {"hazard_speed_km_per_hr": "hazard_speed", "label": "label"}, set()),
    (fileio.context_from_dict, fileio.context_to_dict, {"ndrt": "handheld", "ordinal": 2}, {},
     set()),
    (fileio.anchor_from_dict, None, ANCHOR, {}, set()),
    (fileio.episode_config_from_dict, None,
     {**EPISODE, "coefficients": RAW_COEFFS, "budget_driver": {**DRIVER, "srt_s": 0.25},
      "response_noise_s": 0.5, "maneuver_duration_s": 3.0},
     {"coefficients": "coeffs", "budget_driver": "budget_driver",
      "response_noise_s": "response_noise", "maneuver_duration_s": "maneuver_duration"},
     # An explicit deadline excludes a budget_driver; the pair has its own tests.
     {"deadline_mode", "explicit_deadline_s"}),
]
RECORD_KEYS = set().union(*(set(document) | also for _, _, document, _, also in RECORDS))


@pytest.mark.parametrize("from_dict,to_dict,document,optional,also", RECORDS,
                         ids=[record[0].__name__ for record in RECORDS])
def test_a_record_reads_the_keys_it_writes_and_defaults_each_optional_one(
    from_dict, to_dict, document, optional, also
):
    record = from_dict(document)
    if to_dict is not None:
        assert set(to_dict(record)) == set(document) | also
    for key in sorted(RECORD_KEYS - set(document) - also):
        with pytest.raises(SchemaError, match=f"unknown key '{key}'"):
            from_dict({**document, key: 0})
    # A record's defaults are those of its last fields, as its constructor, __new__, holds them.
    fields, values = type(record).__slots__, type(record).__new__.__defaults__ or ()
    defaults = dict(zip(fields[len(fields) - len(values):], values))
    for key in document:
        rest = {k: v for k, v in document.items() if k != key}
        if key in optional:
            field = optional[key]
            assert getattr(record, field) != defaults[field]
            assert from_dict(rest) == replace(record, **{field: defaults[field]})
        else:
            with pytest.raises(SchemaError, match=f"missing key '{key}'"):
                from_dict(rest)


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


def twice(document, key):
    """The JSON text of ``document`` with its ``"twice"`` key renamed ``key``,
    a key the same record already holds."""
    return json.dumps(document).replace('"twice"', f'"{key}"')


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
    ("episodes", episode(deadline_mode="explicit", explicit_deadline_s=3.0, budget_driver=DRIVER),
     "episodes[0]: deadline and budget_driver exclude each other"),
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
    ("coefficients", twice(coeffs(twice=0), "c_noa_s"), "duplicate key 'c_noa_s'"),
    ("coefficients", twice(band("rsc_bands", 0, twice=0), "upper_km_per_hr"),
     "duplicate key 'upper_km_per_hr'"),
    ("anchors", twice({**anchor(), "twice": 0}, "anchors"), "duplicate key 'anchors'"),
    ("anchors", twice(anchor(driver={**DRIVER, "twice": 0}), "srt_s"), "duplicate key 'srt_s'"),
    ("episodes", twice({**episode(), "base_seed": 1, "twice": 0}, "base_seed"),
     "duplicate key 'base_seed'"),
    ("episodes", twice(episode(scenario={**INLINE_SCENARIO, "twice": 0}), "noa"),
     "duplicate key 'noa'"),
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
    text = document if isinstance(document, str) else json.dumps(document)
    path.write_text(text, encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        LOADERS[loader](path)
    assert "doc.json" in str(info.value) and expected in str(info.value)


# (loader, document, where the unknown key sits, the key): additions only,
# so each document loads once its unknown key is removed.
UNKNOWN_KEYS = [
    ("coefficients", coeffs(c_noa=1.9), "", "c_noa"),
    ("coefficients", band("rsc_bands", 1, upper_km_per_wk=80), "rsc_bands[1]: ",
     "upper_km_per_wk"),
    ("anchors", {**anchor(), "base_seed": 1}, "", "base_seed"),
    ("anchors", anchor(known_tortb=7.0), "anchors[0]: ", "known_tortb"),
    ("anchors", anchor(driver={**DRIVER, "srt": 0.3}), "anchors[0]: driver: ", "srt"),
    ("episodes", {**episode(), "base_sed": 1}, "", "base_sed"),
    ("episodes", episode(explicit_deadline=3.0), "episodes[0]: ", "explicit_deadline"),
    ("episodes", episode(scenario={**INLINE_SCENARIO, "hazard_speed": 30}),
     "episodes[0]: scenario: ", "hazard_speed"),
    ("episodes", episode(ctx={**CTX, "ndrt_class": "handheld"}), "episodes[0]: ctx: ",
     "ndrt_class"),
    ("episodes", episode(budget_driver={**DRIVER, "experience": 20}),
     "episodes[0]: budget_driver: ", "experience"),
    ("episodes", episode(coefficients=coeffs(oc_repeat=0.4)), "episodes[0]: coefficients: ",
     "oc_repeat"),
]


@pytest.mark.parametrize("loader,document,where,key", UNKNOWN_KEYS,
                         ids=[f"{m[0]}-{m[3]}" for m in UNKNOWN_KEYS])
def test_unknown_key_is_refused_naming_the_record(loader, document, where, key, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        LOADERS[loader](path)
    assert str(info.value) == f"{path}: {where}unknown key '{key}'"


# (loader, document, the whole message after the path): each fault of a
# file's top level, one document with two faults, and the two refusals of
# the float rule (a NaN reads as a Decimal), worded as describe words them.
TOP_LEVEL = [
    *((loader, document, message) for loader in ("anchors", "episodes") for document, message in [
        ([1], "expected a JSON object, got [1]"),
        ({}, f"missing key '{loader}'"),
        ({loader: 3}, f"{loader} must be a list, got 3"),
        ({loader: []}, f"{loader} list is empty"),
        ({loader: ["x"]}, f"{loader}[0]: expected a JSON object, got 'x'"),
        ({loader: [], "seed": 1}, "unknown key 'seed'"),
    ]),
    ("episodes", {**episode(), "base_seed": True}, "base_seed must be an integer, got True"),
    ("episodes", {**episode(), "base_seed": 1.5}, "base_seed must be an integer, got 1.5"),
    ("episodes", {"episodes": [], "base_seed": True}, "episodes list is empty"),
    ("anchors", anchor(driver={**DRIVER, "srt_s": 10**400}),
     f"anchors[0]: driver: srt_s must be finite, got {10**400}"),
    ("anchors", anchor(driver={**DRIVER, "srt_s": NAN}),
     "anchors[0]: driver: srt_s must be a number, got Decimal('NaN')"),
]


@pytest.mark.parametrize("loader,document,message", TOP_LEVEL,
                         ids=[f"{i}-{m[0]}" for i, m in enumerate(TOP_LEVEL)])
def test_top_level_fault_message(loader, document, message, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(SchemaError) as info:
        LOADERS[loader](path)
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_an_int_past_the_digit_limit_is_refused_as_json(tmp_path):
    """json raises a bare ValueError here, not a JSONDecodeError."""
    path = tmp_path / "doc.json"
    path.write_text('{"c_noa_s": 1' + "0" * sys.get_int_max_str_digits() + "}", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"doc\.json: not valid JSON \(Exceeds the limit"):
        fileio.load_coefficients(path)


def test_null_base_seed_and_deadline_read_as_unset(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({**episode(explicit_deadline_s=None), "base_seed": None}),
                    encoding="utf-8")
    ([config], base_seed) = fileio.load_episode_configs(path)
    assert (config.deadline, base_seed) == (None, None)


def test_integral_numbers_read_as_floats(tmp_path):
    path = tmp_path / "doc.json"
    driver = {"srt_s": 0, "experience_km_per_wk": 20}
    path.write_text(json.dumps(anchor(known_tortb_s=7, driver=driver)), encoding="utf-8")
    (case,) = fileio.load_anchors(path)
    assert type(case.known_tortb) is float and case.known_tortb == 7.0
    assert type(case.driver.srt) is float


# A record with two faults reports the one its reader meets first.
TWO_FAULTS = [
    (fileio.anchor_from_dict, {**ANCHOR, "unknown": "C_NOA", "scenario": "S9"},
     "anchor: unknown must be one of ['c_noa', 'c_noj', 'oc'], got 'C_NOA'"),
    (fileio.episode_config_from_dict, {**EPISODE, "explicit_deadline_s": 3.0, "scenario": "S9"},
     "episode: deadline_mode 'explicit' and explicit_deadline_s go together"),
    (fileio.episode_config_from_dict,
     {**EPISODE, "driver": {**DRIVER, "srt_s": -1}, "deadline_mode": "explicit"},
     "episode: driver: srt_s must be within [0, 1], got -1.0"),
]


@pytest.mark.parametrize("from_dict,data,message", TWO_FAULTS)
def test_first_fault_of_a_two_fault_record_is_reported(from_dict, data, message):
    with pytest.raises(SchemaError) as info:
        from_dict(data)
    assert str(info.value) == message


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


# A def, not a lambda: hypothesis checks that ``extend`` uses its argument by
# parsing its source, which for a lambda over several lines is the first line.
def _containers(children):
    return st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(KEYS) | st.text(max_size=6), children, max_size=6)


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=20)


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
    except SchemaError as exc:
        # Every fault is located at the record, and names at most the bare key.
        assert str(exc).startswith("doc: ")
        assert exc.field is None or ": " not in exc.field
