"""JSON file formats for coefficient sets, anchor lists, and episode configs.

Keys carry their unit as a suffix (``c_noa_s``, ``ego_speed_km_per_hr``)
so values cannot silently drift units.  Malformed input raises
:class:`~tortb.errors.SchemaError` naming the offending key.
"""

from __future__ import annotations

import json
from decimal import Decimal
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Container

from .calibration import AnchorCase, UnknownCoefficient
from .errors import SchemaError, build
from .model import (
    DEFAULT_COEFFICIENTS,
    SCENARIO_PRESETS,
    CoefficientSet,
    DriverProfile,
    NdrtClass,
    ScenarioSpec,
    TakeoverContext,
)

if TYPE_CHECKING:
    from .simulate import EpisodeConfig

_MISSING: Any = object()


def _get(data: dict[str, Any], key: str, where: str, default: Any = _MISSING) -> Any:
    """The value under ``key`` of a record that :func:`_only` has checked."""
    if key in data:
        return data[key]
    if default is _MISSING:
        raise SchemaError(f"{where}: missing key '{key}'")
    return default


def _only(data: Any, where: str, keys: Container[str]) -> None:
    """Raise unless ``data`` is a JSON object holding no key outside ``keys``."""
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {data!r}")
    for key in data:
        if key not in keys:
            raise SchemaError(f"{where}: unknown key '{key}'")


def _typed(
    data: Any, key: str, where: str, types: Any, what: str, default: Any = _MISSING
) -> Any:
    value = _get(data, key, where, default)
    if isinstance(value, bool) or not isinstance(value, types):
        raise SchemaError(f"{where}: {key} must be {what}, got {value!r}")
    return value


def _choice(
    data: Any, key: str, where: str, choices: list[str], default: Any = _MISSING
) -> str:
    """The value under ``key``, which must equal one of ``choices`` exactly."""
    value = _get(data, key, where, default)
    if value not in choices:
        raise SchemaError(f"{where}: {key} must be one of {choices}, got {value!r}")
    return value


def _number(data: Any, key: str, where: str, default: Any = _MISSING) -> float:
    """An int or float (not a bool) under ``key``, as a float."""
    value = _typed(data, key, where, (int, float), "a number", default)
    try:
        return float(value)
    except OverflowError:
        raise SchemaError(f"{where}: {key} is out of range") from None


def coefficients_to_dict(coeffs: CoefficientSet) -> dict[str, Any]:
    return {
        "c_noa_s": coeffs.c_noa,
        "c_noj_s": coeffs.c_noj,
        "rsc_bands": [
            {"upper_km_per_hr": upper, "value_s": value}
            for upper, value in coeffs.rsc_bands
        ],
        "dec_bands": [
            {"upper_km_per_wk": upper, "value_s": value}
            for upper, value in coeffs.dec_bands
        ],
        "dec_floor_s": coeffs.dec_floor,
        "ndrtc_handheld_s": coeffs.ndrtc_handheld,
        "oc_repeat_s": coeffs.oc_repeat,
    }


def driver_to_dict(driver: DriverProfile) -> dict[str, Any]:
    return {"srt_s": driver.srt, "experience_km_per_wk": driver.experience_km_per_week}


def scenario_to_dict(scenario: ScenarioSpec) -> dict[str, Any]:
    return {"noa": scenario.noa, "noj": scenario.noj, "ego_speed_km_per_hr": scenario.ego_speed,
            "hazard_speed_km_per_hr": scenario.hazard_speed, "label": scenario.label}


def context_to_dict(ctx: TakeoverContext) -> dict[str, Any]:
    return {"ndrt": ctx.ndrt_class.value, "ordinal": ctx.ordinal}


# The keys a record read back may hold: for a record with a writer, the
# keys it writes. The written coefficients also give each band's keys.
_COEFFICIENT_KEYS = coefficients_to_dict(DEFAULT_COEFFICIENTS)
_DRIVER_KEYS = driver_to_dict(DriverProfile(0.0, 0.0))
_SCENARIO_KEYS = scenario_to_dict(SCENARIO_PRESETS["S1"])
_CONTEXT_KEYS = context_to_dict(TakeoverContext(NdrtClass.HANDS_FREE))
_ANCHOR_KEYS = ("scenario", "driver", "ctx", "known_tortb_s", "unknown")
_EPISODE_KEYS = ("driver", "scenario", "ctx", "coefficients", "budget_driver", "deadline_mode",
                 "explicit_deadline_s", "response_noise_s", "maneuver_duration_s")


def _bands(data: Any, key: str, where: str) -> tuple[tuple[float, float], ...]:
    """The bands under ``key``, each holding the two keys of a written band."""
    upper_key, value_key = _COEFFICIENT_KEYS[key][0]
    bands = []
    for i, band in enumerate(_typed(data, key, where, list, "a list")):
        at = f"{where}: {key}[{i}]"
        _only(band, at, (upper_key, value_key))
        bands.append((_number(band, upper_key, at), _number(band, value_key, at)))
    return tuple(bands)


def coefficients_from_dict(data: dict[str, Any], where: str = "coefficients") -> CoefficientSet:
    _only(data, where, _COEFFICIENT_KEYS)
    return build(
        CoefficientSet,
        where,
        c_noa=_number(data, "c_noa_s", where),
        c_noj=_number(data, "c_noj_s", where),
        rsc_bands=_bands(data, "rsc_bands", where),
        dec_bands=_bands(data, "dec_bands", where),
        dec_floor=_number(data, "dec_floor_s", where),
        ndrtc_handheld=_number(data, "ndrtc_handheld_s", where),
        oc_repeat=_number(data, "oc_repeat_s", where),
    )


def driver_from_dict(data: dict[str, Any], where: str = "driver") -> DriverProfile:
    _only(data, where, _DRIVER_KEYS)
    return build(
        DriverProfile,
        where,
        srt=_number(data, "srt_s", where),
        experience_km_per_week=_number(data, "experience_km_per_wk", where),
    )


def scenario_from_dict(data: dict[str, Any] | str, where: str = "scenario") -> ScenarioSpec:
    """Accepts either a preset name ("S1") or an inline scenario object."""
    if isinstance(data, str):
        if data not in SCENARIO_PRESETS:
            raise SchemaError(f"{where}: unknown preset '{data}'")
        return SCENARIO_PRESETS[data]
    _only(data, where, _SCENARIO_KEYS)
    return build(
        ScenarioSpec,
        where,
        noa=_get(data, "noa", where),
        noj=_get(data, "noj", where),
        ego_speed=_number(data, "ego_speed_km_per_hr", where),
        hazard_speed=_number(data, "hazard_speed_km_per_hr", where, 0.0),
        label=_typed(data, "label", where, str, "a string", ""),
    )


def context_from_dict(data: dict[str, Any], where: str = "ctx") -> TakeoverContext:
    _only(data, where, _CONTEXT_KEYS)
    ndrt = _choice(data, "ndrt", where, [c.value for c in NdrtClass])
    ordinal = _get(data, "ordinal", where)
    return build(TakeoverContext, where, ndrt_class=NdrtClass(ndrt), ordinal=ordinal)


def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8 ({exc})") from None
    try:
        # JSON has no NaN/Infinity. Read as Decimals, they fail every typed
        # reader, and that reader names the key they sit under.
        return json.loads(text, parse_constant=Decimal)
    except ValueError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def json_text(payload: Any) -> str:
    """The one JSON text layout: sorted keys, a 2-space indent and a final LF."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _load_list(
    path: str | Path, key: str, from_dict: Callable[..., Any], *optional: str
) -> tuple[Any, list]:
    """Read a JSON object holding a non-empty list under ``key``, and only
    the ``optional`` keys besides; parse each entry."""
    data = load_json(path)
    _only(data, str(path), (key, *optional))
    entries = _typed(data, key, str(path), list, "a list")
    if not entries:
        raise SchemaError(f"{path}: {key} list is empty")
    return data, [from_dict(entry, f"{path}: {key}[{i}]") for i, entry in enumerate(entries)]


def load_coefficients(path: str | Path) -> CoefficientSet:
    return coefficients_from_dict(load_json(path), where=str(path))


def dump_coefficients(coeffs: CoefficientSet, path: str | Path) -> None:
    Path(path).write_text(json_text(coefficients_to_dict(coeffs)), encoding="utf-8")


def anchor_from_dict(data: dict[str, Any], where: str = "anchor") -> AnchorCase:
    _only(data, where, _ANCHOR_KEYS)
    unknown = _choice(data, "unknown", where, [u.value for u in UnknownCoefficient])
    return build(
        AnchorCase,
        where,
        scenario=scenario_from_dict(_get(data, "scenario", where), f"{where}.scenario"),
        driver=driver_from_dict(_get(data, "driver", where), f"{where}.driver"),
        ctx=context_from_dict(_get(data, "ctx", where), f"{where}.ctx"),
        known_tortb=_number(data, "known_tortb_s", where),
        unknown=UnknownCoefficient(unknown),
    )


def load_anchors(path: str | Path) -> list[AnchorCase]:
    return _load_list(path, "anchors", anchor_from_dict)[1]


def episode_config_from_dict(
    data: dict[str, Any], where: str = "episode"
) -> EpisodeConfig:
    from .simulate import EpisodeConfig  # numpy, only for the commands that simulate

    _only(data, where, _EPISODE_KEYS)
    driver = driver_from_dict(_get(data, "driver", where), f"{where}.driver")
    coeffs = (
        coefficients_from_dict(data["coefficients"], f"{where}.coefficients")
        if "coefficients" in data
        else DEFAULT_COEFFICIENTS
    )
    budget_driver = (
        driver_from_dict(data["budget_driver"], f"{where}.budget_driver")
        if "budget_driver" in data
        else None
    )
    mode = _choice(data, "deadline_mode", where, ["from_budget", "explicit"], "from_budget")
    explicit = data.get("explicit_deadline_s")
    if (mode == "explicit") != (explicit is not None):
        raise SchemaError(
            f"{where}: deadline_mode 'explicit' and explicit_deadline_s go together"
        )
    return build(
        EpisodeConfig,
        where,
        driver=driver,
        scenario=scenario_from_dict(_get(data, "scenario", where), f"{where}.scenario"),
        ctx=context_from_dict(_get(data, "ctx", where), f"{where}.ctx"),
        coeffs=coeffs,
        deadline=None if explicit is None else _number(data, "explicit_deadline_s", where),
        budget_driver=budget_driver,
        response_noise=_number(data, "response_noise_s", where, 0.0),
        maneuver_duration=_number(data, "maneuver_duration_s", where, 2.0),
    )


def load_episode_configs(path: str | Path) -> tuple[list[EpisodeConfig], int | None]:
    """Load episode configs and the file's base seed (None when unset)."""
    data, configs = _load_list(path, "episodes", episode_config_from_dict, "base_seed")
    if data.get("base_seed") is None:
        return configs, None
    return configs, _typed(data, "base_seed", str(path), int, "an integer")
