"""JSON file formats for coefficient sets, anchor lists, and episode configs.

Keys carry their unit as a suffix (``c_noa_s``, ``ego_speed_km_per_hr``)
so values cannot silently drift units.  Malformed input raises
:class:`~tortb.errors.SchemaError` naming the offending key.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .calibration import AnchorCase, UnknownCoefficient
from .errors import SchemaError
from .model import (
    DEFAULT_COEFFICIENTS,
    SCENARIO_PRESETS,
    CoefficientSet,
    DriverProfile,
    NdrtClass,
    ScenarioSpec,
    TakeoverContext,
)
from .simulate import EpisodeConfig


def _get(mapping: dict[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise SchemaError(f"{where}: missing key '{key}'")
    return mapping[key]


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


def coefficients_from_dict(data: dict[str, Any], where: str = "coefficients") -> CoefficientSet:
    try:
        return CoefficientSet(
            c_noa=float(_get(data, "c_noa_s", where)),
            c_noj=float(_get(data, "c_noj_s", where)),
            rsc_bands=tuple(
                (float(_get(b, "upper_km_per_hr", where)), float(_get(b, "value_s", where)))
                for b in _get(data, "rsc_bands", where)
            ),
            dec_bands=tuple(
                (float(_get(b, "upper_km_per_wk", where)), float(_get(b, "value_s", where)))
                for b in _get(data, "dec_bands", where)
            ),
            dec_floor=float(_get(data, "dec_floor_s", where)),
            ndrtc_handheld=float(_get(data, "ndrtc_handheld_s", where)),
            oc_repeat=float(_get(data, "oc_repeat_s", where)),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def driver_to_dict(driver: DriverProfile) -> dict[str, Any]:
    return {
        "srt_s": driver.srt,
        "experience_km_per_wk": driver.experience_km_per_week,
    }


def driver_from_dict(data: dict[str, Any], where: str = "driver") -> DriverProfile:
    try:
        return DriverProfile(
            srt=float(_get(data, "srt_s", where)),
            experience_km_per_week=float(_get(data, "experience_km_per_wk", where)),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def scenario_to_dict(scenario: ScenarioSpec) -> dict[str, Any]:
    return {
        "noa": scenario.noa,
        "noj": scenario.noj,
        "ego_speed_km_per_hr": scenario.ego_speed,
        "hazard_speed_km_per_hr": scenario.hazard_speed,
        "label": scenario.label,
    }


def scenario_from_dict(data: dict[str, Any] | str, where: str = "scenario") -> ScenarioSpec:
    """Accepts either a preset name ("S1") or an inline scenario object."""
    if isinstance(data, str):
        if data not in SCENARIO_PRESETS:
            raise SchemaError(f"{where}: unknown preset '{data}'")
        return SCENARIO_PRESETS[data]
    try:
        return ScenarioSpec(
            noa=int(_get(data, "noa", where)),
            noj=int(_get(data, "noj", where)),
            ego_speed=float(_get(data, "ego_speed_km_per_hr", where)),
            hazard_speed=float(data.get("hazard_speed_km_per_hr", 0.0)),
            label=str(data.get("label", "")),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def context_to_dict(ctx: TakeoverContext) -> dict[str, Any]:
    return {"ndrt": ctx.ndrt_class.value, "ordinal": ctx.ordinal}


def context_from_dict(data: dict[str, Any], where: str = "ctx") -> TakeoverContext:
    ndrt = _get(data, "ndrt", where)
    try:
        ndrt_class = NdrtClass(ndrt)
    except ValueError:
        raise SchemaError(
            f"{where}: ndrt must be 'handsfree' or 'handheld', got '{ndrt}'"
        ) from None
    try:
        return TakeoverContext(ndrt_class=ndrt_class, ordinal=int(_get(data, "ordinal", where)))
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def load_json(path: str | Path) -> Any:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None


def load_coefficients(path: str | Path) -> CoefficientSet:
    data = load_json(path)
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object")
    return coefficients_from_dict(data, where=str(path))


def dump_coefficients(coeffs: CoefficientSet, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(coefficients_to_dict(coeffs), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def anchor_from_dict(data: dict[str, Any], where: str = "anchor") -> AnchorCase:
    unknown_name = str(_get(data, "unknown", where)).lower()
    try:
        unknown = UnknownCoefficient(unknown_name)
    except ValueError:
        raise SchemaError(
            f"{where}: unknown must be one of "
            f"{[u.value for u in UnknownCoefficient]}, got '{unknown_name}'"
        ) from None
    try:
        return AnchorCase(
            scenario=scenario_from_dict(_get(data, "scenario", where), f"{where}.scenario"),
            driver=driver_from_dict(_get(data, "driver", where), f"{where}.driver"),
            ctx=context_from_dict(_get(data, "ctx", where), f"{where}.ctx"),
            known_tortb=float(_get(data, "known_tortb_s", where)),
            unknown=unknown,
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def load_anchors(path: str | Path) -> list[AnchorCase]:
    data = load_json(path)
    if not isinstance(data, dict) or "anchors" not in data:
        raise SchemaError(f"{path}: expected a JSON object with an 'anchors' list")
    anchors = data["anchors"]
    if not isinstance(anchors, list):
        raise SchemaError(f"{path}: 'anchors' must be a list")
    return [
        anchor_from_dict(entry, where=f"{path}: anchors[{i}]")
        for i, entry in enumerate(anchors)
    ]


def episode_config_from_dict(
    data: dict[str, Any], where: str = "episode"
) -> EpisodeConfig:
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
    mode = data.get("deadline_mode", "from_budget")
    explicit = data.get("explicit_deadline_s")
    if mode not in ("from_budget", "explicit"):
        raise SchemaError(
            f"{where}: deadline_mode must be 'from_budget' or 'explicit', got {mode!r}"
        )
    if (mode == "explicit") != (explicit is not None):
        raise SchemaError(
            f"{where}: deadline_mode 'explicit' and explicit_deadline_s go together"
        )
    try:
        return EpisodeConfig(
            driver=driver_from_dict(_get(data, "driver", where), f"{where}.driver"),
            scenario=scenario_from_dict(_get(data, "scenario", where), f"{where}.scenario"),
            ctx=context_from_dict(_get(data, "ctx", where), f"{where}.ctx"),
            coeffs=coeffs,
            deadline=None if explicit is None else float(explicit),
            budget_driver=budget_driver,
            response_noise=float(data.get("response_noise_s", 0.0)),
            maneuver_duration=float(data.get("maneuver_duration_s", 2.0)),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {exc}") from None


def load_episode_configs(path: str | Path) -> tuple[list[EpisodeConfig], int | None]:
    """Load episode configs and the file's base seed (None when unset)."""
    data = load_json(path)
    if not isinstance(data, dict) or "episodes" not in data:
        raise SchemaError(f"{path}: expected a JSON object with an 'episodes' list")
    episodes = data["episodes"]
    if not isinstance(episodes, list):
        raise SchemaError(f"{path}: 'episodes' must be a list")
    configs = [
        episode_config_from_dict(entry, where=f"{path}: episodes[{i}]")
        for i, entry in enumerate(episodes)
    ]
    base_seed = data.get("base_seed")
    if base_seed is not None and not isinstance(base_seed, int):
        raise SchemaError(f"{path}: base_seed must be an integer")
    return configs, base_seed
