"""JSON file formats for coefficient sets, anchor lists, and episode configs.

Keys carry their unit as a suffix (``c_noa_s``, ``ego_speed_km_per_hr``)
so values cannot silently drift units.  Malformed input raises
:class:`~tortb.errors.SchemaError` naming the offending key.

Each record's format is one table below, mapping each JSON key, in read
order, to the field it fills.  That table alone drives the record's
writer, its key check and its reader.  A key left out of a record takes
the default of its field, which only the record class states.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from functools import cache, partial
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NamedTuple

from .defaults import NdrtClass, json_text
from .errors import SchemaError, check_type, located, to_float
from .model import SCENARIO_PRESETS, CoefficientSet, DriverProfile, ScenarioSpec, TakeoverContext

if TYPE_CHECKING:
    from .calibration import AnchorCase
    from .simulate import EpisodeConfig


class _Key(NamedTuple):
    """How one key of a JSON record is read into its field and written back."""

    field: str | None  # None: the key fills no field, and its reader only checks the record
    read: Callable[[dict[str, Any], str, str], Any]  # (record, key, where) -> field value
    write: Callable[[Any], Any] = lambda value: value  # field value -> JSON value


def _get(data: dict[str, Any], key: str, where: str) -> Any:
    """The value under ``key`` of a record that :func:`_from_dict` has checked."""
    if key not in data:
        raise SchemaError(f"{where}: missing key '{key}'")
    return data[key]


def _typed(data: Any, key: str, where: str, types: Any, what: str) -> Any:
    value = _get(data, key, where)
    check_type(f"{where}: {key}", value, types, what)
    return value


def _choice(data: Any, key: str, where: str, choices: list[str]) -> str:
    """The value under ``key``, which must equal one of ``choices`` exactly."""
    value = _get(data, key, where)
    if value not in choices:
        raise SchemaError(f"{where}: {key} must be one of {choices}, got {value!r}")
    return value


def _number(data: Any, key: str, where: str) -> float:
    """A number (not a bool) under ``key``, as a float."""
    return to_float(f"{where}: {key}", _get(data, key, where))


def _or_null(read: Callable[..., Any]) -> Callable[..., Any]:
    """Reader of ``null``, as None, or of a value ``read`` takes."""
    return lambda data, key, where: (
        None if _get(data, key, where) is None else read(data, key, where)
    )


def _enum(cls: Any) -> tuple[Callable[..., Any], Callable[[Any], Any]]:
    """Reader and writer of an enum field, held in JSON as its exact value."""
    choices = [member.value for member in cls]
    return (lambda data, key, where: cls(_choice(data, key, where, choices)),
            lambda member: member.value)


def _record(from_dict: Callable[[Any, str], Any]) -> Callable[..., Any]:
    """Reader of the nested record under a key, named ``where.key`` in errors."""
    return lambda data, key, where: from_dict(_get(data, key, where), f"{where}.{key}")


def _list(from_dict: Callable[[Any, str], Any]) -> Callable[..., Any]:
    """Reader of a non-empty list of records under a key, entry ``i`` named ``where: key[i]``."""

    def read(data: Any, key: str, where: str) -> list[Any]:
        entries = _typed(data, key, where, list, "a list")
        if not entries:
            raise SchemaError(f"{where}: {key} list is empty")
        return [from_dict(entry, f"{where}: {key}[{i}]") for i, entry in enumerate(entries)]

    return read


@cache
def _optional(build: Any) -> frozenset[str]:
    """The fields ``build``, a record class or a plain function, can be built
    without: its last parameters, as many as it has defaults."""
    function = build.__init__ if isinstance(build, type) else build
    code, defaults = function.__code__, function.__defaults__ or ()
    return frozenset(code.co_varnames[code.co_argcount - len(defaults):code.co_argcount])


def _from_dict(data: Any, table: dict[str, _Key], cls: Any, where: str) -> Any:
    """Build ``cls`` from a JSON record that holds only ``table``'s keys.

    The keys are read in table order.  A key that fills no field is always
    read, to check the record.  An absent key whose field has a default is
    left to it; every reader raises on any other absent key.
    """
    if not isinstance(data, dict):
        raise SchemaError(f"{where}: expected a JSON object, got {data!r}")
    for key in data:
        if key not in table:
            raise SchemaError(f"{where}: unknown key '{key}'")
    fields = {}
    for key, (field, read, _) in table.items():
        if field is None:
            read(data, key, where)
        elif key in data or field not in _optional(cls):
            fields[field] = read(data, key, where)
    with located(where):
        return cls(**fields)


def _to_dict(obj: Any, table: dict[str, _Key]) -> dict[str, Any]:
    """The JSON record of ``obj``: each key of ``table``, holding its field as written."""
    return {key: k.write(getattr(obj, k.field)) for key, k in table.items()}


def _band(upper: float, value: float) -> tuple[float, float]:
    return upper, value


def _bands(upper_key: str) -> tuple[Callable[..., Any], Callable[[Any], Any]]:
    """Reader and writer of a band list, each band an ``(upper, value)`` record."""
    table = {upper_key: _Key("upper", _number), "value_s": _Key("value", _number)}
    return (_list(lambda band, where: _from_dict(band, table, _band, where)),
            lambda bands: [dict(zip(table, band)) for band in bands])


_COEFFICIENTS = {
    "c_noa_s": _Key("c_noa", _number),
    "c_noj_s": _Key("c_noj", _number),
    "rsc_bands": _Key("rsc_bands", *_bands("upper_km_per_hr")),
    "dec_bands": _Key("dec_bands", *_bands("upper_km_per_wk")),
    "dec_floor_s": _Key("dec_floor", _number),
    "ndrtc_handheld_s": _Key("ndrtc_handheld", _number),
    "oc_repeat_s": _Key("oc_repeat", _number),
}
_DRIVER = {
    "srt_s": _Key("srt", _number),
    "experience_km_per_wk": _Key("experience_km_per_week", _number),
}
# noa, noj, label and ordinal are read as they are: their record checks that
# each count is an int and the label a string.
_SCENARIO = {
    "noa": _Key("noa", _get),
    "noj": _Key("noj", _get),
    "ego_speed_km_per_hr": _Key("ego_speed", _number),
    "hazard_speed_km_per_hr": _Key("hazard_speed", _number),
    "label": _Key("label", _get),
}
_CONTEXT = {
    "ndrt": _Key("ndrt_class", *_enum(NdrtClass)),
    "ordinal": _Key("ordinal", _get),
}


def coefficients_to_dict(coeffs: CoefficientSet) -> dict[str, Any]:
    return _to_dict(coeffs, _COEFFICIENTS)


def driver_to_dict(driver: DriverProfile) -> dict[str, Any]:
    return _to_dict(driver, _DRIVER)


def scenario_to_dict(scenario: ScenarioSpec) -> dict[str, Any]:
    return _to_dict(scenario, _SCENARIO)


def context_to_dict(ctx: TakeoverContext) -> dict[str, Any]:
    return _to_dict(ctx, _CONTEXT)


def coefficients_from_dict(data: dict[str, Any], where: str = "coefficients") -> CoefficientSet:
    return _from_dict(data, _COEFFICIENTS, CoefficientSet, where)


def driver_from_dict(data: dict[str, Any], where: str = "driver") -> DriverProfile:
    return _from_dict(data, _DRIVER, DriverProfile, where)


def scenario_from_dict(data: dict[str, Any] | str, where: str = "scenario") -> ScenarioSpec:
    """Accepts either a preset name ("S1") or an inline scenario object."""
    if isinstance(data, str):
        if data not in SCENARIO_PRESETS:
            raise SchemaError(f"{where}: unknown preset '{data}'")
        return SCENARIO_PRESETS[data]
    return _from_dict(data, _SCENARIO, ScenarioSpec, where)


def context_from_dict(data: dict[str, Any], where: str = "ctx") -> TakeoverContext:
    return _from_dict(data, _CONTEXT, TakeoverContext, where)


def load_json(path: str | Path) -> Any:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not valid UTF-8 ({exc})") from None

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        record = dict(pairs)
        if len(record) < len(pairs):
            twice = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
            raise SchemaError(f"{path}: duplicate key '{twice}'")
        return record

    from decimal import Decimal

    try:
        # JSON has no NaN/Infinity. Read as Decimals, they fail every typed
        # reader, and that reader names the key they sit under.
        return json.loads(text, parse_constant=Decimal, object_pairs_hook=unique)
    except SchemaError:  # a duplicate key, from unique
        raise
    except ValueError as exc:  # malformed, or an int with too many digits for int()
        raise SchemaError(f"{path}: not valid JSON ({exc})") from None
    except RecursionError:
        raise SchemaError(f"{path}: JSON nested too deeply to read") from None


def write_file(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8 to ``path``, overwriting an existing file in place.

    The one writer of every output file.  An existing regular file is opened
    ``r+b`` and never truncated to zero: on ext4, where this was measured,
    emptying a file and filling it again cost several times the in-place
    write.  The file's length is set first and the bytes are written last,
    so a process stopped between the two leaves the old bytes cut short, or
    followed by NUL padding.  A write that is itself cut short, or a machine
    crash (nothing is fsynced), can leave new bytes followed by old ones.
    Any other path, such as a missing file, a pipe or ``/dev/null``, is
    opened ``wb``, which also raises the error of a path that cannot be
    written at all.
    """
    data = text.encode("utf-8")
    in_place = os.path.isfile(path)
    with open(path, "r+b" if in_place else "wb") as f:
        if in_place:
            f.truncate(len(data))
        f.write(data)


def load_coefficients(path: str | Path) -> CoefficientSet:
    return coefficients_from_dict(load_json(path), where=str(path))


def dump_coefficients(coeffs: CoefficientSet, path: str | Path) -> None:
    write_file(path, json_text(coefficients_to_dict(coeffs)))


# An anchor's keys after its first, "unknown", which anchor_from_dict adds.
_ANCHOR = {
    "scenario": _Key("scenario", _record(scenario_from_dict)),
    "driver": _Key("driver", _record(driver_from_dict)),
    "ctx": _Key("ctx", _record(context_from_dict)),
    "known_tortb_s": _Key("known_tortb", _number),
}


def anchor_from_dict(data: dict[str, Any], where: str = "anchor") -> AnchorCase:
    from .calibration import AnchorCase, UnknownCoefficient  # only for the command that calibrates

    table = {"unknown": _Key("unknown", *_enum(UnknownCoefficient)), **_ANCHOR}
    return _from_dict(data, table, AnchorCase, where)


def _anchors(anchors: list[AnchorCase]) -> list[AnchorCase]:
    return anchors


_ANCHORS = {"anchors": _Key("anchors", _list(anchor_from_dict))}


def load_anchors(path: str | Path) -> list[AnchorCase]:
    return _from_dict(load_json(path), _ANCHORS, _anchors, str(path))


def _deadline_mode(data: Any, key: str, where: str) -> None:
    """Check that ``deadline_mode`` 'explicit' and an ``explicit_deadline_s`` come together."""
    mode = _choice(data, key, where, ["from_budget", "explicit"]) if key in data else None
    if (mode == "explicit") != (data.get("explicit_deadline_s") is not None):
        raise SchemaError(
            f"{where}: deadline_mode 'explicit' and explicit_deadline_s go together"
        )


_EPISODE = {
    "driver": _Key("driver", _record(driver_from_dict)),
    "coefficients": _Key("coeffs", _record(coefficients_from_dict)),
    "budget_driver": _Key("budget_driver", _record(driver_from_dict)),
    "deadline_mode": _Key(None, _deadline_mode),
    "scenario": _Key("scenario", _record(scenario_from_dict)),
    "ctx": _Key("ctx", _record(context_from_dict)),
    "explicit_deadline_s": _Key("deadline", _or_null(_number)),
    "response_noise_s": _Key("response_noise", _number),
    "maneuver_duration_s": _Key("maneuver_duration", _number),
}


def episode_config_from_dict(
    data: dict[str, Any], where: str = "episode"
) -> EpisodeConfig:
    from .simulate import EpisodeConfig  # the simulator, only for the commands that simulate

    return _from_dict(data, _EPISODE, EpisodeConfig, where)


def _episodes(
    episodes: list[EpisodeConfig], base_seed: int | None = None
) -> tuple[list[EpisodeConfig], int | None]:
    return episodes, base_seed


_EPISODES = {
    "episodes": _Key("episodes", _list(episode_config_from_dict)),
    "base_seed": _Key("base_seed", _or_null(partial(_typed, types=int, what="an integer"))),
}


def load_episode_configs(path: str | Path) -> tuple[list[EpisodeConfig], int | None]:
    """Load episode configs and the file's base seed (None when unset)."""
    return _from_dict(load_json(path), _EPISODES, _episodes, str(path))
