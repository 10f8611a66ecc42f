"""Takeover-request time budgeting for conditionally automated driving.

Estimation of the time budget a driver needs between a takeover request
and the critical situation, calibration of the model coefficients from
anchor scenarios, objective metric extraction from 20 Hz drive logs, and
a deterministic takeover-episode simulator for round-trip validation.
"""

from importlib import import_module as _import_module

from .errors import (
    DependencyOrderError,
    EmptyBatch,
    EmptyGroup,
    MissingTorMarker,
    MultipleTorMarkers,
    NegativeCoefficient,
    NegativeRelativeSpeed,
    NonUniformSampling,
    SchemaError,
    SpeedAboveModelRange,
    TortbError,
    UnidentifiableUnknown,
    WindowOutOfRange,
)

__version__ = "0.1.0"

# Each public name of the submodules not imported up front, with its
# submodule.  A submodule is imported on the first use of one of its names
# (PEP 562), so ``import tortb`` loads only the errors, and each command
# loads only the modules it runs.
_LAZY = {
    **dict.fromkeys(("Chaining", "NdrtClass"), "defaults"),
    **dict.fromkeys(
        ("DEFAULT_COEFFICIENTS", "RAW_COEFFICIENTS", "SCENARIO_PRESETS", "VISUAL_SRT_RANGE",
         "CoefficientSet", "DriverProfile", "ScenarioSpec", "TakeoverContext", "TortbEstimate",
         "estimate_tortb", "ndrtc_lookup", "round_coefficient"),
        "model",
    ),
    **dict.fromkeys(
        ("AnchorCase", "CalibrationResult", "SolvedCoefficient", "UnknownCoefficient",
         "calibrate_sequence", "derive_oc", "solve_coefficient"),
        "calibration",
    ),
    **dict.fromkeys(
        ("DriveLog", "TakeoverMetrics", "avg_lateral_displacement", "detect_tot",
         "drive_log_to_csv", "extract_metrics", "max_acceleration", "parse_drive_log",
         "summarize"),
        "drivelog",
    ),
    **dict.fromkeys(("SummaryStats", "describe"), "stats"),
    **dict.fromkeys(
        ("BatchReport", "Classification", "EpisodeConfig", "EpisodeOutcome", "mix_seed",
         "response_onset", "run_batch", "run_episode"),
        "simulate",
    ),
}

__all__ = [
    "AnchorCase", "BatchReport", "CalibrationResult", "Chaining", "Classification",
    "CoefficientSet", "DEFAULT_COEFFICIENTS", "DependencyOrderError", "DriveLog",
    "DriverProfile", "EmptyBatch", "EmptyGroup", "EpisodeConfig", "EpisodeOutcome",
    "MissingTorMarker", "MultipleTorMarkers", "NdrtClass", "NegativeCoefficient",
    "NegativeRelativeSpeed", "NonUniformSampling", "RAW_COEFFICIENTS", "SCENARIO_PRESETS",
    "ScenarioSpec", "SchemaError", "SolvedCoefficient", "SpeedAboveModelRange",
    "SummaryStats", "TakeoverContext", "TakeoverMetrics", "TortbError",
    "TortbEstimate", "UnidentifiableUnknown", "UnknownCoefficient", "VISUAL_SRT_RANGE",
    "WindowOutOfRange", "avg_lateral_displacement", "calibrate_sequence",
    "derive_oc", "describe", "detect_tot", "drive_log_to_csv",
    "estimate_tortb", "extract_metrics", "max_acceleration", "mix_seed", "ndrtc_lookup",
    "parse_drive_log", "response_onset", "round_coefficient",
    "run_batch", "run_episode", "solve_coefficient", "summarize",
]


# The submodules, each imported on its first access as an attribute.
_SUBMODULES = ("calibration", "cli", "defaults", "drivelog", "fileio", "model", "simulate",
               "stats")


def __getattr__(name: str) -> object:
    if name in _LAZY:
        value = globals()[name] = getattr(_import_module(f".{_LAZY[name]}", __name__), name)
        return value
    if name in _SUBMODULES:
        return _import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
