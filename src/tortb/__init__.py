"""Takeover-request time budgeting for conditionally automated driving.

Estimation of the time budget a driver needs between a takeover request
and the critical situation, calibration of the model coefficients from
anchor scenarios, objective metric extraction from 20 Hz drive logs, and
a deterministic takeover-episode simulator for round-trip validation.
"""

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
    "DependencyOrderError", "EmptyBatch", "EmptyGroup", "MissingTorMarker",
    "MultipleTorMarkers", "NegativeCoefficient", "NegativeRelativeSpeed", "NonUniformSampling",
    "SchemaError", "SpeedAboveModelRange", "TortbError", "UnidentifiableUnknown",
    "WindowOutOfRange", *_LAZY,
]


# The submodules, each imported on its first access as an attribute.
_SUBMODULES = ("calibration", "cli", "defaults", "drivelog", "fileio", "model", "records",
               "simulate", "stats")


def __getattr__(name: str) -> object:
    module = _LAZY.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, which `python -X importtime` times and importlib.import_module
    # bypasses; a nonempty fromlist makes it return the submodule.
    value = __import__(f"{__name__}.{module}", fromlist=["*"])
    if name in _LAZY:
        value = globals()[name] = getattr(value, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_SUBMODULES})
