"""Takeover-request time budgeting for conditionally automated driving.

Estimation of the time budget a driver needs between a takeover request
and the critical situation, calibration of the model coefficients from
anchor scenarios, objective metric extraction from 20 Hz drive logs, and
a deterministic takeover-episode simulator for round-trip validation.
"""

from types import ModuleType as _ModuleType

from .calibration import (
    AnchorCase,
    CalibrationResult,
    Chaining,
    SolvedCoefficient,
    UnknownCoefficient,
    calibrate_sequence,
    derive_oc,
    solve_coefficient,
)
from .drivelog import (
    DriveLog,
    SummaryStats,
    TakeoverMetrics,
    avg_lateral_displacement,
    describe,
    detect_tot,
    drive_log_to_csv,
    extract_metrics,
    max_acceleration,
    parse_drive_log,
    summarize,
)
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
from .model import (
    DEFAULT_COEFFICIENTS,
    RAW_COEFFICIENTS,
    SCENARIO_PRESETS,
    VISUAL_SRT_RANGE,
    CoefficientSet,
    DriverProfile,
    NdrtClass,
    ScenarioSpec,
    TakeoverContext,
    TortbEstimate,
    estimate_tortb,
    ndrtc_lookup,
    round_coefficient,
)
from .simulate import (
    BatchReport,
    Classification,
    EpisodeConfig,
    EpisodeOutcome,
    mix_seed,
    response_onset,
    run_batch,
    run_episode,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules bound by those imports
# are not part of the star-import surface.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
