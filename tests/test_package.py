"""The package's public surface."""

import tortb


def test_public_names():
    assert sorted(tortb.__all__) == [
        "AnchorCase", "CalibrationResult", "Chaining", "Classification",
        "CoefficientSet", "DEFAULT_COEFFICIENTS", "DependencyOrderError", "DriveLog",
        "DriverProfile", "EmptyGroup", "EpisodeConfig", "EpisodeOutcome",
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
