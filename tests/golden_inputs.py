"""The inputs of the golden CLI cases, in a module that imports no numpy.

``tests/test_cli_golden.py`` runs them in process; the numpy-free checks
write them to files and run ``tortb`` in a fresh interpreter.
"""

from pathlib import Path

GOLDEN = Path(__file__).parent / "golden"

ANCHORS = {
    "anchors": [
        {
            "scenario": "S1",
            "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
            "ctx": {"ndrt": "handsfree", "ordinal": 1},
            "known_tortb_s": 7.0,
            "unknown": "c_noa",
        },
        {
            "scenario": "S3",
            "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
            "ctx": {"ndrt": "handsfree", "ordinal": 1},
            "known_tortb_s": 7.0,
            "unknown": "c_noj",
        },
    ]
}

EPISODES = {
    "base_seed": 11,
    "episodes": [
        {
            "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
            "scenario": "S1",
            "ctx": {"ndrt": "handsfree", "ordinal": 1},
            "response_noise_s": 0.5,
        },
        {
            "driver": {"srt_s": 0.25, "experience_km_per_wk": 150},
            "scenario": {"noa": 1, "noj": 2, "ego_speed_km_per_hr": 100,
                         "hazard_speed_km_per_hr": 30, "label": "inline"},
            "ctx": {"ndrt": "handheld", "ordinal": 2},
            "budget_driver": {"srt_s": 0.2, "experience_km_per_wk": 80},
            "response_noise_s": 1.25,
            "maneuver_duration_s": 1.5,
        },
        {
            "driver": {"srt_s": 0.2, "experience_km_per_wk": 80},
            "scenario": "S3",
            "ctx": {"ndrt": "handsfree", "ordinal": 3},
            "deadline_mode": "explicit",
            "explicit_deadline_s": 4.0,
        },
    ],
}
