"""The golden CLI cases and their inputs, in a module that imports no numpy.

``tests/test_cli_golden.py`` runs the cases in process;
``tests/test_lazy_imports.py`` runs them in a fresh interpreter that cannot
import numpy.  Run as a script, ``python tests/golden_inputs.py DIR``
writes the inputs into ``DIR`` and the stderr each rejection must print
into ``DIR/<name>.err``, and prints one case a line: its kind (``stdout``,
``help`` or ``stderr``), its name, then the ``tortb`` arguments.  The
outputs of the ``stdout`` and ``help`` cases are the files
``tests/golden/<kind>/<name>.txt``.
"""

import json
import random
import sys
from pathlib import Path

from tortb.drivelog import DriveLog

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


def drive_log_text() -> str:
    """A 15 s, 20 Hz log of full-precision noisy floats.

    Steering holds a nonzero baseline with noise below the 5 % threshold
    and steps by 0.2 two seconds after the TOR at t = 5 s.
    """
    rng = random.Random(20240)
    lines = ["t,lat_disp,acc,steering,brake,tor_flag"]
    for i in range(301):
        t = i / 20
        steering = 0.3 + rng.uniform(-0.01, 0.01) + (0.2 if t >= 7.0 else 0.0)
        brake = max(0.0, (t - 7.5) * 0.4) + rng.uniform(0.0, 0.005)
        lines.append(",".join(
            [repr(t), repr(rng.gauss(0.0, 0.05)), repr(rng.gauss(0.0, 0.1)),
             repr(steering), repr(brake), "1" if i == 100 else "0"]))
    return "\n".join(lines) + "\n"


# Values whose shortest repr is not plain fixed-point, each set into every
# value channel at its own sample, so every column carries both zeros.
SPECIAL_VALUES = (-0.0, 0.0, 1e-05, 1e16, 1.5e-07, 5e-324, 2.2250738585072014e-308,
                  1e308, -1e308, 1.2345678901234568e17, 0.1 + 0.2, -2.5e-10)


def render_golden_log() -> DriveLog:
    """A 41-sample log of noisy floats and SPECIAL_VALUES, TOR at sample 20."""
    rng = random.Random(5150)
    n = 41
    channels = [[rng.gauss(0.0, 1.0) for _ in range(n)] for _ in range(4)]
    for column, channel in enumerate(channels):
        for k, value in enumerate(SPECIAL_VALUES):
            channel[(3 * k + column) % n] = value
    t = [(1000 + i) / 20 for i in range(n)]
    return DriveLog(t=t, lateral_displacement=channels[0], acceleration=channels[1],
                    steering=channels[2], brake=channels[3], tor_time=t[20])


STDOUT_CASES = {
    "analyze_json": ["analyze", "--log", "drive.csv", "--json"],
    "table": ["table"],
    "table_json": ["table", "--json"],
    "estimate_preset_json": [
        "estimate", "--scenario", "S3", "--srt", "0.3", "--experience", "20",
        "--ndrt", "handheld", "--ordinal", "2", "--json",
    ],
    "estimate_explicit_raw_json": [
        "estimate", "--srt", "0.22", "--experience", "45.5",
        "--noa", "3", "--noj", "1", "--ego-speed", "120", "--hazard-speed", "35",
        "--ndrt", "handsfree", "--ordinal", "1", "--coeffs", "raw", "--json",
    ],
    "calibrate_json": [
        "calibrate", "--anchors", "anchors.json", "--out", "solved.json", "--json",
    ],
    # Text forms. The srt of 0.3 s is outside the typical visual range, so
    # the estimate also prints its warning line.
    "analyze": ["analyze", "--log", "drive.csv"],
    "estimate_srt_warning": [
        "estimate", "--scenario", "S3", "--srt", "0.3", "--experience", "20",
        "--ndrt", "handheld", "--ordinal", "2",
    ],
    "calibrate": ["calibrate", "--anchors", "anchors.json", "--out", "solved.json"],
    "simulate": ["simulate", "--config", "episodes.json", "--out-dir", "simulate"],
    # An explicit scenario has no label, so no "scenario:" line.
    "estimate_explicit": [
        "estimate", "--srt", "0.22", "--experience", "45.5",
        "--noa", "3", "--noj", "1", "--ego-speed", "120", "--hazard-speed", "35",
        "--ndrt", "handsfree", "--ordinal", "1", "--coeffs", "raw",
    ],
}

# The --help text of tortb and of each subcommand, wrapped at 80 columns.
HELP_CASES = ("analyze", "calibrate", "estimate", "simulate", "table", "tortb")

# Rejections: the exact stderr bytes, with nothing on stdout and exit 2.
STDERR_CASES = {
    "estimate_preset_with_flags": (
        ["estimate", "--srt", "0.2", "--experience", "80", "--scenario", "S1",
         "--noa", "1", "--ego-speed", "80", "--ndrt", "handsfree", "--ordinal", "1"],
        "error: --scenario cannot be combined with --noa/--ego-speed\n",
    ),
    "estimate_no_scenario": (
        ["estimate", "--srt", "0.2", "--experience", "80", "--noa", "1",
         "--ndrt", "handsfree", "--ordinal", "1"],
        "error: provide --scenario, or --noa and --ego-speed\n",
    ),
    "analyze_unparsable_log": (
        ["analyze", "--log", "no_tor.csv"],
        "error: no_tor.csv: no row carries tor_flag=1\n",
    ),
}

NO_TOR_LOG = "t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,0\n"


def write_inputs(directory: Path) -> None:
    """Write the files the cases read into ``directory``."""
    directory = Path(directory)
    (directory / "anchors.json").write_text(json.dumps(ANCHORS), encoding="utf-8")
    (directory / "episodes.json").write_text(json.dumps(EPISODES), encoding="utf-8")
    (directory / "drive.csv").write_text(drive_log_text(), encoding="utf-8")
    (directory / "no_tor.csv").write_text(NO_TOR_LOG, encoding="utf-8")


def help_argv(name: str) -> list[str]:
    """The arguments of the help case ``name``."""
    return ["--help"] if name == "tortb" else [name, "--help"]


if __name__ == "__main__":
    out = Path(sys.argv[1])
    write_inputs(out)
    for name, argv in STDOUT_CASES.items():
        print("stdout", name, *argv)
    for name in HELP_CASES:
        print("help", name, *help_argv(name))
    for name, (argv, expected) in STDERR_CASES.items():
        (out / f"{name}.err").write_text(expected, encoding="utf-8")
        print("stderr", name, *argv)
