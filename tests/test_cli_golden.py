"""Byte-level golden outputs of the CLI.

Each case runs one subcommand on fixed inputs and compares the sha256 of
what it prints or writes against a digest recorded from a known-good
build.  Any change to a number, a key, the key order or the whitespace of
a valid output fails here, so refactors that must keep outputs
byte-identical are checked by this file.
"""

import hashlib
import json
import random

import pytest

from tortb.cli import main
from tortb.drivelog import DriveLog, drive_log_to_csv

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


RENDER_DIGEST = "67868f20e278f71ab361ed29bfb486ec04245d09ba9772f4c5cf5aee9a6eb0fc"

STDOUT_DIGESTS = {
    "analyze_json": "bdc76581af4c6df765c9faafc5b0e1ea43593d6a3fae1483342397f1a00d19a0",
    "table": "79a6015138ca32d9abe622d5e74370b9c3e2edb98887af8d806d5dc8ce8e113a",
    "table_json": "2fbee3b5e572efb90b5e931fcdfac686d9bba916abda354deaa779f963ac5496",
    "estimate_preset_json": "70958367314e55486a0a7a1d742272c538829eec65b888e73dbe5efd095620e5",
    "estimate_explicit_raw_json": "22273f059b927c8f9f6eb166f6f98de51059899583e52248f9c8db2ad881e222",
    "calibrate_json": "6cd51fe1994e61a81097dca65be74c321c14e634445652372decfcda790d9575",
    "analyze": "506ceed74227e54f0c6c8ac3ebc1d3fae1484160762a368f590484945b1e1472",
    "estimate_srt_warning": "913c645fce756e2ce1c40fb15cbaaa98c64371b774c8f70f985f547893182b96",
    "calibrate": "018bc53f561d3a1d6a257675c97c35d3f25e403afdc134d8241dbf20113d124d",
    "simulate": "36f33766184266140f77b44d99d0c530cbd30d88e180fa1075e3d9ce3808ff07",
    "estimate_explicit": "07f3158e1c99ae312deaa4151ecb45a013fda0a94c213b5bd910fed858906eec",
}

# The three episodes end late, success and collision, in that order.
FILE_DIGESTS = {
    "solved.json": "40db88ecd4fd4ec20a62fe68dc78f969eef562b3d5f14e400427585d33b47e9d",
    "simulate/episode_000.csv": "2f7eef7ee182a81eff012b32419bf08a9cba2119320438a3faabe5d05a3a6874",
    "simulate/episode_001.csv": "567c8284a3d375578da4f8cf5a77dcd55f80ef33a6bbc36aa515947de059889e",
    "simulate/episode_002.csv": "849100e9fcf01269ac25c213e80e6f3fb0bde939f157275b70a8929b4404ed4b",
    "simulate/report.json": "76580655a2cdd0473865ddf49fe55d7cc7f913e914c21225bca8f355746709f6",
}

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
HELP_DIGESTS = {
    "tortb": "737c5d0f6bd56c97a49ce50075835bdb84e028031388aad2495ceefe30107454",
    "estimate": "a535cd5965aed6cb622bd08be3c3730936112fbb9eae45d0aa9f5acccc677490",
    "calibrate": "8690fa6da256fd2520359176a22519c6edf5f972fc388d3e1925512316763027",
    "analyze": "875410cdf7e62e43958f5808dcc4606dc279a7d2fe4b8dd3f2968369b4853933",
    "simulate": "cefb5e636fe012a32506436d736ab6e6d5717cf514fb4155eee33d3a8002263c",
    "table": "998fdb39a9800f8c51da98b59460ac054097a31c0338c52d95f7919b6ff933fa",
}

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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Run in an empty directory so relative paths in outputs are fixed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "anchors.json").write_text(json.dumps(ANCHORS), encoding="utf-8")
    (tmp_path / "episodes.json").write_text(json.dumps(EPISODES), encoding="utf-8")
    (tmp_path / "drive.csv").write_text(drive_log_text(), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_digest(name, workdir, capsys):
    assert main(STDOUT_CASES[name]) == 0
    out = capsys.readouterr().out
    assert sha256(out.encode("utf-8")) == STDOUT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(HELP_DIGESTS))
def test_help_digest(name, monkeypatch, capsys):
    # argparse wraps help text to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["--help"] if name == "tortb" else [name, "--help"])
    assert info.value.code == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == HELP_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(STDERR_CASES))
def test_stderr_bytes(name, workdir, capsys):
    argv, expected = STDERR_CASES[name]
    (workdir / "no_tor.csv").write_text(
        "t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,0\n", encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", expected)


def test_written_file_digests(workdir, capsys):
    assert main(STDOUT_CASES["calibrate_json"]) == 0
    assert main(["simulate", "--config", "episodes.json", "--out-dir", "simulate"]) == 0
    capsys.readouterr()
    written = {"solved.json": sha256((workdir / "solved.json").read_bytes())}
    for path in sorted((workdir / "simulate").iterdir()):
        written[f"simulate/{path.name}"] = sha256(path.read_bytes())
    assert written == FILE_DIGESTS


def test_render_digest():
    text = drive_log_to_csv(render_golden_log())
    assert sha256(text.encode("utf-8")) == RENDER_DIGEST
