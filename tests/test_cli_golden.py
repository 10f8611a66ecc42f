"""Byte-level golden outputs of the CLI.

Each case runs one subcommand on fixed inputs and compares what it prints
or writes, byte for byte, with a file under ``tests/golden/``.  Any change
to a number, a key, the key order or the whitespace of a valid output
fails here with a unified diff, so refactors that must keep outputs
byte-identical are checked by this file.  ``tests/golden/SHA256SUMS``
pins the digest of every golden file as well, so a re-record has to be
declared in both places.
"""

import difflib
import hashlib
import json
import random

import pytest

from tortb.cli import main
from tortb.drivelog import DriveLog, drive_log_to_csv

from golden_inputs import ANCHORS, EPISODES, GOLDEN


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


def _escaped_lines(data: bytes) -> list[str]:
    """``data`` split at LF only, each line escaped so a CR or a bad byte shows."""
    text = data.decode("utf-8", "backslashreplace")
    return [line.encode("unicode_escape").decode("ascii") + "\n" for line in text.split("\n")]


def assert_golden(name: str, actual: bytes) -> None:
    """Fail with a unified diff unless ``actual`` is the bytes of ``tests/golden/<name>``."""
    expected = (GOLDEN / name).read_bytes()
    if actual != expected:
        diff = difflib.unified_diff(_escaped_lines(expected), _escaped_lines(actual),
                                    f"tests/golden/{name}", f"{name} as written now")
        pytest.fail(f"output differs from tests/golden/{name}:\n{''.join(diff)}",
                    pytrace=False)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """Run in an empty directory so relative paths in outputs are fixed."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "anchors.json").write_text(json.dumps(ANCHORS), encoding="utf-8")
    (tmp_path / "episodes.json").write_text(json.dumps(EPISODES), encoding="utf-8")
    (tmp_path / "drive.csv").write_text(drive_log_text(), encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_golden(name, workdir, capsys):
    assert main(STDOUT_CASES[name]) == 0
    assert_golden(f"stdout/{name}.txt", capsys.readouterr().out.encode("utf-8"))


@pytest.mark.parametrize("name", HELP_CASES)
def test_help_golden(name, monkeypatch, capsys):
    # argparse wraps help text to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(["--help"] if name == "tortb" else [name, "--help"])
    assert info.value.code == 0
    assert_golden(f"help/{name}.txt", capsys.readouterr().out.encode("utf-8"))


@pytest.mark.parametrize("name", sorted(STDERR_CASES))
def test_stderr_bytes(name, workdir, capsys):
    argv, expected = STDERR_CASES[name]
    (workdir / "no_tor.csv").write_text(
        "t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,0\n", encoding="utf-8")
    assert main(argv) == 2
    assert capsys.readouterr() == ("", expected)


def test_written_files(workdir, capsys):
    assert main(STDOUT_CASES["calibrate_json"]) == 0
    assert main(STDOUT_CASES["simulate"]) == 0
    capsys.readouterr()
    # The three episodes end late, success and collision, in that order.
    names = sorted(path.name for path in (workdir / "simulate").iterdir())
    assert names == sorted(path.name for path in (GOLDEN / "simulate").iterdir())
    for name in ["solved.json"] + [f"simulate/{name}" for name in names]:
        assert_golden(name, (workdir / name).read_bytes())


def test_render_golden():
    assert_golden("render.csv", drive_log_to_csv(render_golden_log()).encode("utf-8"))


def test_golden_files_match_sha256sums():
    """Every golden file, and no other, is listed in SHA256SUMS with its digest."""
    listed = {}
    for line in (GOLDEN / "SHA256SUMS").read_text(encoding="ascii").splitlines():
        digest, name = line.split("  ", 1)
        listed[name] = digest
    found = {
        path.relative_to(GOLDEN).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(GOLDEN.rglob("*"))
        if path.is_file() and path.name not in ("SHA256SUMS", ".gitattributes")
    }
    assert found == listed
