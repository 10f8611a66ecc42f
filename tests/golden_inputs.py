"""The golden CLI cases, their inputs, and the one checker of their outputs.

Imports no numpy.  :func:`golden_mismatches` runs every case through a
runner, such as the in-process :func:`run_main`, and compares what it
prints and writes, byte for byte, with the files under ``tests/golden/``.

Run as a script, ``python tests/golden_inputs.py`` checks the ``tortb``
command on ``PATH`` in a temporary directory, prints each mismatch, and
exits 1 if there is any.  Each relative ``PYTHONPATH`` entry is taken from
the directory the script starts in, so ``PYTHONPATH=src python
tests/golden_inputs.py`` works from the repository root.  With no
``tortb`` on ``PATH``, or with no ``tortb`` package to import, it prints
one line saying so and exits 2.
"""

import contextlib
import functools
import io
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

try:
    from tortb.cli import main
except ImportError as exc:
    # Run as a script, a tortb that cannot be imported is a usage error, as a
    # missing tortb command is.
    if __name__ != "__main__":
        raise
    print(f"error: cannot import tortb: {exc}", file=sys.stderr)
    sys.exit(2)

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

# The three episodes end late, success and collision, in that order.
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


def render_golden_log():
    """A 41-sample DriveLog of noisy floats and SPECIAL_VALUES, TOR at sample 20."""
    from tortb.drivelog import DriveLog  # only here, so ``import golden_inputs`` loads no drivelog

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
HELP_CASES = {**{name: [name, "--help"] for name in (
    "analyze", "calibrate", "estimate", "simulate", "table")}, "tortb": ["--help"]}

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
    "simulate_bad_config": (
        ["simulate", "--config", "bad_episodes.json", "--out-dir", "simulate"],
        "error: bad_episodes.json: episodes[0]: driver: srt_s must be within [0, 1], got 5.0\n",
    ),
}

NO_TOR_LOG = "t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,0\n"

# One episode whose driver's srt_s is out of range: a fault of a nested file record.
BAD_EPISODES = {"episodes": [{**EPISODES["episodes"][0],
                              "driver": {"srt_s": 5, "experience_km_per_wk": 20}}]}


def write_inputs(directory: Path) -> None:
    """Write the files the cases read into ``directory``."""
    directory = Path(directory)
    (directory / "anchors.json").write_text(json.dumps(ANCHORS), encoding="utf-8")
    (directory / "episodes.json").write_text(json.dumps(EPISODES), encoding="utf-8")
    (directory / "bad_episodes.json").write_text(json.dumps(BAD_EPISODES), encoding="utf-8")
    (directory / "drive.csv").write_text(drive_log_text(), encoding="utf-8")
    (directory / "no_tor.csv").write_text(NO_TOR_LOG, encoding="utf-8")


def run_main(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout bytes and stderr bytes of ``tortb.cli.main(argv)``, ``--help``
    included.  ``main`` writes through ``sys.stdout.buffer``, as in a real process."""
    out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="\n") for _ in range(2))
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.detach().getvalue(), err.detach().getvalue()


def golden_mismatches(run, workdir: str | Path) -> list[str]:
    """Every way the outputs of ``run`` differ from the golden files, one line each.

    Writes the inputs into ``workdir`` and runs every case there with
    ``COLUMNS=80`` through ``run``, which gives the exit code, stdout and
    stderr of its arguments; the working directory and environment are
    restored.  Compares each exit code and both streams, then
    ``solved.json``, the files under ``simulate/`` and the rendered golden
    log.  A golden file that no case compares is a mismatch too.
    """
    from tortb.drivelog import drive_log_to_csv

    workdir = Path(workdir)
    write_inputs(workdir)
    cases = {**{f"stdout/{name}.txt": argv for name, argv in STDOUT_CASES.items()},
             **{f"help/{name}.txt": argv for name, argv in HELP_CASES.items()},
             **{name: argv for name, (argv, _) in STDERR_CASES.items()}}
    cwd, environ = os.getcwd(), os.environ.copy()
    os.chdir(workdir)
    os.environ["COLUMNS"] = "80"
    try:
        ran = {name: run(argv) for name, argv in cases.items()}
    finally:
        os.chdir(cwd)
        os.environ.clear()
        os.environ.update(environ)

    mismatches = []
    written = {"render.csv": drive_log_to_csv(render_golden_log()).encode("utf-8")}
    for name, (code, out, err) in ran.items():
        if name in STDERR_CASES:
            if (code, out, err) != (2, b"", STDERR_CASES[name][1].encode("utf-8")):
                mismatches.append(f"STDERR_CASES[{name!r}]: exit {code}, {out=}, {err=}")
        else:
            written[name] = out
            if (code, err) != (0, b""):
                mismatches.append(f"tests/golden/{name}: exit {code}, {err=}")
    for path in [workdir / "solved.json", *sorted((workdir / "simulate").glob("*"))]:
        if path.is_file():
            written[path.relative_to(workdir).as_posix()] = path.read_bytes()
    golden = {path.relative_to(GOLDEN).as_posix(): path.read_bytes()
              for path in GOLDEN.rglob("*") if path.is_file() and path.name != ".gitattributes"}
    for name in sorted(golden.keys() | written.keys()):
        if name not in written:
            mismatches.append(f"tests/golden/{name}: no case writes it")
        elif name not in golden:
            mismatches.append(f"tests/golden/{name}: missing, though a case writes it")
        elif written[name] != golden[name]:
            line = os.path.commonprefix([written[name], golden[name]]).count(b"\n") + 1
            mismatches.append(f"tests/golden/{name}: differs from line {line}")
    return mismatches


def _run_tortb(command: str, pythonpath: str | None, argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stdout and stderr of ``command`` with ``argv``, in the current
    directory and environment, with ``PYTHONPATH`` set to ``pythonpath`` unless it is None."""
    env = os.environ if pythonpath is None else {**os.environ, "PYTHONPATH": pythonpath}
    done = subprocess.run([command, *argv], capture_output=True, env=env)
    return done.returncode, done.stdout, done.stderr


if __name__ == "__main__":
    command = shutil.which("tortb")
    if command is None:
        print("error: no tortb command on PATH", file=sys.stderr)
        sys.exit(2)
    # The cases run in a temporary directory, so each path is made absolute here.
    pythonpath = os.environ.get("PYTHONPATH")
    if pythonpath is not None:
        pythonpath = os.pathsep.join(map(os.path.abspath, pythonpath.split(os.pathsep)))
    run = functools.partial(_run_tortb, os.path.abspath(command), pythonpath)
    with tempfile.TemporaryDirectory() as workdir:
        found = golden_mismatches(run, Path(workdir))
    for line in found:
        print(line)
    print(f"{len(found)} mismatches")
    sys.exit(1 if found else 0)
