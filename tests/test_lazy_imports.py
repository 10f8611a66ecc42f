"""The package and the CLI run without numpy, and load each submodule on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tortb
import tortb.cli
from golden_inputs import GOLDEN, HELP_CASES, STDERR_CASES, STDOUT_CASES, drive_log_text

SRC = str(Path(tortb.__file__).parents[1])

ANCHORS = {"anchors": [{
    "scenario": "S1",
    "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
    "ctx": {"ndrt": "handsfree", "ordinal": 1},
    "known_tortb_s": 7.0,
    "unknown": "c_noa",
}]}

# Runs each subcommand that reads no drive log in one process, lists the
# package's names, then reports which of numpy and the drive-log and
# simulator modules were ever imported.
SCRIPT = """
import contextlib, io, sys
import tortb, tortb.cli
anchors, out = sys.argv[1:]
for argv in (
    ["estimate", "--srt", "0.2", "--experience", "80", "--scenario", "S1",
     "--ndrt", "handsfree", "--ordinal", "1", "--json"],
    ["table", "--json"],
    ["calibrate", "--anchors", anchors, "--out", out],
    ["--help"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = tortb.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, argv
assert set(tortb.__all__) <= set(dir(tortb))
print([name for name in ("numpy", "tortb.drivelog", "tortb.simulate") if name in sys.modules])
"""


EPISODES = {"base_seed": 7, "episodes": [{
    "scenario": "S1",
    "driver": {"srt_s": 0.2, "experience_km_per_wk": 80},
    "ctx": {"ndrt": "handsfree", "ordinal": 1},
    "response_noise_s": 0.5,
}]}

# Runs simulate, then analyze on the log it wrote, in one process; then
# reports whether each loaded numpy and whether the environment changed.
SIMULATE_ANALYZE_SCRIPT = """
import contextlib, io, json, os, sys
import tortb, tortb.cli
config, out = sys.argv[1:]
environ = dict(os.environ)
loaded = {}
for argv in (
    ["simulate", "--config", config, "--out-dir", out],
    ["analyze", "--log", os.path.join(out, "episode_000.csv"), "--json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert tortb.cli.main(argv) == 0, argv
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps({"numpy": loaded, "environ": dict(os.environ) == environ}))
"""


def run_fresh(code, *args, **env):
    """Stdout of ``python -c code args`` in a new interpreter that imports from
    this tree, with ``env`` added to the environment."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, check=True,
    ).stdout


def test_estimate_table_calibrate_and_help_import_no_numpy(tmp_path):
    """Nor the drive-log module or the simulator, which they do not use."""
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps(ANCHORS), encoding="utf-8")
    assert run_fresh(SCRIPT, str(anchors), str(tmp_path / "out.json")) == "[]\n"
    assert (tmp_path / "out.json").exists()


def test_simulate_and_analyze_import_no_numpy_and_leave_the_environment_alone(tmp_path):
    config = tmp_path / "episodes.json"
    config.write_text(json.dumps(EPISODES), encoding="utf-8")
    got = json.loads(run_fresh(SIMULATE_ANALYZE_SCRIPT, str(config), str(tmp_path / "out")))
    assert got == {"numpy": {"simulate": False, "analyze": False}, "environ": True}


# Runs --help, analyze, estimate with the default coefficient set, then
# simulate, in one process; after each, lists which of the modules that
# command must not need are loaded.
MODULE_SET_SCRIPT = """
import contextlib, io, json, sys
import tortb, tortb.cli
log, config, out = sys.argv[1:]
unused = {
    "--help": ["tortb.model", "tortb.calibration", "tortb.fileio", "tortb.drivelog",
               "tortb.simulate", "dataclasses", "decimal"],
    "analyze": ["tortb.model", "tortb.calibration", "tortb.fileio", "decimal"],
    "estimate": ["tortb.calibration"],
    "simulate": ["tortb.calibration"],
}
loaded = {}
for argv in (
    ["--help"],
    ["analyze", "--log", log, "--json"],
    ["estimate", "--srt", "0.2", "--experience", "80", "--scenario", "S1",
     "--ndrt", "handsfree", "--ordinal", "1", "--json"],
    ["simulate", "--config", config, "--out-dir", out],
):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = tortb.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code == 0, argv
    loaded[argv[0]] = [name for name in unused[argv[0]] if name in sys.modules]
print(json.dumps(loaded))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """``import tortb, tortb.cli`` and ``--help`` load no model, calibration,
    file reader, drive-log module or simulator; analyze loads none of the
    first three; estimate and simulate load no calibration."""
    log, config = tmp_path / "drive.csv", tmp_path / "episodes.json"
    log.write_text(drive_log_text(), encoding="utf-8")
    config.write_text(json.dumps(EPISODES), encoding="utf-8")
    got = json.loads(run_fresh(MODULE_SET_SCRIPT, str(log), str(config), str(tmp_path / "out")))
    assert got == {"--help": [], "analyze": [], "estimate": [], "simulate": []}


def test_submodules_resolve_as_attributes_after_a_bare_import():
    """Each is imported on its first access, and the enums the model and the
    calibration re-export are the ones ``tortb.defaults`` defines."""
    assert run_fresh(
        "import tortb\n"
        "print(sorted(tortb.model.SCENARIO_PRESETS),\n"
        "      tortb.calibration.Chaining is tortb.defaults.Chaining is tortb.Chaining,\n"
        "      tortb.model.NdrtClass is tortb.fileio.NdrtClass is tortb.NdrtClass,\n"
        "      tortb.NdrtClass.__module__, tortb.Chaining.__module__,\n"
        "      tortb.drivelog.DriveLog is tortb.DriveLog,\n"
        "      tortb.simulate.run_batch is tortb.run_batch, tortb.cli.main.__module__)"
    ) == "['S1', 'S2', 'S3'] True True tortb.defaults tortb.defaults True True tortb.cli\n"


# Runs every golden CLI case in the directory given, with numpy made
# unimportable, and writes the rendered golden log there.  Prints each
# case's exit code, stdout and stderr, then whether numpy was loaded all the same.
WITHOUT_NUMPY = """
import contextlib, io, json, os, sys

class HideNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, HideNumpy())
tests, workdir = sys.argv[1:]
sys.path.insert(0, tests)
os.chdir(workdir)
os.environ["COLUMNS"] = "80"
import tortb.cli
from golden_inputs import (HELP_CASES, STDERR_CASES, STDOUT_CASES, help_argv,
                           render_golden_log, write_inputs)

write_inputs(".")
cases = {
    **{f"stdout/{name}": argv for name, argv in STDOUT_CASES.items()},
    **{f"help/{name}": help_argv(name) for name in HELP_CASES},
    **{f"stderr/{name}": argv for name, (argv, _) in STDERR_CASES.items()},
}
ran = {}
for name, argv in cases.items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = tortb.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    ran[name] = [code, out.getvalue(), err.getvalue()]
with open("render.csv", "w", encoding="utf-8", newline="") as f:
    f.write(tortb.drive_log_to_csv(render_golden_log()))
print(json.dumps({"cases": ran, "numpy": "numpy" in sys.modules}))
"""


def test_every_golden_case_runs_with_numpy_hidden(tmp_path):
    got = json.loads(run_fresh(WITHOUT_NUMPY, str(Path(__file__).parent), str(tmp_path)))
    assert got["numpy"] is False
    cases = got["cases"]
    assert len(cases) == len(STDOUT_CASES) + len(HELP_CASES) + len(STDERR_CASES)
    for name, (code, out, err) in cases.items():
        kind, _, case = name.partition("/")
        if kind == "stderr":
            assert (code, out, err) == (2, "", STDERR_CASES[case][1]), name
        else:
            assert (code, err) == (0, ""), name
            assert out.encode("utf-8") == (GOLDEN / f"{name}.txt").read_bytes(), name
    written = ["render.csv", "solved.json",
               *(f"simulate/{path.name}" for path in (GOLDEN / "simulate").iterdir())]
    assert sorted(path.name for path in (tmp_path / "simulate").iterdir()) == sorted(
        path.name for path in (GOLDEN / "simulate").iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_star_import_binds_every_public_name():
    """In a fresh process, ``dir`` lists the names not yet loaded, and a star
    import loads and binds every one."""
    assert run_fresh(
        "import tortb\n"
        "listed = set(tortb.__all__) <= set(dir(tortb))\n"
        "from tortb import *\n"
        "print(listed, all(name in globals() for name in tortb.__all__))"
    ) == "True True\n"


def test_unknown_names_raise_attribute_error():
    for module in (tortb, tortb.cli):
        assert not hasattr(module, "no_such_name")
