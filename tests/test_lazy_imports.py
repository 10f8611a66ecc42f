"""The package and the CLI run without numpy, and load each submodule on first use."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tortb
import tortb.cli
from golden_inputs import drive_log_text

# The fresh interpreters import tortb from this tree, and the runner from this directory.
PYTHONPATH = os.pathsep.join([str(Path(tortb.__file__).parents[1]), str(Path(__file__).parent)])

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
import sys
import tortb, tortb.cli
from golden_inputs import run_main
anchors, out = sys.argv[1:]
for argv in (
    ["estimate", "--srt", "0.2", "--experience", "80", "--scenario", "S1",
     "--ndrt", "handsfree", "--ordinal", "1", "--json"],
    ["table", "--json"],
    ["calibrate", "--anchors", anchors, "--out", out],
    ["--help"],
):
    assert run_main(argv)[0] == 0, argv
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
import json, os, sys
import tortb, tortb.cli
from golden_inputs import run_main
config, out = sys.argv[1:]
environ = dict(os.environ)
loaded = {}
for argv in (
    ["simulate", "--config", config, "--out-dir", out],
    ["analyze", "--log", os.path.join(out, "episode_000.csv"), "--json"],
):
    assert run_main(argv)[0] == 0, argv
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps({"numpy": loaded, "environ": dict(os.environ) == environ}))
"""


def run_fresh(code, *args, **env):
    """Stdout of ``python -c code args`` in a new interpreter that imports from
    this tree, with ``env`` added to the environment."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": PYTHONPATH, **env},
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
import json, sys
import tortb, tortb.cli
from golden_inputs import run_main
log, config, out = sys.argv[1:]
unused = {
    "--help": ["tortb.model", "tortb.calibration", "tortb.fileio", "tortb.drivelog",
               "tortb.simulate", "tortb.records", "decimal"],
    "analyze": ["tortb.model", "tortb.calibration", "tortb.fileio", "decimal"],
    "estimate": ["tortb.calibration"],
    "simulate": ["tortb.calibration"],
}
for names in unused.values():
    names += ["dataclasses", "inspect"]
loaded = {}
for argv in (
    ["--help"],
    ["analyze", "--log", log, "--json"],
    ["estimate", "--srt", "0.2", "--experience", "80", "--scenario", "S1",
     "--ndrt", "handsfree", "--ordinal", "1", "--json"],
    ["simulate", "--config", config, "--out-dir", out],
):
    assert run_main(argv)[0] == 0, argv
    loaded[argv[0]] = [name for name in unused[argv[0]] if name in sys.modules]
print(json.dumps(loaded))
"""


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    """``import tortb, tortb.cli`` and ``--help`` load no model, calibration,
    file reader, drive-log module, simulator or record module; analyze loads
    none of the first three; estimate and simulate load no calibration; and
    no command loads ``dataclasses`` or ``inspect``."""
    log, config = tmp_path / "drive.csv", tmp_path / "episodes.json"
    log.write_text(drive_log_text(), encoding="utf-8")
    config.write_text(json.dumps(EPISODES), encoding="utf-8")
    got = json.loads(run_fresh(MODULE_SET_SCRIPT, str(log), str(config), str(tmp_path / "out")))
    assert got == {"--help": [], "analyze": [], "estimate": [], "simulate": []}


# Runs one subcommand, or with no arguments reads every public name of the
# package, then lists the package's modules it loaded.
IMPORTTIME_SCRIPT = """
import json, sys
import tortb, tortb.cli
from golden_inputs import run_main
if sys.argv[1:]:
    assert run_main(sys.argv[1:])[0] == 0, sys.argv
for name in [] if sys.argv[1:] else tortb.__all__:
    getattr(tortb, name)
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "tortb")))
"""


def test_python_x_importtime_lists_every_module_a_command_loads(tmp_path):
    """So does reading each public name of the package.  ``importlib.import_module``,
    and ``from . import x`` through the package's ``__getattr__``, would load a
    module without an ``-X importtime`` line."""
    anchors, log, config = tmp_path / "anchors.json", tmp_path / "drive.csv", tmp_path / "c.json"
    anchors.write_text(json.dumps(ANCHORS), encoding="utf-8")
    log.write_text(drive_log_text(), encoding="utf-8")
    config.write_text(json.dumps(EPISODES), encoding="utf-8")
    for argv in (
        ["estimate", "--srt", "0.2", "--experience", "80", "--scenario", "S1",
         "--ndrt", "handsfree", "--ordinal", "1", "--json"],
        ["calibrate", "--anchors", str(anchors), "--out", str(tmp_path / "out.json")],
        ["analyze", "--log", str(log), "--json"],
        ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")],
        ["table", "--json"],
        [],
    ):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", IMPORTTIME_SCRIPT, *argv],
            env={**os.environ, "PYTHONPATH": PYTHONPATH}, capture_output=True, text=True,
            check=True,
        )
        # Each line ends "| <indent><module name>".
        timed = {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
                 if line.startswith("import time:")}
        loaded = json.loads(done.stdout)
        assert len(loaded) > 3, loaded
        assert [name for name in loaded if name not in timed] == [], argv[:1]


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


# Runs every golden case through the in-process runner with numpy made
# unimportable, then prints the mismatches and what sys.modules holds for numpy.
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # every import of numpy or a submodule now fails
from golden_inputs import golden_mismatches, run_main
print(golden_mismatches(run_main, sys.argv[1]), sys.modules["numpy"])
"""


def test_every_golden_case_runs_with_numpy_hidden(tmp_path):
    """Every golden file, and no other, matches what the CLI prints and writes."""
    assert run_fresh(WITHOUT_NUMPY, str(tmp_path)) == "[] None\n"


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
