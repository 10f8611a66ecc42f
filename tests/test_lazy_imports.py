"""The package and the CLI load numpy only for the names and subcommands that use it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tortb
import tortb.cli
from golden_inputs import EPISODES as GOLDEN_EPISODES
from golden_inputs import GOLDEN

SRC = str(Path(tortb.__file__).parents[1])

ANCHORS = {"anchors": [{
    "scenario": "S1",
    "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
    "ctx": {"ndrt": "handsfree", "ordinal": 1},
    "known_tortb_s": 7.0,
    "unknown": "c_noa",
}]}

# Runs each numpy-free subcommand in one process, lists the package's names,
# then reports whether numpy was ever imported.
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
print("numpy" in sys.modules)
"""


EPISODES = {"base_seed": 7, "episodes": [{
    "scenario": "S1",
    "driver": {"srt_s": 0.2, "experience_km_per_wk": 80},
    "ctx": {"ndrt": "handsfree", "ordinal": 1},
    "response_noise_s": 0.5,
}]}

# Runs simulate, then analyze on the log it wrote, in one process; then
# reports what each loaded, the BLAS thread setting and the thread count.
NUMPY_SCRIPT = """
import contextlib, io, json, os, sys
import tortb, tortb.cli
config, out = sys.argv[1:]
loaded = {}
for argv in (
    ["simulate", "--config", config, "--out-dir", out],
    ["analyze", "--log", os.path.join(out, "episode_000.csv"), "--json"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        assert tortb.cli.main(argv) == 0, argv
    loaded[argv[0]] = "numpy" in sys.modules
print(json.dumps({
    "numpy": loaded,
    "numpy.random": "numpy.random" in sys.modules,
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    "threads": len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None,
}))
"""


def run_fresh(code, *args, **env):
    """Stdout of ``python -c code args`` in a new interpreter that imports from
    this tree, with ``OPENBLAS_NUM_THREADS`` unset unless given in ``env``.

    In-process ``cli.main`` calls elsewhere in the suite set that variable in
    this process, so it is dropped from the copied environment.
    """
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run(
        [sys.executable, "-c", code, *args], env={**base, "PYTHONPATH": SRC, **env},
        capture_output=True, text=True, check=True,
    ).stdout


def test_estimate_table_calibrate_and_help_import_no_numpy(tmp_path):
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps(ANCHORS), encoding="utf-8")
    assert run_fresh(SCRIPT, str(anchors), str(tmp_path / "out.json")) == "False\n"
    assert (tmp_path / "out.json").exists()


# Runs the golden simulate case in the directory given, with numpy made
# unimportable, then reports whether numpy was loaded all the same.
WITHOUT_NUMPY = """
import os, sys

class HideNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, HideNumpy())
os.chdir(sys.argv[1])
import tortb.cli
code = tortb.cli.main(["simulate", "--config", "episodes.json", "--out-dir", "simulate"])
print("numpy" in sys.modules)
sys.exit(code)
"""


def test_golden_simulate_case_runs_with_numpy_hidden(tmp_path):
    (tmp_path / "episodes.json").write_text(json.dumps(GOLDEN_EPISODES), encoding="utf-8")
    stdout = run_fresh(WITHOUT_NUMPY, str(tmp_path))
    assert stdout == (GOLDEN / "stdout/simulate.txt").read_text(encoding="utf-8") + "False\n"
    written = sorted(path.name for path in (tmp_path / "simulate").iterdir())
    assert written == sorted(path.name for path in (GOLDEN / "simulate").iterdir())
    for name in written:
        expected = (GOLDEN / "simulate" / name).read_bytes()
        assert (tmp_path / "simulate" / name).read_bytes() == expected, name


def test_simulate_and_analyze_run_one_blas_thread_and_no_numpy_random(tmp_path):
    config = tmp_path / "episodes.json"
    config.write_text(json.dumps(EPISODES), encoding="utf-8")
    got = json.loads(run_fresh(NUMPY_SCRIPT, str(config), str(tmp_path / "out")))
    # simulate alone loads no numpy; analyze does, without numpy.random.
    assert got["numpy"] == {"simulate": False, "analyze": True}
    assert not got["numpy.random"]
    assert got["OPENBLAS_NUM_THREADS"] == "1"
    if sys.platform == "linux":
        assert got["threads"] == 1


def test_cli_keeps_a_blas_thread_count_the_user_set(tmp_path):
    config = tmp_path / "episodes.json"
    config.write_text(json.dumps(EPISODES), encoding="utf-8")
    got = json.loads(run_fresh(NUMPY_SCRIPT, str(config), str(tmp_path / "out"),
                               OPENBLAS_NUM_THREADS="3"))
    assert got["OPENBLAS_NUM_THREADS"] == "3"


def test_library_leaves_the_environment_alone():
    """Only ``cli.main`` sets ``OPENBLAS_NUM_THREADS``; importing the package
    and loading a numpy-backed name must not."""
    assert run_fresh(
        "import os, tortb\n"
        "tortb.parse_drive_log\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    ) == "None\n"


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
