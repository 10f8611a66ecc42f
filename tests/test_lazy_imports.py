"""The package and the CLI load numpy only for the names and subcommands that use it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import tortb
import tortb.cli

SRC = str(Path(tortb.__file__).parents[1])

ANCHORS = {"anchors": [{
    "scenario": "S1",
    "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
    "ctx": {"ndrt": "handsfree", "ordinal": 1},
    "known_tortb_s": 7.0,
    "unknown": "c_noa",
}]}

# Runs each numpy-free subcommand in one process, then reports whether numpy
# was ever imported.
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
print("numpy" in sys.modules)
"""


def run_fresh(code, *args):
    """Stdout of ``python -c code args`` in a new interpreter that imports from this tree."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True, check=True,
    ).stdout


def test_estimate_table_calibrate_and_help_import_no_numpy(tmp_path):
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps(ANCHORS), encoding="utf-8")
    assert run_fresh(SCRIPT, str(anchors), str(tmp_path / "out.json")) == "False\n"
    assert (tmp_path / "out.json").exists()


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
