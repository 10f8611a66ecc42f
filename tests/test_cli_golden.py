"""Byte-level golden outputs of the CLI, one test per case.

Each case runs one subcommand on fixed inputs through ``run_main`` and
compares what it prints or writes, byte for byte, with a file under
``tests/golden/``, with a unified diff on failure.  ``golden_mismatches``
checks the same files in one pass, and names any golden file no case
compares; ``tests/test_lazy_imports.py`` runs it with numpy hidden, and
the last tests here run it as a script.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tortb
from tortb.drivelog import drive_log_to_csv

from golden_inputs import (GOLDEN, HELP_CASES, STDERR_CASES, STDOUT_CASES, render_golden_log,
                           run_main, write_inputs)


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
    """Run in a directory of the case inputs, so relative paths in outputs are fixed."""
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    return tmp_path


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_stdout_golden(name, workdir):
    code, out, err = run_main(STDOUT_CASES[name])
    assert (code, err) == (0, b"")
    assert_golden(f"stdout/{name}.txt", out)


@pytest.mark.parametrize("name", HELP_CASES)
def test_help_golden(name, monkeypatch):
    # argparse wraps help text to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_main(HELP_CASES[name])
    assert (code, err) == (0, b"")
    assert_golden(f"help/{name}.txt", out)


@pytest.mark.parametrize("name", sorted(STDERR_CASES))
def test_stderr_bytes(name, workdir):
    argv, expected = STDERR_CASES[name]
    assert run_main(argv) == (2, b"", expected.encode("utf-8"))


def test_written_files(workdir):
    for argv in (STDOUT_CASES["calibrate_json"], STDOUT_CASES["simulate"]):
        assert run_main(argv)[0] == 0
    names = sorted(path.name for path in (workdir / "simulate").iterdir())
    assert names == sorted(path.name for path in (GOLDEN / "simulate").iterdir())
    for name in ["solved.json"] + [f"simulate/{name}" for name in names]:
        assert_golden(name, (workdir / name).read_bytes())


def test_render_golden():
    assert_golden("render.csv", drive_log_to_csv(render_golden_log()).encode("utf-8"))


REPO = Path(__file__).parents[1]


def run_checker_script(path: Path) -> subprocess.CompletedProcess:
    """``python tests/golden_inputs.py`` from the repository root, with ``PATH`` set to
    ``path`` and a relative ``PYTHONPATH`` to the tortb package, as in ``PYTHONPATH=src``."""
    env = {**os.environ, "PATH": str(path),
           "PYTHONPATH": os.path.relpath(Path(tortb.__file__).parents[1], REPO)}
    return subprocess.run([sys.executable, "tests/golden_inputs.py"], cwd=REPO, env=env,
                          capture_output=True, check=False)


def test_the_checker_script_takes_a_relative_pythonpath_from_where_it_starts(tmp_path):
    """The cases run in a temporary directory, yet ``tortb`` still imports."""
    shim = tmp_path / "tortb"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m tortb.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    done = run_checker_script(tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"0 mismatches\n", b"")


def test_the_checker_script_names_a_missing_tortb_command(tmp_path):
    done = run_checker_script(tmp_path)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, b"", b"error: no tortb command on PATH\n")


def test_the_checker_script_names_a_tortb_it_cannot_import():
    """``-I -S`` leave neither ``PYTHONPATH`` nor any site-packages on ``sys.path``."""
    done = subprocess.run([sys.executable, "-I", "-S", "tests/golden_inputs.py"], cwd=REPO,
                          capture_output=True, check=False)
    assert (done.returncode, done.stdout, done.stderr) == (
        2, b"", b"error: cannot import tortb: No module named 'tortb'\n")
