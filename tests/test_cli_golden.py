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

import pytest

from tortb.cli import main
from tortb.drivelog import drive_log_to_csv

from golden_inputs import (GOLDEN, HELP_CASES, STDERR_CASES, STDOUT_CASES, help_argv,
                           render_golden_log, write_inputs)


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
def test_stdout_golden(name, workdir, capsys):
    assert main(STDOUT_CASES[name]) == 0
    assert_golden(f"stdout/{name}.txt", capsys.readouterr().out.encode("utf-8"))


@pytest.mark.parametrize("name", HELP_CASES)
def test_help_golden(name, monkeypatch, capsys):
    # argparse wraps help text to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as info:
        main(help_argv(name))
    assert info.value.code == 0
    assert_golden(f"help/{name}.txt", capsys.readouterr().out.encode("utf-8"))


@pytest.mark.parametrize("name", sorted(STDERR_CASES))
def test_stderr_bytes(name, workdir, capsys):
    argv, expected = STDERR_CASES[name]
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
