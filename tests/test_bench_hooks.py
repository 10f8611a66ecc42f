"""The traced benchmark runs (bench/child.py) time layers by replacing these
module attributes with wrappers, so each must stay a module-level name."""

import importlib

import pytest

PATCHED = [
    ("tortb.cli", "run_batch"),
    ("tortb.cli", "drive_log_to_csv"),
    ("tortb.cli", "estimate_tortb"),
    ("tortb.cli", "table_rows"),
    ("tortb.cli", "Path"),
    ("tortb.simulate", "run_episode"),
    ("tortb.simulate", "estimate_tortb"),
    ("tortb.simulate", "DriveLog"),
    ("tortb.calibration", "estimate_tortb"),
    ("tortb.fileio", "load_episode_configs"),
    ("tortb.drivelog", "DriveLog"),
]


@pytest.mark.parametrize("module,attr", PATCHED)
def test_patched_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)
