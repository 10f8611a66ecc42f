"""End-to-end tests for the command-line interface."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tortb
import tortb.cli
from tortb import DEFAULT_COEFFICIENTS, estimate_tortb
from tortb import fileio
from tortb.cli import main
from tortb.records import replace
from tortb.stats import describe

from golden_inputs import run_main, write_inputs

GOLDEN_TORTB = (4.1, 6.5, 6.55, 8.7, 1.75, 2.5)


def run_cli(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


ROW1_FLAGS = [
    "estimate",
    "--srt", "0.2", "--experience", "80",
    "--noa", "1", "--noj", "0", "--ego-speed", "80", "--hazard-speed", "0",
    "--ndrt", "handsfree", "--ordinal", "1",
]


def write_anchors(path):
    payload = {
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
    path.write_text(json.dumps(payload), encoding="utf-8")


def write_episode_config(path, noise=0.0, base_seed=None, deadline=None):
    episode = {
        "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
        "scenario": "S1",
        "ctx": {"ndrt": "handsfree", "ordinal": 1},
        "response_noise_s": noise,
    }
    if deadline is not None:
        episode.update(deadline_mode="explicit", explicit_deadline_s=deadline)
    payload = {"episodes": [episode, dict(episode, scenario="S3")]}
    if base_seed is not None:
        payload["base_seed"] = base_seed
    path.write_text(json.dumps(payload), encoding="utf-8")


# ------------------------------- estimate --------------------------------


def test_estimate_reference_row(capsys):
    code, out, _ = run_cli(ROW1_FLAGS, capsys)
    assert code == 0
    assert "4.100" in out


def test_estimate_json_round_trip(capsys):
    code, out, _ = run_cli(ROW1_FLAGS + ["--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["total_s"] == pytest.approx(4.1, abs=0.001)
    # Re-estimating from the emitted inputs reproduces the same total.
    driver = fileio.driver_from_dict(payload["inputs"]["driver"])
    scenario = fileio.scenario_from_dict(payload["inputs"]["scenario"])
    ctx = fileio.context_from_dict(payload["inputs"]["ctx"])
    coeffs = fileio.coefficients_from_dict(payload["inputs"]["coefficients"])
    assert estimate_tortb(driver, scenario, ctx, coeffs).total == payload["total_s"]


def test_estimate_missing_ordinal_exits_2(capsys):
    code, _, err = run_cli(ROW1_FLAGS[:-2], capsys)
    assert code == 2
    assert "--ordinal" in err


def test_estimate_preset_vs_explicit_flags(capsys):
    code, _, err = run_cli(
        ["estimate", "--srt", "0.2", "--experience", "80", "--scenario", "S1",
         "--noa", "1", "--ndrt", "handsfree", "--ordinal", "1"],
        capsys,
    )
    assert code == 2
    assert "--noa" in err
    code, _, err = run_cli(
        ["estimate", "--srt", "0.2", "--experience", "80",
         "--ndrt", "handsfree", "--ordinal", "1"],
        capsys,
    )
    assert code == 2
    assert "--scenario" in err


def test_estimate_preset_with_default_and_raw_sets(capsys):
    flags = ["estimate", "--scenario", "S1", "--srt", "0.3", "--experience", "20",
             "--ndrt", "handsfree", "--ordinal", "1", "--json"]
    code, out, _ = run_cli(flags, capsys)
    assert code == 0
    assert json.loads(out)["total_s"] == pytest.approx(7.1, abs=0.001)
    code, out, _ = run_cli(flags + ["--coeffs", "raw"], capsys)
    assert code == 0
    assert json.loads(out)["total_s"] == pytest.approx(7.0, abs=0.001)


def test_estimate_validation_names_flag(capsys):
    bad_srt = ["estimate", "--srt", "1.5", "--experience", "80", "--scenario", "S1",
               "--ndrt", "handsfree", "--ordinal", "1"]
    code, _, err = run_cli(bad_srt, capsys)
    assert code == 2
    assert "--srt" in err
    bad_ordinal = ["estimate", "--srt", "0.2", "--experience", "80", "--scenario", "S1",
                   "--ndrt", "handsfree", "--ordinal", "0"]
    code, _, err = run_cli(bad_ordinal, capsys)
    assert code == 2
    assert "--ordinal" in err
    nan_experience = ["estimate", "--srt", "0.2", "--experience", "nan", "--scenario", "S1",
                      "--ndrt", "handsfree", "--ordinal", "1"]
    code, _, err = run_cli(nan_experience, capsys)
    assert code == 2
    assert "--experience" in err
    huge_noa = list(ROW1_FLAGS)
    huge_noa[huge_noa.index("--noa") + 1] = "1" + "0" * 400
    code, _, err = run_cli(huge_noa, capsys)
    assert code == 2
    assert "--noa" in err


def test_estimate_with_coefficient_file(tmp_path, capsys):
    custom = replace(DEFAULT_COEFFICIENTS, c_noa=2.5)
    coeff_file = tmp_path / "coeffs.json"
    fileio.dump_coefficients(custom, coeff_file)
    code, out, _ = run_cli(
        ROW1_FLAGS + ["--coeffs", str(coeff_file), "--json"], capsys
    )
    assert code == 0
    assert json.loads(out)["total_s"] == pytest.approx(4.7, abs=0.001)


def test_estimate_coeff_file_errors(tmp_path, capsys):
    code, _, err = run_cli(ROW1_FLAGS + ["--coeffs", str(tmp_path / "no.json")], capsys)
    assert code == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(ROW1_FLAGS + ["--coeffs", str(broken)], capsys)
    assert code == 2
    broken.write_bytes(b"\xff{}")
    code, _, err = run_cli(ROW1_FLAGS + ["--coeffs", str(broken)], capsys)
    assert code == 2
    assert f"{broken}: not valid UTF-8" in err
    text = json.dumps(fileio.coefficients_to_dict(DEFAULT_COEFFICIENTS))
    # The last RSC bound 1e999 reads as inf; a repeated key would win with its last value.
    for broken_text, message in [
        (text.replace("130.0", "1e999"),
         "rsc_bands upper bounds[2] must be finite and >= 0, got inf"),
        (text[:-1] + ', "c_noa_s": 99.0}', "duplicate key 'c_noa_s'"),
    ]:
        broken.write_text(broken_text, encoding="utf-8")
        code, out, err = run_cli(ROW1_FLAGS + ["--coeffs", str(broken)], capsys)
        assert (code, out, err) == (2, "", f"error: {broken}: {message}\n")


def test_estimate_srt_warning_passthrough(capsys):
    code, out, _ = run_cli(
        ["estimate", "--scenario", "S1", "--srt", "0.3", "--experience", "20",
         "--ndrt", "handsfree", "--ordinal", "1"],
        capsys,
    )
    assert code == 0
    assert "warning:" in out


HUGE = int(1.7e308)  # a count that fits in a float, times a coefficient > 1
OVERFLOW_FLAGS = [
    "estimate", "--srt", "0.2", "--experience", "1", "--noa", str(HUGE), "--noj", str(HUGE),
    "--ego-speed", "100", "--ndrt", "handheld", "--ordinal", "1", "--json",
]
HUGE_SCENARIO = {"noa": HUGE, "noj": 1, "ego_speed_km_per_hr": 100}


def test_overflowing_budget_exits_2_naming_the_term(tmp_path, capsys):
    code, out, err = run_cli(OVERFLOW_FLAGS, capsys)
    assert (code, out) == (2, "")
    assert "budget term noa_term overflows to inf" in err
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps({"anchors": [{
        "scenario": HUGE_SCENARIO, "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
        "ctx": {"ndrt": "handsfree", "ordinal": 1}, "known_tortb_s": 7.0, "unknown": "c_noj",
    }]}), encoding="utf-8")
    code, _, err = run_cli(
        ["calibrate", "--anchors", str(anchors), "--out", str(tmp_path / "o.json")], capsys
    )
    assert code == 2
    assert "noa_term overflows" in err
    config = tmp_path / "episodes.json"
    write_episode_config(config)
    payload = json.loads(config.read_text())
    payload["episodes"][0]["scenario"] = HUGE_SCENARIO
    config.write_text(json.dumps(payload), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, err = run_cli(
        ["simulate", "--config", str(config), "--out-dir", str(out_dir)], capsys
    )
    assert code == 2
    assert "episodes[0]: budget term noa_term overflows" in err
    assert not out_dir.exists()


def test_calibrate_solution_that_overflows_exits_2_naming_the_anchor(tmp_path, capsys):
    """With oc 1.7e308 deducted, c_noa = (1.7e308 + 1.7e308) / 2 overflows to inf."""
    anchors = tmp_path / "anchors.json"
    anchors.write_text(json.dumps({"anchors": [{
        "scenario": "S1", "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
        "ctx": {"ndrt": "handsfree", "ordinal": 2}, "known_tortb_s": 1.7e308,
        "unknown": "c_noa",
    }]}), encoding="utf-8")
    coeffs = tmp_path / "coeffs.json"
    coeffs.write_text(json.dumps({**fileio.coefficients_to_dict(DEFAULT_COEFFICIENTS),
                                  "oc_repeat_s": 1.7e308}), encoding="utf-8")
    out_file = tmp_path / "o.json"
    code, out, err = run_cli(["calibrate", "--anchors", str(anchors), "--coeffs", str(coeffs),
                              "--out", str(out_file)], capsys)
    assert (code, out, err) == (
        2, "", "error: anchors[0]: solved c_noa must be finite and >= 0, got inf\n")
    assert not out_file.exists()


DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("argv,key", [
    (["calibrate", "--anchors", "deep.json", "--out", "o.json"], "anchors"),
    (["simulate", "--config", "deep.json", "--out-dir", "out"], "episodes"),
    (ROW1_FLAGS + ["--coeffs", "deep.json"], "rsc_bands"),
], ids=["anchors", "episodes", "coefficients"])
def test_deeply_nested_json_exits_2_naming_the_file(argv, key, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(f'{{"{key}": {DEEP}}}', encoding="utf-8")
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", "error: deep.json: JSON nested too deeply to read\n")
    assert sorted(os.listdir(tmp_path)) == ["deep.json"]


# ------------------------------- calibrate -------------------------------


def test_calibrate_reproduces_published_values(tmp_path, capsys):
    anchors = tmp_path / "anchors.json"
    write_anchors(anchors)
    out_file = tmp_path / "solved.json"
    code, out, _ = run_cli(
        ["calibrate", "--anchors", str(anchors), "--out", str(out_file), "--json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["solved"]["c_noa"]["raw_s"] == pytest.approx(1.85, abs=1e-9)
    assert payload["solved"]["c_noa"]["rounded_s"] == 1.9
    assert payload["solved"]["c_noj"]["rounded_s"] == 0.2
    written = fileio.load_coefficients(out_file)
    assert written.c_noa == pytest.approx(1.85, abs=1e-9)  # raw chaining


def test_calibrate_reports_the_coefficients_in_solve_order(tmp_path, capsys):
    """The anchors solve c_noj on S2 (no approaching vehicle) before c_noa on
    S1, and the text lists them so; the JSON sorts its keys."""
    anchors = tmp_path / "anchors.json"
    write_anchors(anchors)
    payload = json.loads(anchors.read_text())
    first, second = payload["anchors"]
    payload["anchors"] = [dict(second, scenario="S2"), first]
    anchors.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run_cli(
        ["calibrate", "--anchors", str(anchors), "--out", str(tmp_path / "o.json")], capsys)
    assert code == 0
    assert [line.split(":")[0] for line in out.splitlines()[1:3]] == ["c_noj", "c_noa"]


def test_calibrate_rounded_chaining(tmp_path, capsys):
    anchors = tmp_path / "anchors.json"
    write_anchors(anchors)
    out_file = tmp_path / "solved.json"
    code, _, _ = run_cli(
        ["calibrate", "--anchors", str(anchors), "--chaining", "rounded",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    written = fileio.load_coefficients(out_file)
    assert written.c_noa == 1.9
    assert written.c_noj == 0.1  # (7 - 6.6) / 3 rounds down to 0.1


def test_calibrate_out_overwrites_a_longer_file_exactly(tmp_path, capsys):
    anchors = tmp_path / "anchors.json"
    write_anchors(anchors)
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    reused.write_bytes(b"9" * 10_000)
    for out_file in (fresh, reused):
        argv = ["calibrate", "--anchors", str(anchors), "--out", str(out_file)]
        assert run_cli(argv, capsys)[0] == 0
    assert reused.read_bytes() == fresh.read_bytes()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_calibrate_out_writes_into_a_pipe(tmp_path, capsys):
    """A path that cannot be opened for update, like ``--out /dev/stdout``, is still written."""
    anchors = tmp_path / "anchors.json"
    write_anchors(anchors)
    fresh = tmp_path / "fresh.json"
    assert run_cli(["calibrate", "--anchors", str(anchors), "--out", str(fresh)], capsys)[0] == 0
    read_end, write_end = os.pipe()
    with open(read_end, "rb") as pipe:
        with open(write_end, "wb"):
            argv = ["calibrate", "--anchors", str(anchors), "--out", f"/dev/fd/{write_end}"]
            assert run_cli(argv, capsys)[0] == 0
        assert pipe.read() == fresh.read_bytes()


def test_calibrate_out_devnull_prints_only_the_result(tmp_path, capsys):
    """``/dev/null`` opens for update but cannot be truncated; it is written plainly."""
    anchors = tmp_path / "anchors.json"
    write_anchors(anchors)
    argv = ["calibrate", "--anchors", str(anchors), "--out", os.devnull, "--json"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert json.loads(out)["solved"]["c_noa"]["rounded_s"] == 1.9


def test_calibrate_empty_anchors(tmp_path, capsys):
    anchors = tmp_path / "anchors.json"
    anchors.write_text('{"anchors": []}', encoding="utf-8")
    code, _, err = run_cli(
        ["calibrate", "--anchors", str(anchors), "--out", str(tmp_path / "o.json")],
        capsys,
    )
    assert code == 2
    assert "empty" in err


def test_calibrate_missing_or_malformed_file(tmp_path, capsys):
    code, _, _ = run_cli(
        ["calibrate", "--anchors", str(tmp_path / "no.json"),
         "--out", str(tmp_path / "o.json")],
        capsys,
    )
    assert code == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"anchors": [{"unknown": "c_noa"}]}', encoding="utf-8")
    code, _, err = run_cli(
        ["calibrate", "--anchors", str(bad), "--out", str(tmp_path / "o.json")], capsys
    )
    assert code == 2
    assert "scenario" in err


def test_calibrate_names_the_failing_anchor(tmp_path, capsys):
    anchors = tmp_path / "anchors.json"
    write_anchors(anchors)
    payload = json.loads(anchors.read_text())
    payload["anchors"][1]["scenario"] = {"noa": 2, "noj": 3, "ego_speed_km_per_hr": 200}
    anchors.write_text(json.dumps(payload), encoding="utf-8")
    code, out, err = run_cli(
        ["calibrate", "--anchors", str(anchors), "--out", str(tmp_path / "o.json")], capsys
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: anchors[1]: relative speed 200 km/hr is above the last calibrated band "
        "(130 km/hr)\n"
    )


def test_calibrate_order_error_names_the_first_later_anchor_under_any_hash_seed(tmp_path):
    """The oc anchor needs both c_noa and c_noj, which later anchors solve in
    that order; the message names c_noa whatever the string hash seed."""
    anchors = tmp_path / "anchors.json"
    write_anchors(anchors)
    payload = json.loads(anchors.read_text())
    oc_anchor = {**payload["anchors"][0], "unknown": "oc",
                 "scenario": {"noa": 2, "noj": 3, "ego_speed_km_per_hr": 80},
                 "ctx": {"ndrt": "handsfree", "ordinal": 2}}
    payload["anchors"].insert(0, oc_anchor)
    anchors.write_text(json.dumps(payload), encoding="utf-8")
    src = str(Path(tortb.__file__).parents[1])
    messages = set()
    for hash_seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-m", "tortb.cli", "calibrate", "--anchors", str(anchors),
             "--out", str(tmp_path / "o.json")],
            env=env, capture_output=True, text=True, check=False,
        )
        assert (done.returncode, done.stdout) == (2, "")
        messages.add(done.stderr)
    assert messages == {
        "error: anchors[0]: anchor for oc needs c_noa, which a later anchor solves\n"
    }


# -------------------------------- analyze --------------------------------


def make_log_csv(tmp_path, constant=False):
    n, tor_index = 201, 100
    t = np.arange(n) / 20.0
    steering = np.zeros(n)
    if not constant:
        steering[tor_index + 30 :] = 0.2
    lines = ["t,lat_disp,acc,steering,brake,tor_flag"]
    for i in range(n):
        lines.append(
            f"{float(t[i])!r},0.5,{0.3 if i == tor_index + 5 else 0.0},"
            f"{float(steering[i])!r},0.0,{1 if i == tor_index else 0}"
        )
    path = tmp_path / ("constant.csv" if constant else "log.csv")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_analyze_metrics(tmp_path, capsys):
    log_file = make_log_csv(tmp_path)
    code, out, _ = run_cli(["analyze", "--log", str(log_file), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["tot_s"] == pytest.approx(1.5, abs=1e-9)
    assert payload["avg_ld_m"] == pytest.approx(0.5, abs=1e-9)
    assert payload["max_acc_m_s2"] == pytest.approx(0.3, abs=1e-9)


def test_analyze_absent_tot_prints_na(tmp_path, capsys):
    log_file = make_log_csv(tmp_path, constant=True)
    code, out, _ = run_cli(["analyze", "--log", str(log_file)], capsys)
    assert code == 0
    assert "n/a" in out
    code, out, _ = run_cli(["analyze", "--log", str(log_file), "--json"], capsys)
    assert json.loads(out)["tot_s"] is None


def test_analyze_nonexistent_file(tmp_path, capsys):
    code, _, err = run_cli(["analyze", "--log", str(tmp_path / "no.csv")], capsys)
    assert code == 2


def test_analyze_invalid_log(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,0\n")
    code, _, err = run_cli(["analyze", "--log", str(bad)], capsys)
    assert code == 2
    assert "tor_flag" in err
    header = b"t,lat_disp,acc,steering,brake,tor_flag\n"
    for body, expected in [
        (header + b"0.0,0,0,0,0,1\r0.05,0,0,0,0,0\n", "line 2"),
        (header + b"0.0,0,0,0,0,1\n0.05,1_0,0,0,0,0\n", "line 3: field '1_0' holds a '_'"),
        (header + b"0.0,0,0,0,0,1\n0.05,nan,0,0,0,0\n", "lateral_displacement"),
        (b"\xff" + header, "not valid UTF-8"),
        # The header is quoted, so its CR cannot return the terminal's cursor.
        (b"t\r,lat,acc,steering,brake,tor_flag\n0,0,0,0,0,1\n",
         "got 't\\r,lat,acc,steering,brake,tor_flag'\n"),
    ]:
        bad.write_bytes(body)
        code, _, err = run_cli(["analyze", "--log", str(bad)], capsys)
        assert code == 2
        assert f"{bad}: " in err and expected in err, err


def test_analyze_window_flags(tmp_path, capsys):
    log_file = make_log_csv(tmp_path)
    code, _, err = run_cli(
        ["analyze", "--log", str(log_file), "--pre-window", "100"], capsys
    )
    assert code == 2
    for flag, name in [("--pre-window", "pre_window"), ("--threshold", "threshold"),
                       ("--sample-rate", "sample_rate")]:
        code, _, err = run_cli(["analyze", "--log", str(log_file), flag, "nan"], capsys)
        assert code == 2, flag
        assert name in err, err


def test_negative_exponent_and_non_finite_flags_reach_the_range_check(tmp_path, capsys):
    log_file = make_log_csv(tmp_path)
    code, _, err = run_cli(
        ["analyze", "--log", str(log_file), "--pre-window", "-1e+300"], capsys)
    assert code == 2
    assert err == "error: pre_window must be finite and > 0, got -1e+300\n"
    for value in ("-inf", "-nan"):
        flags = list(ROW1_FLAGS)
        flags[flags.index("--ego-speed") + 1] = value
        code, _, err = run_cli(flags, capsys)
        assert code == 2
        assert err == ("error: --noa/--noj/--ego-speed/--hazard-speed: "
                       f"ego_speed must be finite and >= 0, got {float(value)}\n")


# -------------------------------- simulate -------------------------------


def read_tree(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def test_simulate_writes_logs_and_report(tmp_path, capsys):
    config = tmp_path / "episodes.json"
    write_episode_config(config)
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        ["simulate", "--config", str(config), "--seed", "5", "--out-dir", str(out_dir)],
        capsys,
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["n_episodes"] == 2
    assert report["n_success"] == 2
    assert (out_dir / "episode_000.csv").exists()
    assert (out_dir / "episode_001.csv").exists()
    assert "success: 2" in out


def test_simulate_counts_one_episode_of_each_class(tmp_path, capsys):
    """Deadlines at the budget, one second under it and at 0 s give a success,
    a late episode and a collision (the maneuver takes 2 s)."""
    config = tmp_path / "episodes.json"
    write_episode_config(config)
    episode = json.loads(config.read_text())["episodes"][0]
    cfg = fileio.episode_config_from_dict(episode)
    budget = estimate_tortb(cfg.driver, cfg.scenario, cfg.ctx).total
    episodes = [episode] + [dict(episode, deadline_mode="explicit", explicit_deadline_s=d)
                            for d in (budget - 1.0, 0.0)]
    config.write_text(json.dumps({"episodes": episodes}), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(["simulate", "--config", str(config), "--out-dir", str(out_dir)],
                           capsys)
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert [e["classification"] for e in report["episodes"]] == ["success", "late", "collision"]
    assert (report["n_success"], report["n_late"], report["n_collision"]) == (1, 1, 1)
    assert out.splitlines()[0] == "episodes: 3  success: 1  late: 1  collision: 1"


def count_calls(monkeypatch, module, names):
    """Replace each named attribute of ``module`` with a wrapper that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def wrapper(*args, _name=name, _real=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_handlers_call_the_replaceable_cli_attributes(tmp_path, monkeypatch, capsys):
    """The traced bench times the simulate layer by replacing ``tortb.cli.run_batch``;
    the handler must call it.  The bench also replaces ``drive_log_to_csv``,
    which simulate does not call: it renders its logs through
    ``simulate.log_texts``, one log at a time."""
    config = tmp_path / "episodes.json"
    write_episode_config(config)
    calls = count_calls(monkeypatch, tortb.cli, ["run_batch", "drive_log_to_csv"])
    argv = ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    assert run_cli(argv, capsys)[0] == 0
    assert calls == {"run_batch": 1, "drive_log_to_csv": 0}


def test_simulate_byte_identical_reruns(tmp_path, capsys):
    config = tmp_path / "episodes.json"
    write_episode_config(config, noise=0.5)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    for out_dir in (dir_a, dir_b):
        code, _, _ = run_cli(
            ["simulate", "--config", str(config), "--seed", "9",
             "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
    assert read_tree(dir_a) == read_tree(dir_b)


@pytest.mark.parametrize("old,new", [(20.0, None), (None, 20.0)],
                         ids=["old_logs_longer", "old_logs_shorter"])
def test_simulate_rerun_overwrites_every_file_exactly(tmp_path, capsys, old, new):
    config = tmp_path / "episodes.json"

    def simulate(deadline, out_dir):
        write_episode_config(config, noise=0.5, deadline=deadline)
        argv = ["simulate", "--config", str(config), "--seed", "3", "--out-dir", str(out_dir)]
        assert run_cli(argv, capsys)[0] == 0
        return read_tree(out_dir)

    before = simulate(old, tmp_path / "reused")
    after = simulate(new, tmp_path / "reused")
    assert after == simulate(new, tmp_path / "fresh")
    # The first run's logs really were longer (or shorter) than the second's.
    logs = [name for name in after if name.endswith(".csv")]
    assert logs and all((len(before[n]) > len(after[n])) == (old is not None) for n in logs)


def test_simulate_smaller_rerun_removes_the_larger_runs_logs(tmp_path, capsys):
    config = tmp_path / "episodes.json"
    write_episode_config(config)
    episodes = json.loads(config.read_text())["episodes"]

    def simulate(n, out_dir):
        config.write_text(json.dumps({"episodes": (episodes * 2)[:n]}), encoding="utf-8")
        argv = ["simulate", "--config", str(config), "--out-dir", str(out_dir)]
        assert run_cli(argv, capsys)[0] == 0
        return read_tree(out_dir)

    assert len(simulate(3, tmp_path / "reused")) == 4
    after = simulate(1, tmp_path / "reused")
    assert sorted(after) == ["episode_000.csv", "report.json"]
    assert after == simulate(1, tmp_path / "fresh")


def test_simulate_failed_rerun_leaves_no_report(tmp_path, capsys):
    config = tmp_path / "episodes.json"
    write_episode_config(config)
    out_dir = tmp_path / "out"
    argv = ["simulate", "--config", str(config), "--out-dir", str(out_dir)]
    assert run_cli(argv, capsys)[0] == 0
    (out_dir / "episode_001.csv").unlink()
    (out_dir / "episode_001.csv").mkdir()  # the second episode's write fails
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert "episode_001.csv" in err
    assert not (out_dir / "report.json").exists()


def test_simulate_seed_changes_output(tmp_path, capsys):
    config = tmp_path / "episodes.json"
    write_episode_config(config, noise=0.5)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_cli(["simulate", "--config", str(config), "--seed", "1", "--out-dir", str(dir_a)], capsys)
    run_cli(["simulate", "--config", str(config), "--seed", "2", "--out-dir", str(dir_b)], capsys)
    a = json.loads((dir_a / "report.json").read_text())
    b = json.loads((dir_b / "report.json").read_text())
    assert a["episodes"][0]["required_s"] != b["episodes"][0]["required_s"]


def test_simulate_uses_file_base_seed(tmp_path, capsys):
    config = tmp_path / "episodes.json"
    write_episode_config(config, noise=0.5, base_seed=77)
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(["simulate", "--config", str(config), "--out-dir", str(out_dir)], capsys)
    assert code == 0
    assert json.loads((out_dir / "report.json").read_text())["base_seed"] == 77


def test_simulate_config_errors(tmp_path, capsys):
    code, _, _ = run_cli(
        ["simulate", "--config", str(tmp_path / "no.json"), "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 2
    empty = tmp_path / "empty.json"
    empty.write_text('{"episodes": []}', encoding="utf-8")
    code, _, err = run_cli(
        ["simulate", "--config", str(empty), "--out-dir", str(tmp_path / "o")], capsys
    )
    assert code == 2
    assert "empty" in err
    config = tmp_path / "episodes.json"
    for fields, key in [
        ({"deadline_mode": "explicit"}, "explicit_deadline_s"),
        ({"explicit_deadline_s": 3.0}, "deadline_mode"),
        ({"deadline_mode": "whenever"}, "deadline_mode"),
        ({"deadline_mode": "explicit", "explicit_deadline_s": -1.0}, "deadline"),
        ({"deadline_mode": "explicit", "explicit_deadline_s": float("nan")}, "deadline"),
        ({"deadline_mode": "explicit", "explicit_deadline_s": 1e12}, "deadline 1e+12"),
        ({"deadline_mode": "explicit", "explicit_deadline_s": 1e30}, "deadline 1e+30"),
        ({"maneuver_duration_s": 4000}, "maneuver 4000"),
        ({"response_noise_s": 1e308}, "response_noise"),
        ({"scenario": {"noa": 0, "noj": 0, "ego_speed_km_per_hr": 200}},
         "episodes[1]: relative speed 200 km/hr is above the last calibrated band"),
        ({"scenario": {"noa": 0, "noj": 0, "ego_speed_km_per_hr": 50,
                       "hazard_speed_km_per_hr": 80}},
         "episodes[1]: hazard at 80.0 km/hr is faster than ego at 50.0 km/hr"),
    ]:
        write_episode_config(config)
        payload = json.loads(config.read_text())
        payload["episodes"][1].update(fields)
        config.write_text(json.dumps(payload), encoding="utf-8")
        code, _, err = run_cli(
            ["simulate", "--config", str(config), "--out-dir", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2, fields
        assert "episodes[1]" in err and key in err, err


def test_simulate_writes_no_log_when_a_later_episode_is_too_long(tmp_path, capsys):
    config = tmp_path / "episodes.json"
    write_episode_config(config)
    payload = json.loads(config.read_text())
    payload["episodes"][1].update(deadline_mode="explicit", explicit_deadline_s=1e12)
    config.write_text(json.dumps(payload), encoding="utf-8")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = run_cli(
        ["simulate", "--config", str(config), "--out-dir", str(out_dir)], capsys
    )
    assert code == 2
    assert "episodes[1]: drive log would span" in err
    assert list(out_dir.iterdir()) == []


def test_simulate_refuses_a_misspelled_optional_key(tmp_path, capsys):
    episode = {
        "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
        "scenario": "S1",
        "ctx": {"ndrt": "handsfree", "ordinal": 1},
        "response_noise": 0.9,
        "explicit_deadline": 3.0,
        "maneuver_duration": 9,
    }
    config = tmp_path / "episodes.json"
    config.write_text(json.dumps({"episodes": [episode]}), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, out, err = run_cli(
        ["simulate", "--config", str(config), "--out-dir", str(out_dir)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {config}: episodes[0]: unknown key 'response_noise'\n"
    assert not out_dir.exists()


def test_simulate_explicit_deadline_reaches_report(tmp_path, capsys):
    config = tmp_path / "episodes.json"
    write_episode_config(config)
    payload = json.loads(config.read_text())
    payload["episodes"][0].update(deadline_mode="explicit", explicit_deadline_s=12.25)
    config.write_text(json.dumps(payload), encoding="utf-8")
    out_dir = tmp_path / "out"
    code, _, _ = run_cli(
        ["simulate", "--config", str(config), "--out-dir", str(out_dir)], capsys
    )
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["episodes"][0]["deadline_s"] == 12.25


# One valid episode per deadline source; the property replaces up to two
# of its values, top-level or one level down, with arbitrary JSON values.
DRIVER = {"srt_s": 0.3, "experience_km_per_wk": 20}
VALID_EPISODES = [
    {
        "driver": DRIVER,
        "scenario": {"noa": 1, "noj": 2, "ego_speed_km_per_hr": 100,
                     "hazard_speed_km_per_hr": 30},
        "ctx": {"ndrt": "handheld", "ordinal": 2},
        "budget_driver": {"srt_s": 0.2, "experience_km_per_wk": 80},
        "response_noise_s": 1.25,
        "maneuver_duration_s": 1.5,
    },
    {
        "driver": DRIVER,
        "scenario": "S3",
        "ctx": {"ndrt": "handsfree", "ordinal": 1},
        "deadline_mode": "explicit",
        "explicit_deadline_s": 4.0,
    },
]
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["S1", "S4", "handsfree", "handheld", "explicit", "from_budget"])
)


# A def, not a lambda: hypothesis checks that ``extend`` uses its argument by
# parsing its source, which for a lambda over several lines is the first line.
def _containers(children):
    return st.lists(children, max_size=3) | st.dictionaries(
        st.text(max_size=6), children, max_size=3)


JSON_VALUES = st.recursive(SCALARS, _containers, max_leaves=8)
# Numbers near and past the simulator's limits, so accepted documents are common.
NUMBERS = (
    st.floats(-1.0, 4000.0)
    | st.integers(-2, 10**6)
    | st.sampled_from([1e12, 1e30, 1e308, 10**400, 3594.0, 4000, 5e-324])
)


def _near(value):
    """Values of the same kind as a valid one, most of them valid too."""
    if isinstance(value, int):
        return st.integers(0, 4 * value + 1)
    if isinstance(value, float):
        return st.floats(0.0, 4.0 * value)
    if isinstance(value, dict):
        return st.fixed_dictionaries({key: _near(item) for key, item in value.items()})
    return st.sampled_from(["S1", "S2", "S3", "S4", "handsfree", "handheld", "explicit"])


@st.composite
def mutated_documents(draw, valid_documents):
    valid = draw(st.sampled_from(valid_documents))
    paths = [(key,) for key in valid]
    paths += [(key, sub) for key, value in valid.items() if isinstance(value, dict)
              for sub in value]
    document = copy.deepcopy(valid)
    chosen = draw(st.lists(st.sampled_from(paths), max_size=2, unique=True))
    # Deeper paths first: a later top-level change may replace their parent.
    for path in sorted(chosen, key=len, reverse=True):
        target, original = document, valid
        for key in path[:-1]:
            target, original = target[key], original[key]
        values = draw(st.sampled_from([_near(original[path[-1]]), NUMBERS, JSON_VALUES]))
        target[path[-1]] = draw(values)
    return document


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


@settings(max_examples=50)
@given(episode=mutated_documents(VALID_EPISODES))
@example(episode={**VALID_EPISODES[0], "response_noise_s": 1e308})
@example(episode={**VALID_EPISODES[1], "explicit_deadline_s": 1e12})
@example(episode={**VALID_EPISODES[0], "maneuver_duration_s": 2.2250738585e-313})
def test_simulate_never_exits_1_and_reports_finite_json(episode):
    """The valid episodes run beside the drawn one, so a report counts more
    than one episode; its counts and margin statistics are those of its episodes."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "episodes.json"
        # json.dumps writes NaN and Infinity literals, which the loader must reject.
        config.write_text(json.dumps({"episodes": [episode, *VALID_EPISODES]}),
                          encoding="utf-8")
        out_dir = Path(tmp) / "out"
        code = main(["simulate", "--config", str(config), "--out-dir", str(out_dir)])
        assert code in (0, 2)
        if code == 0:
            text = (out_dir / "report.json").read_text(encoding="utf-8")
            report = json.loads(text, parse_constant=_reject_constant)
            classes = [e["classification"] for e in report["episodes"]]
            names = ("success", "late", "collision")
            counts = [report[f"n_{name}"] for name in names]
            assert counts == [classes.count(name) for name in names]
            assert sum(counts) == report["n_episodes"] == len(classes) == 3
            margin = describe(e["margin_s"] for e in report["episodes"])
            assert {k: float.hex(v) for k, v in report["margin_s"].items()} == {
                k: float.hex(getattr(margin, k)) for k in ("mean", "std", "min", "max")}


# Flag values: valid ones, band edges, overflowing and non-finite numbers,
# any float or integer, and short arbitrary text.
FLAG_TEXT = (
    st.sampled_from(["nan", "inf", "1e309", str(HUGE), "1" + "0" * 400, "-0.0", "5e-324",
                     "0", "1", "2", "130", "130.00000000000003", "200", "S1", "S4",
                     "handheld", "handsfree", "raw", "rounded"])
    | st.floats().map(repr)
    | st.integers(-3, 10**6).map(str)
    | st.text(max_size=6)
)
ESTIMATE_FLAGS = [
    {"--srt": "0.2", "--experience": "80", "--noa": "1", "--noj": "0", "--ego-speed": "80",
     "--hazard-speed": "0", "--ndrt": "handsfree", "--ordinal": "1"},
    {"--srt": "0.3", "--experience": "20", "--scenario": "S3", "--ndrt": "handheld",
     "--ordinal": "2", "--coeffs": "raw"},
]
ESTIMATE_FLAG_NAMES = sorted({name for flags in ESTIMATE_FLAGS for name in flags})


@st.composite
def estimate_argvs(draw):
    """A valid estimate with up to two flags replaced, added or dropped."""
    flags = dict(draw(st.sampled_from(ESTIMATE_FLAGS)))
    for name in draw(st.lists(st.sampled_from(ESTIMATE_FLAG_NAMES), max_size=2, unique=True)):
        value = draw(st.none() | FLAG_TEXT)
        if value is None:
            flags.pop(name, None)
        else:
            flags[name] = value
    return ["estimate", *(item for pair in flags.items() for item in pair), "--json"]


@settings(max_examples=100)
@given(argv=estimate_argvs())
@example(argv=OVERFLOW_FLAGS)
def test_estimate_never_exits_1_and_prints_finite_json(argv):
    code, out, _ = run_main(argv)
    assert code in (0, 2)
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)


VALID_ANCHORS = [
    {
        "scenario": "S1",
        "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
        "ctx": {"ndrt": "handsfree", "ordinal": 1},
        "known_tortb_s": 7.0,
        "unknown": "c_noa",
    },
    {
        "scenario": {"noa": 2, "noj": 3, "ego_speed_km_per_hr": 80},
        "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
        "ctx": {"ndrt": "handsfree", "ordinal": 1},
        "known_tortb_s": 7.0,
        "unknown": "c_noj",
    },
]


@settings(max_examples=100)
@given(anchor=mutated_documents(VALID_ANCHORS), chaining=st.sampled_from(["raw", "rounded"]))
@example(anchor={**VALID_ANCHORS[1], "scenario": HUGE_SCENARIO}, chaining="raw")
@example(anchor={**VALID_ANCHORS[0], "known_tortb_s": 1e30}, chaining="raw")
def test_calibrate_never_exits_1_and_prints_finite_json(anchor, chaining):
    with tempfile.TemporaryDirectory() as tmp:
        anchors = Path(tmp) / "anchors.json"
        anchors.write_text(json.dumps({"anchors": [anchor]}), encoding="utf-8")
        out_file = Path(tmp) / "solved.json"
        code, out, _ = run_main(["calibrate", "--anchors", str(anchors), "--out", str(out_file),
                                  "--chaining", chaining, "--json"])
        assert code in (0, 2)
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)
            json.loads(out_file.read_text(encoding="utf-8"), parse_constant=_reject_constant)


CHANNEL_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 0.2, 3.5, 1e308, -1e308, 1.7976931348623157e308, 5e-324])
BAD_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e309", "1_0", "", " ", '"0.5"', "0x1"]) \
    | st.text(max_size=4)
NUMBER_TEXT = st.sampled_from(["nan", "inf", "1e309", "-0.0", "0", "5e-324"]) \
    | st.floats().map(repr)
WINDOW_TEXT = st.sampled_from(["0.05", "0.5", "1"]) | NUMBER_TEXT


@st.composite
def drive_log_texts(draw):
    """A 20 Hz log of arbitrary finite values, sometimes with one bad token
    or one line with a field missing."""
    n = draw(st.integers(1, 80))
    tor = draw(st.integers(0, n - 1))
    pool = st.sampled_from(draw(st.lists(CHANNEL_FLOATS, min_size=1, max_size=4)))
    rows = [[repr(i / 20.0), *(repr(draw(pool)) for _ in range(4)), "1" if i == tor else "0"]
            for i in range(n)]
    fault = draw(st.sampled_from(["none", "none", "none", "token", "field"]))
    row = draw(st.integers(0, n - 1))
    if fault == "token":
        rows[row][draw(st.integers(0, 5))] = draw(BAD_TOKENS)
    elif fault == "field":
        del rows[row][draw(st.integers(0, 5))]
    return "t,lat_disp,acc,steering,brake,tor_flag\n" + "".join(
        ",".join(fields) + "\n" for fields in rows)


@settings(max_examples=100)
@given(
    text=drive_log_texts(),
    flags=st.fixed_dictionaries(
        {"--pre-window": WINDOW_TEXT, "--post-window": WINDOW_TEXT},
        optional={"--threshold": st.sampled_from(["0.05", "0", "1"]) | NUMBER_TEXT,
                  "--sample-rate": st.sampled_from(["20", "10"]) | NUMBER_TEXT},
    ),
)
@example(text="t,lat_disp,acc,steering,brake,tor_flag\n0.0,1e308,0,0,0,0\n"
              "0.05,1e308,0,0,0,1\n0.1,1e308,0,0,0,0\n",
         flags={"--pre-window": "0.05", "--post-window": "0.05"})
@example(text="t,lat_disp,acc,steering,brake,tor_flag\n-1e308,0,0,0,0,1\n1e308,0,0,0,0,0\n",
         flags={"--pre-window": "0.05", "--post-window": "0.05"})
@example(text="t,lat_disp,acc,steering,brake,tor_flag\n0.0,0,0,-1e308,0,0\n"
              "0.05,0,0,-1e308,0,1\n0.1,0,0,1e308,0,0\n",
         flags={"--pre-window": "0.05", "--post-window": "0.05"})
def test_analyze_never_exits_1_and_prints_finite_json(text, flags):
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "drive.csv"
        log.write_text(text, encoding="utf-8")
        # "--flag=value", so argparse reads a value such as "-1e+300" as a value.
        argv = ["analyze", "--log", str(log), *(f"{k}={v}" for k, v in flags.items())]
        code, out, _ = run_main(argv + ["--json"])
        assert code in (0, 2)
        if code == 0:
            json.loads(out, parse_constant=_reject_constant)


# --------------------------------- table ---------------------------------


def test_table_matches_golden_values(capsys):
    code, out, _ = run_cli(["table", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    totals = [row["tortb_s"] for row in payload["rows"]]
    assert len(totals) == 6
    for got, expected in zip(totals, GOLDEN_TORTB):
        assert got == pytest.approx(expected, abs=0.001)


def test_table_text_output(capsys):
    code, out, _ = run_cli(["table"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 8  # title + header + six rows
    assert "8.70" in out


# ------------------------------- exit codes ------------------------------

# Replaces one callee of each handler with a function that raises a bare
# ValueError, as a fault in tortb or numpy would, and runs that handler.
FAULT_SCRIPT = """
import contextlib, io, json, sys
import tortb.calibration, tortb.cli, tortb.drivelog
anchors, config, log, out = sys.argv[1:]
results = []
for module, callee, argv in (
    (tortb.cli, "estimate_tortb", ["estimate", "--scenario", "S1", "--srt", "0.3",
                                   "--experience", "20", "--ndrt", "handsfree", "--ordinal", "1"]),
    (tortb.calibration, "calibrate_sequence", ["calibrate", "--anchors", anchors, "--out", out]),
    (tortb.drivelog, "extract_metrics", ["analyze", "--log", log]),
    (tortb.cli, "run_batch", ["simulate", "--config", config, "--out-dir", out]),
):
    def boom(*args, **kwargs):
        raise ValueError("boom")
    setattr(module, callee, boom)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = tortb.cli.main(argv)
    results.append([callee, code, err.getvalue()])
print(json.dumps(results))
"""


def test_a_bare_value_error_is_an_internal_error_and_exits_1(tmp_path):
    anchors, config = tmp_path / "anchors.json", tmp_path / "episodes.json"
    write_anchors(anchors)
    write_episode_config(config)
    src = str(Path(tortb.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-c", FAULT_SCRIPT, str(anchors), str(config),
         str(make_log_csv(tmp_path)), str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=False,
    )
    assert (done.returncode, done.stderr) == (0, "")
    results = json.loads(done.stdout)
    assert [callee for callee, _, _ in results] == [
        "estimate_tortb", "calibrate_sequence", "extract_metrics", "run_batch"]
    assert all(rest == [1, "internal error: boom\n"] for _, *rest in results), results


NUL_PATH_CASES = {
    "--log": ["analyze", "--log", "a\0b"],
    "--anchors": ["calibrate", "--anchors", "a\0b", "--out", "solved.json"],
    "--coeffs": ROW1_FLAGS + ["--coeffs", "a\0b"],
    "--out": ["calibrate", "--anchors", "anchors.json", "--out", "a\0b"],
    "--config": ["simulate", "--config", "a\0b", "--out-dir", "out"],
    "--out-dir": ["simulate", "--config", "episodes.json", "--out-dir", "a\0b"],
}


@pytest.mark.parametrize("flag", NUL_PATH_CASES)
def test_a_path_holding_a_nul_byte_is_a_usage_error(flag, tmp_path, monkeypatch, capsys):
    """The OS refuses such a path with a bare ValueError; argparse refuses it first."""
    monkeypatch.chdir(tmp_path)
    write_anchors(tmp_path / "anchors.json")
    write_episode_config(tmp_path / "episodes.json")
    code, out, err = run_cli(NUL_PATH_CASES[flag], capsys)
    assert (code, out) == (2, "")
    assert f"error: argument {flag}: path holds a NUL byte: 'a\\x00b'\n" in err, err
    assert sorted(os.listdir(tmp_path)) == ["anchors.json", "episodes.json"]


@pytest.mark.parametrize("flag", NUL_PATH_CASES)
def test_an_empty_path_is_a_usage_error(flag, tmp_path, monkeypatch, capsys):
    """An empty --out-dir would write its logs and report into the current
    directory; argparse refuses every empty path flag first."""
    monkeypatch.chdir(tmp_path)
    write_anchors(tmp_path / "anchors.json")
    write_episode_config(tmp_path / "episodes.json")
    code, out, err = run_cli(["" if arg == "a\0b" else arg for arg in NUL_PATH_CASES[flag]],
                             capsys)
    assert (code, out) == (2, "")
    assert f"error: argument {flag}: path is empty\n" in err, err
    assert sorted(os.listdir(tmp_path)) == ["anchors.json", "episodes.json"]


NON_UTF8_PATH_CASES = {
    "--out": ([b"calibrate", b"--anchors", b"anchors.json", b"--out", b"\xff.json"],
              b"coefficient file written: \xff.json\n"),
    "--out-dir": ([b"simulate", b"--config", b"episodes.json", b"--out-dir", b"d\xff"],
                  b"report written: d\xff/report.json\n"),
}


def run_strict_utf8(argv, cwd):
    """``tortb`` in a new process whose stdout is strict UTF-8, as Python has it
    under a locale such as en_US.UTF-8."""
    env = {**os.environ, "PYTHONPATH": str(Path(tortb.__file__).parents[1]),
           "PYTHONUTF8": "1", "PYTHONIOENCODING": "utf-8:strict"}
    done = subprocess.run([sys.executable, "-m", "tortb.cli", *argv], cwd=cwd, env=env,
                          capture_output=True, check=False)
    assert (done.returncode, done.stderr) == (0, b"")
    return done.stdout


@pytest.mark.parametrize("flag", NON_UTF8_PATH_CASES)
def test_a_path_that_is_not_utf8_is_printed_as_its_bytes(flag, tmp_path):
    """A strict UTF-8 stdout prints the path's bytes as given, as ``ls`` does."""
    write_anchors(tmp_path / "anchors.json")
    write_episode_config(tmp_path / "episodes.json")
    argv, last_line = NON_UTF8_PATH_CASES[flag]
    assert run_strict_utf8(argv, tmp_path).endswith(last_line)
    assert os.path.exists(tmp_path / os.fsdecode(argv[-1]))


NON_UTF8_JSON_CASES = {
    "--out": ([b"calibrate", b"--anchors", b"anchors.json", b"--out", b"\xff.json", b"--json"],
              "out_file"),
    "--log": ([b"analyze", b"--log", b"\xff.csv", b"--json"], "log"),
}


@pytest.mark.parametrize("flag", NON_UTF8_JSON_CASES)
def test_a_path_that_is_not_utf8_is_its_pep383_escape_in_json(flag, tmp_path):
    """JSON text holds no raw bytes, so ``--json`` gives each byte that is not
    UTF-8 as the lone surrogate it was read as (PEP 383), in a ``\\u`` escape;
    ``os.fsencode`` of the value gives back the bytes the text form prints."""
    write_inputs(tmp_path)
    (tmp_path / "drive.csv").rename(tmp_path / os.fsdecode(b"\xff.csv"))
    argv, key = NON_UTF8_JSON_CASES[flag]
    out = run_strict_utf8(argv, tmp_path)
    path = argv[argv.index(flag.encode()) + 1]
    assert f'"{key}": "\\udcff.'.encode() in out
    assert os.fsencode(json.loads(out)[key]) == path


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0


def test_a_text_only_stdout_gets_the_text_as_is():
    """A stdout without ``.buffer``, such as ``io.StringIO``, is written as text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["table"]) == 0
    golden = Path(__file__).parent / "golden" / "stdout" / "table.txt"
    assert out.getvalue() == golden.read_bytes().decode("utf-8")


def test_the_rounded_set_gives_the_reference_table_row(capsys):
    code, out, _ = run_cli(ROW1_FLAGS + ["--coeffs", "rounded", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    code, table, _ = run_cli(["table", "--json"], capsys)
    assert code == 0
    assert payload["total_s"] == json.loads(table)["rows"][0]["tortb_s"] == GOLDEN_TORTB[0]
    assert payload["inputs"]["coefficients"]["ndrtc_handheld_s"] == 2.7
    assert payload["inputs"]["coefficient_set"] == "rounded"
