"""End-to-end tests for the command-line interface."""

import contextlib
import copy
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tortb import DEFAULT_COEFFICIENTS, estimate_tortb
from tortb import fileio
from tortb.cli import main

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


def write_episode_config(path, noise=0.0, base_seed=None):
    episode = {
        "driver": {"srt_s": 0.3, "experience_km_per_wk": 20},
        "scenario": "S1",
        "ctx": {"ndrt": "handsfree", "ordinal": 1},
        "response_noise_s": noise,
    }
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
        (header + b"0.0,0,0,0,0,1\n0.05,nan,0,0,0,0\n", "lateral_displacement"),
        (b"\xff" + header, "not valid UTF-8"),
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
JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
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
def test_simulate_never_exits_1_and_reports_finite_json(episode):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "episodes.json"
        # json.dumps writes NaN and Infinity literals, which the loader must reject.
        config.write_text(json.dumps({"episodes": [episode]}), encoding="utf-8")
        out_dir = Path(tmp) / "out"
        code = main(["simulate", "--config", str(config), "--out-dir", str(out_dir)])
        assert code in (0, 2)
        if code == 0:
            report = (out_dir / "report.json").read_text(encoding="utf-8")
            json.loads(report, parse_constant=_reject_constant)


def _run_main(argv):
    """Exit code and stdout of one CLI run, argparse's exits included."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue()


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
    code, out = _run_main(argv)
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
        code, out = _run_main(["calibrate", "--anchors", str(anchors), "--out", str(out_file),
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
        code, out = _run_main(argv + ["--json"])
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


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
