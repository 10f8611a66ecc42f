"""Tests for drive-log parsing and metric extraction."""

import numpy as np
import pytest

from tortb import (
    DriveLog,
    EmptyGroup,
    MissingTorMarker,
    MultipleTorMarkers,
    NonUniformSampling,
    SchemaError,
    TakeoverMetrics,
    WindowOutOfRange,
    avg_lateral_displacement,
    describe,
    detect_tot,
    drive_log_to_csv,
    extract_metrics,
    max_acceleration,
    parse_drive_log,
    summarize,
)

RATE = 20.0
DT = 1.0 / RATE


def make_log(n=201, tor_index=100, lat=None, acc=None, steering=None, brake=None):
    t = np.arange(n) / RATE
    zeros = np.zeros(n)
    return DriveLog(
        t=t,
        lateral_displacement=zeros if lat is None else lat,
        acceleration=zeros if acc is None else acc,
        steering=zeros if steering is None else steering,
        brake=zeros if brake is None else brake,
        tor_time=float(t[tor_index]),
        sample_rate=RATE,
    )


def make_csv(rows):
    lines = ["t,lat_disp,acc,steering,brake,tor_flag"]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


# ------------------------------- parsing --------------------------------


def test_parse_wellformed_three_rows():
    csv_text = make_csv(
        [
            (0.0, 0.1, 0.0, 0.2, 0.0, 0),
            (0.05, 0.2, 0.1, 0.2, 0.0, 1),
            (0.1, 0.3, 0.2, 0.2, 0.0, 0),
        ]
    )
    log = parse_drive_log(csv_text)
    assert log.tor_time == 0.05
    assert log.t.size == 3
    assert log.lateral_displacement[2] == 0.3


def test_parse_accepts_bytes():
    csv_text = make_csv([(0.0, 0, 0, 0, 0, 1), (0.05, 0, 0, 0, 0, 0)])
    assert parse_drive_log(csv_text.encode()).tor_time == 0.0


def test_parse_missing_tor_marker():
    with pytest.raises(MissingTorMarker):
        parse_drive_log(make_csv([(0.0, 0, 0, 0, 0, 0), (0.05, 0, 0, 0, 0, 0)]))


def test_parse_multiple_tor_markers():
    with pytest.raises(MultipleTorMarkers):
        parse_drive_log(make_csv([(0.0, 0, 0, 0, 0, 1), (0.05, 0, 0, 0, 0, 1)]))


def test_parse_gap_in_stream():
    rows = [(0.0, 0, 0, 0, 0, 1), (0.05, 0, 0, 0, 0, 0), (0.15, 0, 0, 0, 0, 0)]
    with pytest.raises(NonUniformSampling):
        parse_drive_log(make_csv(rows))


def test_parse_bad_header():
    with pytest.raises(SchemaError):
        parse_drive_log("time,lat,acc,steer,brake,flag\n0,0,0,0,0,1\n")


def test_parse_bad_field_count():
    with pytest.raises(SchemaError):
        parse_drive_log("t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,1\n")


def test_parse_non_numeric():
    with pytest.raises(SchemaError):
        parse_drive_log("t,lat_disp,acc,steering,brake,tor_flag\n0,x,0,0,0,1\n")


def test_parse_bad_flag_value():
    with pytest.raises(SchemaError):
        parse_drive_log("t,lat_disp,acc,steering,brake,tor_flag\n0,0,0,0,0,2\n")


def test_parse_empty_and_headerless():
    with pytest.raises(SchemaError):
        parse_drive_log("")
    with pytest.raises(SchemaError):
        parse_drive_log("t,lat_disp,acc,steering,brake,tor_flag\n")


def test_csv_round_trip():
    rng = np.random.default_rng(7)
    log = make_log(
        n=61,
        tor_index=30,
        lat=rng.normal(0, 1, 61),
        acc=rng.normal(0, 1, 61),
        steering=rng.uniform(0, 1, 61),
        brake=rng.uniform(0, 1, 61),
    )
    parsed = parse_drive_log(drive_log_to_csv(log))
    assert parsed.tor_time == log.tor_time
    for name in ("t", "lateral_displacement", "acceleration", "steering", "brake"):
        assert np.array_equal(getattr(parsed, name), getattr(log, name))


def test_log_arrays_are_frozen():
    log = make_log(n=5, tor_index=2)
    with pytest.raises(ValueError):
        log.steering[0] = 1.0


def test_log_validation():
    t = np.arange(5) / RATE
    with pytest.raises(NonUniformSampling):
        DriveLog(t[::-1], t, t, t, t, tor_time=0.0)
    with pytest.raises(ValueError):
        DriveLog(t, t, t, t, t, tor_time=99.0)
    with pytest.raises(SchemaError):
        DriveLog(t, t[:3], t, t, t, tor_time=0.0)
    with pytest.raises(ValueError, match="sample_rate"):
        DriveLog(t, t, t, t, t, tor_time=0.0, sample_rate=float("nan"))
    t_nan = t.copy()
    t_nan[3] = np.nan
    with pytest.raises(NonUniformSampling):
        DriveLog(t_nan, t, t, t, t, tor_time=0.0)


# ------------------------------ detect_tot -------------------------------


def scan_tot(log, threshold=0.05):
    """Linear-scan oracle, independent of the vectorized implementation."""
    i0 = None
    for i in range(log.t.size):
        if log.t[i] >= log.tor_time - 1e-9:
            i0 = i
            break
    s0, b0 = log.steering[i0], log.brake[i0]
    for i in range(i0, log.t.size):
        if abs(log.steering[i] - s0) >= threshold or abs(log.brake[i] - b0) >= threshold:
            return float(log.t[i] - log.tor_time)
    return None


def test_detect_tot_step_against_nonzero_baseline():
    steering = np.full(201, 0.10)
    steering[130:] = 0.16  # 1.5 s after the TOR at index 100
    log = make_log(steering=steering)
    tot = detect_tot(log)
    assert tot == pytest.approx(1.5, abs=1e-9)
    assert tot == scan_tot(log)


def test_detect_tot_absent_when_constant():
    assert detect_tot(make_log()) is None


def test_detect_tot_brake_ramp():
    n, tor_index = 101, 20
    t = np.arange(n) / RATE
    brake = np.clip((t - t[tor_index]) / 2.0, 0.0, 1.0)
    log = make_log(n=n, tor_index=tor_index, brake=brake)
    tot = detect_tot(log)
    assert tot == pytest.approx(0.10, abs=1e-9)
    assert tot == scan_tot(log)


def test_detect_tot_matches_scan_oracle_on_random_logs():
    rng = np.random.default_rng(42)
    for _ in range(50):
        n = int(rng.integers(10, 120))
        tor_index = int(rng.integers(0, n))
        log = make_log(
            n=n,
            tor_index=tor_index,
            steering=np.clip(rng.normal(0.3, 0.05, n), 0, 1),
            brake=np.clip(rng.normal(0.1, 0.03, n), 0, 1),
        )
        tot = detect_tot(log)
        assert tot == scan_tot(log)
        if tot is not None:
            assert 0.0 <= tot <= log.t[-1] - log.tor_time + 1e-9


def test_detect_tot_ignores_pre_tor_samples():
    steering = np.zeros(201)
    steering[140:] = 0.5
    log = make_log(steering=steering)
    baseline = detect_tot(log)
    mutated = steering.copy()
    rng = np.random.default_rng(3)
    mutated[:100] = rng.uniform(0, 1, 100)
    assert detect_tot(make_log(steering=mutated)) == baseline


def test_detect_tot_monotone_in_threshold():
    rng = np.random.default_rng(11)
    steering = np.clip(np.cumsum(rng.normal(0, 0.02, 201)) + 0.3, 0, 1)
    log = make_log(steering=steering)
    thresholds = [0.2, 0.1, 0.05, 0.02, 0.01]
    tots = [detect_tot(log, th) for th in thresholds]
    previous = np.inf
    for tot in tots:
        current = np.inf if tot is None else tot
        assert current <= previous
        previous = current


@pytest.mark.parametrize("threshold", [float("nan"), -0.01, 1.5])
def test_detect_tot_rejects_threshold_outside_unit_range(threshold):
    with pytest.raises(ValueError, match="threshold"):
        detect_tot(make_log(), threshold)


# ------------------------ average lateral displacement -------------------


def brute_avg_ld(log, pre, post):
    lo, hi = log.tor_time - pre, log.tor_time + post
    values = [
        abs(log.lateral_displacement[i])
        for i in range(log.t.size)
        if lo - 1e-9 <= log.t[i] <= hi + 1e-9
    ]
    return sum(values) / len(values)


def test_avg_ld_constant():
    log = make_log(lat=np.full(201, 0.5))
    assert avg_lateral_displacement(log, 2.0, 2.0) == pytest.approx(0.5, abs=1e-12)


def test_avg_ld_alternating_signs_use_absolute_value():
    lat = np.tile([1.0, -1.0], 101)[:201]
    log = make_log(lat=lat)
    assert avg_lateral_displacement(log, 2.0, 2.0) == pytest.approx(1.0, abs=1e-12)


def test_avg_ld_zero_for_perfect_lane_keeping():
    assert avg_lateral_displacement(make_log(), 2.0, 2.0) == 0.0


def test_avg_ld_matches_brute_force():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(30, 200))
        tor_index = int(rng.integers(5, n - 5))
        log = make_log(n=n, tor_index=tor_index, lat=rng.normal(0, 2, n))
        pre = float(rng.uniform(0.04, log.tor_time - log.t[0]))
        post = float(rng.uniform(0.04, log.t[-1] - log.tor_time))
        got = avg_lateral_displacement(log, pre, post)
        assert abs(got - brute_avg_ld(log, pre, post)) < 1e-9


def test_avg_ld_window_out_of_range():
    log = make_log()
    with pytest.raises(WindowOutOfRange):
        avg_lateral_displacement(log, 100.0, 1.0)
    with pytest.raises(WindowOutOfRange):
        avg_lateral_displacement(log, 1.0, 100.0)


def test_avg_ld_rejects_non_positive_windows():
    with pytest.raises(ValueError):
        avg_lateral_displacement(make_log(), 0.0, 1.0)
    with pytest.raises(ValueError, match="pre_window"):
        avg_lateral_displacement(make_log(), float("nan"), 1.0)
    with pytest.raises(ValueError, match="post_window"):
        avg_lateral_displacement(make_log(), 1.0, float("nan"))


# --------------------------- max acceleration ----------------------------


def test_max_acc_peak_inside_window():
    acc = np.zeros(201)
    acc[110] = 1.16
    acc[150] = 3.0  # outside the window below
    log = make_log(acc=acc)
    assert max_acceleration(log, log.t[120]) == 1.16


def test_max_acc_singleton_window():
    acc = np.linspace(-1, 1, 201)
    log = make_log(acc=acc)
    assert max_acceleration(log, log.tor_time) == acc[100]


def test_max_acc_all_negative():
    acc = -np.abs(np.linspace(1, 2, 201))
    log = make_log(acc=acc)
    assert max_acceleration(log, log.t[-1]) == np.max(acc[100:])


def test_max_acc_invariant_to_outside_permutation():
    rng = np.random.default_rng(9)
    acc = rng.normal(0, 1, 201)
    log = make_log(acc=acc)
    end = log.t[120]
    reference = max_acceleration(log, end)
    shuffled = acc.copy()
    rng.shuffle(shuffled[:100])
    rng.shuffle(shuffled[121:])
    assert max_acceleration(make_log(acc=shuffled), end) == reference


def test_max_acc_matches_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(10, 150))
        tor_index = int(rng.integers(0, n))
        log = make_log(n=n, tor_index=tor_index, acc=rng.normal(0, 1, n))
        end_index = int(rng.integers(tor_index, n))
        end = float(log.t[end_index])
        brute = max(
            log.acceleration[i]
            for i in range(n)
            if log.tor_time - 1e-9 <= log.t[i] <= end + 1e-9
        )
        assert max_acceleration(log, end) == brute


def test_max_acc_window_out_of_range():
    log = make_log()
    with pytest.raises(WindowOutOfRange):
        max_acceleration(log, log.tor_time - 1.0)
    with pytest.raises(WindowOutOfRange):
        max_acceleration(log, log.t[-1] + 1.0)


# ------------------------------- summaries -------------------------------


def test_describe_two_points():
    stats = describe([2, 4])
    assert (stats.mean, stats.std, stats.min, stats.max, stats.n) == (3, 1, 2, 4, 2)


def test_describe_single_point_has_zero_std():
    assert describe([5.0]).std == 0.0


def test_describe_empty():
    with pytest.raises(EmptyGroup):
        describe([])


def test_summarize_singleton_groups():
    metrics = [
        TakeoverMetrics(tot=1.0, avg_ld=0.1, max_acc=0.5, takeover_time_abs=6.0),
        TakeoverMetrics(tot=2.0, avg_ld=0.2, max_acc=0.6, takeover_time_abs=7.0),
        TakeoverMetrics(tot=3.0, avg_ld=0.3, max_acc=0.7, takeover_time_abs=8.0),
    ]
    keys = [("S1", "G1", 1), ("S2", "G1", 1), ("S3", "G1", 1)]
    out = summarize(metrics, keys)
    assert set(out) == set(keys)
    for key, metric in zip(keys, metrics):
        assert out[key]["tot"].n == 1
        assert out[key]["tot"].mean == metric.tot


def test_summarize_skips_absent_values():
    metrics = [
        TakeoverMetrics(tot=None, avg_ld=0.1, max_acc=None, takeover_time_abs=None),
        TakeoverMetrics(tot=2.0, avg_ld=0.3, max_acc=0.6, takeover_time_abs=7.0),
    ]
    out = summarize(metrics, ["g", "g"])
    assert out["g"]["tot"].n == 1
    assert out["g"]["avg_ld"].n == 2
    only_absent = summarize([metrics[0]], ["g"])
    assert only_absent["g"]["tot"] is None


def test_summarize_validation():
    with pytest.raises(EmptyGroup):
        summarize([], [])
    metric = TakeoverMetrics(tot=1.0, avg_ld=0.1, max_acc=0.5, takeover_time_abs=6.0)
    with pytest.raises(ValueError):
        summarize([metric], ["a", "b"])


def test_extract_metrics_absent_tot_means_absent_max_acc():
    metrics = extract_metrics(make_log(), pre_window=2.0, post_window=2.0)
    assert metrics.tot is None
    assert metrics.max_acc is None
    assert metrics.takeover_time_abs is None
    assert metrics.avg_ld == 0.0


def test_extract_metrics_with_response():
    steering = np.zeros(201)
    steering[120:] = 0.2
    log = make_log(steering=steering)
    metrics = extract_metrics(log, pre_window=2.0, post_window=2.0)
    assert metrics.tot == pytest.approx(1.0, abs=1e-9)
    assert metrics.takeover_time_abs == pytest.approx(log.tor_time + 1.0, abs=1e-9)
    assert metrics.max_acc == 0.0
