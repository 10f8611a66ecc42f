"""Tests for the deterministic episode simulator."""

import hashlib
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tortb import (
    DEFAULT_COEFFICIENTS,
    SCENARIO_PRESETS,
    Classification,
    DriverProfile,
    EpisodeConfig,
    EpisodeOutcome,
    NdrtClass,
    ScenarioSpec,
    SchemaError,
    TakeoverContext,
    WindowOutOfRange,
    detect_tot,
    drive_log_to_csv,
    estimate_tortb,
    extract_metrics,
    mix_seed,
    parse_drive_log,
    response_onset,
    run_batch,
    run_episode,
)
from tortb import simulate
from tortb.records import replace
from tortb.simulate import LOG_LEAD_IN_S, LOG_TAIL_S, MAX_LOG_S, log_texts

BOUND = DriverProfile(srt=0.3, experience_km_per_week=20)
FIRST_HANDS_FREE = TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1)


def base_config(**overrides):
    defaults = dict(
        driver=BOUND,
        scenario=SCENARIO_PRESETS["S1"],
        ctx=FIRST_HANDS_FREE,
    )
    defaults.update(overrides)
    return EpisodeConfig(**defaults)


def test_noise_free_fixed_point():
    outcome = run_episode(base_config())
    assert outcome.margin == 0.0
    assert outcome.required_time == outcome.deadline
    assert outcome.classification is Classification.SUCCESS


def test_faster_driver_margin_is_component_difference():
    fast = DriverProfile(srt=0.2, experience_km_per_week=20)
    outcome = run_episode(base_config(driver=fast, budget_driver=BOUND))
    assert outcome.margin == pytest.approx(0.1, abs=1e-12)
    assert outcome.classification is Classification.SUCCESS


def test_same_seed_reproduces_everything():
    cfg = base_config(response_noise=0.5)
    a, b = run_episode(cfg, 42), run_episode(cfg, 42)
    assert a.required_time == b.required_time
    assert a.margin == b.margin
    for name in ("t", "lateral_displacement", "acceleration", "steering", "brake"):
        assert np.array_equal(getattr(a.log, name), getattr(b.log, name))


def test_different_seeds_differ_under_noise():
    a = run_episode(base_config(response_noise=0.5), 1)
    b = run_episode(base_config(response_noise=0.5), 2)
    assert a.required_time != b.required_time


def test_explicit_short_deadline_collides():
    outcome = run_episode(base_config(deadline=1.0, maneuver_duration=2.0))
    assert outcome.required_time > 3.0
    assert outcome.classification is Classification.COLLISION


def test_classification_boundaries():
    est = estimate_tortb(BOUND, SCENARIO_PRESETS["S1"], FIRST_HANDS_FREE).total
    at_deadline = run_episode(base_config(deadline=est))
    assert at_deadline.classification is Classification.SUCCESS
    late = run_episode(base_config(deadline=est - 1.0, maneuver_duration=2.0))
    assert late.classification is Classification.LATE
    # margin exactly -maneuver_duration counts as a collision
    boundary = run_episode(base_config(deadline=est - 2.0, maneuver_duration=2.0))
    assert boundary.margin == -2.0
    assert boundary.classification is Classification.COLLISION


def test_noise_has_bounded_support():
    est = estimate_tortb(BOUND, SCENARIO_PRESETS["S1"], FIRST_HANDS_FREE).total
    required = [
        run_episode(base_config(response_noise=0.5), seed).required_time
        for seed in range(40)
    ]
    assert all(abs(r - est) <= 0.5 + 1e-12 for r in required)
    assert len(set(required)) > 1


@given(
    seed=st.integers(0, 2**64 - 1),
    noise=st.one_of(st.sampled_from([0.0, 5e-324, 2.2e-308]), st.floats(0.0, MAX_LOG_S)),
)
@example(seed=0, noise=1.0)
@example(seed=2**32, noise=MAX_LOG_S)
@example(seed=2**64 - 1, noise=5e-324)
def test_uniform_is_numpys_first_draw(seed, noise):
    """The episode noise is numpy's ``default_rng(seed).uniform`` draw bit for
    bit, so a seed gives the same episodes with or without ``numpy.random``."""
    want = np.random.default_rng(seed).uniform(-noise, noise)
    assert simulate._uniform(seed, -noise, noise).hex() == float(want).hex()


def test_required_time_clamped_at_zero():
    tiny_budget = replace(DEFAULT_COEFFICIENTS, oc_repeat=0.0)
    cfg = base_config(
        driver=DriverProfile(srt=0.18, experience_km_per_week=5000),
        scenario=ScenarioSpec(noa=0, noj=0, ego_speed=10),
        coeffs=tiny_budget,
        response_noise=5.0,
    )
    for seed in range(30):
        outcome = run_episode(cfg, mix_seed(123, seed))
        assert outcome.required_time >= 0.0


def test_synthesized_log_round_trips():
    for ndrt in NdrtClass:
        for srt in (0.18, 0.3):
            cfg = base_config(
                driver=DriverProfile(srt=srt, experience_km_per_week=20),
                ctx=TakeoverContext(ndrt_class=ndrt, ordinal=1),
                budget_driver=BOUND,
            )
            outcome = run_episode(cfg)
            onset = response_onset(cfg)
            tot = detect_tot(outcome.log)
            assert tot is not None
            assert abs(tot - onset) <= 0.05 + 1e-9
            parsed = parse_drive_log(drive_log_to_csv(outcome.log))
            assert parsed.tor_time == outcome.log.tor_time


@pytest.mark.xfail(strict=True, raises=WindowOutOfRange,
                   reason="a log ends LOG_TAIL_S after the maneuver or deadline, which can "
                   "fall inside the default post window (ROADMAP.md item 3)")
def test_synthesized_log_holds_the_default_analysis_windows():
    cfg = base_config(driver=DriverProfile(srt=0.2, experience_km_per_week=80),
                      scenario=SCENARIO_PRESETS["S2"])
    outcome = run_episode(cfg)
    assert outcome.required_time == pytest.approx(2.15)
    # Raises: window [0, 10] s must be ordered and lie inside the log [0, 8.2] s.
    metrics = extract_metrics(outcome.log)
    assert abs(metrics.tot - response_onset(cfg)) <= 0.05 + 1e-9


def test_synthesized_log_shape():
    outcome = run_episode(base_config(maneuver_duration=1.5))
    log = outcome.log
    assert log.tor_time == pytest.approx(5.0, abs=1e-9)  # lead-in for analysis windows
    assert log.t[-1] >= log.tor_time + outcome.required_time
    assert float(np.max(log.lateral_displacement)) == pytest.approx(3.5, abs=1e-6)
    assert float(np.min(log.lateral_displacement)) == 0.0
    assert float(np.max(log.acceleration)) <= 1.0 + 1e-9
    assert set(log.brake) == {0.0}


def test_config_validation():
    with pytest.raises(ValueError):
        base_config(response_noise=-0.1)
    with pytest.raises(ValueError):
        base_config(maneuver_duration=0.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="response_noise"):
            base_config(response_noise=bad)
        with pytest.raises(ValueError, match="maneuver_duration"):
            base_config(maneuver_duration=bad)
    for bad_noise in (np.nextafter(MAX_LOG_S, np.inf), 1e308):
        with pytest.raises(ValueError, match="response_noise"):
            base_config(response_noise=bad_noise)
    for bad_deadline in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="deadline"):
            base_config(deadline=bad_deadline)
    with pytest.raises(ValueError):
        run_episode(base_config(), -1)


# Each fails before its log is allocated; a value that would really
# allocate (a deadline near 1e6 s is gigabytes) is never run here.
@pytest.mark.parametrize(
    "fields,cause",
    [({"deadline": 1e12}, "deadline 1e+12 s"),
     ({"deadline": 1e30}, "deadline 1e+30 s"),
     ({"maneuver_duration": 4000.0}, "maneuver 4000 s")],
)
def test_log_above_the_length_limit_is_rejected(fields, cause):
    cfg = base_config(**fields)
    with pytest.raises(ValueError, match=f"above the 3600 s limit .*{re.escape(cause)}") as info:
        run_episode(cfg)
    assert "required time" in str(info.value)
    with pytest.raises(ValueError, match=r"^episodes\[1\]: drive log would span"):
        run_batch([base_config(), cfg], base_seed=0)


def test_log_at_the_length_limit_is_written():
    longest = MAX_LOG_S - LOG_LEAD_IN_S - LOG_TAIL_S
    log = run_episode(base_config(deadline=longest)).log
    assert log.t[-1] - log.t[0] <= MAX_LOG_S
    with pytest.raises(ValueError, match="3600 s limit"):
        run_episode(base_config(deadline=np.nextafter(longest, np.inf)))


# sha256 of the five channels of two episodes' logs, pinned so that how a
# log is made cannot change its values: one episode's deadline is the
# driver's own budget, the other's is budgeted for another driver.
PINNED_LOGS = [
    (dict(scenario=SCENARIO_PRESETS["S3"],
          ctx=TakeoverContext(ndrt_class=NdrtClass.HAND_HELD, ordinal=2),
          response_noise=0.75, seed=2024),
     317, "ddb13c678636585287cfbefd7916dbfab64a7037cb178a01d9708b3522a72396"),
    (dict(driver=DriverProfile(srt=0.2, experience_km_per_week=150), budget_driver=BOUND,
          response_noise=1.5, maneuver_duration=1.25, seed=7),
     263, "906d305a65c02e7ad19a480a138066be053a91f1b5ad598bb66b2214c582ba39"),
]


CHANNELS = ("t", "lateral_displacement", "acceleration", "steering", "brake")


def _log_digest(log):
    h = hashlib.sha256()
    for name in CHANNELS:
        h.update(np.array(getattr(log, name)).tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("fields,n,digest", PINNED_LOGS)
def test_log_is_remade_identically_on_each_access(fields, n, digest):
    config_fields = dict(fields)
    seed = config_fields.pop("seed")
    outcome = run_episode(base_config(**config_fields), seed)
    first, second = outcome.log, outcome.log
    assert first is not second
    assert len(first.t) == n and first.tor_time == second.tor_time == 5.0
    assert _log_digest(first) == _log_digest(second) == digest
    assert outcome.seed == seed


DRIVERS = st.builds(DriverProfile, srt=st.floats(0.0, 1.0),
                    experience_km_per_week=st.floats(0.0, 500.0))
SUBNORMAL_DURATION = 2.2250738585e-313  # overflows the maneuver ramp to a step


@st.composite
def episode_configs(draw):
    deadline = draw(st.sampled_from(["own", "explicit", "budget_driver"]))
    return base_config(
        driver=draw(DRIVERS),
        scenario=draw(st.sampled_from(sorted(SCENARIO_PRESETS.values(), key=str))),
        ctx=TakeoverContext(ndrt_class=draw(st.sampled_from(NdrtClass)),
                            ordinal=draw(st.integers(1, 4))),
        deadline=draw(st.floats(0.0, 60.0)) if deadline == "explicit" else None,
        budget_driver=draw(DRIVERS) if deadline == "budget_driver" else None,
        response_noise=draw(st.sampled_from([0.0, 5e-324]) | st.floats(0.0, 3.0)),
        maneuver_duration=draw(st.sampled_from([5e-324, SUBNORMAL_DURATION, 1e-300])
                               | st.floats(0.01, 10.0)),
    )


def assert_log_texts_render_each_log(configs, base_seed=0):
    """log_texts gives ``drive_log_to_csv(outcome.log)`` for every outcome.
    Returns the row count of each log."""
    outcomes = run_batch(configs, base_seed)
    logs = [o.log for o in outcomes]
    assert list(log_texts(outcomes)) == [drive_log_to_csv(log) for log in logs]
    return [len(log.t) for log in logs]


def numpy_channels(rows, onset, start, duration):
    """A log's five channels computed on numpy arrays, ``np.clip`` and
    ``np.sin``: the reference for the exact value of every row."""
    t = np.arange(rows) / 20.0
    rel = t - 5.0
    steering = np.where(rel >= onset - 1e-9, simulate.STEERING_STEP, 0.0)
    with np.errstate(over="ignore"):
        u = np.clip((rel - start) / duration, 0.0, 1.0)
    lateral = simulate.LANE_CHANGE_AMPLITUDE_M * u * u * (3.0 - 2.0 * u)
    acceleration = simulate.ACCEL_PULSE_PEAK * np.sin(np.pi * u)
    return t, lateral, acceleration, steering, np.zeros(rows)


# The maneuver starts at the onset, 5e-324 s after the TOR, so the ramp at
# the TOR row is -5e-324 / 10, which rounds to -0.0: np.clip keeps it, and
# the row's acceleration is sin(-0.0) == -0.0.
NEGATIVE_ZERO_RAMP = base_config(driver=DriverProfile(srt=5e-324, experience_km_per_week=20),
                                 maneuver_duration=10.0)


@given(configs=st.lists(episode_configs(), min_size=1, max_size=6),
       base_seed=st.integers(-2**64, 2**64))
@example(configs=[NEGATIVE_ZERO_RAMP], base_seed=0)
def test_logs_hold_the_values_numpy_computed(configs, base_seed):
    for outcome in run_batch(configs, base_seed):
        extent = simulate._log_extent(outcome.config, outcome.required_time, outcome.deadline)
        log = outcome.log
        for name, expected in zip(CHANNELS, numpy_channels(*extent)):
            assert np.array(getattr(log, name)).tobytes() == expected.tobytes(), name


def test_acceleration_keeps_the_sign_of_a_negative_zero_ramp():
    text = next(log_texts(run_batch([NEGATIVE_ZERO_RAMP], 0)))
    assert text.splitlines()[1 + 100] == "5.0,0.0,-0.0,0.2,0.0,1"


@given(configs=st.lists(episode_configs(), min_size=1, max_size=6),
       base_seed=st.integers(-2**64, 2**64))
@example(configs=[NEGATIVE_ZERO_RAMP], base_seed=0)
def test_log_texts_are_the_rendered_logs(configs, base_seed):
    assert_log_texts_render_each_log(configs, base_seed)


LONGEST = MAX_LOG_S - LOG_LEAD_IN_S - LOG_TAIL_S
HANDS_FREE_AT_ONCE = DriverProfile(srt=0.0, experience_km_per_week=20)


@pytest.mark.parametrize("configs,premise", [
    ([base_config(response_noise=0.5)], lambda rows: len(rows) == 1),
    ([base_config(deadline=100.0 + i, response_noise=0.5) for i in range(20)],
     lambda rows: sum(rows) > 40000),
    ([base_config(), base_config(deadline=1000.0), base_config(response_noise=1.0)],
     lambda rows: rows[1] > 10 * (rows[0] + rows[2])),
    ([base_config(deadline=LONGEST)], lambda rows: rows == [int(MAX_LOG_S * 20) + 1]),
    ([base_config(maneuver_duration=SUBNORMAL_DURATION), base_config(maneuver_duration=5e-324)],
     lambda rows: len(rows) == 2),
    # Steering steps on the TOR row.  The first and last maneuvers start
    # there; the second lasts one sample period.
    ([base_config(driver=HANDS_FREE_AT_ONCE, maneuver_duration=10.0),
      base_config(driver=HANDS_FREE_AT_ONCE, maneuver_duration=0.05), NEGATIVE_ZERO_RAMP],
     lambda rows: len(rows) == 3),
], ids=["one_episode", "many_logs", "long_log_between_short_ones", "longest_log",
       "subnormal_maneuver", "maneuver_at_the_tor"])
def test_log_texts_of_edge_logs(configs, premise):
    assert premise(assert_log_texts_render_each_log(configs))


def test_log_texts_keep_memory_flat_over_many_outcomes():
    """Only the log being rendered is held: the peak while 200 logs of
    ~2100 rows are rendered is that of one, not of the 17 MB they add up to."""
    outcomes = run_batch([base_config(deadline=100.0, response_noise=0.5)] * 200, 0)
    one = len(next(log_texts(outcomes)))  # also grows the timestamp table first
    tracemalloc.start()
    try:
        total = sum(len(text) for text in log_texts(outcomes))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total > 200 * one * 0.9
    assert peak < 4 * one, (peak, one)


def test_time_texts_grow_to_the_longest_log_and_stop_there():
    full = [repr(k / 20) for k in range(int(MAX_LOG_S * 20) + 1)]
    list(log_texts(run_batch([base_config(deadline=LONGEST)], 0)))
    table = simulate._time_texts
    assert table == full
    list(log_texts(run_batch([base_config(response_noise=0.5)], 0)))
    assert simulate._time_texts is table and table == full


def test_importing_the_package_builds_no_time_texts():
    env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c",
         "import tortb, tortb.cli, tortb.simulate; print(len(tortb.simulate._time_texts))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "0\n"


def test_concurrent_renders_each_get_their_own_logs(monkeypatch):
    """Threads that grow the shared timestamp table at once still write each
    log's bytes: the table is rebound whole, never extended in place."""
    outcomes = run_batch([base_config(deadline=d) for d in (5.0, 60.0, 250.0, 900.0)], 0)
    expected = [drive_log_to_csv(outcome.log) for outcome in outcomes]
    rotations = [i % len(outcomes) for i in range(8)]

    def render(slot):
        i = rotations[slot]
        results[slot] = list(log_texts(outcomes[i:] + outcomes[:i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(simulate, "_time_texts", [])
            results = [None] * len(rotations)
            threads = [threading.Thread(target=render, args=(slot,))
                       for slot in range(len(rotations))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected[i:] + expected[:i] for i in rotations]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize(
    "fields,estimates",
    [({}, 1), ({"budget_driver": BOUND}, 2), ({"deadline": 3.0}, 1)],
)
def test_episode_estimates_each_budget_once(fields, estimates, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return estimate_tortb(*args)

    monkeypatch.setattr(simulate, "estimate_tortb", counted)
    run_episode(base_config(**fields))
    assert len(calls) == estimates


def test_batch_holds_no_logs():
    configs = [base_config(response_noise=0.5)] * 400
    run_batch(configs[:2], base_seed=1)  # first-call allocations are not the batch's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        outcomes = run_batch(configs, base_seed=1)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # Each stored log would take ~11 KiB (4.4 MiB for the batch); an outcome
    # without one takes well under 1 KiB.
    assert len(outcomes) == 400
    assert retained < 2**20, retained


def test_mix_seed_is_fixed_and_spread():
    assert mix_seed(0, 0) == mix_seed(0, 0)
    seeds = {mix_seed(99, i) for i in range(100)}
    assert len(seeds) == 100
    assert all(0 <= s < 2**64 for s in seeds)
    assert mix_seed(0, 0) != mix_seed(1, 0)


def test_batch_classes_and_determinism():
    cfg = base_config()
    outcomes = run_batch([cfg] * 100, base_seed=7)
    assert [o.classification for o in outcomes] == [Classification.SUCCESS] * 100
    assert run_batch([cfg] * 100, base_seed=7) == outcomes
    assert [o.seed for o in outcomes] == [mix_seed(7, i) for i in range(100)]


def test_batch_outcomes_hold_the_callers_configs_and_the_mixed_seeds():
    configs = [base_config(response_noise=0.5), base_config(deadline=3.0), base_config()]
    outcomes = run_batch(configs, base_seed=-5)
    assert type(outcomes) is tuple and len(outcomes) == 3
    for i, outcome in enumerate(outcomes):
        assert outcome.config is configs[i]
        assert outcome.seed == mix_seed(-5, i)
        assert outcome == run_episode(configs[i], mix_seed(-5, i))


def test_outcome_margin_and_class_follow_its_fields():
    """An outcome holds what the episode drew; its margin and class are
    computed from them, so no outcome can contradict itself."""
    cfg = base_config(maneuver_duration=2.0)
    cases = ((7.0, 7.0, Classification.SUCCESS), (7.0, 8.5, Classification.LATE),
             (7.0, 9.0, Classification.COLLISION), (7.0, 9.5, Classification.COLLISION))
    for deadline, required, cls in cases:
        outcome = EpisodeOutcome(required_time=required, deadline=deadline, config=cfg, seed=3)
        assert outcome.margin == deadline - required
        assert outcome.classification is cls


def test_batch_empty():
    """An empty batch is no outcomes; its base seed is checked all the same."""
    assert run_batch([], 0) == ()
    with pytest.raises(SchemaError, match="^base_seed must be an integer, got 1.5$"):
        run_batch([], 1.5)


def test_budget_bound_covers_slower_band_representatives():
    """Small version of the coverage sweep: budgets at the calibration bound
    never collide for drivers at or inside that bound."""
    collisions = 0
    for experience in (15.0, 65.0, 150.0, 500.0):
        for srt in (0.2, 0.3):
            for rs in (30.0, 80.0, 130.0):
                for noa in (0, 2):
                    for ordinal in (1, 2):
                        cfg = EpisodeConfig(
                            driver=DriverProfile(srt=srt, experience_km_per_week=experience),
                            scenario=ScenarioSpec(noa=noa, noj=1, ego_speed=rs),
                            ctx=TakeoverContext(
                                ndrt_class=NdrtClass.HAND_HELD, ordinal=ordinal
                            ),
                            budget_driver=BOUND,
                        )
                        if run_episode(cfg, 11).classification is Classification.COLLISION:
                            collisions += 1
    assert collisions == 0
