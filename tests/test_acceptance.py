"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
"""

import math
import time

import numpy as np

from tortb import (
    DEFAULT_COEFFICIENTS,
    SCENARIO_PRESETS,
    AnchorCase,
    Classification,
    DriverProfile,
    EpisodeConfig,
    NdrtClass,
    ScenarioSpec,
    TakeoverContext,
    UnknownCoefficient,
    avg_lateral_displacement,
    calibrate_sequence,
    derive_oc,
    detect_tot,
    estimate_tortb,
    max_acceleration,
    response_onset,
    run_episode,
    solve_coefficient,
)
from tortb.cli import table_rows
from tortb.drivelog import DriveLog
from tortb.records import replace

GOLDEN_TORTB = (4.1, 6.5, 6.55, 8.7, 1.75, 2.5)

BOUND = DriverProfile(srt=0.3, experience_km_per_week=20)
FIRST_HANDS_FREE = TakeoverContext(ndrt_class=NdrtClass.HANDS_FREE, ordinal=1)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_golden_table():
    start = time.perf_counter()
    rows = table_rows()
    elapsed = time.perf_counter() - start
    deviations = [abs(row["tortb_s"] - golden) for row, golden in zip(rows, GOLDEN_TORTB)]
    ok = len(rows) == 6 and all(d <= 0.001 for d in deviations) and elapsed < 1.0
    report(
        "1 golden table",
        ok,
        f"max deviation {max(deviations):.2g} s, {elapsed * 1000:.0f} ms",
    )
    assert ok, (rows, elapsed)


def test_criterion_2_calibration_values():
    s1 = AnchorCase(
        scenario=SCENARIO_PRESETS["S1"], driver=BOUND, ctx=FIRST_HANDS_FREE,
        known_tortb=7.0, unknown=UnknownCoefficient.C_NOA,
    )
    s3 = AnchorCase(
        scenario=SCENARIO_PRESETS["S3"], driver=BOUND, ctx=FIRST_HANDS_FREE,
        known_tortb=7.0, unknown=UnknownCoefficient.C_NOJ,
    )
    noa_raw, noa_rounded = solve_coefficient(s1, DEFAULT_COEFFICIENTS)
    result, _ = calibrate_sequence([s1, s3], DEFAULT_COEFFICIENTS)
    noj = result.solved[UnknownCoefficient.C_NOJ]
    oc_raw, oc_rounded = derive_oc(0.053, 7)
    checks = {
        "c_noa raw": abs(noa_raw - 1.85) <= 1e-9,
        "c_noa rounded": noa_rounded == 1.9,
        "c_noj raw": abs(noj.raw - 0.1667) <= 1e-3,
        "c_noj rounded": noj.rounded == 0.2,
        "oc raw": abs(oc_raw - 0.371) <= 1e-9,
        "oc rounded": oc_rounded == 0.4,
    }
    ok = all(checks.values())
    report(
        "2 calibration",
        ok,
        f"c_noa {noa_raw:.6g}->{noa_rounded}, c_noj {noj.raw:.6g}->{noj.rounded}, "
        f"oc {oc_raw:.6g}->{oc_rounded}",
    )
    assert ok, checks


def test_criterion_3_round_trip_calibration():
    rng = np.random.default_rng(20260810)
    unknowns = list(UnknownCoefficient)
    attr = {
        UnknownCoefficient.C_NOA: "c_noa",
        UnknownCoefficient.C_NOJ: "c_noj",
        UnknownCoefficient.OC: "oc_repeat",
    }
    failures = 0
    for i in range(1000):
        true = replace(
            DEFAULT_COEFFICIENTS,
            c_noa=float(rng.uniform(0.5, 3.0)),
            c_noj=float(rng.uniform(0.05, 1.0)),
            ndrtc_handheld=float(rng.uniform(0.0, 4.0)),
            oc_repeat=float(rng.uniform(0.0, 1.0)),
        )
        unknown = unknowns[i % len(unknowns)]
        scenario = ScenarioSpec(
            noa=int(rng.integers(1, 6)),
            noj=int(rng.integers(1, 6)),
            ego_speed=float(rng.uniform(0, 130)),
        )
        ctx = TakeoverContext(
            ndrt_class=NdrtClass(rng.choice(["handsfree", "handheld"])),
            ordinal=2 if unknown is UnknownCoefficient.OC else int(rng.integers(1, 4)),
        )
        driver = DriverProfile(
            srt=float(rng.uniform(0, 1)),
            experience_km_per_week=float(rng.uniform(0, 400)),
        )
        anchor = AnchorCase(
            scenario=scenario, driver=driver, ctx=ctx,
            known_tortb=estimate_tortb(driver, scenario, ctx, true).total,
            unknown=unknown,
        )
        _, solved_set = calibrate_sequence(
            [anchor], replace(true, **{attr[unknown]: 0.123})
        )
        total = estimate_tortb(driver, scenario, ctx, solved_set).total
        if abs(anchor.known_tortb - total) >= 1e-9:
            failures += 1
    ok = failures == 0
    report("3 calibration round trip", ok, f"{failures}/1000 failures at 1e-9")
    assert ok


def test_criterion_4_model_properties():
    rng = np.random.default_rng(1)
    failures = {"additivity": 0, "monotonicity": 0}
    checks = 0
    for _ in range(2500):
        srt = float(rng.uniform(0, 1))
        exp = float(rng.uniform(0, 400))
        noa = int(rng.integers(0, 5))
        noj = int(rng.integers(0, 5))
        rs_lo, rs_hi = sorted(rng.uniform(0, 130, size=2))
        ordinal = int(rng.integers(1, 4))
        ndrt = NdrtClass(rng.choice(["handsfree", "handheld"]))

        def total(noa_, noj_, rs_, ndrt_, ordinal_):
            return estimate_tortb(
                DriverProfile(srt=srt, experience_km_per_week=exp),
                ScenarioSpec(noa=noa_, noj=noj_, ego_speed=float(rs_)),
                TakeoverContext(ndrt_class=ndrt_, ordinal=ordinal_),
            ).total

        base = total(noa, noj, rs_lo, ndrt, ordinal)
        more_agents = total(noa + 1, noj, rs_lo, ndrt, ordinal)
        more_junctions = total(noa, noj + 1, rs_lo, ndrt, ordinal)
        if abs(more_agents - base - 1.9) > 1e-9:
            failures["additivity"] += 1
        if abs(more_junctions - base - 0.2) > 1e-9:
            failures["additivity"] += 1
        if more_agents < base - 1e-12 or more_junctions < base - 1e-12:
            failures["monotonicity"] += 1
        if total(noa, noj, rs_hi, ndrt, ordinal) < base - 1e-12:
            failures["monotonicity"] += 1
        if total(noa, noj, rs_lo, NdrtClass.HAND_HELD, ordinal) < total(
            noa, noj, rs_lo, NdrtClass.HANDS_FREE, ordinal
        ) - 1e-12:
            failures["monotonicity"] += 1
        checks += 5

    def band(term, experience, speed):
        return estimate_tortb(
            DriverProfile(srt=0.2, experience_km_per_week=experience),
            ScenarioSpec(noa=0, noj=0, ego_speed=speed),
            FIRST_HANDS_FREE,
        ).components[term]

    edge_ok = True
    for edge, at_edge, above in ((50.0, 0.25, 0.5), (80.0, 0.5, 1.0)):
        edge_ok &= band("rsc", 80.0, edge) == at_edge
        edge_ok &= band("rsc", 80.0, math.nextafter(edge, math.inf)) == above
    edge_ok &= band("rsc", 80.0, 130.0) == 1.0
    for edge, at_edge, above in ((30.0, 2.0, 1.5), (100.0, 1.5, 1.0), (200.0, 1.0, 1.0)):
        edge_ok &= band("dec", edge, 80.0) == at_edge
        edge_ok &= band("dec", math.nextafter(edge, math.inf), 80.0) == above
    checks += 11

    ok = not any(failures.values()) and edge_ok and checks >= 10_000
    report(
        "4 model properties",
        ok,
        f"{checks} checks, additivity failures {failures['additivity']}, "
        f"monotonicity failures {failures['monotonicity']}, band edges "
        f"{'ok' if edge_ok else 'FAIL'}",
    )
    assert ok, failures


def _random_log(rng):
    n = int(rng.integers(40, 400))
    tor_index = int(rng.integers(5, n - 5))
    t = np.arange(n) / 20.0
    steering = (
        np.clip(np.cumsum(rng.normal(0, 0.02, n)) + 0.3, 0, 1)
        if rng.random() > 0.2
        else np.full(n, 0.3)
    )
    brake = np.clip(rng.normal(0.1, 0.05, n), 0, 1) if rng.random() > 0.5 else np.zeros(n)
    return DriveLog(
        t=t,
        lateral_displacement=rng.normal(0, 2, n),
        acceleration=rng.normal(0, 1, n),
        steering=steering,
        brake=brake,
        tor_time=float(t[tor_index]),
        sample_rate=20.0,
    )


def _scan_tot(log, threshold=0.05):
    i0 = next(i for i in range(len(log.t)) if log.t[i] >= log.tor_time - 1e-9)
    s0, b0 = log.steering[i0], log.brake[i0]
    for i in range(i0, len(log.t)):
        if abs(log.steering[i] - s0) >= threshold or abs(log.brake[i] - b0) >= threshold:
            return float(log.t[i] - log.tor_time)
    return None


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(55)
    worst_ld = worst_acc = 0.0
    tot_mismatches = invariance_failures = 0
    for _ in range(1000):
        log = _random_log(rng)
        pre = float(rng.uniform(0.04, log.tor_time - log.t[0]))
        post = float(rng.uniform(0.04, log.t[-1] - log.tor_time))
        lo, hi = log.tor_time - pre, log.tor_time + post
        inside = [
            abs(log.lateral_displacement[i])
            for i in range(len(log.t))
            if lo - 1e-9 <= log.t[i] <= hi + 1e-9
        ]
        worst_ld = max(
            worst_ld,
            abs(avg_lateral_displacement(log, pre, post) - sum(inside) / len(inside)),
        )
        end = float(log.t[int(rng.integers(log.tor_index, len(log.t)))])
        brute = max(
            log.acceleration[i]
            for i in range(len(log.t))
            if log.tor_time - 1e-9 <= log.t[i] <= end + 1e-9
        )
        worst_acc = max(worst_acc, abs(max_acceleration(log, end) - brute))
        if detect_tot(log) != _scan_tot(log):
            tot_mismatches += 1
        # Any rewrite of history strictly before the TOR must not matter.
        mutated_steering = np.array(log.steering)
        mutated_brake = np.array(log.brake)
        mutated_steering[: log.tor_index] = rng.uniform(0, 1, log.tor_index)
        mutated_brake[: log.tor_index] = rng.uniform(0, 1, log.tor_index)
        mutated = DriveLog(
            t=log.t,
            lateral_displacement=log.lateral_displacement,
            acceleration=log.acceleration,
            steering=mutated_steering,
            brake=mutated_brake,
            tor_time=log.tor_time,
            sample_rate=log.sample_rate,
        )
        if detect_tot(mutated) != detect_tot(log):
            invariance_failures += 1
    ok = (
        worst_ld < 1e-9
        and worst_acc < 1e-9
        and tot_mismatches == 0
        and invariance_failures == 0
    )
    report(
        "5 metric oracles",
        ok,
        f"worst avg_ld dev {worst_ld:.2g}, worst max_acc dev {worst_acc:.2g}, "
        f"tot mismatches {tot_mismatches}, pre-TOR invariance failures "
        f"{invariance_failures}",
    )
    assert ok


def test_criterion_6_simulator_coverage():
    episodes = 0
    collisions = 0
    for srt in (0.2, 0.3):
        for experience in (15.0, 30.0, 65.0, 100.0, 150.0, 200.0, 500.0):
            driver = DriverProfile(srt=srt, experience_km_per_week=experience)
            for rs in (25.0, 50.0, 65.0, 80.0, 105.0, 130.0):
                for noa in range(5):
                    for noj in range(5):
                        scenario = ScenarioSpec(noa=noa, noj=noj, ego_speed=rs)
                        for ndrt in NdrtClass:
                            for ordinal in (1, 2, 3):
                                cfg = EpisodeConfig(
                                    driver=driver,
                                    scenario=scenario,
                                    ctx=TakeoverContext(
                                        ndrt_class=ndrt, ordinal=ordinal
                                    ),
                                    budget_driver=BOUND,
                                    response_noise=0.0,
                                )
                                outcome = run_episode(cfg)
                                episodes += 1
                                if outcome.classification is Classification.COLLISION:
                                    collisions += 1
    ok = collisions == 0
    report("6 simulator coverage", ok, f"{collisions} collisions in {episodes} episodes")
    assert ok


def test_criterion_7_log_round_trip():
    checked = 0
    worst = 0.0
    for preset in ("S1", "S2", "S3"):
        for srt in (0.18, 0.27, 0.3):
            for ndrt in NdrtClass:
                for ordinal in (1, 2):
                    for noise, seed in ((0.0, 0), (0.5, 314), (1.0, 2718)):
                        cfg = EpisodeConfig(
                            driver=DriverProfile(srt=srt, experience_km_per_week=50),
                            scenario=SCENARIO_PRESETS[preset],
                            ctx=TakeoverContext(ndrt_class=ndrt, ordinal=ordinal),
                            budget_driver=BOUND,
                            response_noise=noise,
                        )
                        outcome = run_episode(cfg, seed)
                        tot = detect_tot(outcome.log)
                        assert tot is not None
                        worst = max(worst, abs(tot - response_onset(cfg)))
                        checked += 1
    ok = worst <= 0.05 + 1e-9
    report("7 log round trip", ok, f"{checked} logs, worst onset deviation {worst:.4f} s")
    assert ok
