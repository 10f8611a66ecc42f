"""Seeded input generators for the three benchmark workloads.

Every generator takes the workload seed and writes plain files (JSON
configs, CSV logs) into a directory; the same seed gives byte-identical
files.  Nothing here imports tortb: the program under test only ever sees
the generated files, and the expected answers (the oracles) are computed
here independently of it.

Non-finite CSV and JSON values (NaN, inf) are deliberately left out: the
package does not yet define how they are rejected.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np

SAMPLE_RATE_HZ = 20.0
T_EPS = 1e-9  # the drive-log timestamp slack of the CSV schema
CSV_HEADER = "t,lat_disp,acc,steering,brake,tor_flag\n"

# Model constants the oracles need: inclusive-upper band tables shared by the
# default, raw and rounded coefficient sets.
RSC_BANDS = ((50.0, 0.25), (80.0, 0.5), (130.0, 1.0))
DEC_BANDS = ((30.0, 2.0), (100.0, 1.5), (200.0, 1.0))
DEC_FLOOR = 1.0
COEFFICIENT_SETS = ("default", "raw", "rounded")

# The calibration anchors: the S1 and S3 presets at the 7 s bound for the
# slowest, least experienced validated driver.
BOUND_DRIVER = {"srt_s": 0.3, "experience_km_per_wk": 20.0}
ANCHORS = {
    "anchors": [
        {"scenario": "S1", "driver": BOUND_DRIVER,
         "ctx": {"ndrt": "handsfree", "ordinal": 1},
         "known_tortb_s": 7.0, "unknown": "c_noa"},
        {"scenario": "S3", "driver": BOUND_DRIVER,
         "ctx": {"ndrt": "handsfree", "ordinal": 1},
         "known_tortb_s": 7.0, "unknown": "c_noj"},
    ]
}
TABLE_TOTALS = (4.1, 6.5, 6.55, 8.7, 1.75, 2.5)
CALIBRATED = {"c_noa": (1.85, 1.9), "c_noj": (0.5 / 3, 0.2)}

# A coefficient file for the one-shot `estimate --coeffs FILE`: the published
# set with a 3.0 s handheld penalty, so the file visibly changes the answer.
COEFFICIENT_FILE = {
    "c_noa_s": 1.9,
    "c_noj_s": 0.2,
    "rsc_bands": [{"upper_km_per_hr": u, "value_s": v} for u, v in RSC_BANDS],
    "dec_bands": [{"upper_km_per_wk": u, "value_s": v} for u, v in DEC_BANDS],
    "dec_floor_s": DEC_FLOOR,
    "ndrtc_handheld_s": 3.0,
    "oc_repeat_s": 0.4,
}


def _dump(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def digest_files(paths) -> str:
    """sha256 over the names and contents of ``paths``, in the given order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def band_value(bands, key: float, above: float | None) -> float | None:
    """First band whose inclusive upper bound holds ``key``; ``above`` past the last."""
    for upper, value in bands:
        if key <= upper:
            return value
    return above


# --- simulate_batch -------------------------------------------------------


def _driver(rng: random.Random) -> dict:
    return {"srt_s": rng.uniform(0.15, 0.4), "experience_km_per_wk": rng.uniform(0.0, 260.0)}


def _scenario(rng: random.Random):
    if rng.random() < 0.3:
        return rng.choice(("S1", "S2", "S3"))
    lo, hi = rng.choice(((0.0, 50.0), (50.0, 80.0), (80.0, 130.0)))
    hazard = 0.0 if rng.random() < 0.5 else rng.uniform(0.0, 60.0)
    # Keep the closing speed strictly inside the band so float rounding of
    # ego - hazard can never push it over the last calibrated band.
    rs = rng.uniform(lo + 0.5, hi - 0.5)
    return {"noa": rng.randint(0, 3), "noj": rng.randint(0, 3),
            "ego_speed_km_per_hr": hazard + rs, "hazard_speed_km_per_hr": hazard}


def simulate_config(seed: int, n_episodes: int) -> dict:
    """An episode-config file mixing presets, every speed band, both task
    classes, ordinals 1-3, noise 0-1 s and all three deadline kinds."""
    rng = random.Random(seed)
    episodes = []
    for _ in range(n_episodes):
        ep = {
            "driver": _driver(rng),
            "scenario": _scenario(rng),
            "ctx": {"ndrt": rng.choice(("handsfree", "handheld")), "ordinal": rng.randint(1, 3)},
            "response_noise_s": 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 1.0),
        }
        deadline = rng.random()
        if deadline < 0.3:
            ep["deadline_mode"] = "explicit"
            ep["explicit_deadline_s"] = rng.uniform(2.0, 30.0)
        elif deadline < 0.6:
            ep["budget_driver"] = _driver(rng)
        if rng.random() < 0.2:
            ep["maneuver_duration_s"] = rng.uniform(1.5, 3.0)
        if rng.random() < 0.1:
            ep["coefficients"] = dict(COEFFICIENT_FILE, c_noa_s=1.85, c_noj_s=0.5 / 3,
                                      ndrtc_handheld_s=2.73, oc_repeat_s=0.371)
        episodes.append(ep)
    return {"base_seed": seed, "episodes": episodes}


def write_simulate_inputs(seed: int, n_episodes: int, n_oneshot: int, out: Path) -> dict:
    config = simulate_config(seed, n_episodes)
    _dump(out / "episodes.json", config)
    _dump(out / "oneshot_episodes.json",
          {"base_seed": seed, "episodes": config["episodes"][:n_oneshot]})
    return {"config": "episodes.json", "oneshot_config": "oneshot_episodes.json",
            "n_episodes": n_episodes, "n_oneshot_episodes": n_oneshot}


# --- analyze_corpus -------------------------------------------------------

MALFORMED = {
    "bad_header": "SchemaError",
    "missing_tor": "MissingTorMarker",
    "two_tor": "MultipleTorMarkers",
    "non_uniform": "NonUniformSampling",
    "non_numeric": "SchemaError",
}


def _oracle(t, lat, acc, steering, brake, tor_idx, threshold=0.05, window=5.0):
    """Takeover time, mean |lateral displacement| over TOR +/- window, and
    the peak acceleration between TOR and takeover, straight from the
    definitions in the drive-log schema."""
    tor = t[tor_idx]
    moved = (np.abs(steering[tor_idx:] - steering[tor_idx]) >= threshold) | (
        np.abs(brake[tor_idx:] - brake[tor_idx]) >= threshold)
    hits = np.flatnonzero(moved)
    in_window = (t >= tor - window - T_EPS) & (t <= tor + window + T_EPS)
    avg_ld = float(np.mean(np.abs(lat[in_window])))
    if hits.size == 0:
        return {"tot": None, "avg_ld": avg_ld, "max_acc": None}
    takeover = t[tor_idx + hits[0]]
    span = (t >= tor - T_EPS) & (t <= takeover + T_EPS)
    return {"tot": float(takeover - tor), "avg_ld": avg_ld, "max_acc": float(np.max(acc[span]))}


def _drive_log(rng: np.random.Generator):
    """One well-formed 20 Hz log: noisy channels, an optional nonzero
    steering baseline, a steering and/or brake response, or none at all."""
    duration = rng.uniform(10.0, 30.0) if rng.random() < 0.93 else rng.uniform(30.0, 120.0)
    n = int(duration * SAMPLE_RATE_HZ) + 1
    t = np.arange(n) / SAMPLE_RATE_HZ
    tor_idx = int(rng.integers(100, n - 100))
    rel = t - t[tor_idx]
    onset = rng.uniform(0.5, 4.0)
    baseline = 0.0 if rng.random() < 0.6 else rng.uniform(0.05, 0.5)
    steering = baseline + rng.uniform(-0.01, 0.01, n)
    brake = np.zeros(n)
    response = rng.random()
    if response < 0.1:
        pass  # never takes over: noise stays below the 5 % threshold
    elif response < 0.4:
        brake = np.clip((rel - onset) * rng.uniform(0.2, 1.0), 0.0, rng.uniform(0.3, 0.8))
    if 0.1 <= response < 0.85:
        step = rng.choice((-0.2, 0.2)) if baseline >= 0.2 else 0.2
        steering = steering + np.where(rel >= onset, step, 0.0)
    u = np.clip((rel - onset) / 2.0, 0.0, 1.0)
    lat = 3.5 * u * u * (3.0 - 2.0 * u) + rng.normal(0.0, 0.05, n)
    acc = np.sin(np.pi * u) + rng.normal(0.0, 0.1, n)
    steering = np.clip(steering, 0.0, 1.0)
    return t, lat, acc, steering, brake, tor_idx


def _render(t, lat, acc, steering, brake, flags) -> str:
    rows = zip(t.tolist(), lat.tolist(), acc.tolist(), steering.tolist(), brake.tolist(), flags)
    return "".join("%r,%r,%r,%r,%r,%d\n" % row for row in rows)


def write_analyze_inputs(seed: int, n_logs: int, n_oneshot: int, out: Path) -> dict:
    """``n_logs`` CSV logs, about 5 % malformed, plus the expected outcome of each."""
    rng = np.random.default_rng(seed)
    logs = out / "logs"
    logs.mkdir()
    expected = []
    for i in range(n_logs):
        t, lat, acc, steering, brake, tor_idx = _drive_log(rng)
        flags = [0] * t.size
        flags[tor_idx] = 1
        header = CSV_HEADER
        kind = None if rng.random() >= 0.05 else str(rng.choice(list(MALFORMED)))
        if kind == "bad_header":
            header = "t,lat,acc,steering,brake,tor_flag\n"
        elif kind == "missing_tor":
            flags[tor_idx] = 0
        elif kind == "two_tor":
            flags[int(rng.integers(0, t.size))] = 1
            flags[tor_idx] = 1
            if sum(flags) == 1:
                flags[tor_idx - 1] = 1
        elif kind == "non_uniform":
            t[int(rng.integers(1, t.size))] += 0.01
        body = _render(t, lat, acc, steering, brake, flags)
        if kind == "non_numeric":
            lines = body.split("\n")
            k = int(rng.integers(0, len(lines) - 1))
            fields = lines[k].split(",")
            fields[int(rng.integers(0, 5))] = "n/a"
            lines[k] = ",".join(fields)
            body = "\n".join(lines)
        name = f"log_{i:04d}.csv"
        (logs / name).write_text(header + body, encoding="utf-8")
        entry = {"file": name, "rows": int(t.size)}
        if kind is None:
            entry.update(_oracle(t, lat, acc, steering, brake, tor_idx))
        else:
            entry["error"] = MALFORMED[kind]
        expected.append(entry)
    _dump(out / "corpus.json", expected)
    valid = [e["file"] for e in expected if "error" not in e]
    return {"corpus": "corpus.json", "log_dir": "logs", "n_logs": n_logs,
            "oneshot_logs": valid[:n_oneshot]}


# --- estimate_sweep -------------------------------------------------------


def _edges(values) -> list[float]:
    out = []
    for v in values:
        out += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
    return out


def estimate_grid(seed: int, quick: bool) -> list[list]:
    """Rows ``[srt, experience, noa, noj, ego, hazard, ndrt, ordinal, coeffs]``.

    Every DEC and RSC band edge +/- 1 ulp, a seeded interior point per band,
    closing speeds above the last band (expected rejections), noa and noj
    0-3, both task classes, ordinals 1-2 and the three named coefficient sets.
    """
    rng = random.Random(seed)
    experience = [0.0] + _edges(u for u, _ in DEC_BANDS)
    experience += [rng.uniform(lo, hi) for lo, hi in ((0, 30), (30, 100), (100, 200), (200, 400))]
    speeds = [(0.0, 0.0)] + [(v, 0.0) for v in _edges(u for u, _ in RSC_BANDS)]
    for lo, hi in ((0, 50), (50, 80), (80, 130), (130, 200)):
        hazard = rng.uniform(0.0, 40.0)
        speeds.append((hazard + rng.uniform(lo, hi), hazard))
    counts = range(2) if quick else range(4)
    grid = [
        [rng.uniform(0.15, 0.4), exp, noa, noj, ego, hazard, ndrt, ordinal, coeffs]
        for exp in experience
        for ego, hazard in speeds
        for noa in counts
        for noj in counts
        for ndrt in ("handsfree", "handheld")
        for ordinal in (1, 2)
        for coeffs in COEFFICIENT_SETS
    ]
    rng.shuffle(grid)
    return grid


def write_estimate_inputs(seed: int, quick: bool, out: Path) -> dict:
    _dump(out / "grid.json", estimate_grid(seed, quick))
    _dump(out / "anchors.json", ANCHORS)
    _dump(out / "coefficients.json", COEFFICIENT_FILE)
    return {"grid": "grid.json", "anchors": "anchors.json", "coefficients": "coefficients.json"}


def write_inputs(workload: str, seed: int, quick: bool, out: Path) -> dict:
    """Generate one workload's inputs into ``out``; returns their manifest."""
    out.mkdir(parents=True)
    if workload == "simulate_batch":
        manifest = write_simulate_inputs(seed, 40 if quick else 2000, 5 if quick else 20, out)
    elif workload == "analyze_corpus":
        manifest = write_analyze_inputs(seed, 60 if quick else 2000, 10, out)
    else:
        manifest = write_estimate_inputs(seed, quick, out)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    manifest["sha256"] = digest_files(files)
    return manifest
