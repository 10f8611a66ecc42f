"""Command-line front end.

Subcommands::

    tortb estimate   one budget estimate with component breakdown
    tortb calibrate  solve coefficients from an anchors file
    tortb analyze    metrics from a drive-log CSV
    tortb simulate   run episode configs, write logs and a report
    tortb table      the six-row reference estimation table

Exit codes: 0 success, 1 internal error, 2 usage or validation error.
Every command is deterministic given its flags, files and seed.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import Any

from . import __version__, fileio
from .calibration import Chaining, calibrate_sequence
from .drivelog import extract_metrics, drive_log_to_csv, parse_drive_log
from .errors import TortbError, build
from .model import (
    DEFAULT_COEFFICIENTS,
    RAW_COEFFICIENTS,
    SCENARIO_PRESETS,
    CoefficientSet,
    DriverProfile,
    NdrtClass,
    ScenarioSpec,
    TakeoverContext,
    estimate_tortb,
)
from .simulate import run_batch

#: Inputs of the reference estimation table: (noa, noj, ego, hazard, ndrt, ordinal),
#: all estimated for a driver with srt 0.2 s and experience 80 km/wk using the
#: one-decimal rounded coefficient set.
TABLE_DRIVER = DriverProfile(srt=0.2, experience_km_per_week=80.0)
TABLE_ROWS = (
    (1, 0, 80.0, 0.0, NdrtClass.HANDS_FREE, 1),
    (2, 0, 130.0, 0.0, NdrtClass.HANDS_FREE, 1),
    (1, 0, 80.0, 50.0, NdrtClass.HAND_HELD, 1),
    (2, 0, 130.0, 50.0, NdrtClass.HAND_HELD, 1),
    (0, 1, 50.0, 0.0, NdrtClass.HANDS_FREE, 2),
    (0, 1, 100.0, 0.0, NdrtClass.HANDS_FREE, 2),
)

_SCENARIO_FLAGS = ("--noa", "--noj", "--ego-speed", "--hazard-speed")

_NAMED_COEFFICIENTS = {
    "default": DEFAULT_COEFFICIENTS,
    "raw": RAW_COEFFICIENTS,
    "rounded": DEFAULT_COEFFICIENTS.rounded(),
}


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _emit_json(payload: Any) -> None:
    sys.stdout.write(fileio.json_text(payload))


def _load_coefficient_set(spec: str) -> CoefficientSet:
    """Named set ('default', 'raw', 'rounded') or a coefficient file path."""
    if spec in _NAMED_COEFFICIENTS:
        return _NAMED_COEFFICIENTS[spec]
    return fileio.load_coefficients(spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tortb",
        description="Takeover-request time budgeting for conditionally automated driving.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    estimate = sub.add_parser(
        "estimate", help="Estimate one takeover time budget with its breakdown."
    )
    estimate.add_argument("--srt", type=float, required=True, metavar="S",
                          help="Driver visual stimulus response time [s].")
    estimate.add_argument("--experience", type=float, required=True, metavar="KM_WK",
                          help="Driver weekly driving distance [km/wk].")
    estimate.add_argument("--scenario", choices=sorted(SCENARIO_PRESETS),
                          help="Scenario preset; excludes the explicit scenario flags.")
    estimate.add_argument("--noa", type=int, metavar="N",
                          help="Interacting traffic agents (explicit scenario).")
    estimate.add_argument("--noj", type=int, metavar="N",
                          help="Adjoining roads at the decision point (default 0).")
    estimate.add_argument("--ego-speed", type=float, metavar="KM_HR",
                          help="Ego vehicle speed (explicit scenario).")
    estimate.add_argument("--hazard-speed", type=float, metavar="KM_HR",
                          help="Speed of the hazard cause; 0 for stationary (default 0).")
    estimate.add_argument("--ndrt", required=True, choices=[c.value for c in NdrtClass],
                          help="Non-driving-related task class.")
    estimate.add_argument("--ordinal", type=int, required=True, metavar="N",
                          help="Exposure number for this scenario class (1 = first).")
    estimate.add_argument("--coeffs", default="default", metavar="SET|FILE",
                          help="Coefficient set: 'default', 'raw', 'rounded', or a JSON file.")
    estimate.add_argument("--json", action="store_true", help="Machine-readable output.")

    calibrate = sub.add_parser(
        "calibrate", help="Solve unknown coefficients from an anchors file."
    )
    calibrate.add_argument("--anchors", required=True, metavar="JSON",
                           help="Anchors file (see README for the schema).")
    calibrate.add_argument("--chaining", choices=["raw", "rounded"], default="raw",
                           help="Precision of solved values fed into later anchors.")
    calibrate.add_argument("--coeffs", default="default", metavar="SET|FILE",
                           help="Seed coefficient set for the known terms.")
    calibrate.add_argument("--out", required=True, metavar="JSON",
                           help="Where to write the updated coefficient file.")
    calibrate.add_argument("--json", action="store_true", help="Machine-readable output.")

    analyze = sub.add_parser("analyze", help="Extract metrics from a drive-log CSV.")
    analyze.add_argument("--log", required=True, metavar="CSV", help="Drive-log file.")
    analyze.add_argument("--pre-window", type=float, default=5.0, metavar="S",
                         help="Lateral-displacement window before the TOR [s] (default 5).")
    analyze.add_argument("--post-window", type=float, default=5.0, metavar="S",
                         help="Lateral-displacement window after the TOR [s] (default 5).")
    analyze.add_argument("--threshold", type=float, default=0.05, metavar="FRAC",
                         help="Takeover detection threshold, fraction of full range (default 0.05).")
    analyze.add_argument("--sample-rate", type=float, default=20.0, metavar="HZ",
                         help="Expected log sample rate (default 20).")
    analyze.add_argument("--json", action="store_true", help="Machine-readable output.")

    simulate = sub.add_parser(
        "simulate", help="Run takeover episodes and write logs plus a report."
    )
    simulate.add_argument("--config", required=True, metavar="JSON",
                          help="Episode config file (see README for the schema).")
    simulate.add_argument("--seed", type=int, default=None, metavar="N",
                          help="Base seed; overrides the file's base_seed (default 0).")
    simulate.add_argument("--out-dir", required=True, metavar="DIR",
                          help="Directory for synthetic logs and report.json.")

    table = sub.add_parser("table", help="Print the six-row reference estimation table.")
    table.add_argument("--json", action="store_true", help="Machine-readable output.")

    # Read "-1e+300", "-inf" and "-nan" as values, like argparse's own "-1" and
    # "-.5", so they reach the range checks; no option string looks like a number.
    negative_number = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)
    for command in sub.choices.values():
        command._negative_number_matcher = negative_number
    return parser


def _estimate_payload(
    driver: DriverProfile,
    scenario: ScenarioSpec,
    ctx: TakeoverContext,
    coeffs: CoefficientSet,
    coeffs_label: str,
) -> dict[str, Any]:
    est = estimate_tortb(driver, scenario, ctx, coeffs)
    return {
        "inputs": {
            "driver": fileio.driver_to_dict(driver),
            "scenario": fileio.scenario_to_dict(scenario),
            "ctx": fileio.context_to_dict(ctx),
            "coefficients": fileio.coefficients_to_dict(coeffs),
            "coefficient_set": coeffs_label,
        },
        "components_s": est.components,
        "total_s": est.total,
        "warnings": list(est.warnings),
    }


def _cmd_estimate(args: argparse.Namespace) -> int:
    explicit = [
        flag
        for flag, value in zip(
            _SCENARIO_FLAGS, (args.noa, args.noj, args.ego_speed, args.hazard_speed)
        )
        if value is not None
    ]
    if args.scenario and explicit:
        return _fail(f"--scenario cannot be combined with {'/'.join(explicit)}")
    if args.scenario:
        scenario = SCENARIO_PRESETS[args.scenario]
    else:
        if args.noa is None or args.ego_speed is None:
            return _fail("provide --scenario, or --noa and --ego-speed")
        scenario = build(
            ScenarioSpec,
            "/".join(_SCENARIO_FLAGS),
            noa=args.noa,
            noj=args.noj if args.noj is not None else 0,
            ego_speed=args.ego_speed,
            hazard_speed=args.hazard_speed if args.hazard_speed is not None else 0.0,
        )
    driver = build(DriverProfile, "--srt/--experience",
                   srt=args.srt, experience_km_per_week=args.experience)
    ctx = build(TakeoverContext, "--ordinal",
                ndrt_class=NdrtClass(args.ndrt), ordinal=args.ordinal)
    coeffs = _load_coefficient_set(args.coeffs)
    payload = _estimate_payload(driver, scenario, ctx, coeffs, args.coeffs)
    if args.json:
        _emit_json(payload)
        return 0
    print(f"coefficient set: {args.coeffs}")
    if scenario.label:
        print(f"scenario: {scenario.label}")
    print(f"{'component':<10}  seconds")
    for key, seconds in payload["components_s"].items():
        print(f"{key:<10}  {seconds:7.3f}")
    print(f"{'total':<10}  {payload['total_s']:7.3f}")
    for warning in payload["warnings"]:
        print(f"warning: {warning}")
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    anchors = fileio.load_anchors(args.anchors)
    seed = _load_coefficient_set(args.coeffs)
    result, coeffs = calibrate_sequence(anchors, seed, Chaining(args.chaining))
    fileio.dump_coefficients(coeffs, args.out)
    payload = {
        "chaining": args.chaining,
        "solved": {
            solved.unknown.value: {
                "raw_s": solved.raw,
                "rounded_s": solved.rounded,
                "residual_s": solved.residual,
            }
            for solved in result.solved.values()
        },
        "coefficients": fileio.coefficients_to_dict(coeffs),
        "out_file": str(args.out),
    }
    if args.json:
        _emit_json(payload)
        return 0
    print(f"chaining: {args.chaining}")
    for name, entry in payload["solved"].items():
        print(
            f"{name}: raw={entry['raw_s']:.6g} s  rounded={entry['rounded_s']:.6g} s  "
            f"residual={entry['residual_s']:+.6g} s"
        )
    print(f"coefficient file written: {args.out}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    data = Path(args.log).read_bytes()
    try:
        log = parse_drive_log(data, sample_rate=args.sample_rate)
    except TortbError as exc:
        return _fail(f"{args.log}: {exc}")
    metrics = extract_metrics(
        log,
        pre_window=args.pre_window,
        post_window=args.post_window,
        threshold=args.threshold,
    )
    if args.json:
        _emit_json(
            {
                "log": str(args.log),
                "tor_time_s": log.tor_time,
                "tot_s": metrics.tot,
                "avg_ld_m": metrics.avg_ld,
                "max_acc_m_s2": metrics.max_acc,
                "takeover_time_abs_s": metrics.takeover_time_abs,
            }
        )
        return 0

    def fmt(value: float | None) -> str:
        return "n/a" if value is None else f"{value:.4f}"

    print(f"{'metric':<20}  value")
    print(f"{'tot_s':<20}  {fmt(metrics.tot)}")
    print(f"{'avg_ld_m':<20}  {fmt(metrics.avg_ld)}")
    print(f"{'max_acc_m_s2':<20}  {fmt(metrics.max_acc)}")
    print(f"{'takeover_time_abs_s':<20}  {fmt(metrics.takeover_time_abs)}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    configs, file_seed = fileio.load_episode_configs(args.config)
    base_seed = args.seed if args.seed is not None else (file_seed or 0)
    report = run_batch(configs, base_seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    episodes = []
    for i, outcome in enumerate(report.outcomes):
        log_name = f"episode_{i:03d}.csv"
        (out_dir / log_name).write_text(drive_log_to_csv(outcome.log), encoding="utf-8")
        episodes.append(
            {
                "index": i,
                "seed": outcome.seed,
                "required_s": outcome.required_time,
                "deadline_s": outcome.deadline,
                "margin_s": outcome.margin,
                "classification": outcome.classification.value,
                "log_csv": log_name,
            }
        )
    payload = {
        "base_seed": base_seed,
        "n_episodes": len(episodes),
        "n_success": report.n_success,
        "n_late": report.n_late,
        "n_collision": report.n_collision,
        "margin_s": {
            "mean": report.margin_stats.mean,
            "std": report.margin_stats.std,
            "min": report.margin_stats.min,
            "max": report.margin_stats.max,
        },
        "episodes": episodes,
    }
    (out_dir / "report.json").write_text(fileio.json_text(payload), encoding="utf-8")
    print(
        f"episodes: {len(episodes)}  success: {report.n_success}  "
        f"late: {report.n_late}  collision: {report.n_collision}"
    )
    print(f"report written: {out_dir / 'report.json'}")
    return 0


def table_rows() -> list[dict[str, Any]]:
    """The reference table as computed rows (the `table` subcommand's data)."""
    coeffs = _NAMED_COEFFICIENTS["rounded"]
    rows = []
    for i, (noa, noj, ego, hazard, ndrt, ordinal) in enumerate(TABLE_ROWS, start=1):
        scenario = ScenarioSpec(noa=noa, noj=noj, ego_speed=ego, hazard_speed=hazard)
        ctx = TakeoverContext(ndrt_class=ndrt, ordinal=ordinal)
        est = estimate_tortb(TABLE_DRIVER, scenario, ctx, coeffs)
        rows.append(
            {
                "row": i,
                "noa": noa,
                "noj": noj,
                "ego_km_hr": ego,
                "hazard_km_hr": hazard,
                "rs_km_hr": ego - hazard,
                "rsc_s": est.components["rsc"],
                "ndrtc_s": est.components["ndrtc"],
                "oc_s": est.components["oc"],
                "tortb_s": est.total,
            }
        )
    return rows


def _cmd_table(args: argparse.Namespace) -> int:
    rows = table_rows()
    if args.json:
        _emit_json(
            {
                "driver": fileio.driver_to_dict(TABLE_DRIVER),
                "coefficient_set": "rounded",
                "rows": rows,
            }
        )
        return 0
    print(
        "Reference budget estimates "
        f"(driver: srt {TABLE_DRIVER.srt:g} s, experience "
        f"{TABLE_DRIVER.experience_km_per_week:g} km/wk; rounded coefficient set)"
    )
    header = ("row", "noa", "noj", "rs_km_hr", "rsc_s", "ndrtc_s", "oc_s", "tortb_s")
    print("  ".join(f"{h:>8}" for h in header))
    for row in rows:
        print(
            f"{row['row']:>8}  {row['noa']:>8}  {row['noj']:>8}  "
            f"{row['rs_km_hr']:>8.0f}  {row['rsc_s']:>8.2f}  {row['ndrtc_s']:>8.2f}  "
            f"{row['oc_s']:>8.2f}  {row['tortb_s']:>8.2f}"
        )
    return 0


_HANDLERS = {
    "estimate": _cmd_estimate,
    "calibrate": _cmd_calibrate,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (TortbError, ValueError, OSError) as exc:
        return _fail(str(exc))
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
