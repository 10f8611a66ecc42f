"""Command-line front end.

Subcommands::

    tortb estimate   one budget estimate with component breakdown
    tortb calibrate  solve coefficients from an anchors file
    tortb analyze    metrics from a drive-log CSV
    tortb simulate   run episode configs, write logs and a report
    tortb table      the six-row reference estimation table

Exit codes: 0 success, 2 usage error, ``TortbError`` or ``OSError``, 1 anything else.
Every command is deterministic given its flags, files and seed.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Any

import tortb

from . import __version__
from .defaults import (POST_WINDOW_S, PRE_WINDOW_S, SAMPLE_RATE_HZ, SCENARIO_NAMES,
                       TOT_THRESHOLD, Chaining, NdrtClass, json_text)
from .errors import SchemaError, TortbError, located

if TYPE_CHECKING:
    from .model import CoefficientSet

# Exactly the names the traced bench (`bench/child.py`) replaces on this
# module, each bound here from the package on first access (PEP 562), so
# parsing arguments loads none of the model, the drive-log module or the
# simulator.  The handlers look each one up on this module, as `_cli.name`, so
# a replaced one is called; `simulate` renders logs through `simulate.log_texts`,
# and `drive_log_to_csv` stays here only for the bench to patch.
_LAZY = ("drive_log_to_csv", "estimate_tortb", "run_batch")


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(tortb, name)
    return value


_cli = sys.modules[__name__]

#: The reference estimation table's driver, (srt [s], experience [km/wk]), and
#: its inputs, (noa, noj, ego, hazard, ndrt, ordinal), all estimated using the
#: one-decimal rounded coefficient set.
TABLE_DRIVER = (0.2, 80.0)
TABLE_ROWS = (
    (1, 0, 80.0, 0.0, NdrtClass.HANDS_FREE, 1),
    (2, 0, 130.0, 0.0, NdrtClass.HANDS_FREE, 1),
    (1, 0, 80.0, 50.0, NdrtClass.HAND_HELD, 1),
    (2, 0, 130.0, 50.0, NdrtClass.HAND_HELD, 1),
    (0, 1, 50.0, 0.0, NdrtClass.HANDS_FREE, 2),
    (0, 1, 100.0, 0.0, NdrtClass.HANDS_FREE, 2),
)

_SCENARIO_FLAGS = ("--noa", "--noj", "--ego-speed", "--hazard-speed")


@cache
def _rounded_coefficients() -> CoefficientSet:
    """The published set at one-decimal precision, computed once per process."""
    from .model import DEFAULT_COEFFICIENTS
    return DEFAULT_COEFFICIENTS.rounded()


def _load_coefficient_set(spec: str) -> CoefficientSet:
    """Named set ('default', 'raw', 'rounded') or a coefficient file path."""
    from .fileio import load_coefficients
    from .model import DEFAULT_COEFFICIENTS, RAW_COEFFICIENTS
    if spec == "rounded":
        return _rounded_coefficients()
    named = {"default": DEFAULT_COEFFICIENTS, "raw": RAW_COEFFICIENTS}
    return named[spec] if spec in named else load_coefficients(spec)


def _path(value: str) -> str:
    """A path flag's value; the OS cannot take one holding a NUL byte, and an
    empty one names no file (``Path("")`` is the current directory)."""
    if not value:
        raise argparse.ArgumentTypeError("path is empty")
    if "\0" in value:
        raise argparse.ArgumentTypeError(f"path holds a NUL byte: {value!r}")
    return value


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
    estimate.add_argument("--scenario", choices=sorted(SCENARIO_NAMES),
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
    estimate.add_argument("--coeffs", default="default", type=_path, metavar="SET|FILE",
                          help="Coefficient set: 'default', 'raw', 'rounded', or a JSON file.")

    calibrate = sub.add_parser(
        "calibrate", help="Solve unknown coefficients from an anchors file."
    )
    calibrate.add_argument("--anchors", required=True, type=_path, metavar="JSON",
                           help="Anchors file (see README for the schema).")
    calibrate.add_argument("--chaining", choices=[c.value for c in Chaining],
                           default=Chaining.USE_RAW.value,
                           help="Precision of solved values fed into later anchors.")
    calibrate.add_argument("--coeffs", default="default", type=_path, metavar="SET|FILE",
                           help="Seed coefficient set for the known terms.")
    calibrate.add_argument("--out", required=True, type=_path, metavar="JSON",
                           help="Where to write the updated coefficient file.")

    analyze = sub.add_parser("analyze", help="Extract metrics from a drive-log CSV.")
    analyze.add_argument("--log", required=True, type=_path, metavar="CSV", help="Drive-log file.")
    analyze.add_argument("--pre-window", type=float, default=PRE_WINDOW_S, metavar="S",
                         help="Lateral-displacement window before the TOR [s] "
                         "(default %(default)g).")
    analyze.add_argument("--post-window", type=float, default=POST_WINDOW_S, metavar="S",
                         help="Lateral-displacement window after the TOR [s] "
                         "(default %(default)g).")
    analyze.add_argument("--threshold", type=float, default=TOT_THRESHOLD, metavar="FRAC",
                         help="Takeover detection threshold, fraction of full range "
                         "(default %(default)g).")
    analyze.add_argument("--sample-rate", type=float, default=SAMPLE_RATE_HZ, metavar="HZ",
                         help="Expected log sample rate (default %(default)g).")

    simulate = sub.add_parser(
        "simulate", help="Run takeover episodes and write logs plus a report."
    )
    simulate.add_argument("--config", required=True, type=_path, metavar="JSON",
                          help="Episode config file (see README for the schema).")
    simulate.add_argument("--seed", type=int, default=None, metavar="N",
                          help="Base seed; overrides the file's base_seed (default 0).")
    simulate.add_argument("--out-dir", required=True, type=_path, metavar="DIR",
                          help="Directory for synthetic logs and report.json.")

    table = sub.add_parser("table", help="Print the six-row reference estimation table.")
    for command in (estimate, calibrate, analyze, table):
        command.add_argument("--json", action="store_true", help="Machine-readable output.")

    # Read "-1e+300", "-inf" and "-nan" as values, like argparse's own "-1" and
    # "-.5", so they reach the range checks; no option string looks like a number.
    negative_number = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)
    for command in sub.choices.values():
        command._negative_number_matcher = negative_number
    return parser


#: What a handler returns: the ``--json`` payload and the text lines.
Output = tuple[Any, list[str]]


def _cmd_estimate(args: argparse.Namespace) -> Output:
    from .fileio import coefficients_to_dict, context_to_dict, driver_to_dict, scenario_to_dict
    from .model import SCENARIO_PRESETS, DriverProfile, ScenarioSpec, TakeoverContext
    values = (args.noa, args.noj, args.ego_speed, args.hazard_speed)
    explicit = [flag for flag, value in zip(_SCENARIO_FLAGS, values) if value is not None]
    if args.scenario and explicit:
        raise SchemaError(f"--scenario cannot be combined with {'/'.join(explicit)}")
    if args.scenario:
        scenario = SCENARIO_PRESETS[args.scenario]
    else:
        if args.noa is None or args.ego_speed is None:
            raise SchemaError("provide --scenario, or --noa and --ego-speed")
        with located("/".join(_SCENARIO_FLAGS)):
            scenario = ScenarioSpec(
                noa=args.noa, noj=0 if args.noj is None else args.noj, ego_speed=args.ego_speed,
                hazard_speed=0.0 if args.hazard_speed is None else args.hazard_speed)
    with located("--srt/--experience"):
        driver = DriverProfile(srt=args.srt, experience_km_per_week=args.experience)
    with located("--ordinal"):
        ctx = TakeoverContext(ndrt_class=NdrtClass(args.ndrt), ordinal=args.ordinal)
    coeffs = _load_coefficient_set(args.coeffs)
    est = _cli.estimate_tortb(driver, scenario, ctx, coeffs)
    components = est.components
    payload = {
        "inputs": {
            "driver": driver_to_dict(driver),
            "scenario": scenario_to_dict(scenario),
            "ctx": context_to_dict(ctx),
            "coefficients": coefficients_to_dict(coeffs),
            "coefficient_set": args.coeffs,
        },
        "components_s": components,
        "total_s": est.total,
        "warnings": list(est.warnings),
    }
    lines = [f"coefficient set: {args.coeffs}"]
    if scenario.label:
        lines.append(f"scenario: {scenario.label}")
    lines.append(f"{'component':<10}  seconds")
    lines += [f"{key:<10}  {seconds:7.3f}" for key, seconds in components.items()]
    lines.append(f"{'total':<10}  {est.total:7.3f}")
    lines += [f"warning: {warning}" for warning in est.warnings]
    return payload, lines


def _cmd_calibrate(args: argparse.Namespace) -> Output:
    from .calibration import calibrate_sequence
    from .fileio import coefficients_to_dict, dump_coefficients, load_anchors
    anchors = load_anchors(args.anchors)
    seed = _load_coefficient_set(args.coeffs)
    result, coeffs = calibrate_sequence(anchors, seed, Chaining(args.chaining))
    dump_coefficients(coeffs, args.out)
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
        "coefficients": coefficients_to_dict(coeffs),
        "out_file": str(args.out),
    }
    lines = [f"chaining: {args.chaining}"]
    lines += [
        f"{name}: raw={entry['raw_s']:.6g} s  rounded={entry['rounded_s']:.6g} s  "
        f"residual={entry['residual_s']:+.6g} s"
        for name, entry in payload["solved"].items()
    ]
    lines.append(f"coefficient file written: {args.out}")
    return payload, lines


def _cmd_analyze(args: argparse.Namespace) -> Output:
    from .drivelog import extract_metrics, parse_drive_log
    with located(args.log):
        log = parse_drive_log(Path(args.log).read_bytes(), sample_rate=args.sample_rate)
    metrics = extract_metrics(log, args.pre_window, args.post_window, args.threshold)
    payload = {
        "log": str(args.log),
        "tor_time_s": log.tor_time,
        "tot_s": metrics.tot,
        "avg_ld_m": metrics.avg_ld,
        "max_acc_m_s2": metrics.max_acc,
        "takeover_time_abs_s": metrics.takeover_time_abs,
    }
    lines = [f"{'metric':<20}  value"]
    for key in ("tot_s", "avg_ld_m", "max_acc_m_s2", "takeover_time_abs_s"):
        value = payload[key]
        lines.append(f"{key:<20}  {'n/a' if value is None else f'{value:.4f}'}")
    return payload, lines


def _cmd_simulate(args: argparse.Namespace) -> Output:
    from .fileio import load_episode_configs, write_file
    from .simulate import log_texts
    configs, file_seed = load_episode_configs(args.config)
    base_seed = args.seed if args.seed is not None else (file_seed or 0)
    report = _cli.run_batch(configs, base_seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # report.json is written last, so an out-dir without one holds an unfinished run.
    (out_dir / "report.json").unlink(missing_ok=True)
    # One name pattern for the logs this run writes and the stale ones it removes.
    log_name = "episode_{:03d}.csv".format
    episodes = []
    for i, (outcome, text) in enumerate(zip(report.outcomes, log_texts(report.outcomes))):
        write_file(out_dir / log_name(i), text)
        episodes.append({
            "index": i, "seed": outcome.seed, "required_s": outcome.required_time,
            "deadline_s": outcome.deadline, "margin_s": outcome.margin,
            "classification": outcome.classification.value, "log_csv": log_name(i),
        })
    # Logs of a larger earlier run would otherwise sit beside this report.
    i = len(episodes)
    while (stale := out_dir / log_name(i)).is_file():
        stale.unlink()
        i += 1
    payload = {
        "base_seed": base_seed,
        "n_episodes": len(episodes),
        "n_success": report.n_success,
        "n_late": report.n_late,
        "n_collision": report.n_collision,
        "margin_s": {k: getattr(report.margin_stats, k) for k in ("mean", "std", "min", "max")},
        "episodes": episodes,
    }
    write_file(out_dir / "report.json", json_text(payload))
    lines = [
        f"episodes: {len(episodes)}  success: {report.n_success}  "
        f"late: {report.n_late}  collision: {report.n_collision}",
        f"report written: {out_dir / 'report.json'}",
    ]
    return payload, lines


def table_rows() -> list[dict[str, Any]]:
    """The reference table as computed rows (the `table` subcommand's data)."""
    from .model import DriverProfile, ScenarioSpec, TakeoverContext
    coeffs, estimate = _rounded_coefficients(), _cli.estimate_tortb
    driver = DriverProfile(*TABLE_DRIVER)
    rows = []
    for i, (noa, noj, ego, hazard, ndrt, ordinal) in enumerate(TABLE_ROWS, start=1):
        scenario = ScenarioSpec(noa=noa, noj=noj, ego_speed=ego, hazard_speed=hazard)
        ctx = TakeoverContext(ndrt_class=ndrt, ordinal=ordinal)
        est = estimate(driver, scenario, ctx, coeffs)
        rows.append({
            "row": i, "noa": noa, "noj": noj,
            "ego_km_hr": ego, "hazard_km_hr": hazard, "rs_km_hr": ego - hazard,
            "rsc_s": est.rsc, "ndrtc_s": est.ndrtc, "oc_s": est.oc, "tortb_s": est.total,
        })
    return rows


def _cmd_table(args: argparse.Namespace) -> Output:
    from .fileio import driver_to_dict
    from .model import DriverProfile
    rows = table_rows()
    srt, experience = TABLE_DRIVER
    payload = {
        "driver": driver_to_dict(DriverProfile(*TABLE_DRIVER)),
        "coefficient_set": "rounded",
        "rows": rows,
    }
    columns = (("row", "d"), ("noa", "d"), ("noj", "d"), ("rs_km_hr", ".0f"),
               ("rsc_s", ".2f"), ("ndrtc_s", ".2f"), ("oc_s", ".2f"), ("tortb_s", ".2f"))
    lines = [
        "Reference budget estimates "
        f"(driver: srt {srt:g} s, experience {experience:g} km/wk; rounded coefficient set)",
        "  ".join(f"{key:>8}" for key, _ in columns),
    ]
    lines += ["  ".join(f"{row[key]:>8{spec}}" for key, spec in columns) for row in rows]
    return payload, lines


_HANDLERS = {
    "estimate": _cmd_estimate,
    "calibrate": _cmd_calibrate,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "table": _cmd_table,
}


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the only code here that writes output or sets the exit code."""
    args = _build_parser().parse_args(argv)
    try:
        payload, lines = _HANDLERS[args.command](args)
        json_out = getattr(args, "json", False)  # simulate has none: it writes report.json
        text = json_text(payload) if json_out else "\n".join(lines) + "\n"
        # A path's bytes that are not UTF-8 arrive as lone surrogates (PEP 383) and go
        # back out as given; a text-only stream, such as io.StringIO, takes them as is.
        buffer = getattr(sys.stdout, "buffer", None)
        if buffer is None:
            sys.stdout.write(text)
        else:
            sys.stdout.flush()
            buffer.write(text.encode(sys.stdout.encoding, "surrogateescape"))
            sys.stdout.flush()
    except (TortbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
