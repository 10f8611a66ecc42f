"""tortb benchmark: one workload, timed end to end or per layer.

Usage (from the repository root)::

    python3 bench/run.py --workload simulate_batch --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload analyze_corpus --seed 3 --seconds 15 --trace 1
    python3 bench/run.py --workload estimate_sweep --quick      # tiny smoke run

Steps, all sequential (one process at a time on the 2-core box):

1. Generate the workload's inputs from ``--seed`` (``gen.py``; no tortb).
2. Run the workload in one fresh child (``child.py``, ``src`` on the path)
   as a closed loop for ``--seconds``; the child checks every output.
3. ``--trace 0`` only, half before and half after the child, so that the
   samples span the run: time the import of ``tortb`` and ``tortb.cli`` in
   fresh interpreters (``setup_s`` is their median), and run the workload's
   CLI subcommand in fresh processes, checking each answer
   (``oneshot_cpu_s`` is their median).
4. Print every metric by name with its unit, write the result file (with
   provenance) under ``bench/out/``, and print the result as one JSON line.

Times are processor seconds of the measured process (user plus system):
on a shared two-core VM the wall clock also counts other tenants' steal
and waits on the shared disk, which moved wall-time figures by 20-45 %
between runs of the same code.  Wall-clock figures are printed and kept in
the result file for reference.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics, with the self time and share of
each layer, the tracing overhead and which end-to-end metric each layer
should move.  The program must live in ``src/tortb``; without it the run
fails before printing a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("simulate_batch", "analyze_corpus", "estimate_sweep")
SETUP_SAMPLES = 12
ONESHOTS = 20
CHILD_TIMEOUT_S = 150

IMPORT_SNIPPET = (
    "import time; t, c = time.perf_counter(), time.process_time(); import tortb, tortb.cli; "
    "print(time.perf_counter() - t, time.process_time() - c)"
)

# Which end-to-end metric each layer metric should move, and where.  A layer
# that a workload bypasses reads 0 there and should stay 0.
LAYER_MAP = {
    "import.tortb_s": "setup_s on every workload; oneshot_cpu_s on every workload",
    "fileio.load_s": "items_per_cpu_s on simulate_batch (small share)",
    "simulate.run_batch_s": "items_per_cpu_s and peak_rss_mib on simulate_batch",
    "simulate.run_episode_us_p50": "items_per_cpu_s and peak_rss_mib on simulate_batch",
    "simulate.run_episode_us_p99": "items_per_cpu_s and peak_rss_mib on simulate_batch",
    "drivelog.render_s": "items_per_cpu_s on simulate_batch; nothing on analyze_corpus",
    "drivelog.render_ns_per_row": "items_per_cpu_s on simulate_batch; nothing on analyze_corpus",
    "io.write_s": "items_per_cpu_s on simulate_batch",
    "io.read_s": "items_per_cpu_s on analyze_corpus",
    "drivelog.parse_s": "items_per_cpu_s on analyze_corpus; nothing on simulate_batch",
    "drivelog.parse_ns_per_row": "items_per_cpu_s on analyze_corpus; nothing on simulate_batch",
    "drivelog.reject_us": "items_per_cpu_s on analyze_corpus",
    "drivelog.validate_us": "items_per_cpu_s on simulate_batch and analyze_corpus",
    "drivelog.extract_us": "items_per_cpu_s on analyze_corpus",
    "drivelog.summarize_ms": "items_per_cpu_s on analyze_corpus",
    "analyze.log_p50_ms": "items_per_cpu_s on analyze_corpus",
    "analyze.log_p99_ms": "items_per_cpu_s on analyze_corpus",
    "model.estimate_us": "items_per_cpu_s on estimate_sweep; a small share on simulate_batch",
    "calibration.calibrate_us": "items_per_cpu_s and oneshot_cpu_s on estimate_sweep",
    "cli.table_rows_us": "items_per_cpu_s and oneshot_cpu_s on estimate_sweep",
    "cli.main_self_s": "items_per_cpu_s on simulate_batch",
}

# Shares measured by hand before this benchmark existed, shown next to the
# traced shares.
HAND_BASELINE = {
    "simulate_batch": ("render", 77.0, "CSV render share of `tortb simulate`, 1000 episodes"),
    "analyze_corpus": ("parse", 80.0, "parse share of read+parse+extract on simulator logs"),
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def provenance(args, manifest: dict) -> dict:
    import numpy

    git = {"commit": None, "dirty": None}
    if (ROOT / ".git").exists():
        def run_git(*cmd):
            return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=30).stdout.strip()
        try:
            git = {"commit": run_git("rev-parse", "HEAD") or None,
                   "dirty": bool(run_git("status", "--porcelain", "--untracked-files=no"))}
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "git": git,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "inputs_sha256": manifest["sha256"],
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def setup_samples(n: int) -> list[tuple[float, float]]:
    """(wall, processor) seconds of importing tortb and tortb.cli in ``n``
    fresh interpreters."""
    samples = []
    for _ in range(n):
        out = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True).stdout
        wall, cpu = map(float, out.split())
        samples.append((wall, cpu))
    return samples


def golden_digest(workload: str, seed: int, quick: bool):
    import numpy

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    if quick or workload != "simulate_batch" or golden["numpy"] != numpy.__version__:
        return None
    return golden[workload].get(str(seed))


# --- one-shots ------------------------------------------------------------


def oneshot_cases(workload: str, inputs: Path, manifest: dict, scratch: Path):
    """(argv, check) pairs: ``check(stdout)`` returns an error message or None."""
    if workload == "simulate_batch":
        digests = []

        out = scratch / "oneshot"
        argv = ["simulate", "--config", str(inputs / manifest["oneshot_config"]),
                "--out-dir", str(out)]

        def simulate_check(_stdout):
            logs = sorted(out.glob("episode_*.csv"))
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if not report["n_episodes"] == manifest["n_oneshot_episodes"] == len(logs):
                return f"report has {report['n_episodes']} episodes"
            digests.append(gen.digest_files([out / "report.json", *logs]))
            return None if digests[-1] == digests[0] else "output differs between runs"
        return [(argv, simulate_check)] * ONESHOTS

    if workload == "analyze_corpus":
        corpus = {e["file"]: e for e in json.loads(
            (inputs / manifest["corpus"]).read_text(encoding="utf-8"))}
        names = manifest["oneshot_logs"]

        def analyze_case(name):
            entry = corpus[name]
            argv = ["analyze", "--log", str(inputs / manifest["log_dir"] / name), "--json"]

            def check(stdout):
                got = json.loads(stdout)
                for key, field in (("tot_s", "tot"), ("avg_ld_m", "avg_ld"),
                                   ("max_acc_m_s2", "max_acc")):
                    want = entry[field]
                    if (got[key] is None) != (want is None) or (
                            want is not None and not math.isclose(got[key], want,
                                                                  rel_tol=1e-12, abs_tol=1e-12)):
                        return f"{name}: {key} {got[key]} != {want}"
                return None
            return argv, check
        return [analyze_case(names[i % len(names)]) for i in range(ONESHOTS)]

    def total(expected):
        def check(stdout):
            got = json.loads(stdout)["total_s"]
            return None if abs(got - expected) <= 1e-9 else f"total {got} != {expected}"
        return check

    def table_check(stdout):
        totals = [row["tortb_s"] for row in json.loads(stdout)["rows"]]
        ok = len(totals) == 6 and all(abs(a - b) <= 1e-9 for a, b in zip(totals, gen.TABLE_TOTALS))
        return None if ok else f"table {totals}"

    def calibrate_check(stdout):
        solved = json.loads(stdout)["solved"]
        for name, (raw, rounded) in gen.CALIBRATED.items():
            if abs(solved[name]["raw_s"] - raw) > 1e-9 or solved[name]["rounded_s"] != rounded:
                return f"calibrate {name}: {solved[name]}"
        return None

    bound = ["--srt", "0.3", "--experience", "20", "--ndrt", "handsfree", "--ordinal", "1",
             "--json"]
    cases = [
        (["estimate", "--scenario", "S1", *bound], total(7.1)),
        (["estimate", "--srt", "0.2", "--experience", "80", "--noa", "1", "--noj", "0",
          "--ego-speed", "80", "--hazard-speed", "0", "--ndrt", "handsfree", "--ordinal", "1",
          "--json"], total(4.1)),
        (["estimate", "--scenario", "S1", *bound, "--coeffs", "raw"], total(7.0)),
        (["estimate", "--scenario", "S2", "--srt", "0.2", "--experience", "80", "--ndrt",
          "handheld", "--ordinal", "2", "--coeffs", str(inputs / manifest["coefficients"]),
          "--json"], total(4.75)),
        (["table", "--json"], table_check),
        (["calibrate", "--anchors", str(inputs / manifest["anchors"]), "--out",
          str(scratch / "solved.json"), "--json"], calibrate_check),
    ]
    return [cases[i % len(cases)] for i in range(ONESHOTS)]


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_oneshots(cases, failures: list) -> list[tuple[float, float]]:
    """Run each case in a fresh process; returns (wall, processor) seconds."""
    times = []
    for argv, check in cases:
        t0, c0 = time.perf_counter(), children_cpu_s()
        proc = subprocess.run([sys.executable, "-m", "tortb.cli", *argv], env=child_env(),
                              capture_output=True, text=True, timeout=60)
        times.append((time.perf_counter() - t0, children_cpu_s() - c0))
        if proc.returncode != 0:
            failures.append(f"tortb {argv[0]} exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        try:
            error = check(proc.stdout)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            error = f"tortb {argv[0]}: unreadable output ({exc!r})"
        if error:
            failures.append(error)
    return times


# --- reporting ------------------------------------------------------------


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def trace_report(workload: str, child: dict) -> list[str]:
    spans, layers = child["spans"], child["layers"]
    work_ns = sum(p["wall_s"] for p in child["passes"] if p["traced"]) * 1e9
    lines = ["per-layer self time (traced passes):",
             f"  {'span':<10} {'calls':>9} {'self_s':>9} {'share':>7}"]
    for name, span in sorted(spans.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"  {name:<10} {span['calls']:>9} {span['self_ns'] / 1e9:>9.4f} "
                     f"{100 * span['self_ns'] / work_ns:>6.1f}%")
    lines.append(f"  {'(harness)':<10} {'':>9} {'':>9} {100 - layers['trace.coverage_pct']:>6.1f}%")
    lines.append(f"span coverage of work time: {layers['trace.coverage_pct']:.1f}%")
    lines.append(f"tracing overhead vs untraced passes: {layers['trace.overhead_pct']:+.1f}%")
    if workload in HAND_BASELINE:
        span, share, what = HAND_BASELINE[workload]
        lines.append(f"{span} share: {layers[f'share.{span}_pct']:.1f}% of traced work time "
                     f"(hand baseline: {share:.0f}%, {what})")
    lines.append("layer metric -> end-to-end metric it should move:")
    lines += [f"  {name} -> {target}" for name, target in LAYER_MAP.items()]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and few samples: a smoke check, not a measurement")
    args = parser.parse_args(argv)
    if not (SRC / "tortb" / "__init__.py").is_file():
        print(f"error: the tortb sources are missing ({SRC / 'tortb'})", file=sys.stderr)
        return 2
    declared = declared_metrics()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    run_dir = OUT / tag
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs, scratch = run_dir / "inputs", run_dir / "scratch"
    try:
        manifest = gen.write_inputs(args.workload, args.seed, args.quick, inputs)
        scratch.mkdir()
        failures: list[str] = []
        setup: list[tuple[float, float]] = []
        oneshots: list[tuple[float, float]] = []
        setup_samples(1)  # unrecorded: writes the bytecode caches
        if not args.trace:
            cases = oneshot_cases(args.workload, inputs, manifest, scratch)
            n_setup = 2 if args.quick else SETUP_SAMPLES
            cases = cases[:2] if args.quick else cases
            setup += setup_samples(n_setup // 2)
            oneshots += run_oneshots(cases[:len(cases) // 2], failures)

        job = {
            "workload": args.workload, "inputs": str(inputs), "manifest": manifest,
            "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
            "scratch": str(scratch), "result": str(run_dir / "child.json"),
            "trace_file": str(OUT / f"{tag}.trace.jsonl"),
            "golden": golden_digest(args.workload, args.seed, args.quick),
        }
        (run_dir / "job.json").write_text(json.dumps(job), encoding="utf-8")
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(run_dir / "job.json")],
                              env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"error: workload child exited {proc.returncode}", file=sys.stderr)
            return 1
        child = json.loads((run_dir / "child.json").read_text(encoding="utf-8"))
        if not args.trace:
            setup += setup_samples(n_setup - n_setup // 2)
            oneshots += run_oneshots(cases[len(cases) // 2:], failures)
        attempted = child["attempted"] + len(oneshots)
        failed = child["failed"] + len(failures)
        failures += child["failures"]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics = {name: child["layers"][name] if name in child["layers"]
                   else float(child["counts"][name.removeprefix("count.")])
                   for name in declared["per_layer"]}
        units = declared["per_layer"]
    else:
        metrics = {"setup_s": statistics.median(cpu for _, cpu in setup),
                   "items_per_cpu_s": child["items_per_cpu_s"],
                   "oneshot_cpu_s": statistics.median(cpu for _, cpu in oneshots),
                   "peak_rss_mib": child["peak_rss_mib"]}
        units = declared["end_to_end"]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    prov = provenance(args, manifest)
    print(f"tortb benchmark: {args.workload}, seed {args.seed}, trace {args.trace}"
          f"{', quick' if args.quick else ''}")
    print(f"python {prov['python']}, numpy {prov['numpy']}, nproc {prov['nproc']}, "
          f"commit {prov['git']['commit']} (dirty: {prov['git']['dirty']}), "
          f"inputs sha256 {manifest['sha256'][:16]}")
    passes = child["passes"]
    print(f"passes: {len(passes)} ({sum(p['items'] for p in passes)} operations, "
          f"{sum(p['wall_s'] for p in passes):.2f} s measured, "
          f"{sum(p['cpu_s'] for p in passes):.2f} s of it on the processor)")
    for name, entry in result["metrics"].items():
        print(f"{name:<32} {entry['value']:>14.6g} {entry['unit']}")
    print(f"wall-clock throughput (reference): {child['items_per_wall_s']:.6g} 1/s")
    if "log_latency_ms" in child:
        lat = child["log_latency_ms"]
        print(f"per-log latency: p50 {lat['p50']:.4f} ms, p99 {lat['p99']:.4f} ms "
              f"({lat['samples']} samples)")
    if not args.trace:
        print(f"setup samples: {len(setup)} (wall median "
              f"{statistics.median(w for w, _ in setup):.4g} s), one-shots: {len(oneshots)} "
              f"(wall median {statistics.median(w for w, _ in oneshots):.4g} s)")
    print(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    if args.trace:
        print("\n".join(trace_report(args.workload, child)))

    OUT.mkdir(exist_ok=True)
    record = {"provenance": prov, **result, "fail_ratio": failed / attempted,
              "failures": failures[:20], "counts": child["counts"], "passes": passes,
              "items_per_wall_s": child["items_per_wall_s"],
              "setup_samples_wall_cpu_s": setup, "oneshot_samples_wall_cpu_s": oneshots}
    for key in ("log_latency_ms", "layers", "spans"):
        if key in child:
            record[key] = child[key]
    if args.trace:
        record["layer_map"] = LAYER_MAP
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
