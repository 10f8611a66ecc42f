"""Runs one workload in a fresh interpreter, as the single client of a
closed loop: each pass starts only after the previous one has finished.

Usage: ``python child.py JOB.json`` with ``src`` on ``PYTHONPATH``.  The
job file names the workload, its generated inputs and the time to measure;
the child writes its raw results to the path the job gives.  The first
thing it does is time the import of ``tortb`` and ``tortb.cli``, so nothing
else (numpy included) is loaded before that clock starts.

Passes repeat until their summed wall time reaches the requested seconds.
Outputs are checked after each pass, outside the timed region.  With
tracing on, untraced and traced passes alternate, so the same run gives the
per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import time

_t0 = time.process_time()
import tortb  # noqa: E402
import tortb.cli  # noqa: E402

IMPORT_S = time.process_time() - _t0

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import gen  # noqa: E402
from spans import Tracer, patched, traced_path_class  # noqa: E402
from tortb import calibration, cli, drivelog, errors, fileio, model, simulate  # noqa: E402

TOL = 1e-12  # relative tolerance for values recomputed by the oracles


def _close(a, b, tol=TOL) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=tol, abs_tol=tol)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class SimulateBatch:
    """``tortb simulate`` on one large episode-config file."""

    SAMPLE = ("episode",)
    # Every pass writes into the same directory.  The first pass creates the
    # files and is not measured; later passes overwrite them, as a re-run
    # does.  Creating 2000 files on an ext4 disk costs 0.2-1.3 s of kernel
    # time that varies from run to run and measures the filesystem, not
    # tortb.
    WARMUP = 1

    def __init__(self, inputs: Path, manifest: dict, job: dict):
        self.config = inputs / manifest["config"]
        self.out = Path(job["scratch"]) / "simulate"
        self.n = manifest["n_episodes"]
        self.golden = job.get("golden")
        self.digests: list[str] = []

    def patches(self, tr: Tracer):
        return [
            (fileio, "load_episode_configs", tr.wrap("load", fileio.load_episode_configs)),
            (cli, "run_batch", tr.wrap("simulate", cli.run_batch)),
            (simulate, "run_episode", tr.wrap("episode", simulate.run_episode)),
            (simulate, "estimate_tortb", tr.wrap("estimate", simulate.estimate_tortb)),
            (simulate, "DriveLog", tr.wrap("validate", simulate.DriveLog)),
            (cli, "drive_log_to_csv", tr.wrap("render", cli.drive_log_to_csv)),
            (cli, "Path", traced_path_class(tr)),
        ]

    def run_pass(self, tr: Tracer | None):
        argv = ["simulate", "--config", str(self.config), "--out-dir", str(self.out)]
        main = cli.main if tr is None else tr.wrap("cli", cli.main)
        t0 = time.perf_counter()
        rc = main(argv)
        return self.n, time.perf_counter() - t0, (rc, self.out)

    def check(self, result, counts: dict, failures: list) -> int:
        rc, out = result
        if rc != 0:
            failures.append(f"simulate exited {rc}")
            return self.n
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        logs = sorted(out.glob("episode_*.csv"))
        n_classes = report["n_success"] + report["n_late"] + report["n_collision"]
        if not (report["n_episodes"] == n_classes == len(logs) == self.n):
            failures.append(f"report counts {report['n_episodes']}/{n_classes}/{len(logs)}")
            return self.n
        digest = gen.digest_files([out / "report.json", *logs])
        self.digests.append(digest)
        expected = self.golden or self.digests[0]
        if digest != expected:
            failures.append(f"output digest {digest[:12]} != {expected[:12]}")
            return self.n
        rows = sum(p.read_bytes().count(b"\n") - 1 for p in logs)
        counts.update({
            "episodes": self.n, "success": report["n_success"], "late": report["n_late"],
            "collision": report["n_collision"], "rows_rendered": rows,
            "bytes_written": sum(p.stat().st_size for p in [out / "report.json", *logs]),
        })
        return 0


class AnalyzeCorpus:
    """Read, parse and extract every log of a corpus, then summarize."""

    SAMPLE = ("parse",)
    WARMUP = 0

    def __init__(self, inputs: Path, manifest: dict, job: dict):
        corpus = json.loads((inputs / manifest["corpus"]).read_text(encoding="utf-8"))
        log_dir = inputs / manifest["log_dir"]
        self.entries = corpus
        self.paths = [log_dir / e["file"] for e in corpus]
        self.latency_ns: list[int] = []  # untraced passes only

    def patches(self, tr: Tracer):
        return [(drivelog, "DriveLog", tr.wrap("validate", drivelog.DriveLog))]

    def run_pass(self, tr: Tracer | None):
        read_bytes = Path.read_bytes
        parse, extract, summarize = (
            drivelog.parse_drive_log, drivelog.extract_metrics, drivelog.summarize)
        if tr is not None:
            read_bytes = tr.wrap("read", read_bytes)
            parse, extract, summarize = (
                tr.wrap("parse", parse), tr.wrap("extract", extract),
                tr.wrap("summarize", summarize))
        clock = time.perf_counter_ns
        outcomes, metrics, latency = [], [], []
        t0 = time.perf_counter()
        for path in self.paths:
            start = clock()
            try:
                m = extract(parse(read_bytes(path)))
                metrics.append(m)
                outcomes.append(m)
            except Exception as exc:  # every outcome is checked after the pass
                # Keep no reference to the error: its traceback and context
                # would pin the failed call's frames and half-parsed columns.
                outcomes.append((type(exc), str(exc)))
            latency.append(clock() - start)
        summary = summarize(metrics) if metrics else None
        elapsed = time.perf_counter() - t0
        if tr is None:
            self.latency_ns += latency
        return len(self.paths) + 1, elapsed, (outcomes, metrics, summary)

    def check(self, result, counts: dict, failures: list) -> int:
        outcomes, metrics, summary = result
        failed = 0
        rejected: dict[str, int] = {}
        for entry, outcome in zip(self.entries, outcomes):
            raised = type(outcome) is tuple
            if "error" in entry:
                ok = raised and outcome[0].__name__ == entry["error"] and issubclass(
                    outcome[0], errors.TortbError)
                if ok:
                    rejected[entry["error"]] = rejected.get(entry["error"], 0) + 1
            else:
                ok = not raised and all(
                    _close(getattr(outcome, k), entry[k]) for k in ("tot", "avg_ld", "max_acc"))
            if not ok:
                failed += 1
                failures.append(f"{entry['file']}: {outcome!r}")
        valid = [e for e in self.entries if "error" not in e]
        tots = [e["tot"] for e in valid if e["tot"] is not None]
        stats = summary["all"] if summary else {}
        if not (stats and stats["tot"] is not None and stats["tot"].n == len(tots)
                and _close(stats["tot"].mean, statistics.fmean(tots), 1e-9)):
            failed += 1
            failures.append("summarize: tot statistics disagree with the oracle")
        counts.update({
            "logs": len(self.entries), "rows_parsed": sum(e["rows"] for e in valid),
            "bytes_read": sum(p.stat().st_size for p in self.paths),
            **{f"rejected.{name}": n for name, n in sorted(rejected.items())},
        })
        return failed

    def layer_metrics(self, tr: Tracer) -> dict:
        # Traced passes parse every log once, in corpus order.
        n = len(self.entries)
        parsed = tr.samples["parse"]
        ok = [(s, e["rows"]) for i, (_, s) in enumerate(parsed)
              if "error" not in (e := self.entries[i % n])]
        bad = [d for i, (d, _) in enumerate(parsed) if "error" in self.entries[i % n]]
        return {
            "drivelog.parse_ns_per_row": sum(s for s, _ in ok) / max(1, sum(r for _, r in ok)),
            "drivelog.reject_us": statistics.fmean(bad) / 1e3 if bad else 0.0,
            "analyze.log_p50_ms": percentile(self.latency_ns, 50) / 1e6,
            "analyze.log_p99_ms": percentile(self.latency_ns, 99) / 1e6,
        }


class EstimateSweep:
    """``estimate_tortb`` over a band-edge grid, with a calibration and a
    reference table after every thousand estimates."""

    EVERY = 1000
    SAMPLE = ()
    WARMUP = 0

    def __init__(self, inputs: Path, manifest: dict, job: dict):
        sets = {"default": model.DEFAULT_COEFFICIENTS, "raw": model.RAW_COEFFICIENTS,
                "rounded": model.DEFAULT_COEFFICIENTS.rounded()}
        grid = json.loads((inputs / manifest["grid"]).read_text(encoding="utf-8"))
        points, self.expected = [], []
        for srt, exp, noa, noj, ego, hazard, ndrt, ordinal, coeffs in grid:
            points.append((
                model.DriverProfile(srt=srt, experience_km_per_week=exp),
                model.ScenarioSpec(noa=noa, noj=noj, ego_speed=ego, hazard_speed=hazard),
                model.TakeoverContext(ndrt_class=model.NdrtClass(ndrt), ordinal=ordinal),
                sets[coeffs],
            ))
            rsc = gen.band_value(gen.RSC_BANDS, ego - hazard, None)
            self.expected.append((gen.band_value(gen.DEC_BANDS, exp, gen.DEC_FLOOR), rsc))
        self.chunks = [points[i:i + self.EVERY] for i in range(0, len(points), self.EVERY)]
        self.anchors = fileio.load_anchors(inputs / manifest["anchors"])

    def patches(self, tr: Tracer):
        return [(calibration, "estimate_tortb", tr.wrap("estimate", calibration.estimate_tortb)),
                (cli, "estimate_tortb", tr.wrap("estimate", cli.estimate_tortb))]

    def run_pass(self, tr: Tracer | None):
        estimate = model.estimate_tortb
        calibrate, table = calibration.calibrate_sequence, cli.table_rows
        if tr is not None:
            calibrate, table = tr.wrap("calibrate", calibrate), tr.wrap("table", table)
        anchors, seed = self.anchors, model.DEFAULT_COEFFICIENTS
        results, calibrations, tables = [], [], []
        append = results.append

        def sweep(chunk):
            for driver, scenario, ctx, coeffs in chunk:
                try:
                    append(estimate(driver, scenario, ctx, coeffs))
                except Exception as exc:  # every outcome is checked after the pass
                    append((type(exc), str(exc)))

        if tr is not None:
            # One span per chunk: wrapping each 7 us call would cost more than
            # a tenth of it.  The span stands for len(chunk) estimate calls.
            sweep = tr.wrap("estimate", sweep)
        t0 = time.perf_counter()
        for chunk in self.chunks:
            sweep(chunk)
            calibrations.append(calibrate(anchors, seed))
            tables.append(table())
        elapsed = time.perf_counter() - t0
        if tr is not None:
            tr.stats["estimate"][2] += len(results) - len(self.chunks)
        return len(results) + len(calibrations) + len(tables), elapsed, (
            results, calibrations, tables)

    def check(self, result, counts: dict, failures: list) -> int:
        results, calibrations, tables = result
        failed = 0
        rejected = 0
        for (dec, rsc), est in zip(self.expected, results):
            raised = type(est) is tuple
            if rsc is None:
                ok = raised and est[0] is errors.SpeedAboveModelRange
                rejected += ok
            elif raised:
                ok = False
            else:
                c = est.components
                total = c["srt"] + c["dec"] + c["noa_term"] + c["noj_term"] + c["rsc"] \
                    + c["ndrtc"] - c["oc"]
                ok = est.total == total and c["dec"] == dec and c["rsc"] == rsc
            if not ok:
                failed += 1
                if len(failures) < 20:
                    failures.append(f"estimate: {est!r}")
        for result_, _ in calibrations:
            for unknown, (raw, rounded) in gen.CALIBRATED.items():
                solved = result_.solved[calibration.UnknownCoefficient(unknown)]
                if not (_close(solved.raw, raw, 1e-9) and solved.rounded == rounded):
                    failed += 1
                    failures.append(f"calibrate {unknown}: {solved}")
        for rows in tables:
            if not all(_close(r["tortb_s"], g, 1e-9) for r, g in zip(rows, gen.TABLE_TOTALS)):
                failed += 1
                failures.append(f"table: {[r['tortb_s'] for r in rows]}")
        counts.update({"estimates": len(results), "calibrations": len(calibrations),
                       "tables": len(tables), "rejected.SpeedAboveModelRange": rejected})
        return failed


SHARE_SPANS = ("cli", "load", "simulate", "episode", "estimate", "validate", "render",
               "write", "read", "parse", "extract", "summarize", "calibrate", "table")
COUNTS = ("episodes", "success", "late", "collision", "rows_rendered", "bytes_written",
          "logs", "rows_parsed", "bytes_read", "estimates", "calibrations", "tables",
          "rejected.SchemaError", "rejected.MissingTorMarker", "rejected.MultipleTorMarkers",
          "rejected.NonUniformSampling", "rejected.SpeedAboveModelRange", "unexpected")


WORKLOADS = {"simulate_batch": SimulateBatch, "analyze_corpus": AnalyzeCorpus,
             "estimate_sweep": EstimateSweep}


def layer_metrics(tr: Tracer, traced_s: float, passes: int, counts: dict) -> dict:
    """Per-pass layer costs, per-call costs and each layer's share of the
    traced work time."""
    def per_pass_s(name):
        return tr.total_ns(name) / 1e9 / passes

    def per_call_us(name):
        return tr.total_ns(name) / 1e3 / tr.calls(name) if tr.calls(name) else 0.0

    episodes = [d for d, _ in tr.samples.get("episode", [])]
    rows = counts.get("rows_rendered", 0) * passes
    work_ns = traced_s * 1e9
    covered = sum(s["self_ns"] for s in tr.summary().values())
    out = {
        "import.tortb_s": IMPORT_S,
        "fileio.load_s": per_pass_s("load"),
        "simulate.run_batch_s": per_pass_s("simulate"),
        "simulate.run_episode_us_p50": percentile(episodes, 50) / 1e3 if episodes else 0.0,
        "simulate.run_episode_us_p99": percentile(episodes, 99) / 1e3 if episodes else 0.0,
        "drivelog.render_s": per_pass_s("render"),
        "drivelog.render_ns_per_row": tr.total_ns("render") / rows if rows else 0.0,
        "io.write_s": per_pass_s("write"),
        "io.read_s": per_pass_s("read"),
        "drivelog.parse_s": per_pass_s("parse"),
        "drivelog.parse_ns_per_row": 0.0,
        "drivelog.reject_us": 0.0,
        "drivelog.validate_us": per_call_us("validate"),
        "drivelog.extract_us": per_call_us("extract"),
        "drivelog.summarize_ms": per_call_us("summarize") / 1e3,
        "analyze.log_p50_ms": 0.0,
        "analyze.log_p99_ms": 0.0,
        "model.estimate_us": per_call_us("estimate"),
        "calibration.calibrate_us": per_call_us("calibrate"),
        "cli.table_rows_us": per_call_us("table"),
        "cli.main_self_s": tr.self_ns("cli") / 1e9 / passes,
        "trace.coverage_pct": 100.0 * covered / work_ns,
    }
    for name in SHARE_SPANS:
        out[f"share.{name}_pct"] = 100.0 * tr.self_ns(name) / work_ns
    return out


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    inputs = Path(job["inputs"])
    wl = WORKLOADS[job["workload"]](inputs, job["manifest"], job)
    trace = job["trace"]
    tr = Tracer(sample=wl.SAMPLE) if trace else None
    min_passes = (2 if job["quick"] else 4) if trace else (1 if job["quick"] else 3)
    passes: list[dict] = []
    failures: list[str] = []
    counts: dict = {}
    attempted = failed = 0
    measured = 0.0
    for _ in range(wl.WARMUP):
        items, _, result = wl.run_pass(None)
        failed += wl.check(result, {}, failures)
        attempted += items
    while measured < job["seconds"] or len(passes) < min_passes:
        traced = trace and len(passes) % 2 == 1
        cpu = time.process_time()
        if traced:
            with patched(wl.patches(tr)):
                items, seconds, result = wl.run_pass(tr)
        else:
            items, seconds, result = wl.run_pass(None)
        cpu = time.process_time() - cpu
        pass_counts: dict = {}
        failed += wl.check(result, pass_counts, failures)
        counts = pass_counts
        attempted += items
        passes.append({"items": items, "wall_s": seconds, "cpu_s": cpu, "traced": traced})
        measured += seconds
    plain = [p for p in passes if not p["traced"]]
    result = {
        "import_s": IMPORT_S,
        "passes": passes,
        # Throughput per second of the child's processor time.  Wall time
        # on a shared two-core VM also counts time the child was not
        # running: other tenants' steal, and waits on the shared disk
        # (up to 2.4 s of a 4 s simulate pass).  Both are kept.
        "items_per_cpu_s": statistics.median(p["items"] / p["cpu_s"] for p in plain),
        "items_per_wall_s": statistics.median(p["items"] / p["wall_s"] for p in plain),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "counts": {name: counts.get(name, 0) for name in COUNTS} | {"unexpected": failed},
    }
    if isinstance(wl, AnalyzeCorpus):
        result["log_latency_ms"] = {
            "p50": percentile(wl.latency_ns, 50) / 1e6,
            "p99": percentile(wl.latency_ns, 99) / 1e6,
            "samples": len(wl.latency_ns),
        }
    if trace:
        traced = [p["wall_s"] for p in passes if p["traced"]]
        layers = layer_metrics(tr, sum(traced), len(traced), counts)
        if isinstance(wl, AnalyzeCorpus):
            layers.update(wl.layer_metrics(tr))
        layers["trace.overhead_pct"] = 100.0 * (
            statistics.median(traced) / statistics.median(p["wall_s"] for p in plain) - 1.0)
        result["layers"] = layers
        result["spans"] = tr.summary()
        tr.write(Path(job["trace_file"]))
    Path(job["result"]).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
