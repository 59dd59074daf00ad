#!/usr/bin/env python3
"""coulscat benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N --seconds S]
    python3 perfbench/run.py --self-test

Run from the repository root; the package is imported from ./src. NAME is
fieldmap, pointwise or presets (see perfbench/NOTES.md). The run makes its
inputs from the seed, repeats the workload's operation for S seconds (whole
cycles), gates every output against mpmath references and prints a report;
its last stdout line is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, op_p50_ms,
op_p90_ms, peak_rss_mb); with --trace 1 they are the per-layer ones, from
spans recorded around coulscat's layer functions on alternate cycles.
Every time is scaled by the run's machine-speed factor, from a probe kernel
timed between operations (see speed.py); the report also shows the
unadjusted wall times.
A run record (seed, machine, versions, src line count, CSV SHA-256) and, when
traced, the spans go to perfbench/.work/. Exit status: 0 when every output
passed the gate, 1 when any failed, 2 when the checkout is incomplete.
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

MODULES = ("specfun", "exact", "asymptotic", "currents", "multipole",
           "classical", "cli")

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
              "import coulscat.cli as cli; cli.load_preset('fig3')")

# What each workload's operation is called in the report, and the report
# names of its latency figures: (name, source metric, unit, scale).
OP_REPORT = {
    "fieldmap": [("scan_s", "op_p50_ms", "s", 1e-3)],
    "presets": [("pass_s", "op_p50_ms", "s", 1e-3)],
    "pointwise": [("call_us_p50", "op_p50_ms", "us", 1e3),
                  ("call_us_p90", "op_p90_ms", "us", 1e3)],
}


def load_modules():
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module("coulscat." + name)
            for name in MODULES}


def measure_setup(repeats, probe):
    """Fresh interpreters importing coulscat.cli and loading a preset,
    after one unmeasured start that warms the bytecode and file caches.
    Returns the wall times in seconds."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    times = []
    for i in range(repeats + 1):
        probe.sample()
        t0 = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=120)
        if i:
            times.append(perf_counter() - t0)
    probe.sample()
    return times


def percentile(values, q):
    """Linear-interpolated percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_loop(wl, seconds, probe, recorder=None):
    """Run whole cycles of the workload until `seconds` have passed, with
    speed-probe samples between operations. With a recorder, even cycles
    are traced and odd ones not, and at least one of each runs. Returns
    ({traced: [(op index, start, seconds)]}, attempted, failed, errors)."""
    times = {False: [], True: []}
    attempted = failed = 0
    errors = []
    min_cycles = 2 if recorder is not None else 1
    deadline = perf_counter() + seconds
    cycle = i = 0
    while cycle < min_cycles or perf_counter() < deadline:
        traced = recorder is not None and cycle % 2 == 0
        if traced:
            recorder.install()
        try:
            for _ in range(wl.cycle):
                probe.maybe_sample()
                t0 = perf_counter()
                try:
                    out = wl.op(i)
                    problems = None
                except Exception:  # any raise is a failed operation
                    out, problems = None, [traceback.format_exc(limit=3)]
                times[traced].append((i, t0, perf_counter() - t0))
                if problems is None:
                    problems = wl.check(i, out)
                attempted += 1
                if problems:
                    failed += 1
                    errors += problems
                # drop the output now, so that peak memory is that of one
                # operation however many run
                out = None
                i += 1
        finally:
            if traced:
                recorder.uninstall()
        cycle += 1
    probe.sample()
    return times, attempted, failed, errors


def per_input_medians(samples, cycle):
    """Median wall time of each distinct operation over its repeats
    (operation i and i + cycle share an input), in seconds."""
    by_input = {}
    for i, _, dt in samples:
        by_input.setdefault(i % cycle, []).append(dt)
    return [statistics.median(v) for v in by_input.values()]


def src_line_count():
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "coulscat").rglob("*.py")))


def versions():
    import mpmath
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def configured_workers(cli):
    count = getattr(cli, "_worker_count", None)
    if count is None:
        return None
    try:
        return count()
    except ValueError:
        return None


def run_workload(name, seed, seconds, trace, tiny=False):
    """One benchmark run in this process. Returns the run record;
    result_line() turns it into the final JSON line."""
    import tracing
    from workloads import WORKLOADS

    mods = load_modules()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=name + "-", dir=WORK))
    try:
        wl = WORKLOADS[name](mods, seed, workdir, tiny=tiny)
        metrics, raw = {}, {}
        probe = SpeedProbe()
        if not trace:
            setup = measure_setup(1 if tiny else 5, probe)
        wl.warm()  # untimed and unchecked
        recorder = tracing.Recorder(mods) if trace else None
        times, attempted, failed, errors = timed_loop(wl, seconds, probe,
                                                      recorder)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = per_input_medians(times[False], wl.cycle)
    for key, q in (("op_p50_ms", 50), ("op_p90_ms", 90)):
        raw[key] = percentile(plain, q) * 1e3
    if trace:
        # per-layer numbers are wall times, like the spans they come from
        n_traced = len(times[True])
        layer = tracing.layer_metrics(recorder.spans, n_traced)
        p50_t = percentile(per_input_medians(times[True], wl.cycle), 50) * 1e3
        layer["trace.op_p50_ms"] = p50_t
        layer["trace.untraced_op_p50_ms"] = raw["op_p50_ms"]
        layer["trace.overhead_ms"] = p50_t - raw["op_p50_ms"]
        for key, value in layer.items():
            metrics[key] = {"value": value, "unit": _layer_unit(key),
                            "n": n_traced}
        spans_path = WORK / ("spans-%s.json" % name)
        spans_path.write_text(json.dumps(
            {"workload": name, "seed": seed, "traced_ops": n_traced,
             "spans": tracing.span_records(recorder.spans)}))
    else:
        raw["setup_s"] = statistics.median(setup)
        metrics["setup_s"] = {"value": raw["setup_s"] * probe.factor(),
                              "unit": "s", "n": len(setup)}
        speed = probe.factor(wl.speed_exponent)
        for key in ("op_p50_ms", "op_p90_ms"):
            metrics[key] = {"value": raw[key] * speed, "unit": "ms",
                            "n": len(plain)}
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB", "n": 1}

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "tiny": tiny, "op": wl.op_label, "attempted": attempted,
        "timed_ops": len(times[False]), "distinct_ops": len(plain),
        "failed": failed, "failed_frac": failed / max(attempted, 1),
        "wall_unadjusted": raw, "speed_probe": probe.summary(),
        "samples": {"ops": times[False],
                    "probe": list(zip(probe.times, probe.values))},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "scatter_threads_env": os.environ.get("SCATTER_THREADS"),
        "workers_configured": configured_workers(mods["cli"]),
        "workers_observed": (metrics["cli.scan.workers"]["value"]
                             if trace else None),
        "instrumented": recorder.instrumented if trace else None,
        "versions": versions(), "src_lines": src_line_count(),
        "csv_sha256": {case.label: case.sha256 for case in wl.cases},
        "metrics": metrics, "errors": errors[:20],
    }
    return record


_COUNT_SUFFIXES = (".calls", ".elems", ".points", ".chunks", ".workers",
                   ".ell_terms", ".spans", "_per_row")


def _layer_unit(key):
    if key.endswith(".mb_per_s"):
        return "MB/s"
    if key.endswith("_ms"):
        return "ms"
    if key.endswith((".s", "_s")):
        return "s"
    if key.endswith(".us_per_elem"):
        return "us"
    if key.endswith(".ns_per_term"):
        return "ns"
    if key.endswith(".bytes"):
        return "B"
    if key.endswith(("_frac", "_ratio")):
        return "ratio"
    if key.endswith(_COUNT_SUFFIXES):
        return "count"
    raise KeyError("no unit for metric %s" % key)


def result_line(record):
    metrics = {k: {"value": v["value"], "unit": v["unit"]}
               for k, v in record["metrics"].items()}
    return {"correct": record["failed"] == 0 and record["attempted"] > 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def report_lines(record):
    """Human-readable summary: every metric with unit and sample count."""
    name = record["workload"]
    lines = ["coulscat benchmark  workload=%s seed=%s seconds=%s trace=%s"
             % (name, record["seed"], record["seconds"], record["trace"]),
             "  nproc=%s workers_configured=%s src_lines=%s %s"
             % (record["nproc"], record["workers_configured"],
                record["src_lines"],
                " ".join("%s=%s" % kv for kv in record["versions"].items()))]
    m = record["metrics"]
    if not record["trace"]:
        for label, key, unit, scale in OP_REPORT[name]:
            lines.append("  %-28s %14.6g %-5s n=%d distinct %s x %.3g repeats "
                         "(unadjusted wall %.6g)" % (
                             label, m[key]["value"] * scale, unit,
                             record["distinct_ops"], record["op"],
                             record["timed_ops"] / record["distinct_ops"],
                             record["wall_unadjusted"][key] * scale))
    for key, v in m.items():
        lines.append("  %-28s %14.6g %-5s n=%d" % (key, v["value"], v["unit"],
                                                    v["n"]))
    lines.append("  %-28s %14.6g %-5s n=%d %s ops (%d failed)" % (
        "failed_frac", record["failed_frac"], "ratio", record["attempted"],
        record["op"], record["failed"]))
    for label, sha in record["csv_sha256"].items():
        lines.append("  csv sha256 %-8s %s" % (label, sha))
    for err in record["errors"]:
        lines.append("  GATE FAILURE: %s" % err.strip())
    return lines


def run_all(seed, seconds):
    """Every workload, untraced, each in its own interpreter."""
    import workloads
    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        if proc.returncode or not out:
            sys.stderr.write(proc.stderr)
            status = 1
        if out:
            results[name] = json.loads(out[-1])
    print(json.dumps(results))
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("fieldmap", "pointwise", "presets",
                                           "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="tiny runs of every workload, gate and trace checks")
    args = ap.parse_args(argv)
    if not (SRC / "coulscat" / "cli.py").is_file():
        print("error: %s not found; run from a coulscat checkout" %
              (SRC / "coulscat"), file=sys.stderr)
        return 2
    if args.self_test:
        import selftest
        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    out = WORK / ("record-%s-trace%d.json" % (args.workload, args.trace))
    out.write_text(json.dumps(record, indent=1))
    print("\n".join(report_lines(record)))
    print("  record: %s" % out.relative_to(ROOT))
    result = result_line(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
