"""Self-test of the benchmark itself.

    python3 perfbench/run.py --self-test

Checks, on tiny inputs where the workload allows it:
  * every workload emits exactly the metrics and units BENCHMARK.json
    names, traced and untraced, and passes its own gate;
  * the gate trips when one field value is perturbed by 1e-6 relative;
  * on a traced fieldmap scan, every chunk span sits under its run_scan
    span, and compute phase + write_csv + run_scan self time account for
    the run_scan span;
  * the CSVs the benchmark writes are byte-identical to those of a plain
    `scatter` run of the same preset (fig3 included, so this takes ~30 s).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
import workloads as W

PERTURB = 1.0 + 1e-6


class Results:
    def __init__(self):
        self.failed = 0

    def check(self, ok, label, detail=""):
        print("%s  %s%s" % ("ok  " if ok else "FAIL", label,
                            "  (%s)" % detail if detail and not ok else ""))
        if not ok:
            self.failed += 1


def _benchmark_spec():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_metric_names(res):
    workloads, e2e, layer = _benchmark_spec()
    for name in workloads:
        for trace, want in ((0, e2e), (1, layer)):
            rec = run.run_workload(name, seed=0, seconds=0, trace=trace,
                                   tiny=True)
            got = {k: v["unit"]
                   for k, v in run.result_line(rec)["metrics"].items()}
            res.check(got == want, "%s trace=%d emits every metric with its "
                      "unit" % (name, trace),
                      sorted(set(got.items()) ^ set(want.items())))
            res.check(rec["failed"] == 0 and rec["attempted"] > 0,
                      "%s trace=%d passes its gate" % (name, trace),
                      "; ".join(rec["errors"][:3]))
            if name == "fieldmap" and trace:
                check_scan_accounting(res, rec)


def check_scan_accounting(res, rec):
    m = {k: v["value"] for k, v in rec["metrics"].items()}
    parts = m["cli.scan.compute_s"] + m["cli.write_csv.s"] + m["cli.scan.self_s"]
    res.check(m["cli.scan.chunks"] > 1 and m["cli.scan.workers"] >= 1,
              "traced fieldmap records its chunks")
    res.check(abs(parts - m["cli.scan.s"]) <= 0.05 * m["cli.scan.s"],
              "compute + write_csv + scan self time account for run_scan",
              "%.4g vs %.4g s" % (parts, m["cli.scan.s"]))
    spans = json.loads((run.WORK / "spans-fieldmap.json").read_text())["spans"]
    scans = {s["id"] for s in spans if s["name"] == "cli.scan"}
    chunks = [s for s in spans if s["name"] == "cli.chunk"]
    res.check(bool(chunks) and all(s["parent"] in scans for s in chunks),
              "every chunk span (pool threads too) sits under its run_scan")


def check_gate_trips(res, mods, workdir):
    fm = W.Fieldmap(mods, 0, workdir, tiny=True)
    header, rows = fm.op(0)
    res.check(not fm.check(0, (header, rows)), "fieldmap gate passes true output")
    bad = rows.copy()
    bad[fm.case.sample[0], header.index("re_psi")] *= PERTURB
    errs = fm.check(0, (header, bad))
    res.check(any(" psi: relative error" in e for e in errs),
              "fieldmap gate trips on a perturbed field value", errs)

    pw = W.Pointwise(mods, 0, workdir, tiny=True)
    j = next(i for i in sorted(pw.refs) if pw.calls[i][0] == "psi")
    out = pw.op(j)
    res.check(not pw.check(j, out), "pointwise gate passes true output")
    pw.first.clear()
    errs = pw.check(j, out * PERTURB)
    res.check(any("relative error" in e for e in errs),
              "pointwise gate trips on a perturbed field value", errs)

    ps = W.Presets(mods, 0, workdir, tiny=True)
    outs = ps.op(0)
    res.check(not ps.check(0, outs), "presets gate passes true output")
    header, rows = outs[0]
    bad = rows.copy()
    bad[ps.cases[0].sample[0], header.index("im_psi")] *= PERTURB
    errs = ps.check(0, [(header, bad)] + outs[1:])
    res.check(any(" psi: relative error" in e for e in errs),
              "presets gate trips on a perturbed field value", errs)


def check_bytes_match_cli(res, mods, workdir):
    cases = W.Presets(mods, 0, workdir, tiny=True).cases
    cases += W.Fieldmap(mods, 0, workdir).cases
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    for case in cases:
        case.run(mods["cli"])
        mine = W.sha256_file(case.out)
        cli_out = str(workdir / ("cli-%s.csv" % case.label))
        subprocess.run([sys.executable, "-m", "coulscat.cli", *case.argv,
                        "--out", cli_out], check=True, env=env,
                       stdout=subprocess.DEVNULL, timeout=300)
        res.check(W.sha256_file(cli_out) == mine,
                  "%s CSV is byte-identical to `scatter %s`"
                  % (case.label, " ".join(case.argv)))


def main():
    res = Results()
    mods = run.load_modules()
    run.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        check_metric_names(res)
        check_gate_trips(res, mods, workdir)
        check_bytes_match_cli(res, mods, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("self-test: %s" % ("all passed" if not res.failed
                             else "%d FAILED" % res.failed))
    return 1 if res.failed else 0
