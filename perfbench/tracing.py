"""Span recorder for the traced benchmark run.

The recorder wraps coulscat's layer functions at run time, from the
benchmark's own files: nothing under src/ knows it is being traced. Each
wrapped call records a span (id, name, start, end, parent id, thread id,
count). Parents come from a per-thread stack; chunks that run on the scan's
thread pool inherit the span that submitted them, so their spans land under
their run_scan. Spans stay in memory until the run writes them out.

Wrapping works by rebinding module attributes, so it sees every call that
looks a function up through its module at call time, which is how coulscat
calls across and within modules. A function a later version renames or
removes is skipped, and its metrics read 0.
"""

import itertools
import os
import threading
from time import perf_counter

import numpy as np


def _broadcast_size(*arrays):
    return int(np.broadcast(*[np.asarray(a) for a in arrays]).size)


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# count functions: (args, kwargs, result) -> number recorded on the span
def _kernel_elems(args, kwargs, result):
    return _broadcast_size(_arg(args, kwargs, 0, "a"), _arg(args, kwargs, 1, "b"),
                           _arg(args, kwargs, 2, "z"))


def _field_points(args, kwargs, result):
    return _broadcast_size(_arg(args, kwargs, 1, "rho"),
                           _arg(args, kwargs, 2, "theta"))


def _terms_theta(index, name, offset=1):
    def count(args, kwargs, result):
        n = int(_arg(args, kwargs, index, name)) + offset
        return n * int(np.size(_arg(args, kwargs, 1, "theta")))
    return count


def _terms_scalar(index, name):
    def count(args, kwargs, result):
        return int(_arg(args, kwargs, index, name)) + 1
    return count


def _scan_quantity(args, kwargs, result):
    return _arg(args, kwargs, 0, "spec").quantity


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# (module, function, span name, count function). Several functions may
# share one span name; they then form one layer.
LAYER_FUNCTIONS = (
    ("specfun", "hyp1f1", "specfun.hyp1f1", None),
    ("specfun", "hyp1f1_series", "specfun.series", _kernel_elems),
    ("specfun", "hyp1f1_asymptotic", "specfun.asym", _kernel_elems),
    ("specfun", "log_gamma_complex", "specfun.log_gamma", None),
    ("specfun", "legendre_sweep", "specfun.legendre", None),
    ("exact", "psi_exact_grid", "exact.psi_grid", _field_points),
    ("exact", "psi_exact", "exact.psi_scalar", None),
    ("asymptotic", "psi_asymptotic_grid", "asymptotic.psi_grid", _field_points),
    ("currents", "current_exact_grid", "currents.grid", None),
    ("currents", "current_asymptotic_grid", "currents.grid", None),
    ("currents", "current_asymptotic_split_grid", "currents.grid", None),
    ("currents", "current_outgoing_grid", "currents.grid", None),
    ("currents", "current_numeric", "currents.numeric", None),
    ("multipole", "psi_multipole_sum", "multipole.psi_sum", _terms_scalar(2, "ell_max")),
    ("multipole", "f_series_cesaro", "multipole.cesaro", _terms_theta(2, "n")),
    ("multipole", "f_reduced_series", "multipole.reduced", _terms_theta(2, "ell_max")),
    ("multipole", "f_series_partial_sweep", "multipole.partial_sweep",
     _terms_scalar(2, "ell_max")),
    ("multipole", "phase_shift_sweep", "multipole.phase_sweep", _terms_scalar(0, "ell_max")),
    ("multipole", "phase_shift", "multipole.phase_shift", None),
    ("multipole", "coulomb_wave_regular", "multipole.radial", None),
    ("multipole", "coulomb_wave_asymptotic", "multipole.radial", None),
    ("classical", "integrate_full_mode", "classical.integrate", None),
    ("cli", "run_scan", "cli.scan", _scan_quantity),
    ("cli", "write_csv", "cli.write_csv", _file_bytes),
)


class Recorder:
    """Holds the spans of one traced run and the patches that produce them.

    install() rebinds the layer functions; uninstall() restores them, so a
    run can alternate traced and untraced operations."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved = []
        self.instrumented = sorted({name for mod, fn, name, _ in LAYER_FUNCTIONS
                                    if hasattr(modules.get(mod), fn)})

    # -- span bookkeeping -------------------------------------------------
    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, count, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        result, done = None, False
        try:
            result = fn(*args, **kwargs)
            done = True
            return result
        finally:
            t1 = perf_counter()
            stack.pop()
            n = count(args, kwargs, result) if done and count else 0
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident(), n))

    def _wrap(self, fn, name, count):
        def wrapper(*args, **kwargs):
            return self._call(name, count, fn, args, kwargs)
        return wrapper

    def _adopt(self, parent, fn, *args, **kwargs):
        """Run fn on a pool thread with the submitting span as parent."""
        stack = self._stack()
        saved = list(stack)
        stack[:] = [parent] if parent else []
        try:
            return fn(*args, **kwargs)
        finally:
            stack[:] = saved

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for mod, fn, name, count in LAYER_FUNCTIONS:
            module = self.modules.get(mod)
            if module is not None and hasattr(module, fn):
                self._patch(module, fn, self._wrap(getattr(module, fn), name, count))
        cli = self.modules["cli"]
        builders = getattr(cli, "_BUILDERS", None)
        if isinstance(builders, dict):
            for key, build in list(builders.items()):
                builders[key] = self._wrap_builder(build)
                self._saved.append((builders, key, build))
        pool_cls = getattr(cli, "ThreadPoolExecutor", None)
        if isinstance(pool_cls, type):
            self._patch(cli, "ThreadPoolExecutor", self._pool_class(pool_cls))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._saved = []

    def _wrap_builder(self, build):
        """Scan builders return (header, n_rows, compute); each compute
        chunk becomes a cli.chunk span counting its rows."""
        def rows(args, kwargs, result):
            return int(args[1]) - int(args[0])

        def traced_build(spec):
            header, n_rows, compute = build(spec)
            return header, n_rows, self._wrap(compute, "cli.chunk", rows)
        return traced_build

    def _pool_class(self, base):
        rec = self

        class TracedPool(base):
            def submit(self, fn, /, *args, **kwargs):
                stack = rec._stack()
                parent = stack[-1] if stack else 0
                return super().submit(rec._adopt, parent, fn, *args, **kwargs)
        return TracedPool


# -- aggregation ----------------------------------------------------------

def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class _Layer:
    __slots__ = ("calls", "self_s", "count")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.count = 0


def layer_metrics(spans, ops):
    """Per-layer metrics from the spans of `ops` traced operations. Times
    are self times (span minus the part its children cover), in seconds per
    operation; counts are per operation."""
    ops = max(ops, 1)
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    layers = {}
    for s in spans:
        sid, name, t0, t1 = s[:4]
        kids = [(c[2], c[3]) for c in children.get(sid, ())]
        lay = layers.setdefault(name, _Layer())
        lay.calls += 1
        lay.self_s += (t1 - t0) - _covered(kids, t0, t1)
        if isinstance(s[6], (int, float)):
            lay.count += s[6]

    def get(name):
        return layers.get(name, _Layer())

    def per_op(x):
        return x / ops

    def ratio(num, den, scale=1.0):
        return num * scale / den if den else 0.0

    m = {}
    series, asym = get("specfun.series"), get("specfun.asym")
    m["specfun.series.calls"] = per_op(series.calls)
    m["specfun.series.elems"] = per_op(series.count)
    m["specfun.series.s"] = per_op(series.self_s)
    m["specfun.series.us_per_elem"] = ratio(series.self_s, series.count, 1e6)
    m["specfun.asym.elems"] = per_op(asym.count)
    m["specfun.asym.s"] = per_op(asym.self_s)
    m["specfun.asym.us_per_elem"] = ratio(asym.self_s, asym.count, 1e6)
    m["specfun.series_frac"] = ratio(series.count, series.count + asym.count)
    m["specfun.dispatch.s"] = per_op(get("specfun.hyp1f1").self_s)
    for short in ("log_gamma", "legendre"):
        lay = get("specfun." + short)
        m["specfun.%s.calls" % short] = per_op(lay.calls)
        m["specfun.%s.s" % short] = per_op(lay.self_s)

    grid, scalar = get("exact.psi_grid"), get("exact.psi_scalar")
    m["exact.psi_grid.calls"] = per_op(grid.calls)
    m["exact.psi_grid.points"] = per_op(grid.count)
    m["exact.psi_grid.self_s"] = per_op(grid.self_s)
    m["exact.psi_scalar.calls"] = per_op(scalar.calls)
    m["exact.psi_scalar.s"] = per_op(scalar.self_s)

    agrid = get("asymptotic.psi_grid")
    m["asymptotic.psi_grid.calls"] = per_op(agrid.calls)
    m["asymptotic.psi_grid.points"] = per_op(agrid.count)
    m["asymptotic.psi_grid.s"] = per_op(agrid.self_s)

    cgrid, cnum = get("currents.grid"), get("currents.numeric")
    m["currents.grid.calls"] = per_op(cgrid.calls)
    m["currents.grid.s"] = per_op(cgrid.self_s)
    m["currents.numeric.calls"] = per_op(cnum.calls)
    m["currents.numeric.s"] = per_op(cnum.self_s)
    m.update(_current_field_points(spans, by_id))

    mp_names = [n for n in layers if n.startswith("multipole.")]
    mp_terms = sum(layers[n].count for n in mp_names)
    mp_self = sum(layers[n].self_s for n in mp_names)
    psum = get("multipole.psi_sum")
    m["multipole.ell_terms"] = per_op(mp_terms)
    m["multipole.s"] = per_op(mp_self)
    m["multipole.ns_per_term"] = ratio(mp_self, mp_terms, 1e9)
    m["multipole.psi_sum.calls"] = per_op(psum.calls)
    m["multipole.psi_sum.s"] = per_op(psum.self_s)

    integ = get("classical.integrate")
    m["classical.integrate.calls"] = per_op(integ.calls)
    m["classical.integrate.s"] = per_op(integ.self_s)

    csv = get("cli.write_csv")
    m["cli.write_csv.s"] = per_op(csv.self_s)
    m["cli.write_csv.bytes"] = per_op(csv.count)
    m["cli.write_csv.mb_per_s"] = ratio(csv.count, csv.self_s, 1e-6)
    m.update(_scan_metrics(spans, children, ops))
    m["trace.spans"] = per_op(len(spans))
    return m


def _current_field_points(spans, by_id):
    """Field points evaluated per output current row. A row is one
    current_numeric call, or one row of a currents scan chunk."""
    def owner(sid):
        while sid:
            s = by_id.get(sid)
            if s is None:
                return None
            if s[1].startswith("currents."):
                return s
            sid = s[4]
        return None

    exact_pts = asym_pts = rows = 0
    for s in spans:
        name = s[1]
        if name in ("exact.psi_grid", "asymptotic.psi_grid"):
            if owner(s[4]) is not None:
                if name == "exact.psi_grid":
                    exact_pts += s[6]
                else:
                    asym_pts += s[6]
        elif name == "currents.numeric":
            rows += 1
        elif name == "cli.chunk":
            scan = by_id.get(s[4])
            if scan is not None and scan[6] == "currents":
                rows += s[6]
    per_row = (lambda n: n / rows) if rows else (lambda n: 0.0)
    return {"currents.field_points_per_row": per_row(exact_pts + asym_pts),
            "currents.exact_points_per_row": per_row(exact_pts),
            "currents.asym_points_per_row": per_row(asym_pts)}


def _scan_metrics(spans, children, ops):
    """Scan-level numbers: chunks, workers seen, run_scan self time, the
    compute phase (first chunk start to last chunk end) and the pool's
    busy ratio, summed chunk time over compute wall time times workers."""
    chunks = workers = 0
    scan_s = self_s = compute_s = busy = capacity = 0.0
    for s in spans:
        if s[1] != "cli.scan":
            continue
        kids = children.get(s[0], ())
        mine = [c for c in kids if c[1] == "cli.chunk"]
        scan_s += s[3] - s[2]
        self_s += (s[3] - s[2]) - _covered([(c[2], c[3]) for c in kids], s[2], s[3])
        if not mine:
            continue
        n_threads = len({c[5] for c in mine})
        wall = max(c[3] for c in mine) - min(c[2] for c in mine)
        chunks += len(mine)
        workers = max(workers, n_threads)
        compute_s += wall
        busy += sum(c[3] - c[2] for c in mine)
        capacity += wall * n_threads
    ops = max(ops, 1)
    return {"cli.scan.s": scan_s / ops,
            "cli.scan.chunks": chunks / ops,
            "cli.scan.workers": workers,
            "cli.scan.self_s": self_s / ops,
            "cli.scan.compute_s": compute_s / ops,
            "cli.pool.busy_ratio": busy / capacity if capacity else 0.0}


def span_records(spans):
    """Spans as JSON-ready dicts, times relative to the first span."""
    t_base = min((s[2] for s in spans), default=0.0)
    return [{"id": s[0], "name": s[1], "start": s[2] - t_base,
             "end": s[3] - t_base, "parent": s[4], "thread": s[5],
             "count": s[6]} for s in spans]
