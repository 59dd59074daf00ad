"""The benchmark workloads: inputs made from a seed, the timed operation,
and the correctness gate applied to every operation's output.

fieldmap   one run_scan of the fig3 preset as shipped (154,401 rows).
pointwise  scalar psi_exact, current_numeric and psi_multipole_sum calls.
presets    one pass over fig1, fig2, fig4, fig5, fig6, fig7 and the
           README's bh_mode scan.

Inputs, gate samples and mpmath references are all made before timing
starts. check() runs after each operation, outside the timed region.
"""

import hashlib
import math

import numpy as np

import reference as ref

PRESET_PASS = ("fig1", "fig2", "fig4", "fig5", "fig6", "fig7")
# The README's bh_mode example, as CLI arguments.
BH_MODE_ARGV = ("bh_mode", "--mass", "0.05", "--omega", "1.0", "--ell", "2",
                "--r-range", "50:500:40")
BH_MODE_SPEC = {"quantity": "bh_mode", "mass": 0.05, "omega": 1.0, "ell": 2,
                "r_range": (50.0, 500.0, 40)}
COLUMNS = {"psi_exact": 9, "field_map": 6, "currents": 16,
           "diverging_sum": 4, "cesaro": 11, "reduced_series": 10,
           "bh_mode": 7}


def _range(value):
    a, b, n = value
    return float(a), float(b), int(n)


def make_spec(cli, data, out):
    """A ScanSpec from a preset mapping, ranges as (float, float, int)
    triples as the CLI builds them."""
    data = dict(data)
    for key in ("theta_range", "kx_range", "kz_range", "r_range"):
        if data.get(key) is not None:
            data[key] = _range(data[key])
    data["out"] = out
    return cli.ScanSpec(**data)


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _axis(rng, log=False):
    a, b, n = _range(rng)
    return np.geomspace(a, b, n) if log else np.linspace(a, b, n)


def _product(outer, inner):
    outer = np.asarray(outer, dtype=np.float64)
    return (np.repeat(outer, len(inner)),
            np.tile(np.asarray(inner, dtype=np.float64), len(outer)))


def grid_coordinates(data):
    """The coordinate columns a scan of this spec must write, built here
    from the spec alone (outer value varying slowest)."""
    q = data["quantity"]
    if q == "field_map":
        kx = (data["kx_values"] if data.get("kx_values") is not None
              else _axis(data["kx_range"]))
        return _product(kx, _axis(data["kz_range"]))
    if q in ("psi_exact", "currents"):
        return _product(data["rho_values"], _axis(data["theta_range"]))
    if q == "cesaro":
        return _product(data["cesaro_n_values"],
                        _axis(data["theta_range"], log=True))
    if q == "reduced_series":
        return _product(data["ell_max_values"],
                        _axis(data["theta_range"], log=True))
    if q == "diverging_sum":
        return (np.arange(int(data["ell_max"]) + 1, dtype=np.float64),)
    if q == "bh_mode":
        return (_axis(data["r_range"]),)
    raise ValueError("no coordinate rule for quantity %r" % q)


def row_references(data, coords):
    """Gate entries for one row: (label, columns, reference, tolerance,
    mode) with mode 'c' complex from (re, im), 'v' 2-vector, 'r' real."""
    q = data["quantity"]
    g, k = data.get("gamma", 1.0), data.get("k", 1.0)
    tol = ref.RTOL_FIELD
    if q == "field_map":
        kx, kz = coords
        psi = ref.psi_exact_cartesian(g, kx, kz)
        return [("psi", ("re_psi", "im_psi"), psi, tol, "c"),
                ("abs_psi", ("abs_psi",), abs(psi), tol, "r"),
                ("plateau", ("plateau",), ref.plateau(g), tol, "r")]
    if q == "psi_exact":
        rho, theta = coords
        psi = ref.psi_exact_polar(g, rho, theta)
        asym = ref.psi_asymptotic_total(g, rho, theta,
                                        data.get("backreaction", False))
        return [("psi", ("re_psi", "im_psi"), psi, tol, "c"),
                ("abs_psi", ("abs_psi",), abs(psi), tol, "r"),
                ("psi_asym", ("re_psi_asym", "im_psi_asym"), asym, tol, "c")]
    if q == "currents":
        rho, theta = coords
        return [("j_exact", ("j_r_exact", "j_theta_exact"),
                 ref.current_exact(g, k, rho, theta), ref.RTOL_STENCIL, "v"),
                ("j_in", ("j_r_in", "j_theta_in"),
                 ref.current_in_distorted(g, k, rho, theta),
                 ref.RTOL_STENCIL, "v")]
    if q == "diverging_sum":
        (ell,) = coords
        val = ref.partial_sum(g, k, data["fixed_theta"], int(ell))
        return [("partial", ("re_partial", "im_partial"), val, tol, "c")]
    if q in ("cesaro", "reduced_series"):
        n, theta = coords
        if q == "cesaro":
            val = ref.cesaro_mean(g, k, theta, int(n))
        else:
            val = ref.reduced_series(g, k, theta, int(n))
        s = 1.0 - math.cos(theta)
        closed = s * ref.closed_form_amplitude(g, k, theta)
        return [("f", ("re_f", "im_f"), val, tol, "c"),
                ("sf_closed", ("re_sf_closed", "im_sf_closed"), closed, tol,
                 "c")]
    if q == "bh_mode":
        (r,) = coords
        mass, omega, ell = data["mass"], data["omega"], data["ell"]
        asym = ref.coulomb_wave_asymptotic(ell, -2.0 * mass * omega, omega * r)
        # the scan starts its integration at ten Schwarzschild radii, or at
        # the first grid radius if that is closer
        axis = tuple(float(x) for x in _axis(data["r_range"]))
        full = ref.bh_full_mode(mass, omega, ell,
                                min(20.0 * mass, axis[0]), axis)
        return [("mode_asym", ("re_mode_asym", "im_mode_asym"), asym, tol, "c"),
                ("mode_full", ("re_mode_full", "im_mode_full"),
                 full[axis.index(r)], ref.RTOL_ODE, "c")]
    raise ValueError("no reference rule for quantity %r" % q)


def _entry_error(row, col, mode, value):
    if mode == "c":
        got = complex(row[col[0]], row[col[1]])
        return ref.rel_err(got, value)
    if mode == "v":
        return ref.vec_rel_err((row[col[0]], row[col[1]]), value)
    return ref.rel_err(row[col[0]], value)


def check_csv(path, header, rows, sample):
    """Stream the CSV once: header line, row count, and that each sampled
    line parses back to exactly the row values. Returns (errors, sha256)."""
    errors = []
    wanted = set(sample)
    n_lines = 0
    with open(path, "r", newline="") as fh:
        for n_lines, line in enumerate(fh, start=1):
            if n_lines == 1:
                if line != ",".join(header) + "\n":
                    errors.append("CSV header differs from the returned header")
            elif n_lines - 2 in wanted:
                i = n_lines - 2
                vals = np.array([float(x) for x in line.split(",")])
                if not np.array_equal(vals, rows[i]):
                    errors.append("CSV row %d does not round-trip" % i)
    if n_lines != rows.shape[0] + 1:
        errors.append("CSV has %d lines, expected %d"
                      % (n_lines, rows.shape[0] + 1))
    return errors, sha256_file(path)


class ScanCase:
    """One scan: its spec, the row samples the gate checks, and their
    references."""

    def __init__(self, cli, label, data, out, rng, n_samples, argv):
        self.label = label
        self.data = dict(data)
        self.argv = argv
        self.spec = make_spec(cli, data, out)
        self.out = out
        self.coords = grid_coordinates(self.data)
        self.n_rows = len(self.coords[0])
        self.n_cols = COLUMNS[self.data["quantity"]]
        k = min(n_samples, self.n_rows)
        self.sample = sorted(int(i) for i in
                             rng.choice(self.n_rows, size=k, replace=False))
        self.refs = {i: row_references(self.data,
                                       tuple(float(c[i]) for c in self.coords))
                     for i in self.sample}
        self.sha256 = None

    def run(self, cli):
        return cli.run_scan(self.spec)

    def check(self, output):
        header, rows = output
        errors = []
        if rows.shape != (self.n_rows, self.n_cols) or len(header) != self.n_cols:
            return ["%s: shape %s, expected (%d, %d)" % (
                self.label, rows.shape, self.n_rows, self.n_cols)]
        if not np.all(np.isfinite(rows)):
            errors.append("%s: non-finite values" % self.label)
        col = {name: j for j, name in enumerate(header)}
        n_coord = len(self.coords)
        for i in self.sample:
            row = rows[i]
            want = np.array([c[i] for c in self.coords])
            if not np.array_equal(row[:n_coord], want):
                errors.append("%s row %d: coordinates %s, expected %s"
                              % (self.label, i, row[:n_coord], want))
            for label, names, value, tol, mode in self.refs[i]:
                try:
                    cols = tuple(col[name] for name in names)
                except KeyError as exc:
                    errors.append("%s: missing column %s" % (self.label, exc))
                    continue
                err = _entry_error(row, cols, mode, value)
                if not err <= tol:
                    errors.append("%s row %d %s: relative error %.3g > %.0e"
                                  % (self.label, i, label, err, tol))
        csv_errors, sha = check_csv(self.out, header, rows, self.sample)
        errors += ["%s: %s" % (self.label, e) for e in csv_errors]
        if self.sha256 is None:
            self.sha256 = sha
        elif sha != self.sha256:
            errors.append("%s: CSV bytes differ from the first scan" % self.label)
        return errors


class Fieldmap:
    """One op = run_scan of the fig3 preset as shipped."""
    name = "fieldmap"
    # the scan, on the pool's two threads, slows about half as much (in
    # log) as the single-threaded speed probe when the machine does
    speed_exponent = 0.5
    op_label = "scan"
    cycle = 1

    def __init__(self, mods, seed, workdir, tiny=False):
        self.cli = mods["cli"]
        data = dict(self.cli.load_preset("fig3"))
        small = dict(data, kx_range=(-40.0, 40.0, 5))
        if tiny:
            data = small
        self.warm_spec = make_spec(self.cli, small, str(workdir / "warm.csv"))
        rng = np.random.default_rng(seed)
        self.case = ScanCase(self.cli, "fig3", data, str(workdir / "fig3.csv"),
                             rng, 4 if tiny else 32,
                             ("field_map", "--preset", "fig3"))
        self.cases = [self.case]

    def warm(self):
        """A 2,405-row slice of the map: pool, kernel and CSV paths run
        once before timing without paying for a whole scan."""
        self.cli.run_scan(self.warm_spec)

    def op(self, i):
        return self.case.run(self.cli)

    def check(self, i, output):
        return self.case.check(output)


class Presets:
    """One op = one pass over every other preset plus the bh_mode scan."""
    name = "presets"
    speed_exponent = 1.0
    op_label = "pass"
    cycle = 1

    def __init__(self, mods, seed, workdir, tiny=False):
        self.cli = mods["cli"]
        rng = np.random.default_rng(seed)
        n = 1 if tiny else 3
        self.cases = []
        for label in PRESET_PASS:
            data = self.cli.load_preset(label)
            self.cases.append(ScanCase(
                self.cli, label, data, str(workdir / ("%s.csv" % label)), rng,
                n, (data["quantity"], "--preset", label)))
        self.cases.append(ScanCase(self.cli, "bh_mode", BH_MODE_SPEC,
                                   str(workdir / "bh_mode.csv"), rng, n,
                                   BH_MODE_ARGV))

    def warm(self):
        self.op(0)

    def op(self, i):
        return [case.run(self.cli) for case in self.cases]

    def check(self, i, output):
        errors = []
        for case, out in zip(self.cases, output):
            errors += case.check(out)
        return errors


def _stratified(rng, n, lo, hi):
    """n draws from [lo, hi], one per equal-width stratum, in random order:
    the spread of the draws barely changes from seed to seed."""
    u = (np.arange(n) + rng.random(n)) / n
    rng.shuffle(u)
    return lo + (hi - lo) * u


def pointwise_inputs(seed, n_calls):
    """The seeded call list: (kind, gamma, rho, theta, ell_max) tuples.

    psi       psi_exact over |gamma| <= 2, rho <= 1e3, theta in [0, pi];
              rho*s log-uniform over [0.1, 300], one call in 16 on the axis
    current   current_numeric of the exact field, rho in [1, 100]
    multipole psi_multipole_sum with |gamma| <= 1, rho <= 10 and
              ell_max = rho + 10 |gamma| + 30 (criterion 2's domain)
    """
    rng = np.random.default_rng(seed)
    n_cur = n_mp = max(1, n_calls // 10)
    n_psi = n_calls - n_cur - n_mp
    n_axis = max(1, n_psi // 16)
    n_off = n_psi - n_axis
    calls = []
    rs = np.exp(_stratified(rng, n_off, math.log(0.1), math.log(300.0)))
    g = _stratified(rng, n_off, -2.0, 2.0)
    s = rs / 1000.0 + (2.0 - rs / 1000.0) * _stratified(rng, n_off, 0.0, 1.0)
    for gi, rsi, si in zip(g, rs, s):
        calls.append(("psi", float(gi), float(rsi / si),
                      float(np.arccos(1.0 - si)), 0))
    rho = np.exp(_stratified(rng, n_axis, math.log(0.1), math.log(1000.0)))
    g = _stratified(rng, n_axis, -2.0, 2.0)
    calls += [("psi", float(gi), float(r), 0.0, 0) for gi, r in zip(g, rho)]
    g = _stratified(rng, n_cur, -2.0, 2.0)
    rho = np.exp(_stratified(rng, n_cur, 0.0, math.log(100.0)))
    th = _stratified(rng, n_cur, 0.05, math.pi - 0.05)
    calls += [("current", float(a), float(b), float(c), 0)
              for a, b, c in zip(g, rho, th)]
    g = _stratified(rng, n_mp, -1.0, 1.0)
    rho = _stratified(rng, n_mp, 0.5, 10.0)
    th = _stratified(rng, n_mp, 0.0, math.pi)
    calls += [("multipole", float(a), float(b), float(c),
               int(b + 10.0 * abs(a) + 30.0)) for a, b, c in zip(g, rho, th)]
    order = rng.permutation(len(calls))
    return [calls[i] for i in order], rng


def _call_reference(kind, gamma, rho, theta):
    if kind == "current":
        return ref.current_exact(gamma, 1.0, rho, theta)
    return ref.psi_exact_polar(gamma, rho, theta)


class Pointwise:
    """One op = one scalar call; a cycle is one pass over the call list."""
    name = "pointwise"
    speed_exponent = 1.0
    op_label = "call"

    def __init__(self, mods, seed, workdir, tiny=False):
        self.exact = mods["exact"]
        self.currents = mods["currents"]
        self.multipole = mods["multipole"]
        n_calls = 20 if tiny else 400
        self.calls, rng = pointwise_inputs(seed, n_calls)
        self.cycle = len(self.calls)
        self.cases = []
        self.args = [self._prepare(c) for c in self.calls]
        # gate sample: a quarter of each kind, at least one
        self.refs = {}
        for kind in ("psi", "current", "multipole"):
            idx = [i for i, c in enumerate(self.calls) if c[0] == kind]
            k = max(1, len(idx) // (4 if tiny else 8))
            for i in rng.choice(idx, size=k, replace=False):
                kind_, g, rho, theta, _ = self.calls[int(i)]
                self.refs[int(i)] = _call_reference(kind_, g, rho, theta)
        self.first = {}

    def _prepare(self, call):
        kind, g, rho, theta, ell_max = call
        p = self.exact.ScatteringParams(gamma=g, k=1.0)
        pt = self.exact.FieldPoint(rho=rho, theta=theta)
        if kind == "current":
            exact = self.exact
            return (kind, p, pt, lambda q: exact.psi_exact(p, q))
        return (kind, p, pt, ell_max)

    def warm(self):
        for i in range(min(self.cycle, 20)):
            self.op(i)

    def op(self, i):
        kind, p, pt, extra = self.args[i % self.cycle]
        if kind == "psi":
            return self.exact.psi_exact(p, pt)
        if kind == "current":
            return self.currents.current_numeric(extra, p, pt)
        return self.multipole.psi_multipole_sum(p, pt, extra)

    def check(self, i, output):
        j = i % self.cycle
        kind = self.calls[j][0]
        if kind == "current":
            got = (float(output.j_r), float(output.j_theta))
        else:
            got = (complex(output).real, complex(output).imag)
        if not all(math.isfinite(v) for v in got):
            return ["call %d (%s): non-finite result %s" % (j, kind, got)]
        first = self.first.setdefault(j, got)
        if got != first:
            return ["call %d (%s): result differs from its first evaluation"
                    % (j, kind)]
        if j not in self.refs:
            return []
        value = self.refs[j]
        if kind == "current":
            err, tol = ref.vec_rel_err(got, value), ref.RTOL_STENCIL
            mode = "relative"
        elif kind == "multipole":
            err = abs(complex(*got) - value)
            tol, mode = ref.ATOL_MULTIPOLE, "absolute"
        else:
            err, tol = ref.rel_err(complex(*got), value), ref.RTOL_FIELD
            mode = "relative"
        if not err <= tol:
            c = self.calls[j]
            return ["call %d (%s gamma=%r rho=%r theta=%r): %s error %.3g > %.0e"
                    % (j, kind, c[1], c[2], c[3], mode, err, tol)]
        return []


WORKLOADS = {w.name: w for w in (Fieldmap, Pointwise, Presets)}
