"""Command-line front end: CSV datasets for every figure-style scan.

Usage:
    scatter <quantity> [flags]
    scatter describe <quantity>
    scatter <quantity> --preset figK [flag overrides]

One CSV goes to --out (default <quantity>.csv), one row per grid point,
with a header naming every column. Output is deterministic: grids are
generated from the ScanSpec alone, rows are computed in order in fixed
2048-row chunks (field_map evaluates each distinct (|kx|, kz) point once),
and floats are written with 17 significant digits. write_csv finds an
outer x inner product in the first two columns from the rows themselves and
formats each axis value once. The axis-value flags --rho, --kx and
--cesaro-n repeat. Each quantity's builder but field_map hands _scan its
header, its full-length per-row input columns and one function from a slice
of them to the output columns; field_map keeps its own psi table across
chunks.

Exit codes: 0 success, 2 invalid scan spec or arguments (an --out that
cannot be written included), 3 numerical failure.
"""

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from . import asymptotic, classical, currents, exact, multipole, specfun

CHUNK_ROWS = 2048
CSV_BLOCK_ROWS = 4096  # rows formatted per write in write_csv

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

# ScanSpec fields holding a (start, stop, count) range
_TUPLE_FIELDS = ("theta_range", "kx_range", "kz_range", "r_range")


@dataclass
class ScanSpec:
    """Everything a scan needs: the quantity, physical parameters, grid
    ranges (each a (start, stop, count) triple) and axis value lists, and
    option flags. Unused fields stay None and are ignored by the builder for
    that quantity; an axis list left None takes its builder's default (for
    example n = 1000 for cesaro)."""
    quantity: str
    gamma: float = 1.0
    k: float = 1.0
    mass: float = None
    omega: float = None
    mu: float = 0.0
    ell: int = 2
    ell_max: int = 1000
    ell_max_values: list = None
    cesaro_n_values: list = None
    fixed_theta: float = 2.0
    rho_values: list = None
    theta_range: tuple = None
    kx_values: list = None
    kx_range: tuple = None
    kz_range: tuple = None
    r_range: tuple = None
    backreaction: bool = False
    with_asymptotic: bool = False
    acknowledge_classical: bool = False
    out: str = None

    def validate(self):
        if self.quantity not in QUANTITIES:
            raise ValueError("unknown quantity %r; valid names: %s"
                             % (self.quantity, ", ".join(QUANTITIES)))
        for name in _TUPLE_FIELDS:
            rng = getattr(self, name)
            if rng is None:
                continue
            a, b, n = rng
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValueError("%s must be an ordered finite range" % name)
            if int(n) < 2:
                raise ValueError("%s needs at least 2 samples" % name)
        if self.theta_range is not None:
            a, b, _ = self.theta_range
            if a < 0.0 or b > np.pi + 1e-12:
                raise ValueError("theta_range must lie within [0, pi]")
        if not 0.0 <= self.fixed_theta <= np.pi:
            raise ValueError("theta must lie within [0, pi]")
        for name, flag in (("rho_values", "--rho"), ("kx_values", "--kx")):
            values = getattr(self, name)
            if values is not None and not np.all(np.isfinite(values)):
                raise ValueError("%s (%s) must be finite" % (name, flag))
        if self.rho_values is not None and min(self.rho_values) <= 0.0:
            raise ValueError("rho_values (--rho) must be positive")
        if self.kx_values is not None and self.kx_range is not None:
            raise ValueError("kx_values (--kx) and kx_range (--kx-range) "
                             "set the same axis; give one of them")


def _params(spec):
    """Scattering parameters, from (mass, omega) when both are given and
    from (gamma, k) otherwise."""
    if spec.mass is not None and spec.omega is not None:
        return classical.coulomb_reduction(
            classical.BlackHoleParams(spec.mass, spec.omega))
    if spec.mass is not None or spec.omega is not None:
        raise ValueError("mass and omega must be given together")
    return exact.ScatteringParams(gamma=spec.gamma, k=spec.k)


def _axis(rng, log=False):
    a, b, n = rng
    if log:
        if a <= 0.0:
            raise ValueError("logarithmic grid needs a positive start")
        return np.geomspace(a, b, int(n))
    return np.linspace(a, b, int(n))


def _theta_axis(spec, default, log=False):
    return _axis(spec.theta_range if spec.theta_range is not None
                 else default, log=log)


def _product_rows(outer, inner):
    """Row coordinates for an outer x inner sweep, outer varying slowest."""
    o = np.repeat(np.asarray(outer, dtype=np.float64), len(inner))
    i = np.tile(np.asarray(inner, dtype=np.float64), len(outer))
    return o, i


def _rho_theta_rows(spec, theta_default):
    """(rho, theta) row coordinates of a rho x theta scan."""
    rho_values = spec.rho_values if spec.rho_values is not None else [10.0]
    return _product_rows(rho_values, _theta_axis(spec, theta_default))


def _parts(z):
    """The real, imaginary and modulus columns of a complex array."""
    return [z.real, z.imag, np.abs(z)]


def _scan(header, columns, values):
    """A builder's (header, n_rows, compute) triple. columns are full-length
    per-row inputs; compute(start, stop) stacks the output columns that
    values returns for their rows start:stop."""
    def compute(start, stop):
        return np.column_stack(values(*(c[start:stop] for c in columns)))

    return header, len(columns[0]), compute


def _build_psi_exact(spec):
    p = _params(spec)
    lo = 0.01 if spec.with_asymptotic else 0.0
    header = ["rho", "theta", "re_psi", "im_psi", "abs_psi"]
    if spec.with_asymptotic:
        header += ["re_psi_asym", "im_psi_asym", "abs_psi_asym", "asym_valid"]

    def values(r, t):
        cols = [r, t] + _parts(exact.psi_exact_grid(p, r, t))
        if spec.with_asymptotic:
            pin, pscat, valid = asymptotic.psi_asymptotic_grid(
                p, r, t, backreaction=spec.backreaction)
            cols += _parts(pin + pscat) + [valid.astype(np.float64)]
        return cols

    return _scan(header, _rho_theta_rows(spec, (lo, np.pi, 400)), values)


def _build_psi_asymptotic(spec):
    p = _params(spec)
    header = ["rho", "theta", "re_psi_in", "im_psi_in", "re_psi_scat",
              "im_psi_scat", "re_psi", "im_psi", "abs_psi", "valid"]

    def values(r, t):
        pin, pscat, valid = asymptotic.psi_asymptotic_grid(
            p, r, t, backreaction=spec.backreaction)
        return ([r, t, pin.real, pin.imag, pscat.real, pscat.imag]
                + _parts(pin + pscat) + [valid.astype(np.float64)])

    return _scan(header, _rho_theta_rows(spec, (0.01, np.pi, 400)), values)


def _build_currents(spec):
    p = _params(spec)
    header = ["rho", "theta",
              "j_r_total", "j_theta_total", "j_r_in", "j_theta_in",
              "j_r_scat", "j_theta_scat", "j_r_interf", "j_theta_interf",
              "j_r_exact", "j_theta_exact", "j_r_out", "j_theta_out",
              "j_r_g2out", "j_theta_g2out"]

    def values(r, t):
        total, j_in, scat, *rest = currents.current_scan_grid(
            p, r, t, backreaction=spec.backreaction)
        return [r, t, *total, *j_in, *scat, *(total - j_in - scat),
                *np.concatenate(rest)]

    return _scan(header, _rho_theta_rows(spec, (0.05, 3.1, 400)), values)


def _build_cross_section(spec):
    if spec.mass is not None and not spec.acknowledge_classical:
        raise ValueError(
            "a cross-section for the black-hole analogue is not a physical "
            "observable; pass --acknowledge-classical to emit it anyway")
    p = _params(spec)
    header = ["theta", "rutherford", "closed_form_sq", "born_sq"]

    def values(t):
        ruth = asymptotic.differential_cross_section(p, t)
        closed = np.abs(
            asymptotic.rutherford_amplitude_phase_separated(p, t)) ** 2
        born = np.abs(asymptotic.born_amplitude_yukawa(p, t, spec.mu)) ** 2
        return [t, ruth, closed, born]

    return _scan(header, (_theta_axis(spec, (0.1, np.pi, 180)),), values)


def _series_scan(spec, order, orders, theta_default, f_series, abs_f):
    """f_series(p, theta, n) for each n in orders (the outer axis, in the
    column named order) over a geometric theta axis (the other scans' theta
    axes are linear), with (1 - cos theta) f beside the closed form's; abs_f
    adds the |f| column."""
    p = _params(spec)
    theta = _theta_axis(spec, theta_default, log=True)
    header = [order, "theta", "re_f", "im_f"] + ["abs_f"] * abs_f + [
        "re_sf", "im_sf", "abs_sf", "re_sf_closed", "im_sf_closed",
        "abs_sf_closed"]

    def values(n_c, t):
        f = np.empty_like(t, dtype=np.complex128)
        for n in np.unique(n_c):
            mask = n_c == n
            f[mask] = f_series(p, t[mask], int(n))
        s = 1.0 - np.cos(t)
        fc = asymptotic.rutherford_amplitude_phase_separated(p, t)
        return ([n_c, t, f.real, f.imag] + [np.abs(f)] * abs_f
                + _parts(s * f) + _parts(s * fc))

    return _scan(header, _product_rows(orders, theta), values)


def _build_cesaro(spec):
    n_values = (spec.cesaro_n_values if spec.cesaro_n_values is not None
                else [1000])
    return _series_scan(spec, "n", n_values, (0.01, np.pi, 200),
                        multipole.f_series_cesaro, abs_f=True)


def _build_reduced_series(spec):
    lm_values = (spec.ell_max_values if spec.ell_max_values is not None
                 else [spec.ell_max])
    return _series_scan(spec, "ell_max", lm_values, (0.01, 3.13, 200),
                        multipole.f_reduced_series, abs_f=False)


def _build_diverging_sum(spec):
    sweep = multipole.f_series_partial_sweep(_params(spec), spec.fixed_theta,
                                             spec.ell_max)
    ells = np.arange(spec.ell_max + 1, dtype=np.float64)
    return _scan(["ell", "re_partial", "im_partial", "abs_partial"],
                 (ells, sweep), lambda ell, s: [ell] + _parts(s))


def _build_field_map(spec):
    p = _params(spec)
    kz = _axis(spec.kz_range if spec.kz_range is not None
               else (-40.0, 80.0, 241))
    if spec.kx_values is not None:
        kx_axis = np.asarray(spec.kx_values, dtype=np.float64)
    else:
        kx_axis = _axis(spec.kx_range if spec.kx_range is not None
                        else (-40.0, 40.0, 161))
    kx, kzr = _product_rows(kx_axis, kz)
    header = ["kx", "kz", "re_psi", "im_psi", "abs_psi", "plateau"]
    # psi depends on (|kx|, kz) alone, so the kx and -kx rows share one
    # table entry; hypot and arctan2(|x|, z) ignore the sign of x, and each
    # value depends on its own point only, so the bytes do not change
    ax, ix = np.unique(np.abs(kx_axis), return_inverse=True)
    nz = len(kz)
    table = np.empty(len(ax) * nz, dtype=np.complex128)
    done = np.zeros(len(table), dtype=bool)
    plateau = None  # |psi| on the forward axis, with the first chunk

    def compute(start, stop):
        nonlocal plateau
        if plateau is None:
            plateau = abs(exact.psi_exact(p, exact.FieldPoint(0.0, 0.0)))
        r = np.arange(start, stop)
        key = ix[r // nz] * nz + r % nz
        new = np.unique(key[~done[key]])
        if new.size:
            x, z = ax[new // nz], kz[new % nz]
            table[new] = exact.psi_exact_grid(p, np.hypot(x, z),
                                              np.arctan2(x, z))
            done[new] = True
        return np.column_stack([kx[start:stop], kzr[start:stop]]
                               + _parts(table[key])
                               + [np.full(stop - start, plateau)])

    return header, len(kx), compute


def _build_bh_mode(spec):
    if spec.mass is None or spec.omega is None:
        raise ValueError("bh_mode requires --mass and --omega")
    bh = classical.BlackHoleParams(spec.mass, spec.omega)
    r = _axis(spec.r_range if spec.r_range is not None
              else (50.0, 500.0, 200))
    if r[0] <= bh.r_s:
        raise ValueError("r range must lie outside the horizon")
    u_asym = classical.radial_mode_asymptotic(bh, spec.ell, r)
    u_full = classical.integrate_full_mode(
        bh, spec.ell, r, r_start=min(10.0 * bh.r_s, float(r[0])))
    u_full = u_full / (bh.omega * r)
    header = ["r", "re_mode_asym", "im_mode_asym", "abs_mode_asym",
              "re_mode_full", "im_mode_full", "abs_mode_full"]
    return _scan(header, (r, u_asym, u_full),
                 lambda x, ua, uf: [x] + _parts(ua) + _parts(uf))


_BUILDERS = {
    "psi_exact": _build_psi_exact,
    "psi_asymptotic": _build_psi_asymptotic,
    "currents": _build_currents,
    "cross_section": _build_cross_section,
    "cesaro": _build_cesaro,
    "reduced_series": _build_reduced_series,
    "diverging_sum": _build_diverging_sum,
    "field_map": _build_field_map,
    "bh_mode": _build_bh_mode,
}
QUANTITIES = tuple(_BUILDERS)


def _out_path(spec):
    """spec.out, by default <quantity>.csv."""
    return spec.out if spec.out is not None else spec.quantity + ".csv"


def run_scan(spec):
    """Compute the dataset for a validated spec and write it to spec.out.
    Returns (header, rows). Rows are computed in fixed chunks of CHUNK_ROWS,
    which bounds the size of the kernels' temporaries."""
    spec.validate()
    header, n_rows, compute = _BUILDERS[spec.quantity](spec)
    rows = np.empty((n_rows, len(header)))
    for i in range(0, n_rows, CHUNK_ROWS):
        rows[i:i + CHUNK_ROWS] = compute(i, min(i + CHUNK_ROWS, n_rows))
    write_csv(_out_path(spec), header, rows)
    return header, rows


def _product_period(bits):
    """The run length p of an outer x inner product in columns 0 and 1 of
    the rows' bit patterns: column 0 constant over each run of p rows and
    column 1 the same in every run, 2 <= p <= CSV_BLOCK_ROWS, p dividing the
    row count. 0 when the rows are not such a product."""
    if len(bits) < 2 or bits.shape[1] < 2:
        return 0
    change = np.flatnonzero(bits[:, 0] != bits[0, 0])
    p = int(change[0]) if change.size else len(bits)
    if not 2 <= p <= CSV_BLOCK_ROWS or len(bits) % p:
        return 0
    outer, inner = bits[:, 0].reshape(-1, p), bits[:, 1].reshape(-1, p)
    product = np.all(outer == outer[:, :1]) and np.all(inner == inner[0])
    return p if product else 0


def write_csv(path, header, rows):
    # one %-format per block of rows: the same bytes as formatting each
    # value, without holding the whole file as Python objects. A column
    # whose bit patterns are all equal in a block (so 0.0 and -0.0 differ)
    # is formatted once, into the block's line template. When the rows are
    # an outer x inner product, a block holds whole runs and the two
    # coordinate columns are literals too: the inner axis formatted once
    # per file, the outer value once per run
    rows = np.asarray(rows, dtype=np.float64)
    p = _product_period(rows.view(np.int64))
    # the k leading columns are literals
    k, step = (2, CSV_BLOCK_ROWS // p * p) if p else (0, CSV_BLOCK_ROWS)
    inner = ["%.17g" % v for v in rows[:p, 1].tolist()] if p else []
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            bits = block.view(np.int64)
            const = np.all(bits == bits[0], axis=0)
            cells = ["%.17g" % v if c else "%.17g"
                     for v, c in zip(block[0, k:].tolist(), const[k:])]
            if p:
                lines = [",".join([s] + cells) for s in inner]
                text = "".join(o + ("\n" + o).join(lines) + "\n"
                               for o in ("%.17g," % v
                                         for v in block[::p, 0].tolist()))
            else:
                text = (",".join(cells) + "\n") * len(block)
            const[:k] = True
            fh.write(text % tuple(block[:, ~const].ravel().tolist()))


_DESCRIPTIONS = {
    "psi_exact": (
        "exact scattering solution psi = e^{i rho (1-s)} e^{-pi gamma/2} "
        "Gamma(1+i gamma) 1F1(-i gamma, 1; i rho s), s = 1 - cos theta\n"
        "validity: everywhere (rho >= 0, theta in [0, pi]); finite on the "
        "forward axis, where |psi| = e^{-pi gamma/2} |Gamma(1+i gamma)|"),
    "psi_asymptotic": (
        "distorted plane wave e^{i(rho(1-s) + gamma ln rho s)} "
        "(optionally times 1 - i gamma^2/(rho s)) plus the scattered wave "
        "-(gamma/rho s) (Gamma(1+i gamma)/Gamma(1-i gamma)) "
        "e^{i(rho - gamma ln rho s)}\n"
        "validity: rho s >> 1 (the valid column uses rho s > %g); the "
        "split does not exist at theta = 0" % asymptotic.VALIDITY_RHO_S),
    "currents": (
        "probability currents J = Im[psi* grad psi] of the asymptotic "
        "field (total, incoming, scattered, interference = total - in - "
        "scat) next to the exact-field current and the outgoing remainders "
        "J[psi - psi_in] without/with the gamma^2 amplitude correction, "
        "from closed-form gradients (dM/dz for the exact field), no step\n"
        "validity: decomposition meaningful for rho s >> 1; every column "
        "wherever the fields are (rho > 0, theta in (0, pi]): no step domain"),
    "cross_section": (
        "dsigma/dOmega = gamma^2 / (4 k^2 sin^4(theta/2)), checked against "
        "|f_closed|^2 and the mu -> 0 screened Born amplitude "
        "-2 gamma k/(q^2 + mu^2), q = 2 k sin(theta/2)\n"
        "validity: theta in (0, pi]; for black-hole parameters the number "
        "is not an observable and needs --acknowledge-classical"),
    "cesaro": (
        "Cesaro (C,1) mean of the divergent amplitude series "
        "sum_ell ((2 ell+1)/(2 i k)) (e^{2 i delta_ell} - 1) P_ell; "
        "converges to the closed-form amplitude for 0 < theta < pi, "
        "non-uniformly as theta -> pi; at theta = pi the series is not "
        "(C,1)-summable and the mean oscillates at O(1)\n"
        "validity: theta in (0, pi); convergence slows toward theta = 0 "
        "and theta = pi; values at theta = pi are computed but do not "
        "converge"),
    "reduced_series": (
        "amplitude from the absolutely convergent reduced series: "
        "(gamma/k) sum_ell e^{2 i delta_ell} [ell/(ell + i gamma) - "
        "(ell+1)/(ell+1 - i gamma)] P_ell, divided by (1 - cos theta)\n"
        "validity: theta strictly inside (0, pi)"),
    "diverging_sum": (
        "raw partial sums of the same amplitude series, kept on purpose: "
        "their envelope grows like sqrt(ell_max), the divergence being an "
        "artifact of using the large-distance form of every partial wave\n"
        "validity: diagnostic only; not an amplitude"),
    "field_map": (
        "exact |psi| (and re/im) over a Cartesian (k x, k z) window, with "
        "the forward-plateau value e^{-pi gamma/2}|Gamma(1+i gamma)| in "
        "the plateau column\n"
        "validity: everywhere; the paraboloid rho s = 1 marks the damped "
        "interior"),
    "bh_mode": (
        "long-wavelength Schwarzschild scalar mode via the Coulomb map "
        "gamma = -2 M omega, k = omega: two-wave form "
        "((2 ell+1)/(2 i omega r)) [(-1)^{ell+1} e^{-i omega r_c} + "
        "e^{2 i delta_ell} e^{i omega r_c}], omega r_c = omega r - gamma "
        "ln(2 omega r), next to the full mode (short-range term kept: a "
        "Coulomb wave of order lambda, lambda(lambda+1) = ell(ell+1) - "
        "12 (M omega)^2, carried out from the ell wave's data at r_start "
        "by the Kummer-ODE continuation up to the matching radius "
        "2 omega r = %g + %g |lambda + 1 - i gamma|^2, and beyond it by the "
        "two large-distance Kummer solutions matched there; both in the "
        "u/(omega r) normalization)\n"
        "validity: ell(ell+1) > 12 (M omega)^2 and omega r >> ell(ell+1) + "
        "gamma^2; never valid for ell = 0"
        % (specfun.SERIES_SWITCH_BASE, specfun.SERIES_SWITCH_SCALE)),
}


def describe(name):
    """Human-oriented one-paragraph description of a quantity: its
    governing formula and validity region."""
    if name not in _DESCRIPTIONS:
        raise ValueError("unknown quantity %r; valid names: %s"
                         % (name, ", ".join(QUANTITIES)))
    return name + ":\n" + _DESCRIPTIONS[name]


def load_preset(name):
    if name not in PRESETS:
        raise ValueError("unknown preset %r; valid presets: %s"
                         % (name, ", ".join(PRESETS)))
    path = resources.files("coulscat").joinpath("presets/%s.json" % name)
    return json.loads(path.read_text())


# ScanSpec fields that set the same axis
_AXIS_PAIRS = (("ell_max", "ell_max_values"), ("kx_values", "kx_range"))


def _spec_from_mapping(data):
    known = {f.name for f in fields(ScanSpec)}
    unknown = set(data) - known
    if unknown:
        raise ValueError("unknown spec fields: %s" % ", ".join(sorted(unknown)))
    data = dict(data)
    for name in _TUPLE_FIELDS:
        if data.get(name) is not None:
            a, b, n = data[name]
            data[name] = (float(a), float(b), int(n))
    return ScanSpec(**data)


def _parse_range(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected A:B:N")
    return float(parts[0]), float(parts[1]), int(parts[2])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scatter",
        description="Coulomb-scattering datasets as CSV; see 'scatter "
                    "describe <quantity>' for the formula behind each one.")
    parser.add_argument("quantity",
                        choices=QUANTITIES + ("describe",))
    parser.add_argument("name", nargs="?",
                        help="quantity name (describe mode only)")
    parser.add_argument("--preset", choices=PRESETS,
                        help="start from a named figure preset")
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--k", type=float)
    parser.add_argument("--mass", type=float)
    parser.add_argument("--omega", type=float)
    parser.add_argument("--mu", type=float)
    parser.add_argument("--ell", type=int, help="partial-wave index "
                        "(bh_mode)")
    parser.add_argument("--ell-max", type=int)
    parser.add_argument("--cesaro-n", type=int, action="append",
                        dest="cesaro_n_values", metavar="N",
                        help="Cesaro order n; repeat for several")
    parser.add_argument("--theta", type=float, dest="fixed_theta",
                        metavar="THETA", help="fixed angle for diverging_sum")
    parser.add_argument("--rho", type=float, action="append",
                        dest="rho_values", metavar="RHO",
                        help="rho value; repeat for several")
    parser.add_argument("--theta-range", type=_parse_range, metavar="A:B:N")
    parser.add_argument("--kx", type=float, action="append",
                        dest="kx_values", metavar="KX",
                        help="field-map slice at fixed k x; repeatable")
    parser.add_argument("--kx-range", type=_parse_range, metavar="A:B:N")
    parser.add_argument("--kz-range", type=_parse_range, metavar="A:B:N")
    parser.add_argument("--r-range", type=_parse_range, metavar="A:B:N")
    parser.add_argument("--backreaction", action="store_true", default=None,
                        help="keep the gamma^2 amplitude correction in the "
                             "incoming wave")
    parser.add_argument("--with-asymptotic", action="store_true",
                        default=None,
                        help="add asymptotic columns to psi_exact scans")
    parser.add_argument("--acknowledge-classical", action="store_true",
                        default=None)
    parser.add_argument("--out", type=str)
    return parser


def _spec_from_args(ns):
    data = {}
    if ns.preset is not None:
        data = load_preset(ns.preset)
        if data.get("quantity") != ns.quantity:
            raise ValueError("preset %s is a %s scan, not %s"
                             % (ns.preset, data.get("quantity"), ns.quantity))
    # argument dests are ScanSpec field names; None means "not given"
    given = {f.name: getattr(ns, f.name) for f in fields(ScanSpec)
             if getattr(ns, f.name, None) is not None}
    # a given flag replaces the preset's whole axis, paired field included
    for pair in _AXIS_PAIRS:
        if any(name in given for name in pair):
            for name in pair:
                data.pop(name, None)
    data.update(given)
    return _spec_from_mapping(data)


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        if ns.quantity == "describe":
            if ns.name is None:
                raise ValueError("describe needs a quantity name; valid "
                                 "names: %s" % ", ".join(QUANTITIES))
            print(describe(ns.name))
            return 0
        if ns.name is not None:
            raise ValueError("positional name is only used with describe")
        spec = _spec_from_args(ns)
        out = _out_path(spec)
        try:
            # a parent that is missing or not a directory (stat of its "."
            # raises either way), or a directory as out, fails before the
            # compute; any other write error after it
            os.stat(os.path.join(os.path.dirname(os.path.abspath(out)), "."))
            if os.path.isdir(out):
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR))
            header, rows = run_scan(spec)
        except OSError as exc:
            raise ValueError("cannot write --out %s: %s"
                             % (out, exc.strerror or exc)) from None
        print("wrote %s (%d rows, %d columns)" % (out, rows.shape[0],
                                                  rows.shape[1]))
        return 0
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
