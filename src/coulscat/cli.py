"""Command-line front end: CSV datasets for every figure-style scan.

Usage:
    scatter <quantity> [flags]
    scatter describe <quantity>
    scatter <quantity> --preset figK [flag overrides]

One CSV goes to --out (default <quantity>.csv), one row per grid point,
with a header naming every column. Output is deterministic: grids are
generated from the ScanSpec alone, rows are computed in order in fixed
2048-row chunks (field_map evaluates each distinct (|kx|, kz) point once, in
one call), and floats are written as "%.17g" writes them, from float64
arithmetic in numpy, by one loop of runs (write_csv). A flag or preset
field that the quantity does not read is an error: psi depends on gamma and
(rho = k r, theta) alone, so psi_exact, psi_asymptotic and field_map read
no --k.

Exit codes: 0 success, 2 invalid scan spec or arguments (an --out that
cannot be written included), 3 numerical failure.
"""

import argparse
import errno
import functools
import json
import os
import stat
import sys
import typing
from dataclasses import dataclass, fields
from importlib import resources

import numpy as np

from . import asymptotic, classical, currents, exact, multipole, specfun

# rows per compute call (perfbench's cli.chunk spans): bounds only the
# output columns a builder stacks at once; no evaluator's temporaries, which
# the field evaluators bound by their own slices (exact._SLICE)
CHUNK_ROWS = 2048
# rows per write in write_csv: a block of a scan that is no outer x inner
# product; a product scan is written one run at a time, a run of at most
# this many rows
CSV_BLOCK_ROWS = 4096

PRESETS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7")

# flags not named after their fields; ell_max_values (presets only) has none
_FLAG_NAMES = {"rho_values": "--rho", "kx_values": "--kx",
               "fixed_theta": "--theta", "cesaro_n_values": "--cesaro-n",
               "ell_max_values": None}

# pairs of field groups that set the same thing: a spec gives one of each
_ALTERNATIVES = ((("gamma", "k"), ("mass", "omega")),
                 (("kx_values",), ("kx_range",)),
                 (("ell_max",), ("ell_max_values",)))

# the range of each value (of the two ends, for a *_range triple), and of
# each partial-wave order, which is an integer besides (exact._order)
_BOUNDS = {"rho_values": "(0, inf)", "kx_values": "(-inf, inf)",
           "fixed_theta": "[0, pi]", "theta_range": "[0, pi]",
           "kx_range": "(-inf, inf)", "kz_range": "(-inf, inf)",
           "r_range": "(-inf, inf)"}
_ORDERS = {"cesaro_n_values": "[1, inf)", "ell_max": "[0, inf)",
           "ell_max_values": "[0, inf)", "ell": "[1, inf)"}


def _flag(name):
    """A ScanSpec field's flag, or its own name when it has none."""
    return _FLAG_NAMES.get(name, "--" + name.replace("_", "-")) or name


@dataclass
class ScanSpec:
    """Everything a scan needs: the quantity, physical parameters, grid
    ranges (each a (start, stop, count) triple) and axis value lists, and
    option flags. Construction, like validate, rejects a set field that
    the quantity's row does not read (describe lists them) or two that set
    the same thing, fills the unset ones from the row, and checks ranges."""
    quantity: str
    gamma: float = None
    k: float = None
    mass: float = None
    omega: float = None
    mu: float = None
    ell: int = None
    ell_max: int = None
    ell_max_values: list[int] = None
    cesaro_n_values: list[int] = None
    fixed_theta: float = None
    rho_values: list[float] = None
    theta_range: tuple = None
    kx_values: list[float] = None
    kx_range: tuple = None
    kz_range: tuple = None
    r_range: tuple = None
    backreaction: bool = None
    with_asymptotic: bool = None
    acknowledge_classical: bool = None
    out: str = None

    def validate(self):
        """Check and fill the spec; a second call changes nothing."""
        reads = _row(self.quantity)[1]
        given = {f.name for f in fields(self) if f.name not in
                 ("quantity", "out") and getattr(self, f.name) is not None}
        unread = sorted(_flag(name) for name in given - reads.keys())
        if unread:
            raise ValueError("%s does not read %s"
                             % (self.quantity, ", ".join(unread)))
        # once one group of a pair is given, the fill skips the other
        for pair in _ALTERNATIVES:
            chosen = [group for group in pair if given.intersection(group)]
            if len(chosen) == 2:
                raise ValueError("give %s or %s, not both" % tuple(
                    "/".join(map(_flag, group)) for group in pair))
            if chosen:
                given.update(*(group for group in pair if group != chosen[0]))
        for name in reads.keys() - given:
            setattr(self, name, reads[name])
        self.out = self.out or self.quantity + ".csv"
        for name, bound in {**_BOUNDS, **_ORDERS}.items():
            value, flag = getattr(self, name), _flag(name)
            if value is None:
                continue
            if name.endswith("_range"):
                a, b, n = value
                if not (a < b and n >= 2):
                    raise ValueError("%s needs A < B and N >= 2, got %s:%s:%s"
                                     % (flag, a, b, n))
                setattr(self, name, (float(a), float(b), int(n)))
                value = (a, b)
            (exact._order if name in _ORDERS else exact._within)(
                flag, value, bound)

    __post_init__ = validate


def _params(spec, k=True):
    """Scattering parameters: (gamma, k), or (mass, omega) mapped onto them;
    with k=False (psi scans: psi is a function of gamma, rho = k r and theta
    alone) k is 1 and spec.k is not read."""
    if spec.mass is None and spec.omega is None:
        return exact.ScatteringParams(spec.gamma, spec.k if k else 1.0)
    if spec.mass is None or spec.omega is None:
        raise ValueError("mass and omega must be given together")
    return classical.coulomb_reduction(
        classical.BlackHoleParams(spec.mass, spec.omega))


_PARAMS = dict(gamma=1.0, k=1.0, mass=None, omega=None)  # _params' reads
_PSI_PARAMS = dict(gamma=1.0, mass=None, omega=None)  # with k=False


def _axis(rng, log=False):
    a, b, n = rng
    if log:
        if a <= 0.0:
            raise ValueError("a geometric --theta-range needs A > 0")
        return np.geomspace(a, b, int(n))
    return np.linspace(a, b, int(n))


def _product_rows(outer, inner):
    """Row coordinates for an outer x inner sweep, outer varying slowest."""
    o = np.repeat(np.asarray(outer, dtype=np.float64), len(inner))
    i = np.tile(np.asarray(inner, dtype=np.float64), len(outer))
    return o, i


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


_BUILDERS, _ROWS = {}, {}  # filled by @_quantity


def _row(name):
    """The (describe text, fields read) row of quantity name."""
    if name not in _ROWS:
        raise ValueError("unknown quantity %r; valid names: %s"
                         % (name, ", ".join(QUANTITIES)))
    return _ROWS[name]


def _quantity(name, text, **reads):
    """Register the decorated builder as quantity name, with its describe
    text and each ScanSpec field it reads mapped to its default."""
    def register(build):
        _BUILDERS[name] = build
        _ROWS[name] = (text, reads)
        return build
    return register


@_quantity("psi_exact",
    "exact scattering solution psi = e^{i rho (1-s)} e^{-pi gamma/2} "
    "Gamma(1+i gamma) 1F1(-i gamma, 1; i rho s), s = 1 - cos theta\n"
    "validity: everywhere (rho >= 0, theta in [0, pi]); finite on the "
    "forward axis, where |psi| = e^{-pi gamma/2} |Gamma(1+i gamma)|",
    **_PSI_PARAMS, rho_values=(10.0,), theta_range=None,
    with_asymptotic=False, backreaction=False)
def _build_psi_exact(spec):
    if spec.backreaction and not spec.with_asymptotic:
        raise ValueError("psi_exact --backreaction needs --with-asymptotic")
    p = _params(spec, k=False)
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

    # the asymptotic columns do not exist at theta = 0
    theta = spec.theta_range or (0.01 if spec.with_asymptotic else 0.0,
                                 np.pi, 400)
    return _scan(header, _product_rows(spec.rho_values, _axis(theta)),
                 values)


@_quantity("psi_asymptotic",
    "distorted plane wave e^{i(rho(1-s) + gamma ln rho s)} "
    "(optionally times 1 - i gamma^2/(rho s)) plus the scattered wave "
    "-(gamma/rho s) (Gamma(1+i gamma)/Gamma(1-i gamma)) "
    "e^{i(rho - gamma ln rho s)}\n"
    "validity: rho s >> 1 (the valid column: est (1 + est) < %g, est the "
    "first omitted term); no split at theta = 0; exit 3 where float64 "
    "cannot hold the waves, as below rho s ~ 1e-308" % asymptotic.FORM_TOL,
    **_PSI_PARAMS, rho_values=(10.0,), theta_range=(0.01, np.pi, 400),
    backreaction=False)
def _build_psi_asymptotic(spec):
    p = _params(spec, k=False)
    header = ["rho", "theta", "re_psi_in", "im_psi_in", "re_psi_scat",
              "im_psi_scat", "re_psi", "im_psi", "abs_psi", "valid"]

    def values(r, t):
        pin, pscat, valid = asymptotic.psi_asymptotic_grid(
            p, r, t, backreaction=spec.backreaction)
        return ([r, t, pin.real, pin.imag, pscat.real, pscat.imag]
                + _parts(pin + pscat) + [valid.astype(np.float64)])

    return _scan(header, _product_rows(spec.rho_values,
                                       _axis(spec.theta_range)), values)


@_quantity("currents",
    "probability currents J = Im[psi* grad psi] of the asymptotic "
    "field (total, incoming, scattered, interference = total - in - "
    "scat) next to the exact-field current and the outgoing remainders "
    "J[psi - psi_in] without/with the gamma^2 amplitude correction, "
    "from closed-form gradients (dM/dz for the exact field), no step\n"
    "validity: decomposition meaningful for rho s >> 1; every column "
    "wherever the fields are (rho > 0, theta in (0, pi]) and float64 holds "
    "it (exit 3 where not, as below rho ~ 1e-100 at theta = 1); no step",
    **_PARAMS, rho_values=(10.0,), theta_range=(0.05, 3.1, 400),
    backreaction=False)
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

    return _scan(header, _product_rows(spec.rho_values,
                                       _axis(spec.theta_range)), values)


@_quantity("cross_section",
    "dsigma/dOmega = gamma^2 / (4 k^2 sin^4(theta/2)), checked against "
    "|f_closed|^2 and the mu -> 0 screened Born amplitude "
    "-2 gamma k/(q^2 + mu^2), q = 2 k sin(theta/2)\n"
    "validity: theta in (0, pi]; for black-hole parameters the number "
    "is not an observable and needs --acknowledge-classical",
    **_PARAMS, acknowledge_classical=False, mu=0.0,
    theta_range=(0.1, np.pi, 180))
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

    return _scan(header, (_axis(spec.theta_range),), values)


def _series_scan(spec, order, orders, f_series, abs_f):
    """f_series(p, theta, n) for each n in orders (the outer axis, in the
    column named order) over a geometric theta axis (the other scans' theta
    axes are linear), with (1 - cos theta) f beside the closed form's; abs_f
    adds the |f| column."""
    p = _params(spec)
    theta = _axis(spec.theta_range, log=True)
    header = [order, "theta", "re_f", "im_f"] + ["abs_f"] * abs_f + [
        "re_sf", "im_sf", "abs_sf", "re_sf_closed", "im_sf_closed",
        "abs_sf_closed"]

    def values(n_c, t):
        f = np.empty_like(t, dtype=np.complex128)
        for n in np.unique(n_c):
            mask = n_c == n
            f[mask] = f_series(p, t[mask], int(n))
        s = exact._s(t)
        fc = asymptotic.rutherford_amplitude_phase_separated(p, t)
        return ([n_c, t, f.real, f.imag] + [np.abs(f)] * abs_f
                + _parts(s * f) + _parts(s * fc))

    return _scan(header, _product_rows(orders, theta), values)


@_quantity("cesaro",
    "Cesaro (C,1) mean of the divergent amplitude series "
    "sum_ell ((2 ell+1)/(2 i k)) (e^{2 i delta_ell} - 1) P_ell; "
    "converges to the closed-form amplitude for 0 < theta < pi, "
    "non-uniformly as theta -> pi; at theta = pi the series is not "
    "(C,1)-summable and the mean oscillates at O(1)\n"
    "validity: theta in (0, pi); convergence slows toward theta = 0 "
    "and theta = pi; values at theta = pi are computed but do not "
    "converge",
    **_PARAMS, cesaro_n_values=(1000,), theta_range=(0.01, np.pi, 200))
def _build_cesaro(spec):
    return _series_scan(spec, "n", spec.cesaro_n_values,
                        multipole.f_series_cesaro, abs_f=True)


@_quantity("reduced_series",
    "amplitude from the absolutely convergent reduced series: "
    "(gamma/k) sum_ell e^{2 i delta_ell} [ell/(ell + i gamma) - "
    "(ell+1)/(ell+1 - i gamma)] P_ell, divided by (1 - cos theta)\n"
    "validity: theta strictly inside (0, pi)",
    **_PARAMS, ell_max=1000, ell_max_values=None,
    theta_range=(0.01, 3.13, 200))
def _build_reduced_series(spec):
    lm_values = (spec.ell_max_values if spec.ell_max_values is not None
                 else [spec.ell_max])
    return _series_scan(spec, "ell_max", lm_values,
                        multipole.f_reduced_series, abs_f=False)


@_quantity("diverging_sum",
    "raw partial sums of the same amplitude series, kept on purpose: "
    "their envelope grows like sqrt(ell_max), the divergence being an "
    "artifact of using the large-distance form of every partial wave\n"
    "validity: diagnostic only; not an amplitude. At rho = k r the "
    "two-wave form of wave ell holds where est (1 + est) < %g, est = "
    "|(ell+1+i gamma)(ell-i gamma)|/(2 rho) its first omitted term; est "
    "passes 1 near ell ~ sqrt(2 rho), and every later amplitude term uses "
    "the form outside its domain" % asymptotic.FORM_TOL,
    **_PARAMS, fixed_theta=2.0, ell_max=1000)
def _build_diverging_sum(spec):
    sweep = multipole.f_series_partial_sweep(_params(spec), spec.fixed_theta,
                                             spec.ell_max)
    ells = np.arange(spec.ell_max + 1, dtype=np.float64)
    return _scan(["ell", "re_partial", "im_partial", "abs_partial"],
                 (ells, sweep), lambda ell, s: [ell] + _parts(s))


@_quantity("field_map",
    "exact |psi| (and re/im) over a Cartesian (k x, k z) window, with "
    "the forward-plateau value e^{-pi gamma/2}|Gamma(1+i gamma)| in "
    "the plateau column\n"
    "validity: everywhere; the paraboloid rho s = 1 marks the damped "
    "interior",
    **_PSI_PARAMS, kx_values=None, kx_range=(-40.0, 40.0, 161),
    kz_range=(-40.0, 80.0, 241))
def _build_field_map(spec):
    p = _params(spec, k=False)
    kz = _axis(spec.kz_range)
    kx_axis = (np.asarray(spec.kx_values, dtype=np.float64)
               if spec.kx_values is not None else _axis(spec.kx_range))
    kx, kzr = _product_rows(kx_axis, kz)
    header = ["kx", "kz", "re_psi", "im_psi", "abs_psi", "plateau"]
    # psi depends on (|kx|, kz) alone, so the kx and -kx rows share one
    # table entry, (ax[i], kz[j]) at i nz + j; hypot and arctan2(|x|, z)
    # ignore the sign of x, and each value depends on its own point only,
    # so the bytes do not change
    ax, ix = np.unique(np.abs(kx_axis), return_inverse=True)
    nz = len(kz)

    @functools.cache
    def field():
        # the whole table in one call, made by the first chunk (a scan's
        # kernel work stays inside its chunks), and |psi| on the forward
        # axis for the plateau column
        x, z = _product_rows(ax, kz)
        rho, theta = np.hypot(x, z), np.arctan2(x, z)
        del x, z
        return (exact.psi_exact_grid(p, rho, theta),
                abs(exact.psi_exact(p, exact.FieldPoint(0.0, 0.0))))

    def compute(start, stop):
        table, plateau = field()
        r = np.arange(start, stop)
        key = ix[r // nz] * nz + r % nz
        return np.column_stack([kx[start:stop], kzr[start:stop]]
                               + _parts(table[key])
                               + [np.full(stop - start, plateau)])

    return header, len(kx), compute


@_quantity("bh_mode",
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
    "validity: ell(ell+1) > 12 (M omega)^2 (never ell = 0) and est (1 + est) "
    "< %g, est = |(ell+1+i gamma)(ell-i gamma)|/(2 omega r) the first omitted"
    " term" % (specfun.SERIES_SWITCH_BASE, specfun.SERIES_SWITCH_SCALE,
               asymptotic.FORM_TOL),
    mass=None, omega=None, ell=2, r_range=(50.0, 500.0, 200))
def _build_bh_mode(spec):
    if spec.mass is None or spec.omega is None:
        raise ValueError("bh_mode requires --mass and --omega")
    bh = classical.BlackHoleParams(spec.mass, spec.omega)
    if bh.mass == 0.0:
        raise ValueError("bh_mode requires --mass > 0: its full mode starts "
                         "from ten Schwarzschild radii, got --mass 0")
    r = _axis(spec.r_range)
    if r[0] <= bh.r_s:
        raise ValueError("--r-range must start outside r_s = %g" % bh.r_s)
    u_asym = classical.radial_mode_asymptotic(bh, spec.ell, r)
    # the full mode starts at ten Schwarzschild radii (the library's
    # default, whose underflow error names no argument the CLI lacks).
    # radial_mode_asymptotic has raised for any first r closer in: there
    # omega r < 10 |gamma|, so est >= sqrt((4 + g^2)(1 + g^2))/(20 |g|)
    # >= 0.15 for every ell >= 1
    u_full = (classical.integrate_full_mode(bh, spec.ell, r)
              / (bh.omega * r))
    header = ["r", "re_mode_asym", "im_mode_asym", "abs_mode_asym",
              "re_mode_full", "im_mode_full", "abs_mode_full"]
    return _scan(header, (r, u_asym, u_full),
                 lambda x, ua, uf: [x] + _parts(ua) + _parts(uf))


QUANTITIES = tuple(_BUILDERS)


def run_scan(spec):
    """Compute the dataset for a validated spec and write it to spec.out.
    Returns (header, rows). Rows are computed in fixed chunks of CHUNK_ROWS
    (perfbench's cli.chunk spans), which bound only the output columns a
    builder stacks at once, not any evaluator's temporaries:
    psi_exact_grid and currents.current_scan_grid bound theirs by their
    slices (exact._SLICE), so field_map evaluates its whole psi table in
    its first chunk."""
    spec.validate()
    header, n_rows, compute = _BUILDERS[spec.quantity](spec)
    rows = np.empty((n_rows, len(header)))
    for i in range(0, n_rows, CHUNK_ROWS):
        rows[i:i + CHUNK_ROWS] = compute(i, min(i + CHUNK_ROWS, n_rows))
    write_csv(spec.out, header, rows)
    return header, rows


def _product_period(bits):
    """The run length p of an outer x inner product in columns 0 and 1 of
    the rows' bit patterns: column 0 constant over each run of p rows and
    column 1 the same in every run, 2 <= p <= CSV_BLOCK_ROWS, p dividing the
    row count, a third column. 0 when the rows are not such a product."""
    if len(bits) < 2 or bits.shape[1] < 3:
        return 0
    change = np.flatnonzero(bits[:, 0] != bits[0, 0])
    p = int(change[0]) if change.size else len(bits)
    if not 2 <= p <= CSV_BLOCK_ROWS or len(bits) % p:
        return 0
    outer, inner = bits[:, 0].reshape(-1, p), bits[:, 1].reshape(-1, p)
    product = np.all(outer == outer[:, :1]) and np.all(inner == inner[0])
    return p if product else 0


def _split(v):
    """Dekker's split of v into a 26-bit high part and an exact rest."""
    c = v * 134217729.0
    high = c - (c - v)
    return high, v - high


# _digits' tables: 10^k, k in [0, 20] (exact doubles), and its split; each
# n < 10^4 as a uint32 of 4 ASCII digits; the layout; its (k, tz, sign) masks
_POW = np.array([float(10 ** k) for k in range(21)])
_POW_HI, _POW_LO = _split(_POW)
_WORDS = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4,
                              indexing="ij"), -1).view(np.uint32).ravel()
_LAYOUT = np.frombuffer(b"-0" + b"0" * 17 + b".000" + b"0" * 17, np.uint8)
_E, _TZ, _NEG, _COL = np.ix_(range(16, -5, -1), range(17), range(2), range(40))
_MASKS = (np.uint8(255) * (
    (_COL == 0) & (_NEG == 1) | (_COL == 1) & (_E < 0)
    | (2 <= _COL) & (_COL <= 2 + _E) | (_COL == 19) & (_E + _TZ <= 15)
    | (24 + _E <= _COL) & (_COL <= 39 - _TZ))).reshape(-1, 40).view(np.uint64)


def _digits(x):
    """The "%.17g" bytes of each value of the float64 vector x, as rows of a
    NUL-padded (len(x), 40) uint8 matrix. Where 1e-4 <= |x| < 1e17 (%g's
    fixed form), E = floor(log10 |x|), Dekker's two-product gives |x| 10^k =
    ph + t exactly (k = 16 - E, so 10^k is exact), and ph >= 1e16 is an even
    integer, so D = ph + rint(t) is the 17 digits, ties to even. D fills the
    layout [sign][0][17 digits][.][000][17 digits], which a mask row cuts to
    the value's bytes. Any other value, or one whose E is off (ph + t < 1e16
    or D >= 1e17: log10 rounds), takes "%.17g" itself."""
    a = np.abs(x)
    fast = (1e-4 <= a) & (a < 1e17)  # false on NaN: no arithmetic on it
    a = np.where(fast, a, 1.0)
    k = 16 - np.clip(np.floor(np.log10(a)), -4, 16).astype(np.intp)
    ph, (ah, al), bh, bl = a * _POW[k], _split(a), _POW_HI[k], _POW_LO[k]
    t = ((ah * bh - ph) + ah * bl + al * bh) + al * bl
    d = ph.astype(np.int64) + np.rint(t).astype(np.int64)
    # ph - 1e16 is exact, so this sum has the sign of ph + t - 1e16
    ok = fast & ((ph - 1e16) + t >= 0) & (d < 10 ** 17)
    q = d // 10 ** 8
    head = q // 10 ** 8
    hl = np.stack([q - head * 10 ** 8, d - q * 10 ** 8], axis=1)
    w = hl // 10000
    words = np.take(_WORDS, np.stack([w, hl - w * 10000], 2)).reshape(-1, 4)
    out = np.broadcast_to(_LAYOUT, (len(x), 40)).copy()
    out[:, 2] = out[:, 23] = ord("0") + head
    out[:, 3:19], out.view(np.uint32)[:, 6:] = words.view(np.uint8), words
    tz = np.argmax(out[:, 18:1:-1] != ord("0"), axis=1)
    mask = np.take(_MASKS, (k * 17 + tz) * 2 + np.signbit(x), axis=0)
    np.bitwise_and(out.view(np.uint64), mask, out=out.view(np.uint64))
    bad = np.flatnonzero(~ok)  # one % call, its space padding dropped
    pad = ("%-40.17g" * len(bad)) % tuple(x[bad].tolist())
    pad = np.frombuffer(pad.encode(), np.uint8).reshape(-1, 40)
    out[bad] = np.where(pad == ord(" "), 0, pad)
    return out


def _cells(block, k, lead):
    """The bytes of a block's lines: each line's lead (a uint8 row per line,
    or one for all: its newline, and the first k cells with their commas),
    then its other cells and commas from one _digits call, which formats a
    column of equal bit patterns (0.0 and -0.0 differ) by its first value;
    laid out as one NUL-padded matrix, the NULs dropped by one compress."""
    n, w = len(block), lead.shape[1]
    bits = block[:, k:].view(np.int64)
    vary = np.any(bits != bits[0], axis=0)
    same, other = np.flatnonzero(~vary), np.flatnonzero(vary)
    cells = _digits(np.concatenate([block[0, k + same],
                                    block[:, k + other].ravel()]))
    line = np.zeros((n, w + 41 * len(vary)), np.uint8)
    line[:, :w] = lead
    rest = line[:, w:].reshape(n, -1, 41)
    rest[:, same, :40] = cells[:len(same)]
    rest[:, other, :40] = cells[len(same):].reshape(n, len(other), 40)
    rest[:, :-1, 40] = ord(",")
    return line[line != 0].tobytes()


def _reader(fh, path):
    """A read-only descriptor on the file that fh (opened on path) writes,
    or None unless that is a regular file path opens for reading: a FIFO,
    a pipe or a terminal as --out, a file without read permission, or a
    system without os.pread takes no read-back."""
    st = os.fstat(fh.fileno())
    if not (stat.S_ISREG(st.st_mode) and hasattr(os, "pread")):
        return None
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    if os.path.samestat(st, os.fstat(fd)):
        return fd
    os.close(fd)
    return None


def write_csv(path, header, rows):
    # the bytes of "%.17g" value by value, from numpy arithmetic (_digits);
    # each line written with its leading newline, and a newline at the end
    rows = np.asarray(rows, dtype=np.float64)
    bits = rows.view(np.int64)
    p = _product_period(bits)
    with open(path, "wb") as fh:
        pos = fh.write(",".join(header).encode())
        fd = _reader(fh, path) if p else None
        try:
            _write_runs(fh, fd, pos, rows, bits, p)
        finally:
            if fd is not None:
                os.close(fd)
        fh.write(b"\n")


def _write_runs(fh, fd, pos, rows, bits, p):
    """write_csv's one loop: the rows from byte offset pos on, in runs of p
    rows where p > 0 (an outer x inner product, whose outer and inner cells
    are formatted once per file), else of CSV_BLOCK_ROWS rows. With fd, a
    descriptor reading the file back, a run whose other columns repeat an
    earlier run's bit patterns (field_map's kx and -kx; looked up by the
    hash of their wrapping int64 sum, which any one changed value changes,
    and confirmed on all of them) is copied from the
    file (fh flushed first) with its line starts swapped, which is exact
    because a newline only ever starts a line and each outer cell ends in a
    comma. Only an offset per distinct run is kept, not its text."""
    k = 2 if p else 0
    if p:  # each run's line start, and the inner cells with their commas
        outers = [b"\n%s," % c[c != 0].tobytes()
                  for c in _digits(rows[::p, 0])]
        inner = _digits(rows[:p, 1])
        inner = np.column_stack([inner[:, inner.any(axis=0)],
                                 np.full(p, ord(","), np.uint8)])
    seen = {}  # hash of a run's bit sum -> (row, offset, size, outer)
    for start in range(0, len(rows), p or CSV_BLOCK_ROWS):
        run, key, hit = rows[start:start + (p or CSV_BLOCK_ROWS)], None, None
        outer = outers[start // p] if p else b"\n"
        if fd is not None:
            rest = bits[start:start + p, 1:]
            key = hash(rest.sum())
            hit = seen.get(key)
        # a collision (of sums or of hashes) fails the comparison: formatted
        if hit and np.array_equal(bits[hit[0]:hit[0] + p, 1:], rest):
            _, offset, size, old = hit
            fh.flush()
            pos += fh.write(outer.join(os.pread(fd, size, offset).split(old)))
            continue
        lead = np.frombuffer(outer, np.uint8)[None]
        if p:
            lead = np.column_stack([lead.repeat(p, axis=0), inner])
        text = _cells(run, k, lead)
        if key is not None:
            seen.setdefault(key, (start, pos, len(text), outer))
        pos += fh.write(text)


def describe(name):
    """A quantity's governing formula, validity region and flags."""
    text, reads = _row(name)
    return "%s:\n%s\nflags: %s" % (name, text, ", ".join(map(_flag, reads)))


def load_preset(name):
    if name not in PRESETS:
        raise ValueError("unknown preset %r; valid presets: %s"
                         % (name, ", ".join(PRESETS)))
    path = resources.files("coulscat").joinpath("presets/%s.json" % name)
    return json.loads(path.read_text())


def _spec_from_mapping(data):
    unknown = set(data) - {f.name for f in fields(ScanSpec)}
    if unknown:
        raise ValueError("unknown spec fields: %s" % ", ".join(sorted(unknown)))
    return ScanSpec(**data)


def _parse_range(text):
    try:
        a, b, n = text.split(":")
        return float(a), float(b), int(n)
    except ValueError:
        raise argparse.ArgumentTypeError("expected A:B:N, N an integer")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scatter",
        description="Coulomb-scattering datasets as CSV; see 'scatter "
                    "describe <quantity>' for the formula behind each one "
                    "and the flags it reads.")
    parser.add_argument("quantity",
                        choices=QUANTITIES + ("describe",))
    parser.add_argument("name", nargs="?",
                        help="quantity name (describe mode only)")
    parser.add_argument("--preset", choices=PRESETS,
                        help="start from a named figure preset")
    for f in fields(ScanSpec)[1:]:
        flag, kind = _flag(f.name), typing.get_origin(f.type) or f.type
        if flag == f.name:
            continue  # ell_max_values, which presets alone set
        readers = [q for q, (_, reads) in _ROWS.items() if f.name in reads]
        kw = dict(type=(typing.get_args(f.type) or (kind,))[0],
                  action="append" if kind is list else "store",
                  metavar=flag[2:].upper())
        if kind is bool:
            kw = dict(action="store_true")
        elif kind is tuple:
            kw = dict(type=_parse_range, metavar="A:B:N")
        parser.add_argument(flag, dest=f.name, default=None, help=(
            "read by " + ", ".join(readers) + "; repeatable" * (kind is list)
            if readers else "output CSV, by default <quantity>.csv"), **kw)
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
    # a given flag replaces whatever its alternative sets in the preset
    for pair in _ALTERNATIVES:
        for ours, other in (pair, pair[::-1]):
            if given.keys() & set(ours):
                data = {n: v for n, v in data.items() if n not in other}
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
        out = spec.out
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
        try:  # out the file or pipe on fd 1 (/dev/stdout): not over the CSV
            to_err = os.path.samestat(os.stat(out), os.fstat(1))
        except OSError:
            to_err = False
        print("wrote %s (%d rows, %d columns)" % (out, rows.shape[0],
                                                  rows.shape[1]),
              file=sys.stderr if to_err else sys.stdout)
        return 0
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
