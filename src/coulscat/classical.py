"""Long-wavelength scattering of a massless scalar field off a
Schwarzschild black hole, mapped onto the attractive Coulomb problem.

The rescaled radial mode outside the hole obeys, after dropping a
short-range correction, the same equation as a Coulomb partial wave with
coupling gamma = -2 M omega and wavenumber k = omega. The mapping is only
controlled when the centrifugal term dominates that dropped correction,
ell(ell+1) > 12 (M omega)^2, which any ell >= 1 satisfies in the
long-wavelength regime M omega < 1. The full (uncropped) radial equation
is itself a Coulomb equation, of non-integer order lambda with
lambda(lambda+1) = ell(ell+1) - 12 (M omega)^2; integrate_full_mode solves
it from the partial wave's initial data with the Kummer-ODE continuation of
specfun, matched to the two large-distance solutions past a matching
radius, so the approximation can be checked rather than trusted;
full_mode_phase_error gives the map's phase-shift error from that match.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotic, exact, multipole, specfun

# smallest magnitude float64 holds to full precision
_TINY = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


@dataclass(frozen=True)
class BlackHoleParams:
    """Schwarzschild mass and field frequency, in geometric units."""
    mass: float
    omega: float

    def __post_init__(self):
        exact._one("mass", exact._within("mass", self.mass, "[0, inf)"))
        exact._one("omega", exact._within("omega", self.omega, "(0, inf)"))

    @property
    def r_s(self):
        return 2.0 * self.mass

    @property
    def gamma(self):
        return -2.0 * self.mass * self.omega


def coulomb_reduction(bh):
    """Scattering parameters of the equivalent Coulomb problem. The
    coupling is negative: gravity attracts."""
    return exact.ScatteringParams(gamma=bh.gamma, k=bh.omega)


def long_wavelength_valid(bh, ell):
    """Whether dropping the short-range correction is justified for this
    partial wave: requires ell(ell+1) > 12 (M omega)^2. The mapping is
    never controlled for the ell = 0 wave, so ell must be an integer in
    [1, inf)."""
    exact._order("ell", ell, "[1, inf)")
    return ell * (ell + 1.0) > 12.0 * (bh.mass * bh.omega) ** 2


def radial_mode_asymptotic(bh, ell, r):
    """Large-r rescaled radial mode u(r)/r via the Coulomb mapping: the
    two-wave form with log-distorted phases and the partial-wave factor
    e^{2 i delta_ell} at gamma = -2 M omega.

    Raises when the mapping is uncontrolled for this ell or where the form's
    first omitted term est has est (1 + est) >= asymptotic.FORM_TOL.
    """
    ell = exact._one("ell", ell)
    if not long_wavelength_valid(bh, ell):
        raise ValueError("long-wavelength mapping invalid for this ell and "
                         "M omega")
    p = coulomb_reduction(bh)
    rho = p.k * exact._within("r", r, "(0, inf)")
    est = abs((ell + 1 + 1j * p.gamma) * (ell - 1j * p.gamma)) / (2.0 * rho)
    if not (est * (1.0 + est) < asymptotic.FORM_TOL).all():
        raise ValueError("omega r = %r too small: the two-wave form's first "
                         "omitted term est = %.3g needs est (1 + est) < %g"
                         % (float(rho.min()), est.max(), asymptotic.FORM_TOL))
    return exact._like(r, multipole.coulomb_wave_asymptotic(ell, p.gamma, rho))


def _full_mode_start(bh, ell, r_start):
    """The full mode's data at r_start (default ten Schwarzschild radii):
    r_start, the Coulomb reduction, rho0 = omega r_start, log(u0 e^{i rho0}),
    the Kummer parameters a, b, the matching radius |z| beyond which w is
    taken from the asymptotic pair (hyp1f1's switch radius for this a, or
    z0 = 2 i rho0 if that lies farther), and w'/w at z0 (see
    integrate_full_mode). The errors name what its caller can change: mass
    where the default r_start is 0, and r_start only where it was passed."""
    ell = exact._one("ell", ell)
    exact._order("ell", ell, "[0, inf)")
    passed = r_start is not None
    if not passed:
        if bh.mass == 0.0:
            raise ValueError("mass must lie in (0, inf) for the default "
                             "r_start of ten Schwarzschild radii, got "
                             "mass = %r" % bh.mass)
        r_start = 10.0 * bh.r_s
    # outside the horizon
    exact._within("r_start", r_start, "(%r, inf)" % float(bh.r_s))
    p = coulomb_reduction(bh)
    rho0 = p.k * r_start
    u0, u1 = multipole.coulomb_wave_regular(np.array([ell, ell + 1]),
                                            p.gamma, rho0)
    # (l+1) dF_l/drho = ((l+1)^2/rho + gamma) F_l - |l+1+i gamma| F_{l+1},
    # written for w_l = (2l+1) i^l e^{i sigma_l} F_l, the normalization of
    # u0 and u1
    du0 = (((ell + 1.0) ** 2 / rho0 + p.gamma) * u0
           + 1j * (ell + 1.0 - 1j * p.gamma) * (2.0 * ell + 1.0)
           / (2.0 * ell + 3.0) * u1) / (ell + 1.0)
    if not min(abs(u0), abs(u1)) >= _TINY:
        raise ArithmeticError(
            "the ell = %r wave underflows float64 at r_start = %g%s"
            % (ell, r_start, "; raise r_start" if passed
               else " (ten Schwarzschild radii)"))
    disc = (ell + 0.5) ** 2 - 12.0 * (bh.mass * bh.omega) ** 2
    lam1 = 0.5 + (math.sqrt(disc) if disc >= 0.0 else 1j * math.sqrt(-disc))
    # w'/w = (u0'/u0 - lam1/rho0 + i) / 2i; for real gamma and lambda
    # u0'/u0 = F'/F is real and Re(w'/w) exactly 1/2, so only the real part
    # is kept (rounding in its imaginary part grows ~100x along the mode)
    x = du0 / u0 - lam1 / rho0
    dw0 = complex(0.5, -0.5 * x.real) if disc >= 0.0 else complex((x + 1j) / 2j)
    a = lam1 - 1j * p.gamma
    z_match = max(specfun.series_radius(a), 2.0 * rho0)
    return (r_start, p, rho0, np.log(u0 * np.exp(1j * rho0)), a, 2.0 * lam1,
            z_match, dw0)


def _far_amplitudes(a, b, rho0, log_u0, z_match, end):
    """c_out and c_in of the full mode beyond the matching radius,
    u = e^{c_out} S1 e^{i theta} + e^{c_in} S2 e^{-i theta},
    theta = rho - gamma ln(2 rho), with S1 and S2 the series of
    specfun._kummer_pair at z = 2 i rho. w = c1 y1 + c2 y2 there, with c1
    and c2 taken from end = (log w, w'/w) at z_match by the Wronskian; the
    powers of rho and z are combined by hand, so nothing of order
    lambda ln(rho) is formed."""
    log_w, dlog_w = end
    (log1, s1, ds1), (log2, s2, ds2) = specfun._kummer_pair(
        a, b, np.complex128(1j * z_match), deriv=True)
    # the Wronskian y1 y2' - y1' y2 is -e^{log1 + log2}
    log_c1 = log_w - log1 + np.log(dlog_w * s2 - ds2)
    log_c2 = log_w - log2 + np.log(ds1 - dlog_w * s1)
    # u0 e^{i rho0} (rho/rho0)^{lambda+1} e^{-i rho} y_j(2 i rho)
    # = e^{base + log c_j + ...}: principal log z = ln(2 rho) + i pi/2
    base = log_u0 - 0.5 * b * math.log(2.0 * rho0)
    return (complex(base + log_c1 + 0.5j * np.pi * (a - b)),
            complex(base + log_c2 - 0.5j * np.pi * a))


def integrate_full_mode(bh, ell, r, r_start=None):
    """The full rescaled radial mode (short-range correction kept), carried
    outward from r_start to r >= r_start (a scalar, or an array of radii,
    which gives an array).

    In rho = omega r the full equation
    u'' + (1 + 4 M omega/rho - (ell(ell+1) - 12 (M omega)^2)/rho^2) u = 0
    is itself a Coulomb equation, with gamma = -2 M omega and an order
    lambda = -1/2 + sqrt((ell+1/2)^2 - 12 (M omega)^2) (principal root;
    complex when ell = 0 and 12 (M omega)^2 > 1/4). Writing
    u = rho^{lambda+1} e^{-i rho} w(2 i rho), w solves the Kummer ODE with
    a = lambda + 1 - i gamma, b = 2 lambda + 2. Up to the matching radius
    |z| = specfun.series_radius(a) (48 for M omega = 0.05, ell = 2)
    specfun.kummer_ivp continues w along the ray z = 2 i rho. Beyond it w is
    c1 y1 + c2 y2, the two large-|z| solutions of specfun._kummer_pair, with
    c1, c2 from w and w' at the matching radius; every farther radius is
    one vectorized evaluation of
    u = e^{c_out} S1 e^{i theta} + e^{c_in} S2 e^{-i theta},
    theta = rho - gamma ln(2 rho), whatever its distance. A value depends on
    its own r only.

    Initial data is taken from the Coulomb partial wave at r_start (default
    ten Schwarzschild radii), where the two equations already agree well;
    the comparison downstream then isolates the effect of the dropped term.
    u is assembled in logs, so it never leaves float64's range; only the
    initial data can: raises ArithmeticError where the ell wave at r_start
    falls below float64's full-precision range (high ell at small r_start).
    """
    r_start, p, rho0, log_u0, a, b, z_match, dw0 = _full_mode_start(
        bh, ell, r_start)
    rho = p.k * exact._within("r", r, "[%r, inf)" % float(r_start))
    near = 2.0 * rho <= z_match
    far = ~near
    log_w, end = specfun.kummer_ivp(a, b, 2.0 * rho0, 1.0 + 0.0j, dw0,
                                    z_match, 2.0 * rho[near])
    u = np.empty(rho.shape, dtype=np.complex128)
    # u = u0 e^{i rho0} (rho/rho0)^{lambda+1} w e^{-i rho}, w in units of its
    # r_start value: e^{-i rho} apart, so that its phase keeps full
    # precision at large rho
    rho_n = rho[near]
    u[near] = (np.exp(log_u0 + 0.5 * b * np.log(rho_n / rho0) + log_w)
               * np.exp(-1j * rho_n))
    if far.any():
        c_out, c_in = _far_amplitudes(a, b, rho0, log_u0, z_match, end)
        rho_f = rho[far]
        (_, s1, _), (_, s2, _) = specfun._kummer_pair(a, b, 2j * rho_f)
        log_phase = 1j * p.gamma * np.log(2.0 * rho_f)
        u[far] = (np.exp(c_out - log_phase) * s1 * np.exp(1j * rho_f)
                  + np.exp(c_in + log_phase) * s2 * np.exp(-1j * rho_f))
    return exact._like(r, u)


def full_mode_phase_error(bh, ell):
    """Phase-shift error of the long-wavelength Coulomb map for one partial
    wave: delta_full - delta_ell in (-pi/2, pi/2], half the phase of the
    full mode's outgoing/incoming amplitude ratio e^{c_out - c_in} (see
    integrate_full_mode, started at its default r_start = 10 r_s) against
    the map's e^{2 i delta_ell}/(-1)^{ell+1}: a function of M omega and ell
    alone.

    No integration past the matching radius: the ratio is the full mode's
    S-matrix element at ell. Were the full mode the regular Coulomb wave
    F_lambda, this would be sigma_lambda - sigma_ell + (ell - lambda) pi/2.
    Raises as integrate_full_mode does.
    """
    ell = exact._one("ell", ell)
    _, p, rho0, log_u0, a, b, z_match, dw0 = _full_mode_start(bh, ell, None)
    _, end = specfun.kummer_ivp(a, b, 2.0 * rho0, 1.0 + 0.0j, dw0,
                                z_match, [])
    c_out, c_in = _far_amplitudes(a, b, rho0, log_u0, z_match, end)
    ratio = (np.exp(c_out - c_in) * (-1.0) ** (ell + 1)
             / multipole.phase_shift(ell, p.gamma).factor)
    return 0.5 * float(np.angle(ratio))
