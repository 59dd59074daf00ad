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
specfun, so the approximation can be checked rather than trusted.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import multipole, specfun
from .exact import ScatteringParams

# smallest magnitude float64 holds to full precision
_TINY = np.finfo(np.float64).tiny / np.finfo(np.float64).eps


@dataclass(frozen=True)
class BlackHoleParams:
    """Schwarzschild mass and field frequency, in geometric units."""
    mass: float
    omega: float

    def __post_init__(self):
        if not self.mass >= 0.0:
            raise ValueError("mass must be >= 0")
        if not self.omega > 0.0:
            raise ValueError("omega must be > 0")

    @property
    def r_s(self):
        return 2.0 * self.mass

    @property
    def gamma(self):
        return -2.0 * self.mass * self.omega


def coulomb_reduction(bh):
    """Scattering parameters of the equivalent Coulomb problem. The
    coupling is negative: gravity attracts."""
    return ScatteringParams(gamma=bh.gamma, k=bh.omega)


def effective_potential(bh, ell, r):
    """Radial barrier seen by the rescaled mode,
    (1/r^2)(1 - r_s/r)(r_s/r + ell(ell+1)), defined outside the horizon."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr <= bh.r_s):
        raise ValueError("r must lie outside the horizon r > r_s")
    x = bh.r_s / r_arr
    out = (1.0 - x) * (x + ell * (ell + 1.0)) / r_arr ** 2
    return float(out) if r_arr.ndim == 0 else out


def tortoise_coordinate(bh, r):
    """r_* = r + r_s ln(r/r_s - 1), the coordinate in which the horizon is
    pushed to minus infinity. Flat space (mass = 0) gives r back."""
    r_arr = np.asarray(r, dtype=np.float64)
    if bh.r_s == 0.0:
        out = r_arr.copy()
        return float(out) if r_arr.ndim == 0 else out
    if np.any(r_arr <= bh.r_s):
        raise ValueError("r must lie outside the horizon r > r_s")
    out = r_arr + bh.r_s * np.log(r_arr / bh.r_s - 1.0)
    return float(out) if r_arr.ndim == 0 else out


def radius_from_tortoise(bh, r_star):
    """Invert the tortoise map by bisection; monotonicity makes this safe
    for any input. Relative accuracy 1e-12 on r."""
    if bh.r_s == 0.0:
        return float(r_star)
    lo = bh.r_s * (1.0 + 1e-15)
    hi = max(2.0 * bh.r_s, r_star + bh.r_s + 1.0)
    while tortoise_coordinate(bh, hi) < r_star:
        hi *= 2.0
    while tortoise_coordinate(bh, lo) > r_star:
        lo = bh.r_s + 0.5 * (lo - bh.r_s)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if tortoise_coordinate(bh, mid) < r_star:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def long_wavelength_valid(bh, ell):
    """Whether dropping the short-range correction is justified for this
    partial wave: requires ell(ell+1) > 12 (M omega)^2. The ell = 0 wave
    never qualifies and is rejected outright."""
    if ell < 1:
        raise ValueError("the mapping is never controlled for ell < 1")
    return ell * (ell + 1.0) > 12.0 * (bh.mass * bh.omega) ** 2


def radial_mode_asymptotic(bh, ell, r):
    """Large-r rescaled radial mode u(r)/r via the Coulomb mapping: the
    two-wave form with log-distorted phases and the partial-wave factor
    e^{2 i delta_ell} at gamma = -2 M omega.

    Raises when the mapping is uncontrolled for this ell or when omega r is
    not comfortably beyond the centrifugal and Coulomb scales.
    """
    if not long_wavelength_valid(bh, ell):
        raise ValueError("long-wavelength mapping invalid for this ell and "
                         "M omega")
    p = coulomb_reduction(bh)
    r_arr = np.asarray(r, dtype=np.float64)
    rho = p.k * r_arr
    scale = 5.0 * (ell * (ell + 1.0) + p.gamma ** 2)
    if np.any(rho <= scale):
        raise ValueError("omega r too small for the asymptotic form here")
    return multipole.coulomb_wave_asymptotic(ell, p.gamma, rho)


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
    a = lambda + 1 - i gamma, b = 2 lambda + 2, and specfun.kummer_ivp
    continues it along the ray z = 2 i rho, so a value depends on its own r
    only.

    Initial data is taken from the Coulomb partial wave at r_start (default
    ten Schwarzschild radii), where the two equations already agree well;
    the comparison downstream then isolates the effect of the dropped term.
    Raises ArithmeticError where the ell wave at r_start, or w beyond it,
    falls below float64's full-precision range (high ell at small r_start,
    or (lambda+1) ln(r / ell) past ~700).
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if r_start is None:
        r_start = 10.0 * bh.r_s
    if r_start <= bh.r_s:
        raise ValueError("r_start must lie outside the horizon")
    r_arr = np.asarray(r, dtype=np.float64)
    if np.any(r_arr < r_start):
        raise ValueError("r must not lie below r_start = %g" % r_start)
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
        raise ArithmeticError("the ell wave underflows float64 at r_start = "
                              "%g; raise r_start" % r_start)
    disc = (ell + 0.5) ** 2 - 12.0 * (bh.mass * bh.omega) ** 2
    lam1 = 0.5 + (math.sqrt(disc) if disc >= 0.0 else 1j * math.sqrt(-disc))
    dw0 = complex((du0 / u0 - lam1 / rho0 + 1j) / 2j)
    rho = p.k * np.atleast_1d(r_arr)
    # w in units of its value at r_start
    w = specfun.kummer_ivp(lam1 - 1j * p.gamma, 2.0 * lam1, 1j, 2.0 * rho0,
                           1.0 + 0.0j, dw0, 2.0 * rho)
    if not np.all(np.abs(w) >= _TINY):
        raise ArithmeticError("the full mode leaves float64 range before "
                              "r = %g" % r_arr.max())
    # u = u0 e^{i rho0} (rho/rho0)^{lambda+1} w e^{-i rho}: the first four
    # factors multiplied in logs, so that neither a high ell's small u0 nor
    # rho^{lambda+1} leaves float64; e^{-i rho} apart, so that its phase
    # keeps full precision at large rho
    log_u = (np.log(u0 * np.exp(1j * rho0)) + lam1 * np.log(rho / rho0)
             + np.log(w))
    u = np.exp(log_u) * np.exp(-1j * rho)
    return complex(u[0]) if r_arr.ndim == 0 else u
