"""Long-wavelength scattering of a massless scalar field off a
Schwarzschild black hole, mapped onto the attractive Coulomb problem.

The rescaled radial mode outside the hole obeys, after dropping a
short-range correction, the same equation as a Coulomb partial wave with
coupling gamma = -2 M omega and wavenumber k = omega. The mapping is only
controlled when the centrifugal term dominates that dropped correction,
ell(ell+1) > 12 (M omega)^2, which any ell >= 1 satisfies in the
long-wavelength regime M omega < 1. A direct integrator for the full
(uncropped) radial equation is included so the approximation can be
checked rather than trusted.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from . import multipole
from .exact import ScatteringParams


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


def radius_from_tortoise(bh, r_star, tol=1e-12):
    """Invert the tortoise map by bisection; monotonicity makes this safe
    for any input. Relative accuracy tol on r."""
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
        if hi - lo <= tol * hi:
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


def _full_mode_rhs(bh, ell):
    m, w = bh.mass, bh.omega

    def rhs(r, y):
        coeff = (w ** 2 + 4.0 * m * w ** 2 / r + 12.0 * m ** 2 * w ** 2 / r ** 2
                 - ell * (ell + 1.0) / r ** 2)
        return [y[2], y[3], -coeff * y[0], -coeff * y[1]]

    return rhs


def integrate_full_mode(bh, ell, r_end, r_start=None, rtol=1e-11, atol=1e-12,
                        r_eval=None):
    """Integrate the full rescaled radial equation (short-range correction
    kept) outward and return u(r_end), or u at every r in r_eval when that
    array is given.

    Initial data is taken from the Coulomb partial wave at r_start (default
    ten Schwarzschild radii), where the two equations already agree well;
    the comparison downstream then isolates the effect of the dropped term.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if r_start is None:
        r_start = 10.0 * bh.r_s
    if r_start <= bh.r_s:
        raise ValueError("r_start must lie outside the horizon")
    if r_end <= r_start:
        raise ValueError("r_end must exceed r_start")
    if r_eval is not None:
        r_eval = np.asarray(r_eval, dtype=np.float64)
        if np.any(r_eval < r_start) or np.any(r_eval > r_end):
            raise ValueError("r_eval must lie within [r_start, r_end]")
    p = coulomb_reduction(bh)
    rho0 = p.k * r_start
    u0, u1 = multipole.coulomb_wave_regular(np.array([ell, ell + 1]),
                                            p.gamma, rho0)
    # (l+1) F_l' = ((l+1)^2/rho + gamma) F_l - |l+1+i gamma| F_{l+1}, written
    # for w_l = (2l+1) i^l e^{i sigma_l} F_l, the normalization of u0 and u1
    du0 = p.k * (((ell + 1.0) ** 2 / rho0 + p.gamma) * u0
                 + 1j * (ell + 1.0 - 1j * p.gamma) * (2.0 * ell + 1.0)
                 / (2.0 * ell + 3.0) * u1) / (ell + 1.0)
    sol = solve_ivp(_full_mode_rhs(bh, ell), (r_start, r_end),
                    [u0.real, u0.imag, du0.real, du0.imag],
                    method="DOP853", rtol=rtol, atol=atol, t_eval=r_eval)
    if not sol.success:
        raise RuntimeError("radial integration failed: " + sol.message)
    if r_eval is None:
        return complex(sol.y[0, -1], sol.y[1, -1])
    return sol.y[0] + 1j * sol.y[1]
