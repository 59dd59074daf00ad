"""Reference values for the correctness gate.

Every function here is an independent high-precision evaluation of a
quantity coulscat computes, written from the formulas in the coulscat
docstrings and the README, never by calling coulscat: mpmath at 30 digits,
and for the bh_mode full mode a tight scipy integration started from mpmath
initial data. They run outside the timed region.
"""

import functools

import mpmath as mp
import numpy as np
from scipy.integrate import solve_ivp

mp.mp.dps = 30

# Relative tolerances of the gate. Closed forms and the exact field must
# agree far below 1e-8 (measured worst inside the benchmark domain is about
# 1e-12); a float64 kernel that matches mpmath within 1e-12 passes with room.
# Currents from five-point stencils carry an O(h^2) truncation error (h up to
# 1e-2 at rho = 100), so they are compared with the looser stencil tolerance.
RTOL_FIELD = 1e-8
RTOL_STENCIL = 1e-4
# The bh_mode full mode comes from an ODE integration at rtol 1e-11 started
# from finite-difference initial data; it matches the tighter reference
# integration below within 4e-8.
RTOL_ODE = 1e-6
# psi_multipole_sum is a truncated partial-wave series; criterion 2 of the
# acceptance suite bounds its absolute error against the exact field by 1e-8
# when ell_max = rho + 10 |gamma| + 30, and the gate uses the same bound.
ATOL_MULTIPOLE = 1e-8


def _gamma_pref(g):
    return mp.exp(-mp.pi * g / 2) * mp.gamma(1 + 1j * g)


def _kummer_pair(g, z):
    """M(-i g, 1, z) and its z-derivative (a/b) M(a+1, b+1, z)."""
    a = -1j * g
    return mp.hyp1f1(a, 1, z), a * mp.hyp1f1(a + 1, 2, z)


def psi_exact_polar(gamma, rho, theta):
    """Exact field at (rho, theta)."""
    g, r = mp.mpf(gamma), mp.mpf(rho)
    c = mp.cos(mp.mpf(theta))
    return _psi_from(g, r, c)


def psi_exact_cartesian(gamma, kx, kz):
    """Exact field at the Cartesian point (k x, k z), as a field map
    defines it: rho = |(x, z)| and cos(theta) = z / rho."""
    g, x, z = mp.mpf(gamma), mp.mpf(kx), mp.mpf(kz)
    r = mp.sqrt(x * x + z * z)
    c = z / r if r != 0 else mp.mpf(1)
    return _psi_from(g, r, c)


def _psi_from(g, r, c):
    m, _ = _kummer_pair(g, 1j * r * (1 - c))
    return complex(_gamma_pref(g) * mp.exp(1j * r * c) * m)


def plateau(gamma):
    """Forward-axis modulus e^{-pi gamma/2} |Gamma(1 + i gamma)|."""
    return float(abs(_gamma_pref(mp.mpf(gamma))))


def current_exact(gamma, k, rho, theta):
    """Analytic current J = Im[psi* grad psi] of the exact field, from
    psi = C e^{i rho cos(theta)} M(-i gamma, 1, i rho s) and dM/dz."""
    g, r, th = mp.mpf(gamma), mp.mpf(rho), mp.mpf(theta)
    c, sn = mp.cos(th), mp.sin(th)
    pref = _gamma_pref(g) * mp.exp(1j * r * c)
    m, dm = _kummer_pair(g, 1j * r * (1 - c))
    psi = pref * m
    d_rho = 1j * c * psi + pref * dm * 1j * (1 - c)
    d_theta = -1j * r * sn * psi + pref * dm * 1j * r * sn
    j_r = k * mp.im(mp.conj(psi) * d_rho)
    j_t = (k / r) * mp.im(mp.conj(psi) * d_theta)
    return float(j_r), float(j_t)


def current_in_distorted(gamma, k, rho, theta):
    """Closed-form current of the phase-distorted incoming wave."""
    g, r, th = mp.mpf(gamma), mp.mpf(rho), mp.mpf(theta)
    s = 1 - mp.cos(th)
    j_r = k * (mp.cos(th) + g / r)
    j_t = -k * (mp.sin(th) - (g / r) * mp.sin(th) / s)
    return float(j_r), float(j_t)


def psi_asymptotic_total(gamma, rho, theta, backreaction):
    """Incoming distorted wave plus scattered wave, summed."""
    g, r, th = mp.mpf(gamma), mp.mpf(rho), mp.mpf(theta)
    s = 1 - mp.cos(th)
    rs = r * s
    psi_in = mp.exp(1j * (r * (1 - s) + g * mp.log(rs)))
    if backreaction:
        psi_in *= 1 - 1j * g ** 2 / rs
    ratio = mp.exp(mp.loggamma(1 + 1j * g) - mp.loggamma(1 - 1j * g))
    psi_scat = (-g / rs) * ratio * mp.exp(1j * (r - g * mp.log(rs)))
    return complex(psi_in + psi_scat)


def _phase_factor(ell, g):
    lg = mp.loggamma(ell + 1 + 1j * g)
    return mp.exp(lg - mp.conj(lg))


def _amplitude_terms(g, k, theta, n):
    """Yield (ell, P_ell(cos theta), e^{2 i delta_ell}) for ell = 0..n."""
    x = mp.cos(mp.mpf(theta))
    p_prev, p_curr = mp.mpf(1), x
    factor = _phase_factor(0, g)
    for ell in range(n + 1):
        if ell == 0:
            p_ell = p_prev
        elif ell == 1:
            p_ell = p_curr
        else:
            p_prev, p_curr = p_curr, ((2 * ell - 1) * x * p_curr
                                      - (ell - 1) * p_prev) / ell
            p_ell = p_curr
        yield ell, p_ell, factor
        factor *= (ell + 1 + 1j * g) / (ell + 1 - 1j * g)


def partial_sum(gamma, k, theta, ell_max):
    """Partial sum through ell_max of the divergent amplitude series."""
    g = mp.mpf(gamma)
    total = mp.mpc(0)
    for ell, p_ell, factor in _amplitude_terms(g, k, theta, ell_max):
        total += (2 * ell + 1) / (2j * k) * (factor - 1) * p_ell
    return complex(total)


def cesaro_mean(gamma, k, theta, n):
    """Cesaro (C,1) mean of the partial sums sigma_0 .. sigma_n."""
    g = mp.mpf(gamma)
    sigma, total = mp.mpc(0), mp.mpc(0)
    for ell, p_ell, factor in _amplitude_terms(g, k, theta, n):
        sigma += (2 * ell + 1) / (2j * k) * (factor - 1) * p_ell
        total += sigma
    return complex(total / (n + 1))


def reduced_series(gamma, k, theta, ell_max):
    """Amplitude from the convergent reduced series through ell_max."""
    g = mp.mpf(gamma)
    acc = mp.mpc(0)
    for ell, p_ell, factor in _amplitude_terms(g, k, theta, ell_max):
        acc += factor * (ell / (ell + 1j * g)
                         - (ell + 1) / (ell + 1 - 1j * g)) * p_ell
    return complex((g / k) * acc / (1 - mp.cos(mp.mpf(theta))))


def closed_form_amplitude(gamma, k, theta):
    """-(gamma / (k s)) Gamma(1+ig)/Gamma(1-ig) e^{-i gamma ln(s/2)}."""
    g, th = mp.mpf(gamma), mp.mpf(theta)
    s = 1 - mp.cos(th)
    ratio = mp.exp(mp.loggamma(1 + 1j * g) - mp.loggamma(1 - 1j * g))
    return complex(-(g / (k * s)) * ratio * mp.exp(-1j * g * mp.log(s / 2)))


def coulomb_wave_asymptotic(ell, gamma, rho):
    """Two-wave large-rho form of the regular partial wave."""
    g, r = mp.mpf(gamma), mp.mpf(rho)
    rc = r - g * mp.log(2 * r)
    return complex((2 * ell + 1) / (2j * r)
                   * ((-1) ** (ell + 1) * mp.exp(-1j * rc)
                      + _phase_factor(ell, g) * mp.exp(1j * rc)))


def _coulomb_wave_regular(ell, g, rho):
    """(2 ell + 1) i^ell e^{i sigma_ell} F_ell(gamma, rho), the partial-wave
    normalization coulscat uses, from the Kummer-function form."""
    rho = mp.mpf(rho)
    log_c = (mp.loggamma(ell + 1 + 1j * g) - mp.loggamma(2 * ell + 2)
             - mp.pi * g / 2 + ell * mp.log(2))
    return ((2 * ell + 1) * (1j ** ell)
            * mp.exp(log_c + (ell + 1) * mp.log(rho) - 1j * rho)
            * mp.hyp1f1(ell + 1 - 1j * g, 2 * ell + 2, 2j * rho))


@functools.lru_cache(maxsize=4)
def bh_full_mode(mass, omega, ell, r_start, r_axis):
    """u(r) / (omega r) of the full Schwarzschild mode equation that the
    bh_mode scan integrates, u'' = -(omega^2 + 4 M omega^2/r
    + 12 M^2 omega^2/r^2 - ell(ell+1)/r^2) u, started at r_start from the
    Coulomb partial wave with gamma = -2 M omega (value and exact
    derivative in mpmath) and integrated at rtol 1e-13. r_axis is a tuple
    of radii; returns a tuple of complex values."""
    g = -2 * mp.mpf(mass) * omega

    def wave(rho):
        return _coulomb_wave_regular(ell, g, rho)

    u0 = complex(wave(omega * r_start))
    du0 = complex(omega * mp.diff(wave, omega * r_start))

    def rhs(r, y):
        c = (omega ** 2 + 4 * mass * omega ** 2 / r
             + 12 * mass ** 2 * omega ** 2 / r ** 2 - ell * (ell + 1) / r ** 2)
        return [y[2], y[3], -c * y[0], -c * y[1]]

    r = np.asarray(r_axis)
    sol = solve_ivp(rhs, (r_start, r[-1]), [u0.real, u0.imag, du0.real,
                                             du0.imag],
                    method="DOP853", rtol=1e-13, atol=1e-14, t_eval=r)
    if not sol.success:
        raise RuntimeError("reference integration failed: " + sol.message)
    return tuple((sol.y[0] + 1j * sol.y[1]) / (omega * r))


def rel_err(got, ref, floor=1e-300):
    """|got - ref| / |ref|, with |ref| floored to keep the ratio finite."""
    return abs(complex(got) - complex(ref)) / max(abs(complex(ref)), floor)


def vec_rel_err(got, ref):
    """Error of a 2-vector relative to the reference vector's length."""
    num = ((got[0] - ref[0]) ** 2 + (got[1] - ref[1]) ** 2) ** 0.5
    return num / max((ref[0] ** 2 + ref[1] ** 2) ** 0.5, 1e-300)
