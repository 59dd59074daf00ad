"""Partial-wave machinery: phase-shift factors, regular radial waves,
multipole reconstruction of the full solution, the divergent amplitude
series with its Cesaro regularization, and the convergent reduced series.

The amplitude series over Legendre polynomials does not converge for a
long-range 1/r potential; its partial sums oscillate with a growing
envelope. Everything here treats that honestly: partial sums are exposed
as-is, the Cesaro mean is a separate operation, and the reduced series
(which converges absolutely after multiplying by 1 - cos theta) is a third.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotic, specfun


@dataclass(frozen=True)
class PhaseShiftFactor:
    """One partial wave's scattering factor e^{2 i delta} and the principal
    value of the shift delta itself."""
    ell: int
    gamma: float
    factor: complex
    delta: float


def _wrap_angle(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def phase_shift(ell, gamma):
    """Coulomb phase shift of one partial wave, from the ratio
    Gamma(ell+1+i gamma)/Gamma(ell+1-i gamma) evaluated in log space."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    lg = specfun.log_gamma_complex(ell + 1.0 + 1j * gamma)
    factor = np.exp(lg - np.conj(lg))
    return PhaseShiftFactor(int(ell), float(gamma), complex(factor),
                            float(_wrap_angle(lg.imag)))


def phase_shift_sweep(ell_max, gamma):
    """All factors e^{2 i delta_ell} for ell = 0..ell_max in one pass,
    propagated by the exact ratio (ell+i gamma)/(ell-i gamma) from the
    directly evaluated ell = 0 seed."""
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    out = np.empty(ell_max + 1, dtype=np.complex128)
    out[0] = phase_shift(0, gamma).factor
    for ell in range(1, ell_max + 1):
        out[ell] = out[ell - 1] * (ell + 1j * gamma) / (ell - 1j * gamma)
    return out


def phase_shift_recurrence_check(ell, gamma):
    """Largest deviation between the directly computed factors at ell-1 and
    ell+1 and the ones propagated from ell by the neighbor ratios."""
    if ell < 1:
        raise ValueError("needs ell >= 1 so both neighbors exist")
    f = phase_shift(ell, gamma).factor
    up = f * (ell + 1 + 1j * gamma) / (ell + 1 - 1j * gamma)
    down = f * (ell - 1j * gamma) / (ell + 1j * gamma)
    dev_up = abs(up - phase_shift(ell + 1, gamma).factor)
    dev_down = abs(down - phase_shift(ell - 1, gamma).factor)
    return float(max(dev_up, dev_down))


def coulomb_wave_regular(ell, gamma, rho):
    """Regular radial partial wave, normalized so that gamma = 0 reduces to
    (2 ell + 1) i^ell rho j_ell(rho).

    Evaluated as exp of the summed logarithms of every rho- and ell-power
    and gamma factor, so large ell and rho cannot overflow on the way in.
    ell (an int or an integer array) and rho broadcast against each other;
    rho = 0 returns 0 exactly.
    """
    if np.any(np.asarray(ell) < 0):
        raise ValueError("ell must be >= 0")
    rho_arr = np.asarray(rho, dtype=np.float64)
    if np.any(rho_arr < 0.0):
        raise ValueError("rho must be >= 0")
    const = (specfun.log_gamma_complex(ell + 1.0 + 1j * gamma)
             - specfun.log_gamma_complex(2.0 * ell + 2.0)
             - 0.5 * np.pi * gamma + ell * np.log(2.0))
    nonzero = rho_arr > 0.0
    safe_rho = np.where(nonzero, rho_arr, 1.0)
    kummer = specfun.hyp1f1(ell + 1.0 - 1j * gamma, 2.0 * ell + 2.0,
                            2j * safe_rho)
    log_amp = const + (ell + 1.0) * np.log(safe_rho) - 1j * safe_rho
    val = (2.0 * ell + 1.0) * (1j ** ell) * np.exp(log_amp) * kummer
    val = np.where(nonzero, val, 0.0 + 0.0j)
    return complex(val) if val.ndim == 0 else val


def coulomb_wave_asymptotic(ell, gamma, rho):
    """Two-wave large-rho form of the regular partial wave: incoming and
    outgoing spherical exponentials with the log-distorted phase
    rho - gamma ln(2 rho), the outgoing one carrying e^{2 i delta_ell}."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    rho_arr = np.asarray(rho, dtype=np.float64)
    if np.any(rho_arr <= 0.0):
        raise ValueError("rho must be > 0")
    rho_c = rho_arr - gamma * np.log(2.0 * rho_arr)
    factor = phase_shift(ell, gamma).factor
    val = ((2.0 * ell + 1.0) / (2j * rho_arr)
           * ((-1.0) ** (ell + 1) * np.exp(-1j * rho_c)
              + factor * np.exp(1j * rho_c)))
    return complex(val) if rho_arr.ndim == 0 else val


def psi_multipole_sum(p, pt, ell_max):
    """Partial-wave reconstruction of the full field: sum over ell of
    (radial wave / rho) P_ell(cos theta), accumulated with math.fsum so
    results do not depend on summation luck."""
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    if pt.rho <= 0.0:
        raise ValueError("rho must be > 0")
    radial = coulomb_wave_regular(np.arange(ell_max + 1), p.gamma, pt.rho)
    terms = radial / pt.rho * specfun.legendre_sweep(ell_max, np.cos(pt.theta))
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def f_series_partial_sweep(p, theta, ell_max):
    """All partial sums of the divergent amplitude series up to ell_max at
    one angle: entry L holds sum over ell <= L of
    ((2 ell + 1)/(2 i k)) (e^{2 i delta_ell} - 1) P_ell(cos theta)."""
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    if not 0.0 < theta <= np.pi:
        raise ValueError("theta must lie in (0, pi]")
    factors = phase_shift_sweep(ell_max, p.gamma)
    legendre = specfun.legendre_sweep(ell_max, np.cos(theta))
    ells = np.arange(ell_max + 1)
    terms = (2.0 * ells + 1.0) / (2j * p.k) * (factors - 1.0) * legendre
    return np.cumsum(terms)


def f_series_partial_sum(p, theta, ell_max):
    """Single partial sum of the divergent amplitude series."""
    return complex(f_series_partial_sweep(p, theta, ell_max)[-1])


def _legendre_phase_terms(x, gamma, ell_max):
    """Yield (ell, P_ell(x), e^{2 i delta_ell}) for ell = 0 .. ell_max,
    streamed: two Legendre rows by the Bonnet recurrence and one Python
    complex factor propagated by the exact ratio
    (ell + 1 + i gamma)/(ell + 1 - i gamma) from the ell = 0 seed."""
    factor = phase_shift(0, gamma).factor
    p_prev = np.ones_like(x)
    p_curr = x.copy()
    for ell in range(ell_max + 1):
        if ell == 0:
            p_ell = p_prev
        elif ell == 1:
            p_ell = p_curr
        else:
            p_next = ((2.0 * ell - 1.0) * x * p_curr
                      - (ell - 1.0) * p_prev) / ell
            p_prev, p_curr = p_curr, p_next
            p_ell = p_curr
        yield ell, p_ell, factor
        factor = factor * (ell + 1 + 1j * gamma) / (ell + 1 - 1j * gamma)


@dataclass
class CesaroState:
    """Running (C, 1) mean: feed terms one at a time, read off the average
    of all ordinary partial sums so far. After n+1 terms the value equals
    the mean of partial sums sigma_0 .. sigma_n."""
    partial: complex = 0.0 + 0.0j
    total: complex = 0.0 + 0.0j
    count: int = 0

    def add(self, term):
        self.partial += term
        self.total += self.partial
        self.count += 1

    @property
    def value(self):
        if self.count == 0:
            raise ValueError("no terms added yet")
        return self.total / self.count


def f_series_cesaro(p, theta, n):
    """Cesaro (C, 1) mean of the amplitude series through term n.

    For 0 < theta < pi the mean converges (slowly, and non-uniformly as
    theta approaches pi) toward the closed-form amplitude. At theta = pi
    the terms grow linearly in ell, the series is not (C, 1)-summable, and
    the mean oscillates at O(1) for every n; it is still returned there.
    theta may be a scalar or an array in (0, pi]; the sweep is a single
    incremental pass sharing one Legendre recurrence."""
    if n < 1:
        raise ValueError("n must be >= 1")
    theta_arr = np.asarray(theta, dtype=np.float64)
    if np.any(theta_arr <= 0.0) or np.any(theta_arr > np.pi):
        raise ValueError("theta must lie in (0, pi]")
    x = np.cos(theta_arr)
    sigma = np.zeros_like(x, dtype=np.complex128)
    total = np.zeros_like(x, dtype=np.complex128)
    for ell, p_ell, factor in _legendre_phase_terms(x, p.gamma, n):
        sigma = sigma + (2.0 * ell + 1.0) / (2j * p.k) * (factor - 1.0) * p_ell
        total = total + sigma
    value = total / (n + 1)
    return complex(value) if theta_arr.ndim == 0 else value


def f_reduced_series(p, theta, ell_max):
    """Scattering amplitude f recovered from the convergent reduced series:
    (gamma/k) sum of e^{2 i delta_ell} [ell/(ell + i gamma)
    - (ell+1)/(ell+1 - i gamma)] P_ell(cos theta), divided back by
    (1 - cos theta). The series itself converges absolutely because the
    bracket is O(1/ell); no regularization involved.

    theta may be a scalar or an array, strictly inside (0, pi): at pi the
    series is only conditionally convergent and is not offered. gamma = 0
    returns 0 identically (nothing is scattered).
    """
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    theta_arr = np.asarray(theta, dtype=np.float64)
    if np.any(theta_arr <= 0.0) or np.any(theta_arr >= np.pi):
        raise ValueError("theta must lie strictly inside (0, pi)")
    g = p.gamma
    if g == 0.0:
        zero = np.zeros_like(theta_arr, dtype=np.complex128)
        return 0.0 + 0.0j if theta_arr.ndim == 0 else zero
    x = np.cos(theta_arr)
    acc = np.zeros_like(x, dtype=np.complex128)
    for ell, p_ell, factor in _legendre_phase_terms(x, g, ell_max):
        bracket = (ell / (ell + 1j * g)) - (ell + 1.0) / (ell + 1.0 - 1j * g)
        acc = acc + factor * bracket * p_ell
    value = (g / p.k) * acc / (1.0 - x)
    return complex(value) if theta_arr.ndim == 0 else value


def f_closed_form(p, theta):
    """Closed form of the scattering amplitude (the value the regularized
    series converge to): -(gamma/(k (1 - cos theta))) times the Gamma phase
    ratio times e^{-i gamma ln((1 - cos theta)/2)}."""
    return asymptotic.rutherford_amplitude_phase_separated(p, theta)


def legendre_power_law_coeff(a, ell):
    """Legendre coefficient c_ell of the power law (1 - x)^(a-1) on
    (-1, 1), via the pole-free product form
    2^(a-1) (2 ell + 1) / a * prod_{j=1..ell} (j - a)/(j + a).

    Defined for Re(a) > 0 only; at Re(a) <= 0 the expansion integral does
    not exist and a domain error is raised.
    """
    a = complex(a)
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if a.real <= 0.0:
        raise ValueError("requires Re(a) > 0")
    coeff = 2.0 ** (a - 1.0) * (2.0 * ell + 1.0) / a
    for j in range(1, ell + 1):
        coeff *= (j - a) / (j + a)
    return complex(coeff)


@dataclass(frozen=True)
class PlaneWavePartial:
    exact: complex
    asymptotic: complex


def plane_wave_partial(ell, rho):
    """One partial wave of the free plane wave: the exact Bessel form
    i^ell (2 ell + 1) j_ell(rho) next to its large-rho two-exponential
    approximation. Useful for judging where 'asymptotic' starts."""
    if ell < 0:
        raise ValueError("ell must be >= 0")
    if rho <= 0.0:
        raise ValueError("rho must be > 0")
    ex = (1j ** ell) * (2.0 * ell + 1.0) * specfun.spherical_bessel_j(ell, rho)
    asym = ((2.0 * ell + 1.0) / (2j * rho)
            * (np.exp(1j * rho) + (-1.0) ** (ell + 1) * np.exp(-1j * rho)))
    return PlaneWavePartial(complex(ex), complex(asym))
