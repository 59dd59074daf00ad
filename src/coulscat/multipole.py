"""Partial-wave machinery: phase-shift factors, regular radial waves,
multipole reconstruction of the full solution, the divergent amplitude
series with its Cesaro regularization, and the convergent reduced series.

The amplitude series over Legendre polynomials does not converge for a
long-range 1/r potential; its partial sums oscillate with a growing
envelope. Everything here treats that honestly: partial sums are exposed
as-is, the Cesaro mean is a separate operation, and the reduced series
(which converges absolutely after multiplying by 1 - cos theta) is a third.
Each is a coefficient vector on phase_shift_sweep's factors
e^{2 i delta_ell} times one Legendre sum.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import exact, specfun


@dataclass(frozen=True)
class PhaseShiftFactor:
    """One partial wave's scattering factor e^{2 i delta} and the principal
    value of the shift delta itself."""
    factor: complex
    delta: float


def _wrap_angle(x):
    return (x + np.pi) % (2.0 * np.pi) - np.pi


def phase_shift(ell, gamma):
    """Coulomb phase shift of one partial wave, from the ratio
    Gamma(ell+1+i gamma)/Gamma(ell+1-i gamma) evaluated in log space."""
    ell, gamma = specfun._one("ell", ell), specfun._one("gamma", gamma)
    exact._order("ell", ell, "[0, inf)")
    exact._within("gamma", gamma, "(-inf, inf)")
    lg = specfun.log_gamma_complex(ell + 1.0 + 1j * gamma)
    factor = np.exp(lg - np.conj(lg))
    return PhaseShiftFactor(complex(factor), float(_wrap_angle(lg.imag)))


def phase_shift_sweep(ell_max, gamma):
    """All factors e^{2 i delta_ell} for ell = 0..ell_max in one pass,
    propagated in Python complex by the exact ratio
    (ell + i gamma)/(ell - i gamma) from the directly evaluated ell = 0
    seed: the one recurrence behind every amplitude series. Within 5e-13
    of mpmath for ell <= 2000, |gamma| <= 50, the log-gamma seed's error."""
    ell_max = int(specfun._one("ell_max",
                               exact._order("ell_max", ell_max, "[0, inf)")))
    g = specfun._one("gamma", exact._within("gamma", gamma, "(-inf, inf)"))
    factor = phase_shift(0, g).factor
    out = [factor]
    for ell in range(1, ell_max + 1):
        factor = factor * (ell + 1j * g) / (ell - 1j * g)
        out.append(factor)
    return np.array(out)


def coulomb_wave_regular(ell, gamma, rho):
    """Regular radial partial wave w_ell = (2 ell + 1) i^ell e^{i sigma_ell}
    F_ell(gamma, rho), sigma_ell = arg Gamma(ell + 1 + i gamma), normalized
    so that gamma = 0 reduces to (2 ell + 1) i^ell rho j_ell(rho).

    Evaluated directly for each element from the Kummer form, as exp of the
    summed logarithms of every rho- and ell-power and gamma factor, so large
    ell and rho cannot overflow on the way in; each distinct ell is one
    hyp1f1 call, which takes one (a, b). gamma is one value; ell (an int or
    an integer array) and rho broadcast against each other; rho = 0
    returns 0 exactly. Pinned to 40-digit mpmath for ell <= 300 out to
    rho = 1000 and at small rho.

    A value below float64's range is 0 or subnormal: the declared absolute
    tolerance is float64's smallest normal number, 2.2e-308. So
    (ell, gamma, rho) = (150, 1, 0.1) and (500, 1, 50) give exactly 0,
    where the true |w| are 5.5e-459 and 1.0e-433. Where the true value lies
    inside the range but its prefactor and its 1F1 factor do not (repulsive
    gamma past ~225, or rho^(ell+1) past it), raises ArithmeticError.

    The F_ell obey the three-term recurrence in ell stated in
    psi_multipole_sum, which builds a whole run ell = 0..ell_max from it
    (start ell_max + 30 + floor(rho + 4 sqrt(rho) + |gamma|)), scaled by
    the forward-axis sum rule, or by one call here where that sum cancels;
    that run is pinned to mpmath for ell <= 1000, rho <= 1200,
    |gamma| <= 20, and agrees with this path within 1e-12 of max |w| where
    both are compared (rho <= 10).
    """
    exact._order("ell", ell, "[0, inf)")
    gamma = specfun._one("gamma",
                         exact._within("gamma", gamma, "(-inf, inf)"))
    rho_v = exact._within("rho", rho, "[0, inf)")
    const = (specfun.log_gamma_complex(ell + 1.0 + 1j * gamma)
             - specfun.log_gamma_complex(2.0 * ell + 2.0)
             - 0.5 * np.pi * gamma + ell * np.log(2.0))
    nonzero = rho_v > 0.0
    safe_rho = np.where(nonzero, rho_v, 1.0)
    ells, z = np.broadcast_arrays(ell, 2j * safe_rho)
    kummer = np.empty(z.shape, dtype=np.complex128)
    for ell_i in np.unique(ells):
        at = ells == ell_i
        kummer[at] = specfun.hyp1f1(ell_i + 1.0 - 1j * gamma,
                                    2.0 * ell_i + 2.0, z[at])
    log_amp = const + (ell + 1.0) * np.log(safe_rho) - 1j * safe_rho
    exact._check_scale(log_amp, kummer, ell=ell, gamma=gamma, rho=rho_v)
    val = (2.0 * ell + 1.0) * (1j ** ell) * np.exp(log_amp) * kummer
    val = np.where(nonzero, val, 0.0 + 0.0j)
    return exact._like(np.broadcast(ell, rho), val)


def coulomb_wave_asymptotic(ell, gamma, rho):
    """Two-wave large-rho form of the regular partial wave: incoming and
    outgoing spherical exponentials with the log-distorted phase
    rho - gamma ln(2 rho), the outgoing one carrying e^{2 i delta_ell}."""
    ell = specfun._one("ell", ell)
    exact._order("ell", ell, "[0, inf)")
    gamma = specfun._one("gamma",
                         exact._within("gamma", gamma, "(-inf, inf)"))
    rho_v = exact._within("rho", rho, "(0, inf)")
    rho_c = rho_v - gamma * np.log(2.0 * rho_v)
    factor = phase_shift(ell, gamma).factor
    val = ((2.0 * ell + 1.0) / (2j * rho_v)
           * ((-1.0) ** (ell + 1) * np.exp(-1j * rho_c)
              + factor * np.exp(1j * rho_c)))
    return exact._like(rho, val)


# Extra ell above ell_max + rho + 4 sqrt(rho) + |gamma| where the downward
# sweep starts (see _coulomb_wave_sweep).
_SWEEP_MARGIN = 30
# Rescale exponent of the sweep: 2^830 is about 7e249.
_SWEEP_RESCALE = 830
# Largest rounding estimate 2^-53 cond at which the sum rule scales the
# sweep: the bound (of max |w|) that doubling the start margin is held to.
_SUM_RULE_TOL = 1e-14


def _coulomb_wave_sweep(ell_max, gamma, rho):
    """Every regular partial wave w_ell of coulomb_wave_regular,
    ell = 0..ell_max, at one rho > 0, by Miller's downward recurrence (see
    psi_multipole_sum), and est = 2^-53 cond, the rounding estimate of its
    forward-axis sum rule: cond = sum |t_ell| / |sum t_ell| over the
    unscaled waves t_ell up to the start L (fsum of each part). Where est
    <= _SUM_RULE_TOL the sum rule scales the waves, with no 1F1 call;
    elsewhere one coulomb_wave_regular call at ell* <= ell_max does.

    The running pair is multiplied by 2^-830 (about 1e-250, exact in
    binary) whenever a value passes 1e250, or 1e300/B where the bound B
    on the factor one step can grow a value by, about (2 L + 1) L (L + 1)
    /rho, passes 1e50 (rho below about 1e-45 at L = 41); each stored value
    keeps the rescale count at its step, so the whole sweep is O(L).
    Raises ArithmeticError where B overflows. The phases
    e^{i (sigma_ell - sigma_0)} keep their own cumprod, apart from
    phase_shift_sweep: the normalization absorbs sigma_0, and their squares,
    as e^{2 i delta_ell}, are 4.7e-14 from mpmath against about 1e-14 for
    that recurrence."""
    g2 = gamma * gamma
    top = ell_max + _SWEEP_MARGIN + int(rho + 4.0 * math.sqrt(rho) + abs(gamma))
    vals = [0.0] * (top + 1)
    rescales_at = [0] * (top + 1)
    rescales = 0
    f_up, f = 0.0, 1e-300
    root_up = math.sqrt((top + 1) ** 2 + g2)
    # a step's terms are at most bound times the larger of |f| and |f_up|,
    # so the pair is rescaled above limit: 1e250 unless rho is tiny
    bound = ((2 * top + 1) * (abs(gamma) + top * (top + 1) / rho)
             + top * root_up)
    if not bound < math.inf:
        raise ArithmeticError(
            "float64 cannot form the ell-sweep at ell_max = %r, gamma = %r, "
            "rho = %r: its step bound (2 L + 1) L (L + 1)/rho overflows"
            % (ell_max, gamma, rho))
    limit = min(1e250, 1e300 / bound)
    for ell in range(top, 0, -1):
        vals[ell], rescales_at[ell] = f, rescales
        root = math.sqrt(ell * ell + g2)
        f_up, f = f, (((2 * ell + 1) * (gamma + ell * (ell + 1) / rho) * f
                       - ell * root_up * f_up) / ((ell + 1) * root))
        root_up = root
        while abs(f) > limit:
            f_up = math.ldexp(f_up, -_SWEEP_RESCALE)
            f = math.ldexp(f, -_SWEEP_RESCALE)
            rescales += 1
    vals[0], rescales_at[0] = f, rescales
    # all values on the scale of the last rescale; what underflows here is
    # below 2^-830 of the largest value
    shift = _SWEEP_RESCALE * (rescales - np.array(rescales_at))
    f_rel = np.ldexp(np.array(vals), -shift)
    ells = np.arange(top + 1)
    phase = np.ones(top + 1, dtype=np.complex128)
    step = ells[1:] + 1j * gamma
    phase[1:] = np.cumprod(step / np.abs(step))
    phase *= (2.0 * ells + 1.0) * np.array([1.0, 1j, -1.0, -1j])[ells % 4]
    t = phase * f_rel
    s = complex(math.fsum(t.real), math.fsum(t.imag))
    est = 2.0 ** -53 * np.abs(t).sum() / abs(s) if s else math.inf
    if est <= _SUM_RULE_TOL:
        axis = rho * cmath.exp(1j * rho - 0.5 * math.pi * gamma
                               + specfun.log_gamma_complex(1.0 + 1j * gamma))
        return t[:ell_max + 1] * (axis / s), est
    phase, f_rel = phase[:ell_max + 1], f_rel[:ell_max + 1]
    star = int(np.argmax(np.abs(f_rel)))
    w_star = coulomb_wave_regular(star, gamma, rho)
    return phase * (f_rel * (w_star / (phase[star] * f_rel[star]))), est


def psi_multipole_sum(p, pt, ell_max):
    """Partial-wave reconstruction of the full field: sum over ell of
    (radial wave / rho) P_ell(cos theta), accumulated with math.fsum so
    results do not depend on summation luck.

    The radial waves cost O(ell_max + rho) scalar steps and one log-gamma,
    with no 1F1 anchor chain where the sum rule below holds. F_ell is the
    minimal solution of the Coulomb ell-recurrence
    (Abramowitz & Stegun 14.2.3; Thompson & Barnett, J. Comput. Phys. 64
    (1986) 490)
        (ell+1) sqrt(ell^2 + gamma^2) F_{ell-1}
            = (2 ell + 1) (gamma + ell (ell+1)/rho) F_ell
              - ell sqrt((ell+1)^2 + gamma^2) F_{ell+1},
    so it is swept downward from L = ell_max + 30
    + floor(rho + 4 sqrt(rho) + |gamma|), above both ell_max and the turning
    point, with seeds F_{L+1} = 0, F_L = 1e-300, and
    e^{i sigma_ell} = e^{i sigma_{ell-1}} (ell + i gamma)/|ell + i gamma|
    gives the phases. The forward axis fixes the scale: there P_ell(1) = 1
    and M = 1, so the waves up to L sum to rho psi(rho, 0)
    = rho e^{i rho} e^{-pi gamma/2} Gamma(1 + i gamma). Where that sum
    cancels (repulsive gamma, where psi(rho, 0) ~ e^{-pi gamma}; its
    rounding estimate 2^-53 sum |w_ell| / |sum w_ell| above 1e-14), one
    coulomb_wave_regular call at ell* = argmax |F_ell| fixes it instead.

    Pinned to 40-digit mpmath for ell <= 1000, 1e-3 <= rho <= 1200,
    |gamma| <= 20: each wave within 1e-11 relative where |w_ell| > 1e-280
    (smaller ones, down to below the float64 range, within 1e-280
    absolute); within 1e-12 of max |w| of the per-ell direct path at
    rho <= 10; moved by under 1e-14 of max |w| when the start margin 30 is
    doubled. (gamma, rho, theta, ell_max) = (1, 400, 1, 600) matches
    psi_exact to 1e-12. Raises ArithmeticError at rho so small that
    (2 L + 1) L (L + 1)/rho overflows float64 (below about 1e-303 at
    ell_max = 10).
    """
    exact._one_point(pt)
    ell_max = int(specfun._one("ell_max",
                               exact._order("ell_max", ell_max, "[0, inf)")))
    exact._within("rho", pt.rho, "(0, inf)")
    radial, _ = _coulomb_wave_sweep(ell_max, p.gamma, pt.rho)
    terms = radial / pt.rho * _legendre_column(np.cos(pt.theta), ell_max)
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def _amplitude_terms(p, ell_max):
    """Terms t_ell = ((2 ell + 1)/(2 i k)) (e^{2 i delta_ell} - 1)."""
    ells = np.arange(ell_max + 1)
    return ((2.0 * ells + 1.0) / (2j * p.k)
            * (phase_shift_sweep(ell_max, p.gamma) - 1.0))


def _legendre_rows(x, ell_max):
    """Yield P_0(x), ..., P_{ell_max}(x) by the upward Bonnet recurrence
    (n+1) P_{n+1} = (2n+1) x P_n - n P_{n-1}. x is a Python float or a
    float64 array: the same operations in the same order, so the same
    bits."""
    p_prev, p = 1.0, x
    yield p_prev
    if ell_max >= 1:
        yield p
    for n in range(1, ell_max):
        p_prev, p = p, ((2 * n + 1) * x * p - n * p_prev) / (n + 1)
        yield p


def _legendre_column(x, ell_max):
    """P_0(x), ..., P_{ell_max}(x) at one x, run on Python floats."""
    return np.fromiter(_legendre_rows(float(x), ell_max), np.float64, ell_max + 1)


def _legendre_sum(coeffs, x):
    """sum of coeffs[ell] P_ell(x), streamed over _legendre_rows. x may be
    0-d: its complex-by-real products round as an array's do."""
    acc = np.zeros_like(x, dtype=np.complex128)
    for c, p_ell in zip(coeffs, _legendre_rows(x, len(coeffs) - 1)):
        acc = acc + c * p_ell
    return acc


def f_series_partial_sweep(p, theta, ell_max):
    """All partial sums of the divergent amplitude series up to ell_max at
    one angle: entry L holds sum over ell <= L of
    ((2 ell + 1)/(2 i k)) (e^{2 i delta_ell} - 1) P_ell(cos theta)."""
    ell_max = int(specfun._one("ell_max",
                               exact._order("ell_max", ell_max, "[0, inf)")))
    theta = specfun._one("theta", exact._within("theta", theta, "(0, pi]"))
    legendre = _legendre_column(np.cos(theta), ell_max)
    return np.cumsum(_amplitude_terms(p, ell_max) * legendre)


def f_series_cesaro(p, theta, n):
    """Cesaro (C, 1) mean of the amplitude series through term n, the mean
    of its partial sums S_0 .. S_n, as the one weighted sum over ell <= n
    of (1 - ell/(n + 1)) t_ell P_ell(cos theta), t_ell the terms of
    f_series_partial_sweep.

    For 0 < theta < pi the mean converges (slowly, and non-uniformly as
    theta approaches pi) toward the closed-form amplitude. At theta = pi
    the terms grow linearly in ell, the series is not (C, 1)-summable, and
    the mean oscillates at O(1) for every n; it is still returned there.
    theta may be a scalar or an array in (0, pi]."""
    n = int(specfun._one("n", exact._order("n", n, "[1, inf)")))
    x = np.cos(exact._within("theta", theta, "(0, pi]")
               .reshape(np.shape(theta)))
    weights = (n + 1.0 - np.arange(n + 1)) / (n + 1.0)
    value = _legendre_sum((weights * _amplitude_terms(p, n)).tolist(), x)
    return exact._like(theta, value)


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
    ell_max = int(specfun._one("ell_max",
                               exact._order("ell_max", ell_max, "[0, inf)")))
    x = np.cos(exact._within("theta", theta, "(0, pi)")
               .reshape(np.shape(theta)))
    g = p.gamma
    if g == 0.0:
        return exact._like(theta, np.zeros_like(x, dtype=np.complex128))
    s = 1.0 - x
    exact._within("s", s, "(0, 2]")
    coeffs = [f * (ell / (ell + 1j * g) - (ell + 1.0) / (ell + 1.0 - 1j * g))
              for ell, f in enumerate(phase_shift_sweep(ell_max, g).tolist())]
    return exact._like(theta, (g / p.k) * _legendre_sum(coeffs, x) / s)
