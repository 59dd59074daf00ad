"""Large-(rho s) asymptotics: distorted incoming plane wave, scattered
spherical wave, scattering amplitudes, Rutherford and Born/Yukawa
cross-sections.

The split into incoming plus scattered exists only away from the forward
axis; requesting it at theta = 0 raises, because there the decomposition
genuinely does not exist (the exact solution stays finite while this
approximate form diverges). Elsewhere it truncates the large-|z| Kummer
series of the exact field; valid flags est (1 + est) < FORM_TOL, est its
first omitted term (with backreaction at gamma = 1: rho s > 5.72).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import exact, multipole, specfun

# A large-distance form (this split, classical's two-wave partial wave) is
# trusted where est (1 + est) < FORM_TOL, est its first omitted term.
FORM_TOL = 0.1


@dataclass(frozen=True)
class AsymptoticSplit:
    """Incoming and scattered pieces of the large-(rho s) solution, and
    whether its first omitted term puts it within FORM_TOL of psi (see
    psi_asymptotic_grid). Fields may hold scalars or arrays; total is their
    sum by construction."""
    psi_in: complex
    psi_scat: complex
    valid: bool

    @property
    def total(self):
        return self.psi_in + self.psi_scat


def psi_asymptotic_grid(p, rho, theta, backreaction=True):
    """Asymptotic split on broadcastable arrays; see psi_asymptotic. Raises
    unless theta lies in (0, pi], rho in [0, inf) with rho s finite
    (exact._rho_theta) and rho s > 0, and raises ArithmeticError where
    float64 cannot form psi_in or psi_scat (exact._check_closed, rho s the
    divisor), as below rho s ~ 1e-308 for gamma of order 1. valid is
    est (1 + est) < FORM_TOL for the first omitted term est:
    gamma^2/(rho s) without backreaction, gamma^2 (1+gamma^2)/(2 (rho s)^2)
    with it, plus |gamma| (1+gamma^2)/(rho s)^2; 0 where est overflows."""
    like = np.broadcast(rho, theta)
    rho, theta = exact._rho_theta(rho, theta, "(0, pi]")
    s = exact._s(theta)
    rs = rho * s
    if np.any(rs <= 0.0):
        raise ValueError("requires rho*s > 0, got rho*s = %r"
                         % float(rs[rs <= 0.0][0]))
    g = p.gamma
    factor = multipole.phase_shift(0, g).factor
    with np.errstate(all="ignore"):
        log_rs = np.log(rs)
        psi_in = np.exp(1j * (rho * (1.0 - s) + g * log_rs))
        if backreaction:
            psi_in = psi_in * (1.0 - 1j * g ** 2 / rs)
        psi_scat = (-g / rs) * factor * np.exp(1j * (rho - g * log_rs))
        h = (1.0 + g * g) / rs
        est = (g * g * (0.5 * h if backreaction else 1.0) + abs(g) * h) / rs
        valid = est * (1.0 + est) < FORM_TOL  # an inf or NaN est fails
    exact._check_closed([psi_in, psi_scat], [rs], rho=rho, theta=theta)
    return tuple(exact._like(like, v) for v in (psi_in, psi_scat, valid))


def psi_asymptotic(p, pt, backreaction=True):
    """Distorted incoming plane wave plus distorted spherical wave, at one
    site or at a FieldPoint of arrays (then a split of arrays).

    With backreaction on, the incoming wave carries the (1 - i gamma^2/rho s)
    amplitude correction; off, it is the phase-distorted wave alone.
    """
    return AsymptoticSplit(*psi_asymptotic_grid(p, pt.rho, pt.theta,
                                                backreaction=backreaction))


def rutherford_amplitude(p, theta):
    """Scattering amplitude multiplying the distorted spherical wave:
    -gamma/(2 k sin^2(theta/2)) times the unit-modulus Gamma phase ratio.
    Raises ArithmeticError where float64 cannot form it
    (exact._check_closed): below theta ~ 3e-154 for gamma/k of order 1."""
    theta_v = exact._within("theta", theta, "(0, pi]")
    factor = multipole.phase_shift(0, p.gamma).factor
    with np.errstate(all="ignore"):
        sin2 = np.sin(theta_v / 2.0) ** 2
        out = -p.gamma / (2.0 * p.k * sin2) * factor
    exact._check_closed(out, [sin2], theta=theta_v)
    return exact._like(theta, out)


def rutherford_amplitude_phase_separated(p, theta):
    """The amplitude with the angle-dependent logarithmic phase factored in
    explicitly: f = f_R * e^{-i gamma ln(s/2)}. Same modulus as f_R."""
    theta_v = exact._within("theta", theta, "(0, pi]")
    s = exact._within("s", exact._s(theta_v), "(0, 2]")
    out = rutherford_amplitude(p, theta_v) * np.exp(-1j * p.gamma * np.log(s / 2.0))
    return exact._like(theta, out)


def differential_cross_section(p, theta):
    """dSigma/dOmega = gamma^2 / (4 k^2 sin^4(theta/2)), diverging as
    theta^-4 toward the forward axis (hence theta = 0 is a domain error:
    the large-distance amplitude picture breaks down there). Raises
    ArithmeticError where float64 cannot form it (exact._check_closed):
    below theta ~ 3e-77 for gamma/k of order 1."""
    theta_v = exact._within("theta", theta, "(0, pi]")
    with np.errstate(all="ignore"):
        sin4 = np.sin(theta_v / 2.0) ** 4
        out = p.gamma ** 2 / (4.0 * p.k ** 2 * sin4)
    exact._check_closed(out, [sin4], theta=theta_v)
    return exact._like(theta, out)


def born_amplitude_yukawa(p, theta, mu):
    """First Born approximation for the screened potential (A/r) e^{-mu r}:
    f_B = -2 gamma k / (q^2 + mu^2) with momentum transfer q = 2 k
    sin(theta/2). mu = 0 recovers the plain Rutherford modulus. Where this
    plain form leaves float64's range on the way (2 gamma k or q^2 + mu^2
    overflows, or q^2 + mu^2 falls below the smallest normal number), f_B
    is the same quotient of power-of-two scaled terms: a value below the
    range is then 0 or subnormal, and one above it raises ArithmeticError
    (exact._check_closed)."""
    mu = specfun._one("mu", exact._within("mu", mu, "[0, inf)"))
    theta_v = exact._within("theta", theta, "[0, pi]")
    if mu == 0.0 and np.any(theta_v == 0.0):
        raise ValueError("Born amplitude diverges at theta = 0 with mu = 0")
    with np.errstate(all="ignore"):
        # np.float64's ** is C pow, as Python's is, but past float64's range
        # gives inf where Python's raises OverflowError
        denom = (2.0 * p.k * np.sin(theta_v / 2.0)) ** 2 + np.float64(mu) ** 2
        out = -2.0 * p.gamma * p.k / denom
    lost = ~(np.isfinite(out) & (exact._TINY <= denom) & (denom < np.inf))
    if lost.any():
        # -gamma k / (2 ((k s)^2 + (mu/2)^2)), s = sin(theta/2), from the
        # mantissas and exponents of gamma, k, s and mu, over 2^(2 e) with e
        # the larger exponent of k s and mu/2 (of the one that is nonzero)
        ms, es = np.frexp(np.sin(theta_v[lost] / 2.0))
        (mg, eg), (mk, ek), (mm, em) = map(math.frexp, (p.gamma, p.k, mu))
        e = np.where(ms == 0.0, em - 1, ek + es if mm == 0.0
                     else np.maximum(ek + es, em - 1))
        d = (np.ldexp(mk * ms, ek + es - e) ** 2
             + np.ldexp(mm, em - 1 - e) ** 2)
        with np.errstate(over="ignore"):
            out[lost] = np.ldexp(-mg * mk / (2.0 * d), eg + ek - 2 * e)
    exact._check_closed(out, (), theta=theta_v, mu=mu)
    return exact._like(theta, out + 0j)
