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

from dataclasses import dataclass

import numpy as np

from . import exact, multipole

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
    (exact._rho_theta) and rho s > 0. valid is
    est (1 + est) < FORM_TOL for the first omitted term est:
    gamma^2/(rho s) without backreaction, gamma^2 (1+gamma^2)/(2 (rho s)^2)
    with it, plus |gamma| (1+gamma^2)/(rho s)^2."""
    like = np.broadcast(rho, theta)
    rho, theta = exact._rho_theta(rho, theta, "(0, pi]")
    s = exact._s(theta)
    rs = rho * s
    if np.any(rs <= 0.0):
        raise ValueError("requires rho*s > 0, got rho*s = %r"
                         % float(rs[rs <= 0.0][0]))
    g = p.gamma
    log_rs = np.log(rs)
    psi_in = np.exp(1j * (rho * (1.0 - s) + g * log_rs))
    if backreaction:
        psi_in = psi_in * (1.0 - 1j * g ** 2 / rs)
    psi_scat = ((-g / rs) * multipole.phase_shift(0, g).factor
                * np.exp(1j * (rho - g * log_rs)))
    h = (1.0 + g * g) / rs
    est = (g * g * (0.5 * h if backreaction else 1.0) + abs(g) * h) / rs
    return tuple(exact._like(like, v) for v in (
        psi_in, psi_scat, est * (1.0 + est) < FORM_TOL))


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
    -gamma/(2 k sin^2(theta/2)) times the unit-modulus Gamma phase ratio."""
    theta_v = exact._within("theta", theta, "(0, pi]")
    out = (-p.gamma / (2.0 * p.k * np.sin(theta_v / 2.0) ** 2)
           * multipole.phase_shift(0, p.gamma).factor)
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
    the large-distance amplitude picture breaks down there)."""
    theta_v = exact._within("theta", theta, "(0, pi]")
    out = p.gamma ** 2 / (4.0 * p.k ** 2 * np.sin(theta_v / 2.0) ** 4)
    return exact._like(theta, out)


def born_amplitude_yukawa(p, theta, mu):
    """First Born approximation for the screened potential (A/r) e^{-mu r}:
    f_B = -2 gamma k / (q^2 + mu^2) with momentum transfer q = 2 k
    sin(theta/2). mu = 0 recovers the plain Rutherford modulus."""
    mu = exact._one("mu", exact._within("mu", mu, "[0, inf)"))
    q = 2.0 * p.k * np.sin(exact._within("theta", theta, "[0, pi]") / 2.0)
    denom = q ** 2 + mu ** 2
    if np.any(denom == 0.0):
        raise ValueError("Born amplitude diverges at theta = 0 with mu = 0")
    return exact._like(theta, -2.0 * p.gamma * p.k / denom + 0j)
