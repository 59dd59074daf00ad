"""The exact Rutherford scattering wavefunction and its residual check.

Natural units hbar = m = 1 throughout: the interaction strength gamma and
the wavenumber k are the only physical parameters, and field positions are
the dimensionless (rho = k r, theta).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import specfun


@dataclass(frozen=True)
class ScatteringParams:
    """Interaction strength gamma (positive repulsive, negative attractive)
    and wavenumber k > 0."""
    gamma: float
    k: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.gamma):
            raise ValueError("gamma must be finite")
        if not (self.k > 0 and np.isfinite(self.k)):
            raise ValueError("k must be positive and finite")


@dataclass(frozen=True)
class FieldPoint:
    """Evaluation site (rho = k r, polar angle theta)."""
    rho: float
    theta: float

    def __post_init__(self):
        if not (self.rho >= 0 and np.isfinite(self.rho)):
            raise ValueError("rho must be >= 0 and finite")
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError("theta must lie in [0, pi]")

    @property
    def s(self):
        """s = 1 - cos(theta), in [0, 2]."""
        return 1.0 - np.cos(self.theta)


def _field(p, rho, theta, kummer):
    """The exact solution e^{i rho (1-s)} e^{-pi gamma/2} Gamma(1 + i gamma)
    M(-i gamma, 1, i rho s) on broadcastable arrays of (rho, theta), with
    the Kummer function M evaluated by kummer(a, b, z): hyp1f1 or one of
    its two branch bodies on _entry."""
    rho = np.asarray(rho, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    s = 1.0 - np.cos(theta)
    g = p.gamma
    pref = np.exp(1j * rho * (1.0 - s) - 0.5 * np.pi * g
                  + specfun.log_gamma_complex(1.0 + 1j * g))
    return pref * kummer(-1j * g, 1.0, 1j * rho * s)


def psi_exact_grid(p, rho, theta):
    """Exact wavefunction on broadcastable arrays of (rho, theta)."""
    return _field(p, rho, theta, specfun.hyp1f1)


def psi_exact(p, pt):
    """Exact solution at one field point, finite everywhere including the
    forward axis (theta = 0 enters through s = 0 with no limit-taking).
    Scalar numpy arithmetic rounds differently, so it is a 1-element grid."""
    return complex(psi_exact_grid(p, [pt.rho], [pt.theta])[0])


def schrodinger_residual(p, pt, h):
    """Normalized residual |(d^2_rho + (2/rho) d_rho + Lap_ang/rho^2 + 1
    - 2 gamma/rho) psi| / |psi| by central differences of psi_exact.

    The polar step is h / max(1, rho |sin theta|): the angular oscillation
    rate grows like rho sin(theta), and an unscaled step would leave
    truncation error far above the roundoff floor at rho ~ 20.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if pt.rho <= h:
        raise ValueError("requires rho > h")
    if h * max(1.0, abs(p.gamma) / pt.rho) >= 0.1:
        raise ValueError("step h too large to resolve the local wavelength")
    rho, theta = pt.rho, pt.theta
    ht = h / max(1.0, rho * abs(np.sin(theta)))
    if theta - ht < 0.0 or theta + ht > np.pi:
        raise ValueError("theta too close to the axis for the angular stencil")

    # the whole stencil on the center's 1F1 branch: a branch switch inside
    # it would put the two branches' difference into the second differences
    if rho * (1.0 - np.cos(theta)) <= specfun.series_radius(-1j * p.gamma):
        branch = specfun._continuation
    else:
        branch = specfun._asymptotic
    rhos = np.array([rho, rho - h, rho + h, rho, rho])
    thetas = np.array([theta, theta, theta, theta - ht, theta + ht])
    f = _field(p, rhos, thetas, functools.partial(specfun._entry, branch))
    c, rm, rp, tm, tp = f

    d2_rho = (rp - 2.0 * c + rm) / h ** 2
    d_rho = (rp - rm) / (2.0 * h)
    d2_theta = (tp - 2.0 * c + tm) / ht ** 2
    d_theta = (tp - tm) / (2.0 * ht)
    lap_ang = d2_theta + d_theta / np.tan(theta)
    lhs = (d2_rho + 2.0 / rho * d_rho + lap_ang / rho ** 2
           + (1.0 - 2.0 * p.gamma / rho) * c)
    return float(abs(lhs) / abs(c))
