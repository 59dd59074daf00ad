"""The exact Rutherford scattering wavefunction and its residual check.

Natural units hbar = m = 1 throughout: the interaction strength gamma and
the wavenumber k are the only physical parameters, and field positions are
the dimensionless (rho = k r, theta).
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import specfun

# natural logs of float64's smallest normal number and of its largest number
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))
_LOG_HUGE = float(np.log(np.finfo(np.float64).max))


@dataclass(frozen=True)
class ScatteringParams:
    """Interaction strength gamma (positive repulsive, negative attractive)
    and wavenumber k > 0."""
    gamma: float
    k: float = 1.0

    def __post_init__(self):
        # .item(): one value each (an array of several raises)
        _within("gamma", self.gamma, "(-inf, inf)").item()
        _within("k", self.k, "(0, inf)").item()


@dataclass(frozen=True)
class FieldPoint:
    """Evaluation site (rho = k r, polar angle theta)."""
    rho: float
    theta: float

    def __post_init__(self):
        # plain comparisons (a third of a _within call), in its words
        if not (self.rho >= 0 and np.isfinite(self.rho)):
            raise ValueError("rho must lie in [0, inf), got rho = %r"
                             % float(self.rho))
        if not (0.0 <= self.theta <= np.pi):
            raise ValueError("theta must lie in [0, pi], got theta = %r"
                             % float(self.theta))

    @property
    def s(self):
        """s = 1 - cos(theta), in [0, 2]."""
        return 1.0 - np.cos(self.theta)


def _field(p, rho, theta, kummer):
    """The exact solution e^{i rho (1-s)} e^{-pi gamma/2} Gamma(1 + i gamma)
    M(-i gamma, 1, i rho s) on broadcastable float64 arrays of (rho, theta),
    with the Kummer function M evaluated by kummer(a, b, z): hyp1f1, one of
    its two branch bodies on _entry, or the dM/dz of _gradient."""
    s = 1.0 - np.cos(theta)
    g = p.gamma
    log_pref = (1j * rho * (1.0 - s) - 0.5 * np.pi * g
                + specfun.log_gamma_complex(1.0 + 1j * g))
    m = kummer(-1j * g, 1.0, 1j * rho * s)
    _check_scale(log_pref, m, g)
    return np.exp(log_pref) * m


def _check_scale(log_pref, m, gamma):
    """Raises an ArithmeticError naming gamma where float64 cannot form
    e^{log_pref} m: m is inf or NaN, e^{log_pref} overflows, or it falls
    below the smallest normal number while the true e^{Re log_pref} |m| lies
    inside the normal range (past repulsive gamma ~ 225 the prefactor falls
    like e^{-pi gamma} and M grows like its inverse). A true value below the
    range is formed as it comes, within an absolute tolerance of 2.2e-308."""
    r = log_pref.real
    # initial=0 (inside the range): an empty batch passes
    if (np.isfinite(m).all() and _LOG_TINY <= r.min(initial=0.0)
            and r.max(initial=0.0) <= _LOG_HUGE):
        return
    with np.errstate(divide="ignore"):
        lost = (r < _LOG_TINY) & (r + np.log(np.abs(m)) >= _LOG_TINY)
    if lost.any() or r.max() > _LOG_HUGE or not np.isfinite(m).all():
        raise ArithmeticError(
            "float64 cannot form this value at gamma = %s: its prefactor and "
            "its 1F1 factor leave float64's normal range in opposite "
            "directions" % np.asarray(gamma))


def _within(name, values, bound):
    """values as a float64 array of at least one dimension, or a ValueError
    naming the first value outside bound, a text such as "(0, pi]" or
    "[0, inf)" (an inside test, which NaN fails). A scalar becomes one
    element: numpy's 0-d arithmetic rounds complex products differently
    from its array loops, so a scalar call computes as its element of an
    array call does, bit for bit, and _like turns the result back."""
    v = np.asarray(values, dtype=np.float64)
    v = v.reshape(1) if v.ndim == 0 else v
    lo, hi = bound[1:-1].split(", ")
    lo, hi = float(lo), (np.pi if hi == "pi" else float(hi))
    ok = ((v > lo) if bound[0] == "(" else (v >= lo)) & (
        (v < hi) if bound[-1] == ")" else (v <= hi))
    if not ok.all():
        raise ValueError("%s must lie in %s, got %s = %r"
                         % (name, bound, name, float(v[~ok][0])))
    return v


def _like(arg, out):
    """out, or its one element as a Python scalar when arg was a scalar
    (out of more than one element then raises)."""
    return out.item() if np.ndim(arg) == 0 else out


def psi_exact_grid(p, rho, theta):
    """Exact wavefunction on broadcastable arrays of (rho, theta), rho
    finite and >= 0, theta in [0, pi]; raises outside, and raises
    ArithmeticError where float64 cannot form the value (_check_scale)."""
    return _like(np.broadcast(rho, theta),
                 _field(p, _within("rho", rho, "[0, inf)"),
                        _within("theta", theta, "[0, pi]"), specfun.hyp1f1))


def _gradient(p, rho, theta):
    """psi_exact_grid stacked with [d_rho psi, d_theta psi / rho], by
    dM/dz = (a/b) M(a + 1, b + 1, z) (DLMF 13.3.15) at z = i rho s."""
    psi = psi_exact_grid(p, rho, theta)
    dpsi = _field(p, rho, theta,
                  lambda a, b, z: a / b * specfun.hyp1f1(a + 1.0, b + 1.0, z))
    s = 1.0 - np.cos(theta)
    return np.stack([psi, 1j * ((1.0 - s) * psi + s * dpsi),
                     1j * np.sin(theta) * (dpsi - psi)])


def psi_exact(p, pt):
    """Exact solution at one field point, finite everywhere including the
    forward axis (theta = 0 enters through s = 0 with no limit-taking)."""
    return psi_exact_grid(p, pt.rho, pt.theta)


def schrodinger_residual(p, pt, h):
    """Normalized residual |(d^2_rho + (2/rho) d_rho + Lap_ang/rho^2 + 1
    - 2 gamma/rho) psi| / |psi| by central differences of psi_exact.

    The polar step is h / max(1, rho |sin theta|): the angular oscillation
    rate grows like rho sin(theta), and an unscaled step would leave
    truncation error far above the roundoff floor at rho ~ 20.
    """
    _within("h", h, "(0, inf)")
    if pt.rho <= h:
        raise ValueError("requires rho > h, got rho = %r, h = %r"
                         % (pt.rho, h))
    if h * max(1.0, abs(p.gamma) / pt.rho) >= 0.1:
        raise ValueError("step h too large to resolve the local wavelength, "
                         "got h = %r" % h)
    rho, theta = pt.rho, pt.theta
    ht = h / max(1.0, rho * abs(np.sin(theta)))
    if theta - ht < 0.0 or theta + ht > np.pi:
        raise ValueError("theta too close to the axis for the angular "
                         "stencil, got theta = %r, h = %r" % (theta, h))

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
