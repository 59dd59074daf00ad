"""The exact Rutherford scattering wavefunction and its residual check.

Natural units hbar = m = 1 throughout: the interaction strength gamma and
the wavenumber k are the only physical parameters, and field positions are
the dimensionless (rho = k r, theta).

psi_exact_grid and currents.current_scan_grid run a batch in slices of
_SLICE points through one loop (_sliced), so that their temporaries stay
those of one slice whatever the batch; each slice is one hyp1f1 call per
Kummer function. psi_asymptotic_grid, with no 1F1 call, is not sliced.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import specfun

# float64's largest number, its half, and the natural logs of its smallest
# normal number and of its largest number
_HUGE = float(np.finfo(np.float64).max)
_HALF_HUGE = 0.5 * _HUGE
_LOG_TINY = float(np.log(np.finfo(np.float64).tiny))
_LOG_HUGE = float(np.log(_HUGE))
# points per slice of a sliced evaluation (_sliced): fig3's compute phase took
# 1.3x as long at 2048 and 0.85x at 8192, where the fieldmap benchmark's
# peak memory rose by 1 MB more, to 2% above per-chunk calls
_SLICE = 4096


@dataclass(frozen=True)
class ScatteringParams:
    """Interaction strength gamma (positive repulsive, negative attractive)
    and wavenumber k > 0."""
    gamma: float
    k: float = 1.0

    def __post_init__(self):
        _one("gamma", _within("gamma", self.gamma, "(-inf, inf)"))
        _one("k", _within("k", self.k, "(0, inf)"))


@dataclass(frozen=True)
class FieldPoint:
    """Evaluation site (rho = k r, polar angle theta): two scalars, or
    broadcastable float arrays of several sites, in psi_exact_grid's domain
    (_rho_theta: theta in [0, pi], rho s finite). psi_exact and
    psi_asymptotic take either; the other evaluators of a FieldPoint take
    one site and raise otherwise (_one_point)."""
    rho: float
    theta: float

    def __post_init__(self):
        # chained comparisons on scalars (a twentieth of a _rho_theta call;
        # NaN fails them), one whole-array test where they are ambiguous;
        # past max/2 (and outside) _rho_theta decides and names the point
        rho, theta = self.rho, self.theta
        try:
            ok = 0.0 <= rho <= _HALF_HUGE and 0.0 <= theta <= np.pi
        except ValueError:
            ok = np.all((0.0 <= rho) & (rho <= _HALF_HUGE)
                        & (0.0 <= theta) & (theta <= np.pi))
        if not ok:
            _rho_theta(rho, theta, "[0, pi]")

    @property
    def s(self):
        """s = 1 - cos(theta), in [0, 2] (_s)."""
        return _s(self.theta)


def _s(theta):
    """s = 1 - cos(theta), in [0, 2]: the one place it is formed."""
    return 1.0 - np.cos(theta)


def _sliced(f, rho, theta):
    """f(rho, theta) for broadcastable float64 arrays, f returning an array
    with the points on its last axes: a batch of more than _SLICE points is
    evaluated flat, in slices of _SLICE, into one output allocated at the
    first slice, so that its temporaries stay those of one slice; a smaller
    one is f's value, unflattened (8 us of a pointwise call's 0.2 ms). An
    element's value depends on its own point only, so the slicing moves no
    bit."""
    both = np.broadcast(rho, theta)
    if both.size <= _SLICE:
        return f(rho, theta)
    rho, theta = (np.broadcast_to(v, both.shape).reshape(-1)
                  for v in (rho, theta))
    for i in range(0, both.size, _SLICE):
        part = f(rho[i:i + _SLICE], theta[i:i + _SLICE])
        if i == 0:
            out = np.empty(part.shape[:-1] + (both.size,), part.dtype)
        out[..., i:i + _SLICE] = part
    return out.reshape(out.shape[:-1] + both.shape)


def _field(p, rho, theta, kummer):
    """The exact solution e^{i rho (1-s)} e^{-pi gamma/2} Gamma(1 + i gamma)
    M(-i gamma, 1, i rho s) on broadcastable float64 arrays of (rho, theta),
    with the Kummer function M evaluated by kummer(a, b, z): hyp1f1, one of
    its two branch bodies on _entry, or the dM/dz of _gradient."""
    s = _s(theta)
    g = p.gamma
    log_pref = (1j * rho * (1.0 - s) - 0.5 * np.pi * g
                + specfun.log_gamma_complex(1.0 + 1j * g))
    m = kummer(-1j * g, 1.0, 1j * rho * s)
    _check_scale(log_pref, m, gamma=g)
    return np.exp(log_pref) * m


def _check_scale(log_pref, m, **point):
    """Raises an ArithmeticError naming the point, each keyword's value at
    the first element lost, where float64 cannot form e^{log_pref} m: m is
    inf or NaN, e^{log_pref} overflows, or it falls below the smallest
    normal number while the true e^{Re log_pref} |m| lies inside the normal
    range (past repulsive gamma ~ 225 the prefactor falls like e^{-pi gamma}
    and M grows like its inverse). A true value below the range is formed
    as it comes, within an absolute tolerance of 2.2e-308."""
    r = log_pref.real
    # initial=0 (inside the range): an empty batch passes
    if (np.isfinite(m).all() and _LOG_TINY <= r.min(initial=0.0)
            and r.max(initial=0.0) <= _LOG_HUGE):
        return
    with np.errstate(divide="ignore"):
        lost = ((r < _LOG_TINY) & (r + np.log(np.abs(m)) >= _LOG_TINY)
                | (r > _LOG_HUGE) | ~np.isfinite(m))
    if lost.any():
        at = ", ".join("%s = %r" % (name, np.broadcast_to(v, lost.shape)
                                    [lost][0].item())
                       for name, v in point.items())
        raise ArithmeticError(
            "float64 cannot form this value at %s: its prefactor and its "
            "1F1 factor leave float64's normal range in opposite "
            "directions" % at)


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


def _order(name, value, bound):
    """A partial-wave index (an int, or an array of them) as _within returns
    it, or a ValueError naming it where a value lies outside bound or is
    not an integer; an integral float such as 2.0 passes."""
    v = _within(name, value, bound)
    if type(value) is not int and (v != np.floor(v)).any():
        raise ValueError("%s must be an integer in %s, got %s = %r"
                         % (name, bound, name, float(v[v != np.floor(v)][0])))
    return v


def _one(name, values):
    """values' one element as a Python scalar, or a ValueError naming it
    where it holds several: for a parameter that takes one value."""
    v = np.asarray(values)
    if v.size != 1:
        raise ValueError("%s must be one value, got an array of shape %s"
                         % (name, v.shape))
    return v.item()


def _one_point(pt):
    """A ValueError naming pt where it holds other than one site: the
    evaluators of one point return scalars."""
    if np.size(pt.rho) != 1 or np.size(pt.theta) != 1:
        raise ValueError("pt must hold one point, got rho of shape %s and "
                         "theta of shape %s"
                         % (np.shape(pt.rho), np.shape(pt.theta)))


def _like(arg, out):
    """out, or its one element as a Python scalar when arg was a scalar
    (out of more than one element then raises)."""
    return out.item() if np.ndim(arg) == 0 else out


def _rho_theta(rho, theta, theta_bound):
    """rho and theta as float64 arrays of at least one dimension (_within),
    or a ValueError naming the first theta outside theta_bound, else the
    first rho outside its bound at that point, so that rho s never
    overflows: [0, inf) where s = 1 - cos(theta) <= 1, [0, max/s] where
    s > 1 (theta > pi/2), max float64's largest number."""
    theta = _within("theta", theta, theta_bound)
    v = np.asarray(rho, dtype=np.float64)
    v = v.reshape(1) if v.ndim == 0 else v
    # past max/2, rho s overflows for some s in [0, 2]
    if not ((0.0 <= v) & (v <= _HALF_HUGE)).all():
        s = _s(theta)
        with np.errstate(over="ignore", invalid="ignore"):
            bad = ~((0.0 <= v) & (v * s < np.inf))
        if bad.any():
            x, sx = (float(np.broadcast_to(a, bad.shape)[bad][0])
                     for a in (v, s))
            raise ValueError("rho must lie in %s, got rho = %r" % (
                "[0, %r]" % (_HUGE / sx) if sx > 1.0 else "[0, inf)", x))
    return v, theta


def psi_exact_grid(p, rho, theta):
    """Exact wavefunction on broadcastable arrays of (rho, theta), theta in
    [0, pi] and rho in [0, inf) with rho s finite (_rho_theta); raises
    outside, and raises ArithmeticError where float64 cannot form the value
    (_check_scale). Evaluated flat in slices of _SLICE points (_sliced)."""
    return _like(np.broadcast(rho, theta), _sliced(
        lambda r, t: _field(p, r, t, specfun.hyp1f1),
        *_rho_theta(rho, theta, "[0, pi]")))


def _gradient(p, rho, theta):
    """psi stacked with [d_rho psi, d_theta psi / rho] on one slice, by
    dM/dz = (a/b) M(a + 1, b + 1, z) (DLMF 13.3.15) at z = i rho s."""
    psi = _field(p, rho, theta, specfun.hyp1f1)
    dpsi = _field(p, rho, theta,
                  lambda a, b, z: a / b * specfun.hyp1f1(a + 1.0, b + 1.0, z))
    s = _s(theta)
    return np.stack([psi, 1j * ((1.0 - s) * psi + s * dpsi),
                     1j * np.sin(theta) * (dpsi - psi)])


def psi_exact(p, pt):
    """Exact solution at a field point, finite everywhere including the
    forward axis (theta = 0 enters through s = 0 with no limit-taking): a
    complex for one site, an array for a FieldPoint of arrays."""
    return psi_exact_grid(p, pt.rho, pt.theta)


def schrodinger_residual(p, pt, h):
    """Normalized residual |(d^2_rho + (2/rho) d_rho + Lap_ang/rho^2 + 1
    - 2 gamma/rho) psi| / |psi| by central differences of psi_exact.

    The polar step is h / max(1, rho |sin theta|): the angular oscillation
    rate grows like rho sin(theta), and an unscaled step would leave
    truncation error far above the roundoff floor at rho ~ 20.
    """
    _one_point(pt)
    _within("h", h, "(0, inf)")
    _rho_theta(pt.rho, pt.theta, "[0, pi]")
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
    if rho * _s(theta) <= specfun.series_radius(-1j * p.gamma):
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
