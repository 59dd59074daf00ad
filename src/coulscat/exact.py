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

# float64's smallest normal number, its largest number, its half, and the
# natural logs of the smallest normal number and of the largest number
_TINY = float(np.finfo(np.float64).tiny)
_HUGE = float(np.finfo(np.float64).max)
_HALF_HUGE = 0.5 * _HUGE
_LOG_TINY = float(np.log(_TINY))
_LOG_HUGE = float(np.log(_HUGE))
# points per slice of a sliced evaluation (_sliced): fig3's compute phase took
# 1.3x as long at 2048 and 0.85x at 8192, where the fieldmap benchmark's
# peak memory rose by 1 MB more, to 2% above per-chunk calls
_SLICE = 4096


@dataclass(frozen=True)
class ScatteringParams:
    """Interaction strength gamma (positive repulsive, negative attractive)
    and wavenumber k > 0, each stored as the Python float of its one
    value. log Gamma(1 + i gamma) and psi's two Kummer functions
    (specfun._Kummer) are formed once per object."""
    gamma: float
    k: float = 1.0

    def __post_init__(self):
        for name, bound in (("gamma", "(-inf, inf)"), ("k", "(0, inf)")):
            object.__setattr__(self, name, specfun._one(name, _within(
                name, getattr(self, name), bound)))

    @functools.cached_property
    def _log_gamma(self):
        """log Gamma(1 + i gamma), which every field evaluation adds
        (_field): formed once per parameters object."""
        return specfun.log_gamma_complex(1.0 + 1j * self.gamma)

    @functools.cached_property
    def _kummer(self):  # M(-i gamma, 1, .), psi's (_field)
        return specfun._Kummer(-1j * self.gamma, 1.0)

    @functools.cached_property
    def _kummer_next(self):  # M(a + 1, b + 1, .), psi's dM/dz (_gradient)
        return specfun._Kummer(-1j * self.gamma + 1.0, 2.0)


@dataclass(frozen=True)
class FieldPoint:
    """Evaluation site (rho = k r, polar angle theta): two scalars, or
    broadcastable float arrays of several sites, in psi_exact_grid's domain
    (_check_point: theta in [0, pi], rho s finite). psi_exact and
    psi_asymptotic take either; the other evaluators of a FieldPoint take
    one site and raise otherwise (_one_point)."""
    rho: float
    theta: float

    def __post_init__(self):
        _check_point(self.rho, self.theta)

    @property
    def s(self):
        """s = 1 - cos(theta), in [0, 2] (_s)."""
        return _s(self.theta)


def _check_point(rho, theta):
    """FieldPoint's and psi_exact_grid's check: chained comparisons on
    scalars (NaN fails them), one array test on anything else; past max/2
    (and outside) _rho_theta decides and names the point."""
    try:
        if 0.0 <= rho <= _HALF_HUGE and 0.0 <= theta <= np.pi:
            return
    except (TypeError, ValueError):  # not scalars: unordered or ambiguous
        r, t = _floats("rho", rho), _floats("theta", theta)
        if np.all((0.0 <= r) & (r <= _HALF_HUGE) & (0.0 <= t) & (t <= np.pi)):
            return
    _rho_theta(rho, theta, "[0, pi]")


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
    with M evaluated by kummer(z): p._kummer, by one branch body, or the
    dM/dz of _gradient."""
    s = _s(theta)
    g = p.gamma
    log_pref = 1j * rho * (1.0 - s) - 0.5 * np.pi * g + p._log_gamma
    m = kummer(1j * rho * s)
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
    # masks reduced once (an empty batch passes): a reduction costs more
    if (np.isfinite(m) & (_LOG_TINY <= r) & (r <= _LOG_HUGE)).all():
        return
    with np.errstate(divide="ignore"):
        lost = ((r < _LOG_TINY) & (r + np.log(np.abs(m)) >= _LOG_TINY)
                | (r > _LOG_HUGE) | ~np.isfinite(m))
    if lost.any():
        raise ArithmeticError(
            "float64 cannot form this value at %s: its prefactor and its "
            "1F1 factor leave float64's normal range in opposite "
            "directions" % _first(lost, point))


def _check_closed(out, divisors, **point):
    """Raises an ArithmeticError naming the point, each keyword's value at
    the first element lost, where float64 cannot form a closed form's value
    out: out is inf or NaN, or one of divisors (the powers of sin(theta/2)
    or rho that it divides by) falls below the smallest normal number, so
    that the quotient passes float64's largest number or keeps no full
    precision. Where none is lost, the value is the one formed."""
    lost = ~np.isfinite(np.asarray(out))
    for d in divisors:
        lost = lost | ~(np.asarray(d) >= _TINY)
    if lost.any():
        raise ArithmeticError(
            "float64 cannot form this value at %s: it, or a power of "
            "sin(theta/2) or rho that it divides by, leaves float64's "
            "normal range" % _first(lost, point))


def _first(lost, point):
    """"name = value" for each keyword of point, at the first lost
    element."""
    return ", ".join("%s = %r" % (name, np.broadcast_to(v, lost.shape)
                                  [lost][0].item())
                     for name, v in point.items())


def _within(name, values, bound):
    """values as a float64 array of at least one dimension, or a ValueError
    naming the first value outside bound, a text such as "(0, pi]" or
    "[0, inf)" (an inside test, which NaN fails). A scalar becomes one
    element: numpy's 0-d arithmetic rounds complex products differently
    from its array loops, so a scalar call computes as its element of an
    array call does, bit for bit, and _like turns the result back."""
    v = _floats(name, values)
    lo, hi = bound[1:-1].split(", ")
    lo, hi = float(lo), (np.pi if hi == "pi" else float(hi))
    ok = ((v > lo) if bound[0] == "(" else (v >= lo)) & (
        (v < hi) if bound[-1] == ")" else (v <= hi))
    if not ok.all():
        raise ValueError("%s must lie in %s, got %s = %r"
                         % (name, bound, name, float(v[~ok][0])))
    return v


def _floats(name, values):
    """values as a float64 array of at least one dimension, or a ValueError
    naming parameter name where they are text (specfun._numbers)."""
    v = specfun._numbers(name, values, np.float64)
    return v.reshape(1) if v.ndim == 0 else v


def _order(name, value, bound):
    """A partial-wave index (an int, or an array of them) as _within returns
    it, or a ValueError naming it where a value lies outside bound or is
    not an integer; an integral float such as 2.0 passes."""
    v = _within(name, value, bound)
    if type(value) is not int and (v != np.floor(v)).any():
        raise ValueError("%s must be an integer in %s, got %s = %r"
                         % (name, bound, name, float(v[v != np.floor(v)][0])))
    return v


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
    v = _floats("rho", rho)
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
    [0, pi] and rho in [0, inf) with rho s finite (_check_point, FieldPoint's
    check); raises outside, and ArithmeticError where float64 cannot form
    the value (_check_scale). Evaluated flat in slices of _SLICE (_sliced)."""
    _check_point(rho, theta)
    return _like(np.broadcast(rho, theta), _sliced(
        lambda r, t: _field(p, r, t, p._kummer),
        _floats("rho", rho), _floats("theta", theta)))


def _gradient(p, rho, theta):
    """psi stacked with [d_rho psi, d_theta psi / rho] on one slice, by
    dM/dz = (a/b) M(a + 1, b + 1, z) (DLMF 13.3.15) at z = i rho s."""
    psi = _field(p, rho, theta, p._kummer)
    dpsi = _field(p, rho, theta, lambda z: -1j * p.gamma * p._kummer_next(z))
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
    branch = p._kummer.branch(rho * _s(theta))
    rhos = np.array([rho, rho - h, rho + h, rho, rho])
    thetas = np.array([theta, theta, theta, theta - ht, theta + ht])
    f = _field(p, rhos, thetas, functools.partial(p._kummer, body=branch))
    c, rm, rp, tm, tp = f

    d2_rho = (rp - 2.0 * c + rm) / h ** 2
    d_rho = (rp - rm) / (2.0 * h)
    d2_theta = (tp - 2.0 * c + tm) / ht ** 2
    d_theta = (tp - tm) / (2.0 * ht)
    lap_ang = d2_theta + d_theta / np.tan(theta)
    lhs = (d2_rho + 2.0 / rho * d_rho + lap_ang / rho ** 2
           + (1.0 - 2.0 * p.gamma / rho) * c)
    return float(abs(lhs) / abs(c))
