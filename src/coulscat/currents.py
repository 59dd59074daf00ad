"""Probability currents of the scattering solution.

All currents are computed from fields via J = Im[psi* grad psi] with the
gradient taken in physical units, grad = (k d/d_rho, (k/rho) d/d_theta), so
the numbers carry one power of k relative to the dimensionless field. The
numeric routines use central differences with an angular step shrunk by
1/max(1, rho) so that the physical arc length stays comparable to the
radial step.
"""

from dataclasses import dataclass

import numpy as np

from . import asymptotic, exact, specfun


@dataclass(frozen=True)
class CurrentVector:
    """Radial and polar components of a probability current."""
    j_r: float
    j_theta: float

    def __add__(self, other):
        return CurrentVector(self.j_r + other.j_r, self.j_theta + other.j_theta)

    def __sub__(self, other):
        return CurrentVector(self.j_r - other.j_r, self.j_theta - other.j_theta)

    @property
    def magnitude(self):
        return float(np.hypot(self.j_r, self.j_theta))


@dataclass(frozen=True)
class CurrentDecomposition:
    """Total current of the asymptotic field and its three pieces: the
    currents of the incoming and scattered waves alone, plus the cross
    (interference) contribution defined as total minus the two."""
    total: CurrentVector
    incoming: CurrentVector
    scattered: CurrentVector
    interference: CurrentVector


def _default_step(rho):
    return 1e-4 * np.maximum(1.0, rho)


def _stencil(p, fields, rho, theta, h=None):
    """Currents of several fields from one five-point central-difference
    stencil.

    fields(rho_array, theta_array) -> sequence of complex arrays, every
    field evaluated on the same stencil points. The radial step h defaults
    to 1e-4 max(1, rho) at each point, so a point's current does not depend
    on the points batched with it; the polar step is h/max(1, rho) so the
    arc displacement rho*dtheta matches h. Returns one (j_r, j_theta) pair
    of arrays, broadcast over rho and theta, per field.
    """
    rho = np.asarray(rho, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    # flat points even for one point: 0-d operands would take numpy's scalar
    # arithmetic, which rounds complex products differently from the array
    # loops, so a point's current would depend on how it was batched
    shape = np.broadcast_shapes(rho.shape, theta.shape)
    rho_b, theta_b = (np.broadcast_to(v, shape).ravel() for v in (rho, theta))
    h = _default_step(rho_b) if h is None else float(h)
    if np.any(h <= 0.0):
        raise ValueError("step h must be positive")
    if np.any(rho_b <= h):
        raise ValueError("need rho > h")
    if np.any(h * np.maximum(1.0, abs(p.gamma) / rho_b) >= 0.1):
        raise ValueError("step h too coarse for this field point")
    ht = h / np.maximum(1.0, rho_b)
    pts_rho = np.stack([rho_b, rho_b + h, rho_b - h, rho_b, rho_b])
    pts_theta = np.stack([theta_b, theta_b, theta_b, theta_b + ht, theta_b - ht])
    out = []
    for vals in fields(pts_rho, pts_theta):
        psi_c = vals[0]
        d_rho = (vals[1] - vals[2]) / (2.0 * h)
        d_theta = (vals[3] - vals[4]) / (2.0 * ht)
        j_r = p.k * np.imag(np.conj(psi_c) * d_rho)
        j_theta = (p.k / rho_b) * np.imag(np.conj(psi_c) * d_theta)
        out.append((j_r.reshape(shape), j_theta.reshape(shape)))
    return out


def _vector(pair):
    return CurrentVector(float(pair[0]), float(pair[1]))


def _pointwise(field):
    """Stencil fields function for a scalar field of one FieldPoint."""
    def values(rho_a, theta_a):
        out = np.array([field(exact.FieldPoint(r, t))
                        for r, t in zip(rho_a.ravel(), theta_a.ravel())],
                       dtype=np.complex128)
        return [out.reshape(rho_a.shape)]
    return values


def current_numeric(field, p, pt, h=None):
    """Numerical current of an arbitrary scalar field at one point.

    field maps a FieldPoint to a complex value. Both components use the
    same five-point cross stencil as the residual check.
    """
    return _vector(_stencil(p, _pointwise(field), pt.rho, pt.theta, h)[0])


def current_exact_grid(p, rho, theta, h=None):
    """Vectorized numeric current of the exact solution over a grid.
    Returns (j_r, j_theta) arrays. Used by the acceptance suite, where
    point-by-point stencils would be too slow."""
    return _stencil(p, lambda r, t: [exact.psi_exact_grid(p, r, t)],
                    rho, theta, h)[0]


def current_scan_grid(p, rho, theta, backreaction=False, h=None):
    """Every current of a `currents` scan, from one stencil pass over the
    exact and asymptotic fields. Returns six (j_r, j_theta) pairs: the
    asymptotic total, incoming and scattered currents (the incoming wave
    with the gamma^2 correction when backreaction is set), the exact-field
    current, and the outgoing remainders J[psi - psi_in] without and with
    the gamma^2 correction in psi_in. The interference current is total
    minus incoming minus scattered, taken by the caller."""
    def fields(r, t):
        psi = exact.psi_exact_grid(p, r, t)
        pin_plain, pscat, _ = asymptotic.psi_asymptotic_grid(
            p, r, t, backreaction=False)
        pin_g2, _, _ = asymptotic.psi_asymptotic_grid(
            p, r, t, backreaction=True)
        pin = pin_g2 if backreaction else pin_plain
        return pin + pscat, pin, pscat, psi, psi - pin_plain, psi - pin_g2

    return _stencil(p, fields, rho, theta, h)


def current_in_distorted(p, pt):
    """Closed-form current of the phase-distorted incoming wave (no
    backreaction): radially k(cos theta + gamma/rho), polar component
    -k(sin theta - (gamma/rho) sin theta/(1 - cos theta))."""
    jr, jt = current_in_distorted_grid(p, pt.rho, pt.theta)
    return CurrentVector(float(jr), float(jt))


def current_in_distorted_grid(p, rho, theta):
    rho = np.asarray(rho, dtype=np.float64)
    theta = np.asarray(theta, dtype=np.float64)
    s = 1.0 - np.cos(theta)
    if np.any(s <= 0.0) or np.any(theta > np.pi):
        raise ValueError("theta must lie in (0, pi]")
    g, k = p.gamma, p.k
    j_r = k * (np.cos(theta) + g / rho)
    j_theta = -k * (np.sin(theta) - (g / rho) * np.sin(theta) / s)
    return j_r, j_theta


def current_scattered_asymptotic(p, pt):
    """Current of the scattered spherical wave alone: purely radial,
    k gamma^2 / (4 rho^2 sin^4(theta/2))."""
    s = pt.s
    if s <= 0.0:
        raise ValueError("theta must lie in (0, pi]")
    g, k = p.gamma, p.k
    j_r = k * g ** 2 / (4.0 * pt.rho ** 2 * np.sin(pt.theta / 2.0) ** 4)
    return CurrentVector(float(j_r), 0.0)


def current_decomposition_asymptotic(p, pt, h=None, backreaction=False):
    """Split the current of the asymptotic field into incoming, scattered
    and interference parts, all by the same numeric stencil.

    Backreaction defaults to off here: the closed-form incoming current
    above belongs to the purely phase-distorted wave, and the decomposition
    is normally compared against it.
    """
    def fields(r, t):
        pin, pscat, _ = asymptotic.psi_asymptotic_grid(
            p, r, t, backreaction=backreaction)
        return pin + pscat, pin, pscat

    total, incoming, scattered = map(
        _vector, _stencil(p, fields, pt.rho, pt.theta, h))
    return CurrentDecomposition(total, incoming, scattered,
                                total - incoming - scattered)


def current_outgoing_exact(p, pt, subtract_backreaction=True, h=None):
    """Current of the exact field minus the distorted incoming wave.

    With subtract_backreaction the amplitude-corrected incoming wave is
    removed, which suppresses the spurious oscillations left behind when
    only the phase-distorted wave is subtracted.
    """
    def fields(r, t):
        pin, _, _ = asymptotic.psi_asymptotic_grid(
            p, r, t, backreaction=subtract_backreaction)
        return [exact.psi_exact_grid(p, r, t) - pin]

    return _vector(_stencil(p, fields, pt.rho, pt.theta, h)[0])


def interference_radial_leading(p, pt):
    """Leading large-(rho s) form of the radial interference current:
    -(gamma k/rho) cot^2(theta/2) cos(rho s - 2 gamma ln(rho s) + 2 delta_0)
    with delta_0 = arg Gamma(1 + i gamma)."""
    s = pt.s
    if s <= 0.0 or pt.theta > np.pi:
        raise ValueError("theta must lie in (0, pi]")
    g, k = p.gamma, p.k
    rs = pt.rho * s
    delta0 = specfun.log_gamma_complex(1.0 + 1j * g).imag
    delta0 = (delta0 + np.pi) % (2.0 * np.pi) - np.pi
    phase = rs - 2.0 * g * np.log(rs) + 2.0 * delta0
    cot_half = np.cos(pt.theta / 2.0) / np.sin(pt.theta / 2.0)
    return float(-(g * k / pt.rho) * cot_half ** 2 * np.cos(phase))


def oscillation_length(p, pt):
    """Radial period of the incoming/scattered interference fringes,
    2 pi / (k sin(theta) (1 - 2 gamma/(rho s))). The stationary
    configuration rho s = 2 gamma has no finite fringe spacing."""
    if not (0.0 < pt.theta < np.pi):
        raise ValueError("theta must lie strictly inside (0, pi)")
    rs = pt.rho * pt.s
    factor = 1.0 - 2.0 * p.gamma / rs
    if abs(factor) < 1e-12:
        raise ValueError("fringe spacing is singular where rho s equals "
                         "2 gamma")
    return float(2.0 * np.pi / (p.k * np.sin(pt.theta) * factor))


def divergence_numeric(field, p, pt, h=None):
    """Numeric divergence of the current of a field, in spherical
    coordinates: k [ rho^-2 d(rho^2 J_r)/d_rho
    + (rho sin theta)^-1 d(sin theta J_theta)/d_theta ].

    Stationary solutions should give values near zero; the scale to compare
    against is |J| / rho.
    """
    if h is None:
        h = _default_step(pt.rho)
    # outer step for differentiating J itself; the inner stencil reuses h
    hd = 10.0 * h
    ht = hd / max(1.0, pt.rho)
    rho, theta = pt.rho, pt.theta
    (j_r, j_theta), = _stencil(p, _pointwise(field),
                               [rho + hd, rho - hd, rho, rho],
                               [theta, theta, theta + ht, theta - ht], h)
    d_r = ((rho + hd) ** 2 * j_r[0] - (rho - hd) ** 2 * j_r[1]) / (2.0 * hd)
    d_t = (np.sin(theta + ht) * j_theta[2]
           - np.sin(theta - ht) * j_theta[3]) / (2.0 * ht)
    return float(p.k * (d_r / rho ** 2 + d_t / (rho * np.sin(theta))))
