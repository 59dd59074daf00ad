"""Probability currents of the scattering solution.

All currents are computed from fields via J = Im[psi* grad psi] with the
gradient taken in physical units, grad = (k d/d_rho, (k/rho) d/d_theta), so
the numbers carry one power of k relative to the dimensionless field. The
numeric routines use central differences with radial step
h = 1e-4 max(1, rho) and an angular step shrunk by 1/max(1, rho) so that
the physical arc length stays comparable to the radial step. They raise
outside their domain 1e-4 < rho < 1000, |gamma| < 1000 min(1, rho), and
current_numeric also where its polar step would cross theta = 0 or pi.
"""

from dataclasses import dataclass

import numpy as np

from . import asymptotic, exact, multipole


@dataclass(frozen=True)
class CurrentVector:
    """Radial and polar components of a probability current."""
    j_r: float
    j_theta: float


@dataclass(frozen=True)
class CurrentDecomposition:
    """Total current of the asymptotic field and its three pieces: the
    currents of the incoming and scattered waves alone, plus the cross
    (interference) contribution defined as total minus the two."""
    total: CurrentVector
    incoming: CurrentVector
    scattered: CurrentVector
    interference: CurrentVector


def _check_domain(p, rho, h):
    """Raise unless the stencil of radial step h keeps rho > h and
    h max(1, |gamma| / rho) < 0.1 at each rho: the currents' domain for the
    stencil's step."""
    bad = (rho <= h) | (h * np.maximum(1.0, abs(p.gamma) / rho) >= 0.1)
    if np.any(bad):
        raise ValueError("rho = %g, gamma = %g lies outside the currents' "
                         "domain 1e-4 < rho < 1000, |gamma| < 1000 min(1, rho)"
                         % (rho[bad][0], p.gamma))


def _steps(rho):
    """The stencil's radial and polar steps h and ht (see _stencil)."""
    h = 1e-4 * np.maximum(1.0, rho)
    return h, h / np.maximum(1.0, rho)


def _stencil(p, fields, rho, theta):
    """Currents of several fields from one five-point central-difference
    stencil.

    fields(rho_array, theta_array) -> sequence of complex arrays, every
    field evaluated on the same stencil points. The radial step is
    h = 1e-4 max(1, rho) at each point, so a point's current does not depend
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
    h, ht = _steps(rho_b)
    _check_domain(p, rho_b, h)
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


def current_numeric(field, p, pt):
    """Numerical current of an arbitrary scalar field at one point.

    field maps a FieldPoint to a complex value. Both components come from
    one five-point cross stencil: radial step h = 1e-4 max(1, rho) and
    polar step h / max(1, rho). schrodinger_residual's stencil is not this
    one: its polar step is h / max(1, rho |sin theta|), with h the caller's.
    Raises before any field call where a stencil point would leave [0, pi].
    """
    ht = _steps(pt.rho)[1]
    if pt.theta - ht < 0.0 or pt.theta + ht > np.pi:
        raise ValueError("theta = %g lies within the polar step ht = %g of "
                         "the axis; current_numeric needs ht <= theta <= "
                         "pi - ht" % (pt.theta, ht))
    return _vector(_stencil(p, _pointwise(field), pt.rho, pt.theta)[0])


def _asymptotic_fields(p, r, t, backreaction):
    """The asymptotic total, incoming and scattered fields, then the
    incoming wave without and with the gamma^2 correction."""
    pin_plain, pscat, _ = asymptotic.psi_asymptotic_grid(
        p, r, t, backreaction=False)
    pin_g2, _, _ = asymptotic.psi_asymptotic_grid(p, r, t, backreaction=True)
    pin = pin_g2 if backreaction else pin_plain
    return [pin + pscat, pin, pscat], pin_plain, pin_g2


def current_scan_grid(p, rho, theta, backreaction=False):
    """Every current of a `currents` scan, from one stencil pass over the
    exact and asymptotic fields. Returns six (j_r, j_theta) pairs: the
    asymptotic total, incoming and scattered currents (the incoming wave
    with the gamma^2 correction when backreaction is set), the exact-field
    current, and the outgoing remainders J[psi - psi_in] without and with
    the gamma^2 correction in psi_in. The interference current is total
    minus incoming minus scattered, taken by the caller."""
    def fields(r, t):
        split, pin_plain, pin_g2 = _asymptotic_fields(p, r, t, backreaction)
        psi = exact.psi_exact_grid(p, r, t)
        return split + [psi, psi - pin_plain, psi - pin_g2]

    return _stencil(p, fields, rho, theta)


def current_in_distorted(p, pt):
    """Closed-form current of the phase-distorted incoming wave (no
    backreaction): radially k(cos theta + gamma/rho), polar component
    -k(sin theta - (gamma/rho) sin theta/(1 - cos theta))."""
    s = pt.s
    if s <= 0.0:
        raise ValueError("theta must lie in (0, pi]")
    g, k, rho, theta = p.gamma, p.k, pt.rho, pt.theta
    j_r = k * (np.cos(theta) + g / rho)
    j_theta = -k * (np.sin(theta) - (g / rho) * np.sin(theta) / s)
    return CurrentVector(float(j_r), float(j_theta))


def current_scattered_asymptotic(p, pt):
    """Current of the scattered spherical wave alone: purely radial,
    k gamma^2 / (4 rho^2 sin^4(theta/2))."""
    s = pt.s
    if s <= 0.0:
        raise ValueError("theta must lie in (0, pi]")
    g, k = p.gamma, p.k
    j_r = k * g ** 2 / (4.0 * pt.rho ** 2 * np.sin(pt.theta / 2.0) ** 4)
    return CurrentVector(float(j_r), 0.0)


def current_decomposition_asymptotic(p, pt, backreaction=False):
    """Split the current of the asymptotic field into incoming, scattered
    and interference parts, all by the same numeric stencil: the first
    three currents of current_scan_grid at one point, from the asymptotic
    fields alone.

    Backreaction defaults to off here: the closed-form incoming current
    above belongs to the purely phase-distorted wave, and the decomposition
    is normally compared against it.
    """
    total, incoming, scattered = map(_vector, _stencil(
        p, lambda r, t: _asymptotic_fields(p, r, t, backreaction)[0],
        pt.rho, pt.theta))
    return CurrentDecomposition(total, incoming, scattered, CurrentVector(
        total.j_r - incoming.j_r - scattered.j_r,
        total.j_theta - incoming.j_theta - scattered.j_theta))


def current_outgoing_exact(p, pt, subtract_backreaction=True):
    """Current of the exact field minus the distorted incoming wave: one of
    the two outgoing remainders of current_scan_grid at one point.

    With subtract_backreaction the amplitude-corrected incoming wave is
    removed, which suppresses the spurious oscillations left behind when
    only the phase-distorted wave is subtracted.
    """
    scan = current_scan_grid(p, pt.rho, pt.theta)
    return _vector(scan[5 if subtract_backreaction else 4])


def interference_radial_leading(p, pt):
    """Leading large-(rho s) form of the radial interference current:
    -(gamma k/rho) cot^2(theta/2) cos(rho s - 2 gamma ln(rho s) + 2 delta_0)
    with delta_0 = arg Gamma(1 + i gamma)."""
    s = pt.s
    if s <= 0.0 or pt.theta > np.pi:
        raise ValueError("theta must lie in (0, pi]")
    g, k = p.gamma, p.k
    rs = pt.rho * s
    delta0 = multipole.phase_shift(0, g).delta
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
