"""Probability currents of the scattering solution.

J = Im[psi* grad psi], grad = (k d/d_rho, (k/rho) d/d_theta). The package's
own fields have closed-form gradients (dM/dz = (a/b) M(a + 1, b + 1, z) for
the exact field, log-derivatives for the asymptotic waves): no step, and
their currents hold wherever the fields do. Only current_numeric, for any
field, uses a five-point stencil, radial step h = 1e-4 max(1, rho) and polar
step h / max(1, rho); it raises outside 1e-4 < rho < 1000,
|gamma| < 1000 min(1, rho), and where its polar step crosses 0 or pi.
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


def current_numeric(field, p, pt):
    """Numerical current of an arbitrary scalar field at one point.

    field maps a FieldPoint to a complex value. Both components come from
    one five-point cross stencil: radial step h = 1e-4 max(1, rho) and
    polar step h / max(1, rho). schrodinger_residual's stencil is not this
    one: its polar step is h / max(1, rho |sin theta|), with h the caller's.
    Raises before any field call outside the domain in the module docstring.
    """
    rho = exact._within("rho", pt.rho, "[0, inf)")
    h = 1e-4 * np.maximum(1.0, rho)
    ht = h / np.maximum(1.0, rho)
    if pt.theta - ht[0] < 0.0 or pt.theta + ht[0] > np.pi:
        raise ValueError("theta = %g lies within the polar step ht = %g of "
                         "the axis; current_numeric needs ht <= theta <= "
                         "pi - ht" % (pt.theta, ht[0]))
    if rho[0] <= h[0] or h[0] * max(1.0, abs(p.gamma) / rho[0]) >= 0.1:
        raise ValueError("rho = %g, gamma = %g lies outside current_numeric's "
                         "domain 1e-4 < rho < 1000, |gamma| < 1000 min(1, rho)"
                         % (pt.rho, p.gamma))
    pts = zip(pt.rho + h * np.array([0.0, 1.0, -1.0, 0.0, 0.0]),
              pt.theta + ht * np.array([0.0, 0.0, 0.0, 1.0, -1.0]))
    vals = [field(exact.FieldPoint(r, t)) for r, t in pts]
    c, rp, rm, tp, tm = np.array(vals, dtype=np.complex128)[:, None]
    j_r = p.k * np.imag(np.conj(c) * ((rp - rm) / (2.0 * h)))
    j_theta = (p.k / rho) * np.imag(np.conj(c) * ((tp - tm) / (2.0 * ht)))
    return CurrentVector(float(j_r[0]), float(j_theta[0]))


def _current(p, f):
    """(j_r, j_theta) of a field stacked as [psi, d_rho psi,
    d_theta psi / rho]."""
    return p.k * np.imag(np.conj(f[0]) * f[1:])


def _split(p, rho, theta):
    """The incoming wave without and with the gamma^2 correction and the
    scattered wave, stacked as _current takes them."""
    pin, pscat, _ = asymptotic.psi_asymptotic_grid(p, rho, theta,
                                                   backreaction=False)
    g, sin, one = p.gamma, np.sin(theta), np.ones_like(pin)
    rs = rho * (1.0 - np.cos(theta))
    # grad ln(rho s), with ln psi_in = i rho cos(theta) + i gamma ln(rho s)
    # and ln psi_scat = const + i rho - (1 + i gamma) ln(rho s)
    d_log = np.stack([1.0 / rho, sin / rs])
    plain = pin * np.stack([one, 1j * (np.cos(theta) + g * d_log[0]),
                            1j * (g * d_log[1] - sin)])
    scat = pscat * np.stack([one, 1j - (1.0 + 1j * g) * d_log[0],
                             -(1.0 + 1j * g) * d_log[1]])
    # the gamma^2 wave is plain times 1 - u, u = i gamma^2/(rho s), and
    # grad(1 - u) = u grad ln(rho s)
    u = 1j * g ** 2 / rs
    corrected = plain * (1.0 - u)
    corrected[1:] += pin * u * d_log
    return plain, corrected, scat


def current_scan_grid(p, rho, theta, backreaction=False):
    """Every current of a `currents` scan on broadcastable arrays of
    (rho, theta). Returns six (j_r, j_theta) pairs: the asymptotic total,
    incoming and scattered currents (the incoming wave with the gamma^2
    correction when backreaction is set), the exact-field current, and the
    outgoing remainders J[psi - psi_in] without and with the gamma^2
    correction in psi_in."""
    # flat: 0-d operands would round as numpy scalars, not as array loops
    rho, theta = np.broadcast_arrays(np.asarray(rho, dtype=np.float64),
                                     np.asarray(theta, dtype=np.float64))
    shape, rho, theta = rho.shape, rho.ravel(), theta.ravel()
    plain, corrected, scat = _split(p, rho, theta)
    pin = corrected if backreaction else plain
    psi = exact._gradient(p, rho, theta)
    return [_current(p, f).reshape((2,) + shape) for f in
            (pin + scat, pin, scat, psi, psi - plain, psi - corrected)]


def _vector(j):
    return CurrentVector(float(j[0][0]), float(j[1][0]))


def _closed_form_s(pt, theta_bound="(0, pi]"):
    """s of a point with rho in (0, inf), theta in theta_bound and s in
    (0, 2]: s rounds to 0 for 0 < theta < 1.05e-8, inside theta's bound."""
    exact._within("rho", pt.rho, "(0, inf)")
    exact._within("theta", pt.theta, theta_bound)
    return exact._within("s", pt.s, "(0, 2]").item()


def current_in_distorted(p, pt):
    """Closed-form current of the phase-distorted incoming wave (no
    backreaction): radially k(cos theta + gamma/rho), polar component
    -k(sin theta - (gamma/rho) sin theta/(1 - cos theta))."""
    s = _closed_form_s(pt)
    g, k, rho, theta = p.gamma, p.k, pt.rho, pt.theta
    j_r = k * (np.cos(theta) + g / rho)
    j_theta = -k * (np.sin(theta) - (g / rho) * np.sin(theta) / s)
    return CurrentVector(float(j_r), float(j_theta))


def current_scattered_asymptotic(p, pt):
    """Leading order in 1/rho of the scattered spherical wave's current:
    purely radial, k gamma^2 / (4 rho^2 sin^4(theta/2)) = k |psi_scat|^2.

    The wave's own current, as current_decomposition_asymptotic gives it,
    is j_r = k |psi_scat|^2 (1 - gamma/rho) and
    j_theta = -(k/rho) |psi_scat|^2 gamma sin(theta)/s. Near the axis the
    dropped j_theta is not small: at gamma = 0.4, rho = 10, theta = 0.05 it
    is 1.6 j_r.
    """
    exact._within("rho", pt.rho, "(0, inf)")
    exact._within("theta", pt.theta, "(0, pi]")
    g, k = p.gamma, p.k
    j_r = k * g ** 2 / (4.0 * pt.rho ** 2 * np.sin(pt.theta / 2.0) ** 4)
    return CurrentVector(float(j_r), 0.0)


def current_decomposition_asymptotic(p, pt, backreaction=False):
    """Split the current of the asymptotic field into incoming, scattered
    and interference parts: the first three currents of current_scan_grid
    at one point, from the asymptotic fields alone.

    Backreaction defaults to off here: the closed-form incoming current
    above belongs to the purely phase-distorted wave, and the decomposition
    is normally compared against it.
    """
    plain, corrected, scat = _split(p, np.array([pt.rho]),
                                    np.array([pt.theta]))
    pin = corrected if backreaction else plain
    total, incoming, scattered = (_current(p, f)
                                  for f in (pin + scat, pin, scat))
    return CurrentDecomposition(*map(_vector, (
        total, incoming, scattered, total - incoming - scattered)))


def current_outgoing_exact(p, pt, subtract_backreaction=True):
    """Current of the exact field minus the distorted incoming wave: one of
    the two outgoing remainders of current_scan_grid at one point.

    With subtract_backreaction the amplitude-corrected incoming wave is
    removed, which suppresses the spurious oscillations left behind when
    only the phase-distorted wave is subtracted.
    """
    scan = current_scan_grid(p, [pt.rho], [pt.theta])
    return _vector(scan[5 if subtract_backreaction else 4])


def interference_radial_leading(p, pt):
    """Leading large-(rho s) form of the radial interference current:
    -(gamma k/rho) cot^2(theta/2) cos(rho s - 2 gamma ln(rho s) + 2 delta_0)
    with delta_0 = arg Gamma(1 + i gamma)."""
    g, k = p.gamma, p.k
    rs = pt.rho * _closed_form_s(pt)
    delta0 = multipole.phase_shift(0, g).delta
    phase = rs - 2.0 * g * np.log(rs) + 2.0 * delta0
    cot_half = np.cos(pt.theta / 2.0) / np.sin(pt.theta / 2.0)
    return float(-(g * k / pt.rho) * cot_half ** 2 * np.cos(phase))


def oscillation_length(p, pt):
    """Radial period of the incoming/scattered interference fringes,
    2 pi / (k sin(theta) (1 - 2 gamma/(rho s))). The stationary
    configuration rho s = 2 gamma has no finite fringe spacing."""
    rs = pt.rho * _closed_form_s(pt, "(0, pi)")
    factor = 1.0 - 2.0 * p.gamma / rs
    if abs(factor) < 1e-12:
        raise ValueError("fringe spacing is singular where rho s equals "
                         "2 gamma")
    return float(2.0 * np.pi / (p.k * np.sin(pt.theta) * factor))
