"""Probability currents of the scattering solution.

J = Im[psi* grad psi], grad = (k d/d_rho, (k/rho) d/d_theta). The package's
own fields have closed-form gradients (dM/dz = (a/b) M(a + 1, b + 1, z) for
the exact field, log-derivatives for the asymptotic waves): no step, and
their currents hold wherever the fields do. Only current_numeric, for any
field, uses a five-point stencil, radial step h = 1e-4 max(1, rho) and polar
step h / max(1, rho), and calls the field once: field maps a FieldPoint of
the five points' arrays to the array of its values there, as psi_exact
does. It raises outside 1e-4 < rho < 1000,
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

    field maps a FieldPoint of arrays to the array of the field's complex
    values there, as psi_exact and psi_asymptotic's total do. It is called
    once, on the five points of one cross stencil: radial step
    h = 1e-4 max(1, rho) and polar step h / max(1, rho).
    schrodinger_residual's stencil is not this one: its polar step is
    h / max(1, rho |sin theta|), with h the caller's. Raises before the
    field call outside the domain in the module docstring.
    """
    exact._one_point(pt)
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
    vals = np.asarray(field(exact.FieldPoint(
        pt.rho + h * np.array([0.0, 1.0, -1.0, 0.0, 0.0]),
        pt.theta + ht * np.array([0.0, 0.0, 0.0, 1.0, -1.0]))),
        dtype=np.complex128)
    if vals.shape != (5,):
        raise ValueError("field must map the FieldPoint of 5 stencil points "
                         "to their 5 values, got shape %s" % (vals.shape,))
    c, rp, rm, tp, tm = vals[:, None]
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
    rs = rho * exact._s(theta)
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
    correction in psi_in. Evaluated in the exact field's slices
    (exact._sliced), each slice flat."""
    shape = np.broadcast(rho, theta).shape
    rho, theta = exact._rho_theta(rho, theta, "(0, pi]")

    def scan(rho, theta):
        # flat, contiguous: 0-d or strided operands may round otherwise
        rho, theta = (v.ravel() for v in np.broadcast_arrays(rho, theta))
        plain, corrected, scat = _split(p, rho, theta)
        pin = corrected if backreaction else plain
        psi = exact._gradient(p, rho, theta)
        return np.stack([_current(p, f) for f in (
            pin + scat, pin, scat, psi, psi - plain, psi - corrected)])

    return list(exact._sliced(scan, rho, theta).reshape((6, 2) + shape))


def _vector(j):
    return CurrentVector(float(j[0][0]), float(j[1][0]))


def _closed_form_s(pt, theta_bound="(0, pi]"):
    """s of a point in exact._rho_theta's domain with rho > 0, theta in
    theta_bound and s in (0, 2]: s is 0 for 0 < theta < 1.05e-8."""
    exact._one_point(pt)
    exact._within("rho", pt.rho, "(0, inf)")
    exact._rho_theta(pt.rho, pt.theta, theta_bound)
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
    exact._one_point(pt)
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
    exact._one_point(pt)
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
    exact._one_point(pt)
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
