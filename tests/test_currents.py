"""Probability-current tests: the closed-form gradient currents against
frozen mpmath values, the numeric stencil against analytic forms, closure
of the asymptotic decomposition and interference fringe geometry."""

import math

import numpy as np
import pytest

from coulscat import (
    FieldPoint,
    ScatteringParams,
    current_decomposition_asymptotic,
    current_in_distorted,
    current_numeric,
    current_outgoing_exact,
    current_scattered_asymptotic,
    interference_radial_leading,
    oscillation_length,
    psi_exact,
)
from coulscat.currents import current_scan_grid


# Currents (k = 1) keyed by (gamma, rho, theta), from mpmath at dps 30 with
# psi = e^{-pi gamma/2} Gamma(1 + i gamma) e^{i rho cos theta} M(a, 1, z),
# z = i rho s, a = -i gamma, differentiated through
# dM/dz = a M(a + 1, 2, z) (DLMF 13.3.15): J[psi], then the outgoing
# remainder J[psi - psi_in (1 - i gamma^2/(rho s))] with
# psi_in = e^{i (rho cos theta + gamma ln(rho s))}.
J_EXACT_FROZEN = {
    (0.7, 15.0, 0.8): (0.8981611010364831, -0.6015460769862382),
    (0.7, 15.0, 2.0): (-0.35235680305952466, -0.9055262163484077),
    (0.7, 40.0, 1.1): (0.4887332687363668, -0.8740225124528443),
    (0.4, 1000.0, 1.0): (0.5412487754490161, -0.8410345996603324),
    (0.4, 5e-05, 1.0): (0.11969361823977832, -0.18641017963870882),
    (20.0, 0.01, 1.0): (2.239549504169716e-53, -3.2256769435401424e-53),
    (0.4, 10.0, 0.05): (0.2234700548345778, -0.011154976814803314),
    (0.4, 10.0, 3.1): (-0.9604110361415346, -0.04090972328734837),
    (0.4, 100.0, 0.05): (0.2442015147503692, -0.011929413053878114),
    (0.4, 100.0, 3.1): (-0.995119453972767, -0.041423135023620786),
}
J_OUT_FROZEN = {
    (0.4, 1000.0, 1.0): (7.600136371875503e-07, -8.517309593202073e-10),
    (0.4, 5e-05, 1.0): (387838929396.3985, 709845708132.5625),
    (20.0, 0.01, 1.0): (15146869599276.07, 27712299496519.66),
}


def params(g, k=1.0):
    return ScatteringParams(gamma=g, k=k)


def rel_err(j, ref):
    return max(abs(a - b) for a, b in zip(j, ref)) / math.hypot(*ref)


def test_plane_wave_current():
    # gamma = 0: J = k (cos theta, -sin theta) everywhere
    p = params(0.0, k=1.3)
    for rho, theta in [(7.0, 0.6), (22.0, 2.4)]:
        j = current_numeric(lambda q: psi_exact(p, q), p,
                            FieldPoint(rho=rho, theta=theta))
        assert abs(j.j_r - p.k * np.cos(theta)) < 1e-5
        assert abs(j.j_theta + p.k * np.sin(theta)) < 1e-5


def test_distorted_incoming_current_matches_stencil():
    p = params(0.4)
    pt = FieldPoint(rho=20.0, theta=1.0)
    analytic = current_in_distorted(p, pt)

    from coulscat.asymptotic import psi_asymptotic_grid

    def field(q):
        pin, _, _ = psi_asymptotic_grid(p, q.rho, q.theta, backreaction=False)
        return complex(pin)

    numeric = current_numeric(field, p, pt)
    assert abs(numeric.j_r - analytic.j_r) < 1e-6
    assert abs(numeric.j_theta - analytic.j_theta) < 1e-6


def test_scattered_current_matches_stencil():
    p = params(0.6)
    pt = FieldPoint(rho=30.0, theta=2.2)
    analytic = current_scattered_asymptotic(p, pt)

    from coulscat.asymptotic import psi_asymptotic_grid

    def field(q):
        _, pscat, _ = psi_asymptotic_grid(p, q.rho, q.theta)
        return complex(pscat)

    numeric = current_numeric(field, p, pt)
    assert abs(numeric.j_r - analytic.j_r) < 5e-6
    assert analytic.j_theta == 0.0
    assert abs(numeric.j_theta) < 5e-6


def test_scattered_current_radial_form():
    # J_r = k gamma^2 / (4 rho^2 sin^4(theta/2)), purely radial and positive
    p = params(0.8, k=2.0)
    pt = FieldPoint(rho=25.0, theta=1.7)
    j = current_scattered_asymptotic(p, pt)
    ref = p.k * p.gamma ** 2 / (4.0 * pt.rho ** 2 * np.sin(pt.theta / 2) ** 4)
    assert j.j_r == pytest.approx(ref, rel=1e-14)


def test_decomposition_closure():
    p = params(0.4)
    for rho, theta in [(50.0, 1.2), (120.0, 2.6)]:
        dec = current_decomposition_asymptotic(p, FieldPoint(rho=rho,
                                                             theta=theta))
        resid_r = dec.total.j_r - (dec.incoming.j_r + dec.scattered.j_r
                                   + dec.interference.j_r)
        resid_t = dec.total.j_theta - (dec.incoming.j_theta
                                       + dec.scattered.j_theta
                                       + dec.interference.j_theta)
        assert abs(resid_r) < 1e-10
        assert abs(resid_t) < 1e-10


def test_interference_vanishes_without_coupling():
    p = params(0.0)
    dec = current_decomposition_asymptotic(p, FieldPoint(rho=40.0, theta=1.0))
    assert abs(dec.interference.j_r) < 1e-9
    assert abs(dec.interference.j_theta) < 1e-9


def test_interference_leading_form():
    # far out the measured interference current follows the cosine form
    p = params(0.4)
    for rho in (300.0, 800.0):
        pt = FieldPoint(rho=rho, theta=1.1)
        dec = current_decomposition_asymptotic(p, pt)
        lead = interference_radial_leading(p, pt)
        scale = abs(p.gamma * p.k / rho) * (
            np.cos(pt.theta / 2) / np.sin(pt.theta / 2)) ** 2
        assert abs(dec.interference.j_r - lead) < 0.05 * scale, rho


def test_outgoing_current_neutral_limit():
    p = params(0.0)
    j = current_outgoing_exact(p, FieldPoint(rho=60.0, theta=2.0))
    assert abs(j.j_r) < 1e-7
    assert abs(j.j_theta) < 1e-7


def test_outgoing_current_approaches_scattered():
    p = params(0.5)
    pt = FieldPoint(rho=100.0, theta=np.pi / 2)
    out = current_outgoing_exact(p, pt)
    scat = current_scattered_asymptotic(p, pt)
    assert abs(out.j_r - scat.j_r) < 0.1 * scat.j_r


def test_interference_averages_out():
    # averaged over one fringe in angle at fixed radius the interference
    # current is much smaller than its local peak
    p = params(0.4)
    theta0 = 1.3
    rho = 100.0
    pt0 = FieldPoint(rho=rho, theta=theta0)
    dtheta = oscillation_length(p, pt0) * p.k / rho  # one fringe in angle
    thetas = np.linspace(theta0 - dtheta / 2, theta0 + dtheta / 2, 65)
    vals = np.array([
        current_decomposition_asymptotic(p, FieldPoint(rho=rho, theta=t))
        .interference.j_r for t in thetas])
    mean = np.trapezoid(vals, thetas) / dtheta
    assert abs(mean) * 5.0 < np.max(np.abs(vals))


def test_oscillation_length_neutral_limit():
    # gamma -> 0: plain 2 pi / (k sin theta)
    pt = FieldPoint(rho=50.0, theta=1.0)
    got = oscillation_length(params(1e-12, k=2.0), pt)
    assert got == pytest.approx(2 * np.pi / (2.0 * np.sin(1.0)), rel=1e-9)


def test_oscillation_length_errors():
    p = params(1.0)
    with pytest.raises(ValueError):
        oscillation_length(p, FieldPoint(rho=50.0, theta=0.0))
    # rho*s = 2 gamma exactly: stationary fringe, no finite spacing
    theta = 2.0
    rho = 2.0 * p.gamma / (1.0 - np.cos(theta))
    with pytest.raises(ValueError):
        oscillation_length(p, FieldPoint(rho=rho, theta=theta))


def test_step_validation():
    # the stencil's domain 1e-4 < rho < 1000, |gamma| < 1000 min(1, rho),
    # and theta at least the polar step ht (1e-4 at rho = 10) from either
    # end of [0, pi]: each error names the parameter and its bound, and is
    # raised before the field is called
    calls = []

    def field(q):
        calls.append(q)
        return psi_exact(p, q)

    for g, rho, theta, match in [
            (0.5, 1000.0, 1.0, "rho = 1000, .*rho < 1000"),
            (0.5, 5e-5, 1.0, "rho = 5e-05, .*1e-4 < rho"),
            (2000.0, 10.0, 1.0, r"gamma = 2000 .*\|gamma\| < 1000"),
            (0.5, 10.0, 5e-5, r"theta = 5e-05 .*ht = 0\.0001"),
            (0.5, 10.0, np.pi - 5e-5, r"theta = 3\.14154 .*ht = 0\.0001")]:
        p = params(g)
        with pytest.raises(ValueError, match=match):
            current_numeric(field, p, FieldPoint(rho=rho, theta=theta))
    assert calls == []
    p = params(0.5)
    for rho, theta in [(999.0, 1.0), (10.0, 2e-4), (10.0, np.pi - 2e-4)]:
        j = current_numeric(field, p, FieldPoint(rho=rho, theta=theta))
        assert np.isfinite([j.j_r, j.j_theta]).all()


def test_grid_current_matches_pointwise():
    p = params(0.7)
    rho = np.array([15.0, 15.0, 40.0])
    theta = np.array([0.8, 2.0, 1.1])
    jr, jt = current_scan_grid(p, rho, theta)[3]
    for i in range(3):
        ref = J_EXACT_FROZEN[(0.7, rho[i], theta[i])]
        assert abs(jr[i] - ref[0]) < 1e-12
        assert abs(jt[i] - ref[1]) < 1e-12


@pytest.mark.parametrize("gamma, rho", [(0.4, 1000.0), (0.4, 5e-5),
                                        (20.0, 0.01)])
def test_currents_outside_stencil_domain(gamma, rho):
    # the closed-form currents take no step, so current_numeric's domain
    # 1e-4 < rho < 1000, |gamma| < 1000 min(1, rho) does not bound them
    p = params(gamma)
    key = (gamma, rho, 1.0)
    scan = current_scan_grid(p, [rho], [1.0])
    assert rel_err([float(c[0]) for c in scan[3]], J_EXACT_FROZEN[key]) < 1e-12
    out = current_outgoing_exact(p, FieldPoint(rho=rho, theta=1.0))
    assert [out.j_r, out.j_theta] == [float(c[0]) for c in scan[5]]
    # psi - psi_in is 4e-4 of psi at rho = 1000, where psi and psi_in each
    # carry the rounding of a phase near 540
    assert rel_err([out.j_r, out.j_theta], J_OUT_FROZEN[key]) < 1e-9


def test_fig4_grid_currents_match_closed_forms():
    # fig4's grid: the incoming wave's current from its log-derivative is
    # current_in_distorted's closed form on every row, and the exact
    # current matches mpmath at the grid's corners
    p = params(0.4)
    rho = np.array([10.0, 100.0])[:, None]
    theta = np.linspace(0.05, 3.1, 400)
    scan = current_scan_grid(p, rho, theta)
    jr, jt = scan[1]
    for i, j in np.ndindex(jr.shape):
        ref = current_in_distorted(p, FieldPoint(rho=rho[i, 0],
                                                 theta=theta[j]))
        assert rel_err([jr[i, j], jt[i, j]], [ref.j_r, ref.j_theta]) < 1e-12
    for i, j in np.ndindex(2, 2):
        ref = J_EXACT_FROZEN[(0.4, rho[i, 0], theta[-j])]
        assert rel_err([c[i, -j] for c in scan[3]], ref) < 1e-12


def test_incoming_current_near_axis():
    # approaching the axis the radial incoming flux tends to k(1 + gamma/rho)
    p = params(0.9)
    rho = 30.0
    analytic = current_in_distorted(p, FieldPoint(rho=rho, theta=1e-6))
    expected_r = p.k * (1.0 + p.gamma / rho)
    assert analytic.j_r == pytest.approx(expected_r, rel=1e-9)
    for current in (current_in_distorted, current_scattered_asymptotic,
                    interference_radial_leading):
        with pytest.raises(ValueError, match=r"\(0, pi\]"):
            current(p, FieldPoint(rho=rho, theta=0.0))
