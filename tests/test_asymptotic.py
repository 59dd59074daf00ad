"""Large-distance split of the field into a distorted incoming wave and an
outgoing spherical wave, plus the scattering amplitudes built from it."""

import numpy as np
import pytest
from mpmath import mp, mpf, sin

from coulscat import (
    FieldPoint,
    ScatteringParams,
    born_amplitude_yukawa,
    differential_cross_section,
    psi_asymptotic,
    psi_asymptotic_grid,
    psi_exact,
    psi_exact_grid,
    rutherford_amplitude,
    rutherford_amplitude_phase_separated,
)
from coulscat.asymptotic import FORM_TOL


def params(g, k=1.0):
    return ScatteringParams(gamma=g, k=k)


def test_split_components_sum_to_total():
    p = params(0.8)
    pt = FieldPoint(rho=40.0, theta=2.1)
    sp = psi_asymptotic(p, pt)
    assert sp.total == sp.psi_in + sp.psi_scat


def test_neutral_limit():
    p = params(0.0)
    pt = FieldPoint(rho=30.0, theta=1.4)
    sp = psi_asymptotic(p, pt)
    ref = np.exp(1j * pt.rho * np.cos(pt.theta))
    assert abs(sp.psi_in - ref) < 1e-13
    assert sp.psi_scat == 0.0


def test_split_approaches_exact_far_out():
    p = params(0.5)
    pt = FieldPoint(rho=1000.0, theta=np.pi / 2)
    sp = psi_asymptotic(p, pt)
    ex = psi_exact(p, pt)
    assert sp.valid
    assert abs(sp.total - ex) < 1e-2 * abs(ex)


def test_split_error_decays_inversely():
    # leading correction to the split scales like 1/(rho*s); fit the decade
    # slope of the relative error at fixed angle with the first-order
    # backreaction term switched off
    theta = 1.0
    s = 1.0 - np.cos(theta)
    for g in (0.4, 1.0):
        p = params(g)
        errs = []
        scales = (10.0, 100.0, 1000.0)
        for rhos in scales:
            pt = FieldPoint(rho=rhos / s, theta=theta)
            ex = psi_exact(p, pt)
            sp = psi_asymptotic(p, pt, backreaction=False)
            errs.append(abs(sp.total - ex) / abs(ex))
        slope = np.polyfit(np.log(scales), np.log(errs), 1)[0]
        assert -1.3 < slope < -0.7, (g, errs)


def test_backreaction_improves_pointwise():
    # keeping the 1/(rho*s) correction in the incoming wave must reduce the
    # error at every probe point in the moderately-far zone
    rng = np.random.default_rng(23)
    for g in (0.5, 1.0):
        p = params(g)
        for _ in range(60):
            rhos = rng.uniform(10.5, 99.5)
            theta = rng.uniform(0.3, np.pi - 0.05)
            pt = FieldPoint(rho=rhos / (1.0 - np.cos(theta)), theta=theta)
            ex = psi_exact(p, pt)
            err_off = abs(psi_asymptotic(p, pt, backreaction=False).total - ex)
            err_on = abs(psi_asymptotic(p, pt, backreaction=True).total - ex)
            assert err_on < err_off, (g, pt.rho, theta)


def test_valid_flag_tracks_far_zone_boundary():
    p = params(0.5)
    assert not psi_asymptotic(p, FieldPoint(rho=5.0, theta=0.5)).valid
    assert psi_asymptotic(p, FieldPoint(rho=50.0, theta=2.0)).valid


def test_valid_flag_bounds_the_split_error():
    # valid is est (1 + est) < FORM_TOL, est the first term the split
    # omits: on a seeded grid (not the one the tolerance was sized on) no
    # flagged point is further from psi_exact than the tolerance
    rng = np.random.default_rng(2718)
    flagged = 0
    for g in rng.uniform(-20.0, 20.0, 40):
        p = params(g)
        rho_s = np.exp(rng.uniform(0.0, np.log(3000.0), 30))
        theta = np.pi - rng.uniform(0.0, np.pi, 30)  # (0, pi]
        rho = rho_s / (1.0 - np.cos(theta))
        ex = psi_exact_grid(p, rho, theta)
        for backreaction in (False, True):
            psi_in, psi_scat, valid = psi_asymptotic_grid(
                p, rho, theta, backreaction=backreaction)
            err = np.abs(psi_in + psi_scat - ex) / np.abs(ex)
            assert (err[valid] <= FORM_TOL).all(), g
            flagged += valid.sum()
    assert flagged > 400  # of 2,400
    # rho s = 30 at gamma = 10 and rho s = 100 at gamma = 20, where the
    # split with backreaction is off by a factor of 31 and of 4.1
    for g, rho_s in ((10.0, 30.0), (20.0, 100.0)):
        rho = rho_s / (1.0 - np.cos(1.0))
        assert not psi_asymptotic(params(g), FieldPoint(rho, 1.0)).valid


def test_forward_axis_rejected():
    p = params(0.5)
    with pytest.raises(ValueError):
        psi_asymptotic(p, FieldPoint(rho=50.0, theta=0.0))
    # off the axis but at the origin, rho s = 0 as well
    with pytest.raises(ValueError, match=r"rho\*s > 0"):
        psi_asymptotic_grid(p, [0.0], [1.0])


def test_grid_matches_scalar():
    p = params(1.2)
    rho = np.array([20.0, 60.0, 200.0])
    theta = np.array([0.7, 1.9, 3.0])
    g_in, g_scat, g_valid = psi_asymptotic_grid(p, rho, theta)
    for i in range(3):
        sp = psi_asymptotic(p, FieldPoint(rho=rho[i], theta=theta[i]))
        assert g_in[i] == sp.psi_in
        assert g_scat[i] == sp.psi_scat
        assert bool(g_valid[i]) == sp.valid


def test_scattered_piece_has_spherical_profile():
    # |psi_scat| = |f(theta)| / r along fixed theta
    p = params(0.9, k=2.0)
    theta = 2.4
    f_mod = abs(rutherford_amplitude(p, theta))
    for rho in (30.0, 90.0, 270.0):
        sp = psi_asymptotic(p, FieldPoint(rho=rho, theta=theta))
        r = rho / p.k
        assert abs(abs(sp.psi_scat) - f_mod / r) < 1e-12 * (f_mod / r)


def test_rutherford_amplitude_magnitude():
    # backscattering: |f(pi)| = gamma / (2k)
    for g, k in [(0.5, 1.0), (2.0, 3.0)]:
        p = params(g, k)
        assert abs(abs(rutherford_amplitude(p, np.pi)) - g / (2 * k)) < 1e-14


def test_rutherford_amplitude_domain():
    p = params(1.0)
    with pytest.raises(ValueError):
        rutherford_amplitude(p, 0.0)
    with pytest.raises(ValueError):
        rutherford_amplitude(p, -0.3)
    with pytest.raises(ValueError, match=r"\(0, pi\]"):
        rutherford_amplitude_phase_separated(p, 0.0)


def test_phase_separated_form_same_modulus():
    p = params(0.7, k=1.5)
    th = np.linspace(0.2, np.pi, 25)
    a = rutherford_amplitude(p, th)
    b = rutherford_amplitude_phase_separated(p, th)
    assert np.max(np.abs(np.abs(a) - np.abs(b))) < 1e-13
    # the two differ by the pure log phase e^{-i gamma ln(s/2)}
    s = 1.0 - np.cos(th)
    phase = np.exp(-1j * p.gamma * np.log(s / 2.0))
    assert np.max(np.abs(a * phase - b)) < 1e-13


def test_cross_section_values():
    assert differential_cross_section(params(1.0), np.pi) == pytest.approx(0.25)
    assert differential_cross_section(params(2.0), np.pi / 2) == pytest.approx(4.0)


def test_cross_section_is_amplitude_squared():
    p = params(1.3, k=0.7)
    for th in (0.4, 1.1, 2.9):
        lhs = differential_cross_section(p, th)
        assert abs(lhs - abs(rutherford_amplitude(p, th)) ** 2) < 1e-10 * lhs


def test_born_amplitude_screened_values():
    p = params(1.0)
    assert born_amplitude_yukawa(p, 0.0, 1.0) == pytest.approx(-2.0)
    # unscreened limit reproduces the closed-form modulus away from forward
    for th in (0.5, 1.5, 3.0):
        born = born_amplitude_yukawa(p, th, 0.0)
        assert abs(abs(born) - abs(rutherford_amplitude(p, th))) < 1e-12


def test_born_amplitude_screening_limits():
    p = params(1.0)
    # heavy screening kills the amplitude
    assert abs(born_amplitude_yukawa(p, 1.0, 1e6)) < 1e-9
    # continuity in the screening mass near zero at fixed angle
    a = born_amplitude_yukawa(p, 1.0, 1e-8)
    b = born_amplitude_yukawa(p, 1.0, 0.0)
    assert abs(a - b) < 1e-10 * abs(b)


def test_born_amplitude_past_float64_range_matches_mpmath():
    # (gamma, k, theta, mu) where q^2, mu^2 or 2 gamma k overflows while f_B
    # lies in float64's range: these gave 0j, 0j and nan+0j
    mp.dps = 40
    for g, k, theta, mu in ((0.7, 1e200, 1.0, 0.0), (1e100, 1.0, 1.0, 1e200),
                            (1e200, 1e200, 1.0, 0.0),
                            (-1e-300, 1.0, 1e-160, 0.0),
                            (0.7, 1e300, 2.0, 3e299)):
        got = born_amplitude_yukawa(params(g, k), theta, mu)
        ref = -2 * mpf(g) * k / ((2 * k * sin(mpf(theta) / 2)) ** 2
                                 + mpf(mu) ** 2)
        assert abs(got - complex(ref)) < 4e-16 * abs(complex(ref)), (g, k)
    # an array call rescales only the elements that left the range (q^2
    # overflows at theta = 1 and 2): the other keeps its plain-form bits
    p = params(0.7, 1e160)
    theta = np.array([1e-100, 1.0, 2.0])
    got = born_amplitude_yukawa(p, theta, 1.0)
    q = 2.0 * 1e160 * np.sin(theta[:1] / 2.0)
    assert got[0] == born_amplitude_yukawa(p, 1e-100, 1.0) == (
        -2.0 * 0.7 * 1e160 / (q ** 2 + np.float64(1.0) ** 2))[0]
    for t, v in zip(theta[1:], got[1:]):
        ref = -2 * mpf(0.7) * 1e160 / ((2 * mpf(1e160) * sin(mpf(t) / 2)) ** 2
                                       + 1)
        assert abs(v - complex(ref)) < 4e-16 * abs(complex(ref)), t
    # past float64's range above, an ArithmeticError naming the point
    with pytest.raises(ArithmeticError, match="at theta = 1e-10, mu = 0.0:"):
        born_amplitude_yukawa(params(1e300), np.array([1.0, 1e-10]), 0.0)


def test_born_amplitude_errors():
    p = params(1.0)
    with pytest.raises(ValueError):
        born_amplitude_yukawa(p, 1.0, -0.5)
    with pytest.raises(ValueError):
        born_amplitude_yukawa(p, 0.0, 0.0)  # diverges unscreened forward
    for bad in (-0.1, 3.5, [1.0, 3.5]):
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            born_amplitude_yukawa(p, bad, 0.3)
