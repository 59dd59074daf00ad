"""Black-hole long-wavelength layer: parameter mapping, validity gating,
and the full-equation mode used to audit the dropped short-range term."""

import numpy as np
import pytest
from mpmath import hyp1f1 as mp_hyp1f1, im as mp_im, loggamma as mp_loggamma
from mpmath import mp, mpf, pi as mp_pi, sqrt as mp_sqrt

from coulscat import classical
from coulscat.asymptotic import FORM_TOL
from coulscat import (
    BlackHoleParams,
    ScatteringParams,
    coulomb_reduction,
    coulomb_wave_asymptotic,
    coulomb_wave_regular,
    differential_cross_section,
    full_mode_phase_error,
    integrate_full_mode,
    long_wavelength_valid,
    radial_mode_asymptotic,
)


def test_params_validation():
    bh = BlackHoleParams(mass=1.0, omega=0.2)
    assert bh.r_s == 2.0
    assert bh.gamma == -0.4
    with pytest.raises(ValueError):
        BlackHoleParams(mass=-1.0, omega=0.2)
    with pytest.raises(ValueError):
        BlackHoleParams(mass=1.0, omega=0.0)


def test_coulomb_reduction_mapping():
    bh = BlackHoleParams(mass=1.0, omega=0.2)
    p = coulomb_reduction(bh)
    assert p.gamma == -0.4
    assert p.k == 0.2
    # massless limit: free propagation
    assert coulomb_reduction(BlackHoleParams(mass=0.0, omega=1.0)).gamma == 0.0


def test_long_wavelength_validity():
    bh = BlackHoleParams(mass=1.0, omega=0.2)
    assert long_wavelength_valid(bh, 1)
    assert long_wavelength_valid(bh, 5)
    # strong coupling M omega = 1: ell(ell+1) must exceed 12
    strong = BlackHoleParams(mass=1.0, omega=1.0)
    assert not long_wavelength_valid(strong, 3)
    assert long_wavelength_valid(strong, 4)
    with pytest.raises(ValueError):
        long_wavelength_valid(bh, 0)


def test_dropped_term_subdominant_where_valid():
    # the mapping drops 12 M^2 w^2 / r^2 against ell(ell+1)/r^2; whenever
    # the validity gate opens, the kept term really does dominate
    for m, w, ell in [(1.0, 0.2, 1), (1.0, 1.0, 4), (0.05, 1.0, 2)]:
        bh = BlackHoleParams(mass=m, omega=w)
        assert long_wavelength_valid(bh, ell)
        assert ell * (ell + 1) > 12.0 * (m * w) ** 2


def test_cross_section_even_in_coupling_sign():
    # |f|^2 only sees gamma^2: attractive and repulsive scatterers give the
    # same Rutherford distribution
    for theta in (0.5, 1.5, 3.0):
        plus = differential_cross_section(
            ScatteringParams(gamma=0.4, k=1.0), theta)
        minus = differential_cross_section(
            ScatteringParams(gamma=-0.4, k=1.0), theta)
        assert plus == pytest.approx(minus, rel=1e-13)


def test_radial_mode_asymptotic_free_limit():
    # mass = 0 reduces to the plane-wave two-exponential partial wave
    bh = BlackHoleParams(mass=0.0, omega=1.0)
    got = radial_mode_asymptotic(bh, 2, 70.0)
    ref = coulomb_wave_asymptotic(2, 0.0, 70.0)
    assert abs(got - ref) < 1e-12 * abs(ref)


def test_radial_mode_asymptotic_validity_errors():
    strong = BlackHoleParams(mass=1.0, omega=1.0)
    with pytest.raises(ValueError):
        radial_mode_asymptotic(strong, 2, 1000.0)  # mapping uncontrolled
    weak = BlackHoleParams(mass=0.05, omega=1.0)
    with pytest.raises(ValueError, match=r"^omega r = 10\.0 too small: .* "
                       r"est = 0\.301 needs est \(1 \+ est\) < 0\.1$"):
        radial_mode_asymptotic(weak, 2, 10.0)  # not asymptotic yet
    # an empty r has nothing to reject
    assert radial_mode_asymptotic(weak, 2, np.zeros(0)).shape == (0,)


def test_radial_mode_asymptotic_within_its_tolerance():
    # every omega r radial_mode_asymptotic accepts puts the two-wave form
    # within FORM_TOL of the regular wave, relative to its envelope
    # 2 ell + 1 (the map's gamma = -2 M omega is never positive)
    rng = np.random.default_rng(3141)
    accepted = 0
    for _ in range(60):
        gamma, ell = -rng.uniform(0.0, 5.0), int(rng.integers(1, 31))
        bh = BlackHoleParams(mass=-gamma / 2.0, omega=1.0)
        if not long_wavelength_valid(bh, ell):
            continue
        for rho in np.exp(rng.uniform(np.log(20.0), np.log(3000.0), 8)):
            try:
                u = radial_mode_asymptotic(bh, ell, rho)
            except ValueError:
                continue
            w = coulomb_wave_regular(ell, gamma, rho)
            assert abs(rho * u - w) / (2 * ell + 1) <= FORM_TOL
            accepted += 1
    assert accepted > 50


def test_radial_mode_asymptotic_matches_coulomb_wave():
    bh = BlackHoleParams(mass=0.05, omega=1.0)
    p = coulomb_reduction(bh)
    r = 500.0
    got = radial_mode_asymptotic(bh, 2, r)
    ref = coulomb_wave_regular(2, p.gamma, p.k * r) / (p.k * r)
    assert abs(got - ref) < 1e-2 * abs(ref)


def test_integrator_validation():
    bh = BlackHoleParams(mass=0.05, omega=1.0)
    with pytest.raises(ValueError):
        integrate_full_mode(bh, -1, 100.0)
    with pytest.raises(ValueError):
        integrate_full_mode(bh, 2, 0.5, r_start=1.0)
    with pytest.raises(ValueError):
        integrate_full_mode(bh, 2, 100.0, r_start=0.05)
    with pytest.raises(ValueError):
        integrate_full_mode(bh, 2, np.array([0.5, 50.0]), r_start=1.0)


def test_integrator_tracks_coulomb_mode():
    # the dropped short-range term only matters near the hole; starting
    # from shared initial data the two solutions stay close far out
    bh = BlackHoleParams(mass=0.05, omega=1.0)
    p = coulomb_reduction(bh)
    r_end = 500.0
    full = integrate_full_mode(bh, 2, r_end)
    coul = coulomb_wave_regular(2, p.gamma, p.k * r_end)
    assert abs(full - coul) < 1e-2 * abs(coul)


def test_integrator_r_eval_array():
    bh = BlackHoleParams(mass=0.05, omega=1.0)
    rs = np.array([50.0, 120.0, 300.0])
    vals = integrate_full_mode(bh, 2, rs)
    assert vals.shape == (3,)
    assert np.iscomplexobj(vals)
    # endpoint value consistent with the scalar call
    end = integrate_full_mode(bh, 2, 300.0)
    assert abs(vals[-1] - end) < 1e-9 * abs(end)


def test_integrator_free_limit_is_bessel():
    # mass = 0: the full equation is the free radial equation, and the
    # integrated mode must agree with the Bessel form downstream
    bh = BlackHoleParams(mass=0.0, omega=1.0)
    r_end = 80.0
    got = integrate_full_mode(bh, 2, r_end, r_start=5.0)
    ref = coulomb_wave_regular(2, 0.0, r_end)
    assert abs(got - ref) < 1e-6 * abs(ref)


# 40-digit mpmath full mode alpha F_lambda + beta G_lambda (coulombf,
# coulombg at order lambda, lambda(lambda+1) = ell(ell+1) - 12 (M omega)^2,
# eta = -2 M omega), with alpha, beta matched to the mpmath Coulomb-wave
# initial data u0 = (2 ell + 1) i^ell e^{i sigma_ell} F_ell and its
# derivative at r_start. Rows: (mass, omega, ell, r_start, ((r, u(r)), ...)).
# lambda = 1.99399 (the README case), -0.031, -0.5 + 0.911i, 0.830 and
# 199.97. The rows at omega r >= 1e4 lie far past the matching radius (for
# ell = 200 the anchor chain carries w down by 10^-366 before r = 1e4).
FULL_MODE_MPMATH = [
    (0.05, 1.0, 2, 1.0, (
        (50.0, complex(0.8446311847631078498, -0.078185101098690706553)),
        (120.0, complex(4.4170416951572808097, -0.40887295866285468858)),
        (300.0, complex(-4.2183591368928627035, 0.39048148060156710638)),
        (500.0, complex(-4.398240551238985511, 0.40713259036419279221)),
        (1e4, complex(-4.6305485168160582845, 0.42863667652905390204)),
        (1e5, complex(-4.4016807815508777082, 0.40745104267756967819)),
    )),
    (0.05, 1.0, 0, 1.0, (
        (50.0, complex(0.26739345980021121363, 0.01534459007611035414)),
        (500.0, complex(-0.94925084077938421857, -0.054473527669846334043)),
    )),
    (1.0, 0.3, 0, 20.0, (
        (100.0, complex(0.94319292482429962646, 0.26382460627070961191)),
        (1000.0, complex(0.49552236439488976823, 0.13860472151990091509)),
        (4e4, complex(-0.66432681216754378737, -0.18582174976325956859)),
    )),
    (1.0, 0.2, 1, 20.0, (
        (100.0, complex(0.42409015814805248721, 2.4218763266476527732)),
        (1000.0, complex(-0.17411818864777355712, -0.99434686474755995606)),
        (5e4, complex(-0.27058141476656753138, -1.5452250194054376446)),
    )),
    (0.05, 1.0, 200, 150.0, (
        (1e4, complex(-122.06425324360617757, 71.532892021776877806)),
    )),
]


def test_full_mode_frozen_mpmath():
    for mass, omega, ell, r_start, rows in FULL_MODE_MPMATH:
        r = np.array([row[0] for row in rows])
        ref = np.array([row[1] for row in rows])
        got = integrate_full_mode(BlackHoleParams(mass=mass, omega=omega), ell,
                                  r, r_start=r_start)
        rel = np.abs(got - ref) / np.abs(ref)
        assert np.all(rel < 1e-10), (mass, omega, ell, rel)


# 40-digit mpmath delta_full - delta_ell at the default r_start = 10 r_s:
# the full mode w = A M(a, b, z) + B z^{1-b} M(a-b+1, 2-b, z) matched to the
# ell wave's data, c1 and c2 from Kummer's connection formulas (DLMF
# 13.2.41 with 13.7.2), checked against the F_lambda, G_lambda form where
# lambda is real. Rows: (mass, omega, ell, phase error); lambda = 1.99399,
# -0.031, -0.5 + 0.911i, 0.830, 2.842 and 19.9993.
PHASE_ERROR_MPMATH = [
    (0.05, 1.0, 2, 0.0096418103674351977848),
    (0.05, 1.0, 0, 0.019048792728868884174),
    (1.0, 0.3, 0, 0.087236504995571384793),
    (1.0, 0.2, 1, 0.059445246526005940398),
    (0.3, 1.0, 3, 0.086800687329453516974),
    (0.05, 1.0, 20, 0.0011529523746883899514),
]


def test_full_mode_phase_error_frozen_mpmath():
    for mass, omega, ell, ref in PHASE_ERROR_MPMATH:
        got = full_mode_phase_error(BlackHoleParams(mass=mass, omega=omega),
                                    ell)
        assert abs(got - ref) < 1e-12, (mass, omega, ell, got - ref)


def test_full_mode_phase_error_of_pure_regular_wave(monkeypatch):
    # started as the regular Coulomb wave F_lambda itself (w = M(a, b, z)),
    # the mode's S-matrix element is e^{2 i (sigma_lambda - lambda pi/2)},
    # so the error is sigma_lambda - sigma_ell + (ell - lambda) pi/2
    real_start = classical._full_mode_start

    def regular_start(bh, ell, r_start):
        start = real_start(bh, ell, r_start)
        rho0, a, b = start[2], start[4], start[5]
        z0 = 2j * rho0
        dw0 = complex(a / b * mp_hyp1f1(a + 1, b + 1, z0)
                      / mp_hyp1f1(a, b, z0))
        return start[:-1] + (dw0,)

    monkeypatch.setattr(classical, "_full_mode_start", regular_start)
    for mass, omega, ell in ((0.05, 1.0, 2), (0.05, 1.0, 0), (1.0, 0.2, 1)):
        bh = BlackHoleParams(mass=mass, omega=omega)
        with mp.workdps(30):
            lam = -0.5 + mp_sqrt((ell + 0.5) ** 2
                                 - 12 * (mpf(mass) * omega) ** 2)
            sigmas = [mp_im(mp_loggamma(order + 1 + 1j * mpf(bh.gamma)))
                      for order in (lam, ell)]
            ref = float(sigmas[0] - sigmas[1] + (ell - lam) * mp_pi / 2)
            got = full_mode_phase_error(bh, ell)
        assert abs(got - ref) < 1e-12, (mass, omega, ell, got - ref)


# The README bh_mode scan (M = 0.05, omega = 1, ell = 2, r = 50..500 in 40
# steps, r_start = 10 r_s): its full-mode column u(r) / (omega r) at five of
# the 40 radii, 40-digit mpmath alpha F_lambda + beta G_lambda as in
# FULL_MODE_MPMATH. max |u / (omega r)| over the scan is 0.0649.
README_FULL_MODE = [
    (0, complex(0.016892623695262156, -0.0015637020219738138)),
    (3, complex(-0.014879887510811691, 0.0013773887708115463)),
    (6, complex(0.013797422789527437, -0.0012771880971966924)),
    (12, complex(0.012372052210038394, -0.0011452456057627464)),
    (39, complex(-0.00879648110247797, 0.0008142651807283855)),
]


def test_readme_full_mode_frozen_mpmath():
    # for real gamma and lambda w'/w at the start has real part exactly 1/2;
    # a rounding-size error there grows ~100x along the mode (to 9.4e-15 of
    # the scan's max |mode| at r = 50); 2e-16 is 3e-15 of it
    bh = BlackHoleParams(mass=0.05, omega=1.0)
    rows = [row[0] for row in README_FULL_MODE]
    r = np.linspace(50.0, 500.0, 40)[rows]
    got = integrate_full_mode(bh, 2, r) / (bh.omega * r)
    ref = np.array([row[1] for row in README_FULL_MODE])
    assert np.max(np.abs(got - ref)) < 2e-16


def test_full_mode_value_independent_of_batch():
    bh = BlackHoleParams(mass=0.05, omega=1.0)
    vals = integrate_full_mode(bh, 2, [50.0, 120.0, 300.0])
    assert integrate_full_mode(bh, 2, 300.0) == vals[-1]


def test_full_mode_massless_is_coulomb_wave():
    # M = 0 gives lambda = ell and gamma = 0: the full equation is the free
    # one. Measured against the wave's amplitude, since points near its
    # nodes have no relative accuracy to offer.
    bh = BlackHoleParams(mass=0.0, omega=1.0)
    r = np.linspace(5.0, 1000.0, 80)
    for ell in (0, 1, 2, 5, 10):
        got = integrate_full_mode(bh, ell, r, r_start=r[0])
        ref = coulomb_wave_regular(ell, 0.0, r)
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref)), ell


def test_full_mode_errors_name_what_the_caller_can_change():
    # at mass 0 the default r_start, ten Schwarzschild radii, is 0: the
    # callers that passed no r_start are told of the mass
    flat = BlackHoleParams(mass=0.0, omega=1.0)
    for call in (lambda: integrate_full_mode(flat, 2, 100.0),
                 lambda: full_mode_phase_error(flat, 2)):
        with pytest.raises(ValueError, match=r"^mass must lie in \(0, inf\) "
                           "for the default r_start of ten Schwarzschild "
                           "radii, got mass = 0.0$"):
            call()
    # the underflow names ell, and r_start only to a caller that passed it
    bh = BlackHoleParams(mass=0.05, omega=1.0)
    with pytest.raises(ArithmeticError, match=r"^the ell = 600 wave "
                       r"underflows float64 at r_start = 1 \(ten "
                       r"Schwarzschild radii\)$"):
        full_mode_phase_error(bh, 600)
    with pytest.raises(ArithmeticError, match="^the ell = 200 wave underflows "
                       "float64 at r_start = 1; raise r_start$"):
        integrate_full_mode(flat, 200, 10.0, r_start=1.0)


def test_full_mode_raises_outside_float64_range():
    # F_200 at rho = 1 is ~1e-400: no float64 initial data to carry
    bh = BlackHoleParams(mass=0.0, omega=1.0)
    with pytest.raises(ArithmeticError, match="r_start"):
        integrate_full_mode(bh, 200, 10.0, r_start=1.0)


def test_flat_spacetime_mode_is_plane_wave_mode():
    # with mass exactly zero the asymptotic radial mode agrees with the
    # exact free partial wave to the usual 1/rho accuracy
    bh = BlackHoleParams(mass=0.0, omega=1.0)
    r = 200.0
    asym = radial_mode_asymptotic(bh, 1, r)
    exact = coulomb_wave_regular(1, 0.0, r) / r
    assert abs(asym - exact) < 2e-2 / r
