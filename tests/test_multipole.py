"""Partial-wave layer: phase-shift factors, regular radial waves, the
divergent amplitude series and its two repaired forms, Legendre expansion
of the power-law profile, and the free-wave reference."""

import numpy as np
import pytest
from mpmath import mp, coulombf
from scipy.integrate import quad
from scipy.special import eval_legendre

from coulscat import (
    CesaroState,
    FieldPoint,
    ScatteringParams,
    coulomb_wave_asymptotic,
    coulomb_wave_regular,
    differential_cross_section,
    f_closed_form,
    f_reduced_series,
    f_series_cesaro,
    f_series_partial_sum,
    f_series_partial_sweep,
    legendre_power_law_coeff,
    phase_shift,
    phase_shift_recurrence_check,
    phase_shift_sweep,
    plane_wave_partial,
    psi_exact,
    psi_multipole_sum,
    rutherford_amplitude_phase_separated,
    spherical_bessel_j,
)
from coulscat.specfun import legendre_sweep

mp.dps = 40

# 40-digit evaluations
COULOMB_WAVE_FROZEN = complex(-4.061269875228593, -3.1168121617428031)
# ell=2, gamma=0.7, rho=19
F_CLOSED_FROZEN = complex(-0.33564222985035685, 0.10955927727388413)
# gamma=0.5, k=1, theta=2
DELTA0_GAMMA1 = -0.3016403204675332  # arg Gamma(1 + i)


def params(g, k=1.0):
    return ScatteringParams(gamma=g, k=k)


def test_phase_factor_unit_modulus():
    rng = np.random.default_rng(2)
    ells = np.unique(rng.integers(0, 1001, size=40))
    for g in (0.1, 1.0, 10.0):
        for ell in ells:
            f = phase_shift(int(ell), g).factor
            assert abs(abs(f) - 1.0) < 1e-12


def test_phase_shift_seed_value():
    ps = phase_shift(0, 1.0)
    assert ps.delta == pytest.approx(DELTA0_GAMMA1, abs=1e-15)
    assert ps.factor == pytest.approx(np.exp(2j * DELTA0_GAMMA1), abs=1e-14)


def test_phase_shift_neutral():
    for ell in (0, 3, 40):
        ps = phase_shift(ell, 0.0)
        assert ps.factor == 1.0 + 0.0j
        assert ps.delta == 0.0


def test_phase_shift_principal_value():
    # delta is reported wrapped to (-pi, pi] even deep in the sweep
    for ell in (0, 17, 400):
        d = phase_shift(ell, 10.0).delta
        assert -np.pi < d <= np.pi


def test_phase_shift_errors():
    with pytest.raises(ValueError):
        phase_shift(-1, 1.0)
    with pytest.raises(ValueError):
        phase_shift_sweep(-1, 1.0)
    with pytest.raises(ValueError):
        phase_shift_recurrence_check(0, 1.0)


def test_sweep_matches_direct():
    for g in (0.3, 2.0, 10.0):
        sweep = phase_shift_sweep(120, g)
        for ell in (0, 1, 7, 63, 120):
            assert abs(sweep[ell] - phase_shift(ell, g).factor) < 1e-12


def test_recurrence_check_tight():
    assert phase_shift_recurrence_check(5, 0.8) < 1e-12
    assert phase_shift_recurrence_check(200, 2.0) < 1e-12
    assert phase_shift_recurrence_check(50, 10.0) < 1e-11


# 40-digit mpmath partial waves at small rho (|z| = 2 rho <= 20 in the
# Kummer factor), the same form as COULOMB_WAVE_LARGE_ELL below; gamma = -20
# at rho = 10 is where M is small against its terms
COULOMB_WAVE_SMALL_RHO = [
    (0, -20.0, 10.0, complex(-0.0050528653108629354830, -0.00073695554730177014702)),
    (0, 20.0, 10.0, complex(-7.9628019288904055401e-12, 1.1613670051614407725e-12)),
    (2, -0.1, 1.0, complex(-0.34867949037081407568, 0.032276266490596182988)),
    (30, -1.0, 8.0, complex(7.1212079804383953371e-13, -2.0196824353158339205e-13)),
    (60, 0.5, 9.5, complex(-9.8798921005292871954e-41, 1.8952656925571932802e-40)),
    (1, -5.0, 0.3, complex(-0.99720740567206703721, 0.51524719130536699098)),
]


def test_coulomb_wave_frozen_value():
    got = coulomb_wave_regular(2, 0.7, 19.0)
    assert abs(got - COULOMB_WAVE_FROZEN) < 1e-12 * abs(COULOMB_WAVE_FROZEN)
    for ell, g, rho, ref in COULOMB_WAVE_SMALL_RHO:
        got = coulomb_wave_regular(ell, g, rho)
        assert abs(got - ref) < 2e-12 * abs(ref), (ell, g, rho, got)


# 40-digit mpmath (2 ell + 1) i^ell e^{i sigma_ell} F_ell(gamma, rho) from
# the Kummer form, sigma_ell = arg Gamma(ell + 1 + i gamma); the moduli
# equal (2 ell + 1) |coulombf(ell, gamma, rho)|. Here |a|^2 >> |z|, where
# the large-|z| expansion of 1F1 does not hold.
COULOMB_WAVE_LARGE_ELL = [
    (200, 1.0, 500.0, complex(-212.54515812645538092, 318.52238337668994649)),
    (100, 1.0, 400.0, complex(-16.517429214517424406, -161.03873233482146953)),
    (150, -5.0, 600.0, complex(252.1024131289058521, 15.649684538819052191)),
    (300, 2.0, 1000.0, complex(-236.01590725345116776, 535.19427538335502856)),
]


def test_coulomb_wave_large_ell_far_out_frozen_mpmath():
    for ell, g, rho, ref in COULOMB_WAVE_LARGE_ELL:
        got = coulomb_wave_regular(ell, g, rho)
        assert abs(got - ref) < 1e-11 * abs(ref), (ell, g, rho, got)


def test_coulomb_wave_matches_mpmath():
    # mpmath's regular Coulomb function F_ell(eta, rho) carries a different
    # normalization; compare after stripping both prefactors via the ratio
    # at two radii, which cancels every rho-independent factor
    for ell, g, rho1, rho2 in [(0, 0.5, 3.0, 11.0), (3, 1.2, 7.0, 21.0)]:
        ours = (coulomb_wave_regular(ell, g, rho1)
                / coulomb_wave_regular(ell, g, rho2))
        ref = complex(coulombf(ell, g, rho1) / coulombf(ell, g, rho2))
        assert abs(ours - ref) < 1e-9 * abs(ref)


def test_coulomb_wave_at_origin_and_validation():
    assert coulomb_wave_regular(1, 0.6, 0.0) == 0.0
    arr = coulomb_wave_regular(1, 0.6, np.array([0.0, 2.0]))
    assert arr[0] == 0.0 and arr[1] != 0.0
    with pytest.raises(ValueError):
        coulomb_wave_regular(-1, 0.6, 1.0)
    with pytest.raises(ValueError):
        coulomb_wave_regular(1, 0.6, -1.0)


def test_coulomb_wave_neutral_is_bessel():
    for ell in (0, 1, 5):
        for rho in (0.7, 4.0, 18.0):
            got = coulomb_wave_regular(ell, 0.0, rho)
            ref = ((2 * ell + 1) * 1j ** ell * rho
                   * spherical_bessel_j(ell, rho))
            assert abs(got - ref) < 1e-12 * max(1.0, abs(ref))


def test_coulomb_wave_radial_equation():
    # u'' + (1 - 2 gamma/rho - ell(ell+1)/rho^2) u = 0
    h = 1e-3
    for ell, g, rho in [(0, 0.5, 4.0), (2, 1.5, 9.0), (5, 0.3, 14.0)]:
        u0 = coulomb_wave_regular(ell, g, rho)
        up = coulomb_wave_regular(ell, g, rho + h)
        um = coulomb_wave_regular(ell, g, rho - h)
        d2 = (up - 2 * u0 + um) / h ** 2
        resid = d2 + (1.0 - 2.0 * g / rho - ell * (ell + 1) / rho ** 2) * u0
        assert abs(resid) < 1e-5 * max(1.0, abs(u0)), (ell, g, rho)


def test_coulomb_wave_two_exponential_form():
    # far out the regular wave divided by rho approaches the two-wave form
    ell, g, rho = 2, -0.4, 300.0
    full = coulomb_wave_regular(ell, g, rho) / rho
    asym = coulomb_wave_asymptotic(ell, g, rho)
    assert abs(full - asym) < 2e-2 * abs(full)
    with pytest.raises(ValueError):
        coulomb_wave_asymptotic(ell, g, 0.0)


def test_multipole_sum_reconstructs_exact_field():
    p = params(1.0)
    for rho, theta in [(5.0, 1.0), (10.0, 2.5)]:
        pt = FieldPoint(rho=rho, theta=theta)
        ell_max = int(rho + 10 * p.gamma + 30)
        got = psi_multipole_sum(p, pt, ell_max)
        ref = psi_exact(p, pt)
        assert abs(got - ref) < 1e-8, (rho, theta)
    with pytest.raises(ValueError):
        psi_multipole_sum(p, FieldPoint(rho=3.0, theta=1.0), -1)


def test_multipole_sum_truncation_decays():
    p = params(0.5)
    pt = FieldPoint(rho=6.0, theta=1.2)
    ref = psi_exact(p, pt)
    errs = [abs(psi_multipole_sum(p, pt, L) - ref) for L in (8, 14, 20)]
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-9


def test_partial_sum_neutral_is_zero():
    p = params(0.0)
    for L in (0, 5, 60):
        assert abs(f_series_partial_sum(p, 2.0, L)) < 1e-12


def test_partial_sweep_consistency():
    p = params(3.0)
    sweep = f_series_partial_sweep(p, 1.7, 50)
    assert len(sweep) == 51
    assert f_series_partial_sum(p, 1.7, 50) == complex(sweep[-1])
    # increments follow the term formula
    leg = legendre_sweep(50, np.cos(1.7))
    factors = phase_shift_sweep(50, p.gamma)
    term7 = (15.0 / (2j * p.k)) * (factors[7] - 1.0) * leg[7]
    assert abs((sweep[7] - sweep[6]) - term7) < 1e-14


def test_partial_sum_suppressed_near_quiet_shifts():
    # where delta_ell sits on a multiple of pi the series factor
    # e^{2 i delta} - 1 nearly vanishes and the local oscillation stalls
    p = params(10.0)
    sweep = f_series_partial_sweep(p, 2.0, 300)
    inc = np.abs(np.diff(sweep))
    deltas = np.array([phase_shift(ell, 10.0).delta for ell in range(301)])
    dist = np.abs((deltas + np.pi / 2) % np.pi - np.pi / 2)
    quiet = [ell for ell in range(30, 290)
             if dist[ell] < 0.05
             and dist[ell] <= dist[ell - 1] and dist[ell] <= dist[ell + 1]]
    assert quiet  # the sweep passes through at least one quiet point
    for ell in quiet:
        window = inc[ell - 25:ell + 25]
        assert inc[ell - 1] < 0.1 * window.max(), ell


def test_cesaro_state_is_mean_of_partial_sums():
    rng = np.random.default_rng(31)
    terms = rng.normal(size=12) + 1j * rng.normal(size=12)
    state = CesaroState()
    with pytest.raises(ValueError):
        state.value
    partials = np.cumsum(terms)
    for i, t in enumerate(terms):
        state.add(t)
        ref = np.mean(partials[: i + 1])
        assert abs(state.value - ref) < 1e-13


def test_cesaro_converges_to_closed_form():
    p = params(0.5)
    theta = 1.0
    ref = f_closed_form(p, theta)
    errs = [abs(f_series_cesaro(p, theta, n) - ref) for n in (100, 300, 1000)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02 * abs(ref)


def test_cesaro_array_matches_scalar():
    p = params(0.5)
    thetas = np.array([0.4, 1.3, 2.9])
    batch = f_series_cesaro(p, thetas, 200)
    for i, t in enumerate(thetas):
        assert batch[i] == f_series_cesaro(p, float(t), 200)


def test_cesaro_validation():
    p = params(0.5)
    with pytest.raises(ValueError):
        f_series_cesaro(p, 1.0, 0)
    with pytest.raises(ValueError):
        f_series_cesaro(p, 0.0, 10)
    assert f_series_cesaro(params(0.0), 1.0, 50) == 0.0


def test_reduced_series_recovers_amplitude():
    p = params(0.5)
    ref = f_closed_form(p, 2.0)
    assert abs(ref - F_CLOSED_FROZEN) < 1e-14
    got = f_reduced_series(p, 2.0, 400)
    assert abs(got - ref) < 1e-4 * abs(ref)


def test_reduced_series_array_and_validation():
    p = params(0.5)
    thetas = np.array([0.5, 1.5, 2.5])
    batch = f_reduced_series(p, thetas, 300)
    for i, t in enumerate(thetas):
        assert batch[i] == f_reduced_series(p, float(t), 300)
    for bad in (0.0, np.pi, 3.5):
        with pytest.raises(ValueError):
            f_reduced_series(p, bad, 100)
    assert f_reduced_series(params(0.0), 1.0, 100) == 0.0


def test_reduced_series_term_decay():
    # the summand falls like ell^(-3/2): O(1/ell) bracket times the
    # ell^(-1/2) Legendre envelope; fit block RMS over [50, 1000]
    g, theta = 0.5, 1.0
    ell_max = 1000
    factors = phase_shift_sweep(ell_max, g)
    ells = np.arange(ell_max + 1)
    leg = legendre_sweep(ell_max, np.cos(theta))
    bracket = ells / (ells + 1j * g) - (ells + 1.0) / (ells + 1.0 - 1j * g)
    terms = np.abs(factors * bracket * leg)
    edges = np.unique(np.geomspace(50, 1000, 9).astype(int))
    mids = np.sqrt(edges[:-1] * edges[1:])
    rms = [np.sqrt(np.mean(terms[a:b] ** 2))
           for a, b in zip(edges[:-1], edges[1:])]
    slope = np.polyfit(np.log(mids), np.log(rms), 1)[0]
    assert -1.7 < slope < -1.3


def test_closed_form_properties():
    p = params(0.7, k=1.4)
    for theta in (0.5, 1.8, 3.0):
        f = f_closed_form(p, theta)
        assert f == rutherford_amplitude_phase_separated(p, theta)
        assert abs(abs(f) ** 2
                   - differential_cross_section(p, theta)) < 1e-12


def test_power_law_coeff_simple_cases():
    # a = 1 means a constant profile: only the ell = 0 coefficient survives
    assert legendre_power_law_coeff(1.0, 0) == pytest.approx(1.0)
    for ell in (1, 2, 5):
        assert abs(legendre_power_law_coeff(1.0, ell)) < 1e-15
    # a = 1/2: c_0 = 2^(-1/2) * 1 / (1/2) = sqrt(2)
    assert legendre_power_law_coeff(0.5, 0) == pytest.approx(np.sqrt(2.0))
    with pytest.raises(ValueError):
        legendre_power_law_coeff(0.0, 1)
    with pytest.raises(ValueError):
        legendre_power_law_coeff(-1.0 + 2j, 1)
    with pytest.raises(ValueError):
        legendre_power_law_coeff(0.5, -1)


def test_power_law_coeff_against_quadrature():
    # c_ell = (2 ell + 1)/2 * integral of (1-x)^(a-1) P_ell(x) dx
    for a in (0.5, 0.9, 2.3):
        for ell in (0, 1, 4, 9):
            val, _ = quad(
                lambda x: (1.0 - x) ** (a - 1.0) * eval_legendre(ell, x),
                -1.0, 1.0, points=[1.0] if a < 1.0 else None, limit=200)
            ref = (2 * ell + 1) / 2.0 * val
            got = legendre_power_law_coeff(a, ell)
            assert abs(got - ref) < 1e-8 * max(1.0, abs(ref)), (a, ell)


def test_power_law_partial_reconstruction():
    # truncated expansion of (1-x)^(a-1) evaluated at one interior point;
    # the endpoint singularity at x = 1 makes convergence slow, so the
    # bounds here are the measured ones, not wishful thinking
    a, x = 0.7, 0.3
    target = (1.0 - x) ** (a - 1.0)
    coeffs = [legendre_power_law_coeff(a, ell) for ell in range(1001)]
    leg = legendre_sweep(1000, np.float64(x))
    partial = np.cumsum([np.real(c) * leg[ell]
                         for ell, c in enumerate(coeffs)])
    err60 = abs(partial[60] - target)
    err1000 = abs(partial[1000] - target)
    assert err60 < 2e-2
    assert err1000 < 1e-3
    assert err1000 < err60


def test_plane_wave_partial_values():
    # ell = 0 at moderate rho: the two forms are identical (j_0 is exactly
    # the two-exponential expression)
    pw = plane_wave_partial(0, 4.0)
    assert abs(pw.exact - pw.asymptotic) < 1e-14
    # far zone: close agreement for low ell
    pw = plane_wave_partial(3, 50.0)
    assert abs(pw.exact - pw.asymptotic) < 1e-2
    # deep sub-threshold: the exact term is essentially zero while the
    # two-exponential form stays O(1/rho)
    pw = plane_wave_partial(30, 5.0)
    assert abs(pw.exact) < 1e-15
    assert abs(pw.asymptotic) > 1.0
    with pytest.raises(ValueError):
        plane_wave_partial(-1, 5.0)
    with pytest.raises(ValueError):
        plane_wave_partial(2, 0.0)


def test_legendre_recurrence_identity():
    # the rolling Bonnet recurrence used by the incremental sweeps must
    # agree with the direct sweep far past the acceptance grids
    x = np.cos(1.234)
    leg = legendre_sweep(500, x)
    for ell in range(2, 501):
        resid = (ell * leg[ell] - (2 * ell - 1) * x * leg[ell - 1]
                 + (ell - 1) * leg[ell - 2])
        assert abs(resid) < 1e-12
