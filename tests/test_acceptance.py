"""Acceptance suite: one test per numbered criterion, at the stated tolerance.

Each criterion is a single test so that ``pytest -v`` prints one pass/fail
line per criterion.  Where a criterion has several clauses, they are
asserted in order so a failure pinpoints the clause that broke.

Two criteria compare against mpmath values frozen into this file:

* criterion 5 pins ``f_series_cesaro`` (gamma = 0.5, k = 1) to (C,1) means
  computed in mpmath at dps 30 as sum_{ell=0..n} (1 - ell/(n+1))
  ((2 ell + 1)/(2i)) (Gamma(ell+1+i gamma)/Gamma(ell+1-i gamma) - 1)
  P_ell(cos theta), with ``mpmath.legendre`` for P_ell and theta taken as
  the float64 value the test passes.  It also checks the two regimes of
  the mean: convergence for theta < pi, and an O(1) oscillation at
  theta = pi, where the terms grow linearly in ell and the series is not
  (C,1)-summable (Hardy, Divergent Series, 1949, Thm 46: a (C,1)-summable
  series has terms a_n = o(n)).

* criterion 9 pins the exact field's radial current (gamma = 0.4, rho = 10,
  k = 1) to J_r = Im(psi* d_rho psi) evaluated analytically in mpmath at
  dps 40, with psi = e^{-pi gamma/2} Gamma(1 + i gamma) e^{i rho cos theta}
  M(-i gamma, 1, i rho s) and d/dz M(a, 1, z) = a M(a + 1, 2, z).
"""

import math

import numpy as np
import pytest

from coulscat import (
    BlackHoleParams,
    FieldPoint,
    ScatteringParams,
    born_amplitude_yukawa,
    coulomb_reduction,
    coulomb_wave_regular,
    current_decomposition_asymptotic,
    current_numeric,
    current_outgoing_exact,
    current_scattered_asymptotic,
    f_reduced_series,
    f_series_cesaro,
    f_series_partial_sweep,
    integrate_full_mode,
    interference_radial_leading,
    oscillation_length,
    phase_shift,
    psi_asymptotic,
    psi_exact,
    psi_multipole_sum,
    rutherford_amplitude,
    rutherford_amplitude_phase_separated,
    schrodinger_residual,
)
from coulscat.cli import _spec_from_mapping, load_preset, run_scan

# (C,1) means of the amplitude series at gamma = 0.5, k = 1, keyed by
# (theta, n); mpmath at dps 30, formula in the module docstring.
CESARO_FROZEN = {
    (0.25, 1000): complex(0.55251219660428636, -15.931485225748582),
    (2.0, 1000): complex(-0.33293673739124126, 0.11035768282156492),
    (math.pi, 1000): complex(-0.074398641210566769, 0.16463747582730632),
    (3.1, 300): complex(-0.24233803059840528, 0.12327167383412077),
}

# Exact-field radial current at gamma = 0.4, rho = 10, k = 1, keyed by
# theta; analytic in mpmath at dps 40, formula in the module docstring.
JR_EXACT_FROZEN = {
    0.05: 0.22347005483457781601,
    0.5: 0.45626965003841837117,
}


def test_criterion_01_forward_modulus_identity():
    """|psi(theta=0)| * exp(pi*gamma/2) equals sqrt(pi*gamma/sinh(pi*gamma))
    to a relative 1e-10 for gamma in {0.1, 0.5, 1, 2}."""
    for gamma in (0.1, 0.5, 1.0, 2.0):
        p = ScatteringParams(gamma=gamma, k=1.0)
        measured = abs(psi_exact(p, FieldPoint(rho=7.0, theta=0.0)))
        lhs = measured * math.exp(math.pi * gamma / 2.0)
        rhs = math.sqrt(math.pi * gamma / math.sinh(math.pi * gamma))
        rel = abs(lhs - rhs) / rhs
        assert rel < 1e-10, f"gamma={gamma}: rel={rel:.3e}"


def test_criterion_02_multipole_matches_exact():
    """Partial-wave reconstruction with ell_max = rho + 10*gamma + 30 agrees
    with the closed-form field to 1e-8 absolute on an 18-point grid."""
    worst = 0.0
    for gamma in (0.5, 1.0):
        p = ScatteringParams(gamma=gamma, k=1.0)
        for rho in (2.0, 5.0, 10.0):
            ell_max = int(rho + 10.0 * gamma + 30.0)
            for theta in (0.3, 1.0, 2.5):
                pt = FieldPoint(rho=rho, theta=theta)
                err = abs(psi_multipole_sum(p, pt, ell_max) - psi_exact(p, pt))
                worst = max(worst, err)
    assert worst < 1e-8, f"worst abs error {worst:.3e}"


def test_criterion_03_asymptotic_breakdown_and_validity():
    """At gamma=1, rho=10 the asymptotic form overshoots the exact modulus by
    a factor > 5 at theta=0.05, yet matches within 5% wherever rho*s > 5."""
    p = ScatteringParams(gamma=1.0, k=1.0)
    rho = 10.0

    pt = FieldPoint(rho=rho, theta=0.05)
    blowup = abs(psi_asymptotic(p, pt).total) / abs(psi_exact(p, pt))
    assert blowup > 5.0, f"forward overshoot factor {blowup:.2f}"

    theta_min = math.acos(1.0 - 5.0 / rho) + 1e-9
    worst = 0.0
    for theta in np.linspace(theta_min, math.pi, 600):
        pt = FieldPoint(rho=rho, theta=float(theta))
        exact = abs(psi_exact(p, pt))
        approx = abs(psi_asymptotic(p, pt).total)
        worst = max(worst, abs(approx - exact) / exact)
    assert worst < 0.05, f"worst modulus mismatch {worst:.4f}"


def test_criterion_04_partial_sum_growth_exponent():
    """The running peak of |partial sums| at gamma=10, theta=2 grows like
    ell_max**x with x = 0.5 +/- 0.1 over ell_max in [100, 2000]."""
    p = ScatteringParams(gamma=10.0, k=1.0)
    sweep = f_series_partial_sweep(p, 2.0, 2000)
    peaks = np.maximum.accumulate(np.abs(sweep))
    ells = np.arange(len(sweep))
    lo = 100
    exponent = np.polyfit(np.log(ells[lo:]), np.log(peaks[lo:]), 1)[0]
    assert abs(exponent - 0.5) < 0.1, f"growth exponent {exponent:.4f}"


def test_criterion_05_cesaro_two_percent_band():
    """Cesaro averaging at gamma = 0.5 on theta in [0.2, pi]: the widest
    angular band within 2% of the closed form widens from n=100 to n=1000;
    the (C,1) means match the frozen mpmath values within 1e-10 relative,
    theta = pi included; on [0.2, pi) the worst relative error falls by at
    least sqrt(10) from n=100 to n=1000 (the n^{-1/2} rate); and at
    theta = pi consecutive means still differ by more than 0.5 |f| at
    n=1000 and n=10000, so the mean does not converge there."""
    p = ScatteringParams(gamma=0.5, k=1.0)
    theta = np.linspace(0.2, math.pi, 800)
    s = 1.0 - np.cos(theta)
    closed = s * np.array([rutherford_amplitude_phase_separated(p, float(t))
                           for t in theta])

    def rel_profile(n):
        ces = s * f_series_cesaro(p, theta, n)
        return np.abs(ces - closed) / np.abs(closed)

    def widest_band(rel):
        good = rel < 0.02
        best = 0.0
        start = None
        for i, ok in enumerate(good):
            if ok and start is None:
                start = i
            elif not ok and start is not None:
                best = max(best, theta[i - 1] - theta[start])
                start = None
        if start is not None:
            best = max(best, theta[-1] - theta[start])
        return best

    rel_100 = rel_profile(100)
    rel_1000 = rel_profile(1000)

    band_100 = widest_band(rel_100)
    band_1000 = widest_band(rel_1000)
    assert band_1000 > band_100, (
        f"2% band did not widen: n=100 {band_100:.3f} rad, "
        f"n=1000 {band_1000:.3f} rad"
    )

    for (t, n), ref in CESARO_FROZEN.items():
        rel = abs(f_series_cesaro(p, t, n) - ref) / abs(ref)
        assert rel < 1e-10, f"theta={t}, n={n}: rel={rel:.3e} vs mpmath"

    interior = theta < math.pi
    worst_100 = float(np.max(rel_100[interior]))
    worst_1000 = float(np.max(rel_1000[interior]))
    assert worst_100 / worst_1000 >= math.sqrt(10.0), (
        f"worst error on [0.2, pi) fell only from {worst_100:.4f} (n=100) "
        f"to {worst_1000:.4f} (n=1000)"
    )

    f_pi = abs(rutherford_amplitude_phase_separated(p, math.pi))
    for n in (1000, 10000):
        step = abs(f_series_cesaro(p, math.pi, n + 1)
                   - f_series_cesaro(p, math.pi, n)) / f_pi
        assert step > 0.5, f"theta=pi: |M({n + 1}) - M({n})|/|f| = {step:.3f}"


def test_criterion_06_reduced_series_five_percent():
    """The reduced series at ell_max=1000, gamma=0.5 reproduces the closed
    amplitude within 5% for theta in [0.1, pi]."""
    p = ScatteringParams(gamma=0.5, k=1.0)
    theta = np.linspace(0.1, math.pi - 1e-9, 60)
    approx = f_reduced_series(p, theta, 1000)
    closed = np.array([rutherford_amplitude_phase_separated(p, float(t))
                       for t in theta])
    rel = np.abs(approx - closed) / np.abs(closed)
    worst = float(np.max(rel))
    assert worst < 0.05, f"worst relative error {worst:.3e}"


def test_criterion_07_cross_section_routes_agree():
    """Closed-form amplitude, asymptotic amplitude, and the zero-screening
    Born amplitude give pairwise-identical cross sections to 1e-10."""
    p = ScatteringParams(gamma=1.0, k=1.0)
    theta = np.linspace(0.05, math.pi, 50)
    routes = {
        "closed": np.array([
            abs(rutherford_amplitude_phase_separated(p, float(t))) ** 2
            for t in theta]),
        "asymptotic": np.array(
            [abs(rutherford_amplitude(p, float(t))) ** 2 for t in theta]
        ),
        "born": np.array(
            [abs(born_amplitude_yukawa(p, float(t), 0.0)) ** 2 for t in theta]
        ),
    }
    names = list(routes)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            rel = float(np.max(np.abs(routes[a] - routes[b]) / routes[b]))
            assert rel < 1e-10, f"{a} vs {b}: rel={rel:.3e}"


def test_criterion_08_field_equation_residuals():
    """Finite-difference residuals of the governing equations stay below
    1e-5: the full field on a seeded 100-point grid, and the radial modes
    on an (ell, gamma, rho) sample."""
    p = ScatteringParams(gamma=0.4, k=1.0)
    rng = np.random.default_rng(19)
    rho = rng.uniform(1.0, 20.0, size=100)
    theta = rng.uniform(0.1, math.pi - 0.1, size=100)
    worst_field = max(
        schrodinger_residual(p, FieldPoint(rho=float(r), theta=float(t)), h=1e-3)
        for r, t in zip(rho, theta)
    )
    assert worst_field < 1e-5, f"field residual {worst_field:.3e}"

    h = 1e-3
    worst_radial = 0.0
    for ell in (0, 1, 2, 5, 10):
        for gamma in (-0.4, 0.3, 1.0):
            for rho0 in (3.0, 8.0, 20.0):
                u0 = coulomb_wave_regular(ell, gamma, rho0)
                up = coulomb_wave_regular(ell, gamma, rho0 + h)
                um = coulomb_wave_regular(ell, gamma, rho0 - h)
                d2 = (up - 2.0 * u0 + um) / h**2
                coeff = 1.0 - 2.0 * gamma / rho0 - ell * (ell + 1) / rho0**2
                rel = abs(d2 + coeff * u0) / abs(u0)
                worst_radial = max(worst_radial, rel)
    assert worst_radial < 1e-5, f"radial residual {worst_radial:.3e}"


def test_criterion_09_current_decomposition_forward_contrast():
    """At gamma=0.4, rho=10: the decomposition closes to 1e-10; the
    asymptotic field's radial current grows by > 1e3 from theta=0.5 to
    0.05; the amplitude-corrected subtraction tracks the scattered current
    more closely than the plain one; the exact field's radial current at
    theta=0.05 and 0.5 matches the frozen mpmath values within 1e-6
    relative, and so does their ratio; and the asymptotic forward ratio
    exceeds the exact one by more than 1e3, so only the asymptotic current
    blows up toward the axis."""
    p = ScatteringParams(gamma=0.4, k=1.0)
    rho = 10.0

    worst_closure = 0.0
    for theta in (0.3, 0.9, 1.7, 2.6):
        d = current_decomposition_asymptotic(p, FieldPoint(rho=rho, theta=theta))
        gap_r = d.total.j_r - (d.incoming.j_r + d.scattered.j_r + d.interference.j_r)
        gap_t = d.total.j_theta - (
            d.incoming.j_theta + d.scattered.j_theta + d.interference.j_theta
        )
        worst_closure = max(worst_closure, math.hypot(gap_r, gap_t))
    assert worst_closure < 1e-10, f"closure gap {worst_closure:.3e}"

    def jr_asym(theta):
        return current_numeric(
            lambda q: psi_asymptotic(p, q).total, p,
            FieldPoint(rho=rho, theta=theta),
        ).j_r

    asym_ratio = abs(jr_asym(0.05)) / abs(jr_asym(0.5))
    assert asym_ratio > 1e3, f"asymptotic forward ratio {asym_ratio:.1f}"

    thetas = np.linspace(0.5, 2.5, 80)
    dev_plain = []
    dev_corrected = []
    for theta in thetas:
        pt = FieldPoint(rho=rho, theta=float(theta))
        scat = current_scattered_asymptotic(p, pt).j_r
        plain = current_outgoing_exact(p, pt, subtract_backreaction=False).j_r
        corrected = current_outgoing_exact(p, pt, subtract_backreaction=True).j_r
        dev_plain.append(plain - scat)
        dev_corrected.append(corrected - scat)
    rms_plain = float(np.sqrt(np.mean(np.square(dev_plain))))
    rms_corrected = float(np.sqrt(np.mean(np.square(dev_corrected))))
    assert rms_corrected < rms_plain, (
        f"corrected RMS {rms_corrected:.3e} vs plain {rms_plain:.3e}"
    )

    def jr_exact(theta):
        return current_numeric(
            lambda q: psi_exact(p, q), p, FieldPoint(rho=rho, theta=theta)
        ).j_r

    jr = {theta: jr_exact(theta) for theta in JR_EXACT_FROZEN}
    for theta, ref in JR_EXACT_FROZEN.items():
        rel = abs(jr[theta] - ref) / abs(ref)
        assert rel < 1e-6, f"exact J_r({theta}) rel={rel:.3e} vs mpmath"

    ratio = abs(jr[0.05]) / abs(jr[0.5])
    ratio_ref = JR_EXACT_FROZEN[0.05] / JR_EXACT_FROZEN[0.5]  # 0.4897762865
    rel = abs(ratio - ratio_ref) / ratio_ref
    assert rel < 1e-6, (
        f"exact J_r(0.05)/J_r(0.5) = {ratio:.10f}, rel={rel:.3e} vs mpmath"
    )
    assert asym_ratio / ratio > 1e3, (
        f"asymptotic/exact forward ratio {asym_ratio / ratio:.1f}"
    )


def test_criterion_10_fringe_spacing_matches_prediction():
    """Twice the arc length between consecutive zero crossings of the
    leading interference current near theta=1 (gamma=0.4, rho=50) matches
    the predicted oscillation length at the midpoint within 10%."""
    p = ScatteringParams(gamma=0.4, k=1.0)
    rho = 50.0
    theta = np.linspace(0.6, 1.4, 4001)
    values = np.array(
        [interference_radial_leading(p, FieldPoint(rho=rho, theta=float(t)))
         for t in theta]
    )
    crossings = []
    for i in range(len(theta) - 1):
        if values[i] == 0.0 or values[i] * values[i + 1] >= 0.0:
            continue
        frac = values[i] / (values[i] - values[i + 1])
        crossings.append(theta[i] + frac * (theta[i + 1] - theta[i]))
    assert len(crossings) >= 2, "no fringe pair found near theta=1"

    pairs = list(zip(crossings, crossings[1:]))
    lo, hi = min(pairs, key=lambda pair: abs(0.5 * (pair[0] + pair[1]) - 1.0))
    mid = 0.5 * (lo + hi)
    spacing_arc = (rho / p.k) * (hi - lo)
    predicted = oscillation_length(p, FieldPoint(rho=rho, theta=mid))
    rel = abs(2.0 * spacing_arc - predicted) / predicted
    assert rel < 0.10, f"spacing mismatch rel={rel:.3e}"


def test_criterion_11_classical_reduction_consistency():
    """The long-wavelength reduction of the M=0.05, omega=1 mode equation
    has exactly the gamma=-0.1 phase factors, and the full numerical mode
    agrees with the reference radial wave at r=500 within 1%."""
    bh = BlackHoleParams(mass=0.05, omega=1.0)
    reduced = coulomb_reduction(bh)
    assert reduced.gamma == -0.1

    for ell in (0, 1, 2, 5, 10):
        assert phase_shift(ell, reduced.gamma).factor == phase_shift(ell, -0.1).factor

    mode = integrate_full_mode(bh, 2, 500.0)
    reference = coulomb_wave_regular(2, -0.1, 500.0)
    rel = abs(mode - reference) / abs(reference)
    assert rel < 1e-2, f"mode vs reference rel={rel:.3e}"


def test_criterion_12_preset_rerun_is_byte_identical(tmp_path):
    """Running the first bundled preset twice produces byte-identical
    output files."""
    first = tmp_path / "run_a.csv"
    second = tmp_path / "run_b.csv"
    for out in (first, second):
        spec = _spec_from_mapping(load_preset("fig1"))
        spec.out = str(out)
        run_scan(spec)
    assert first.read_bytes() == second.read_bytes()
