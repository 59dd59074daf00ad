"""Kernel tests: complex log-gamma, 1F1 on both branches, Pochhammer,
Legendre, spherical Bessel. Reference values frozen from a 40-digit
mpmath evaluation; live oracles (mpmath, scipy.special) cover the sweeps.
"""

import numpy as np
import pytest
from mpmath import mp
from mpmath import hyp1f1 as mp_hyp1f1
from scipy.special import eval_legendre, loggamma as sc_loggamma, spherical_jn

from coulscat import specfun

mp.dps = 40

# frozen 40-digit brute-force series values
HYP1F1_TABLE = {
    (-0.5j, 1.0, 2j): complex(2.0044916162067503, 0.58353084750703743),
    (-1j, 1.0, 10j): complex(-7.951052480815969, 4.6081518760791091),
    (-0.4j, 1.0, 30j): complex(0.047014834675010053, 2.1284938582702404),
    (3 - 0.7j, 8.0, 38j): complex(0.010773283562048113, -0.0048555924217339591),
    (2.5, 3.5, -12.0): complex(0.0066608367869323724, 0.0),
    (1 - 0.3j, 2 + 0.5j, 4j): complex(-0.43023873384850775, 1.3692692934030959),
}

HYP1F1_LARGE = {
    (-1j, 1.0, 100j): complex(1.6280403125851088, -9.1378176046692978),
    (-0.4j, 1.0, 60j): complex(-0.56931305095820894, 2.0325741284985819),
    (-1j, 1.0, 200j): complex(7.0803964401692649, -5.8413066285257758),
}

# 40-digit mpmath 1F1(-i g, 1; i x) on the psi ray, inside the series
# branch (|z| <= 30 + 2 g^2); large |g| at large x is where a Kummer sum
# summed term by term cancels away all its digits
RAY_TABLE = {
    (-20, 60): complex(-0.04992306377467701, -0.06987146837983153),
    (-20, 120): complex(0.010535169390933513, -0.07827792236967242),
    (-20, 500): complex(-0.07680750637277615, -0.039276204411963805),
    (-10, 60): complex(-0.10780179445516166, 0.04841223658945574),
    (-10, 120): complex(-0.12697015246184468, 0.028642286828961194),
    (-10, 500): complex(-0.020313869757298365, 0.126956473255502),
    (-4, 60): complex(-0.03057016599177067, -0.20702340784624967),
    (-4, 120): complex(-0.0589004247529842, 0.18413578154408797),
    (-4, 500): complex(-0.1650793822802403, 0.1122518459588713),
    (4, 60): complex(22663.35979906761, 50220.928900617044),
    (4, 120): complex(-29302.66402719588, -48751.21627527501),
    (4, 500): complex(-49952.29279241888, -28666.900789088766),
    (10, 60): complex(7212151552862.941, 147280538992.26193),
    (10, 120): complex(-1187377978799.6338, 6013240920408.569),
    (10, 500): complex(-3030717854448.9614, -4661589589605.026),
    (20, 60): complex(-2.663251469366401e+24, -2.2497949185943984e+24),
    (20, 120): complex(9.464311736530324e+25, 1.1181688867904993e+26),
    (20, 500): complex(8.775047859545152e+25, 1.4849072940209081e+26),
}

GAMMA_1PI = complex(0.49801566811835607, -0.15494982830181067)


def test_log_gamma_trivial_values():
    assert specfun.log_gamma_complex(1.0) == 0.0
    assert abs(specfun.log_gamma_complex(5.0) - 3.1780538303479458) < 1e-14


def test_log_gamma_at_one_plus_i():
    got = np.exp(specfun.log_gamma_complex(1.0 + 1j))
    assert abs(got - GAMMA_1PI) < 1e-15
    assert abs(abs(got) - 0.52156404686493985) < 1e-15


def test_log_gamma_matches_scipy_both_half_planes():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-8, 8, size=(60, 2))
    for re, im in pts:
        z = complex(re, im)
        if abs(im) < 0.05 and re < 0.5:
            continue  # too near the pole line for a fair comparison
        got = specfun.log_gamma_complex(z)
        ref = complex(sc_loggamma(z))
        if re >= 0.5:
            assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))
        else:
            # reflection can land on another 2*pi*i branch of log(gamma);
            # the exponentiated values must still agree
            diff = got - ref
            assert abs(diff.real) <= 1e-10 * max(1.0, abs(ref))
            assert abs(np.exp(1j * diff.imag) - 1.0) <= 1e-10


def test_log_gamma_functional_equation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        z = complex(rng.uniform(0.5, 10), rng.uniform(-10, 10))
        lhs = np.exp(specfun.log_gamma_complex(z + 1.0))
        rhs = z * np.exp(specfun.log_gamma_complex(z))
        assert abs(lhs - rhs) < 1e-12 * abs(rhs)


def test_log_gamma_pole_errors():
    for z in [0.0, -1.0, -6.0]:
        with pytest.raises(ValueError):
            specfun.log_gamma_complex(z)


def test_gamma_modulus_identity():
    for g in (0.1, 0.5, 1.0, 5.0):
        mod2 = abs(np.exp(specfun.log_gamma_complex(1.0 + 1j * g))) ** 2
        assert abs(mod2 * np.sinh(np.pi * g) / (np.pi * g) - 1.0) < 1e-10


def test_reciprocal_gamma_zeros_and_values():
    assert specfun.reciprocal_gamma(0.0) == 0.0
    assert specfun.reciprocal_gamma(-3.0) == 0.0
    got = specfun.reciprocal_gamma(1.0 + 1j)
    assert abs(got - 1.0 / GAMMA_1PI) < 1e-14


def test_pochhammer():
    assert specfun.pochhammer(2.7 - 1j, 0) == 1.0
    assert specfun.pochhammer(3.0, 2) == 12.0
    assert abs(specfun.pochhammer(1 + 1j, 3) - 10j) < 1e-14
    with pytest.raises(ValueError):
        specfun.pochhammer(1.0, -1)


def test_hyp1f1_series_frozen_table():
    for (a, b, z), ref in HYP1F1_TABLE.items():
        got = specfun.hyp1f1_series(a, b, z)
        assert abs(got - ref) < 1e-14 * abs(ref), (a, b, z)


def test_hyp1f1_series_trivial():
    assert specfun.hyp1f1_series(0.3 - 2j, 1.0, 0.0) == 1.0
    z = 1.7j
    assert abs(specfun.hyp1f1_series(1.0, 1.0, z) - np.exp(z)) < 1e-15


def test_hyp1f1_series_defining_ode():
    # z F'' + (b - z) F' - a F = 0, derivatives by central differences
    h = 1e-3
    for a, b, z in [(-0.5j, 1.0, 3j), (1.5, 2.0, -4.0), (-1j, 1.0, 8j)]:
        f0 = specfun.hyp1f1_series(a, b, z)
        fp = specfun.hyp1f1_series(a, b, z + h)
        fm = specfun.hyp1f1_series(a, b, z - h)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp - 2 * f0 + fm) / h ** 2
        resid = z * d2 + (b - z) * d1 - a * f0
        assert abs(resid) < 1e-6 * abs(f0)


def test_hyp1f1_series_derivative_identity():
    # d/dz 1F1(a,b;z) = (a/b) 1F1(a+1,b+1;z)
    a, b, z = -0.7j, 1.0, 5j
    h = 1e-4
    d1 = (specfun.hyp1f1_series(a, b, z + h)
          - specfun.hyp1f1_series(a, b, z - h)) / (2 * h)
    rhs = (a / b) * specfun.hyp1f1_series(a + 1, b + 1, z)
    assert abs(d1 - rhs) < 1e-7 * abs(rhs)


def test_hyp1f1_series_nonconvergence_error():
    with pytest.raises(RuntimeError):
        specfun.hyp1f1_series(-1j, 1.0, 25j, max_terms=20)


def test_hyp1f1_asymptotic_frozen_table():
    for (a, b, z), ref in HYP1F1_LARGE.items():
        got = specfun.hyp1f1_asymptotic(a, b, z)
        assert abs(got - ref) < 1e-9 * abs(ref), (a, b, z)


def test_hyp1f1_asymptotic_two_term_example():
    got = specfun.hyp1f1_asymptotic(-1j, 1.0, 100j, n_terms=2)
    ref = HYP1F1_LARGE[(-1j, 1.0, 100j)]
    assert abs(got - ref) < 1e-3 * abs(ref)


def test_hyp1f1_asymptotic_exponential_limit():
    got = specfun.hyp1f1_asymptotic(1.0, 1.0, 50j, n_terms=1)
    assert abs(got - np.exp(50j)) < 1e-8


def test_hyp1f1_asymptotic_polynomial_case():
    # nonpositive-integer a truncates 1F1 to a polynomial; the reciprocal
    # gamma factor must kill the first sum rather than blow up
    got = specfun.hyp1f1_asymptotic(-1.0, 1.0, 40j)
    ref = 1.0 - 40j
    assert abs(got - ref) < 1e-10 * abs(ref)
    with pytest.raises(ValueError):
        specfun.hyp1f1_asymptotic(-1j, 1.0, 100j, n_terms=0)


def test_hyp1f1_branch_crossover_consistency():
    # both branches evaluated just inside their shared overlap window
    a, b = -0.4j, 1.0
    z = 1j * 31.0
    s = specfun.hyp1f1(a, b, z, branch="series")
    aa = specfun.hyp1f1(a, b, z, branch="asymptotic")
    assert abs(s - aa) < 1e-11 * abs(s)


def test_hyp1f1_auto_switch_matches_mpmath():
    rng = np.random.default_rng(3)
    for _ in range(12):
        g = rng.uniform(0.1, 1.5)
        zmag = rng.uniform(1.0, 120.0)
        got = specfun.hyp1f1(-1j * g, 1.0, 1j * zmag)
        ref = complex(mp_hyp1f1(-1j * g, 1, 1j * zmag))
        assert abs(got - ref) < 1e-10 * max(1.0, abs(ref))


def test_hyp1f1_array_branch_partition():
    # one call mixing series points and asymptotic points must agree with
    # the scalar path element by element
    a = np.array([-0.4j, -0.4j, -1j, -1j])
    b = np.ones(4)
    z = np.array([5j, 80j, 12j, 150j])
    batch = specfun.hyp1f1(a, b, z)
    for i in range(4):
        assert batch[i] == specfun.hyp1f1(a[i], b[i], z[i])


def test_hyp1f1_psi_ray_frozen_mpmath():
    for (g, x), ref in RAY_TABLE.items():
        got = specfun.hyp1f1(-1j * g, 1.0, 1j * x)
        assert abs(got - ref) < 1e-12 * abs(ref), (g, x)


def test_hyp1f1_series_batch_independent():
    # an element's value is bit-identical alone, next to other (a, b), and
    # in a batch whose larger |z| lengthens its chain
    cases = [(-0.4j, 1.0, 7.3j), (-0.4j, 1.0, 0.6j), (-10j, 1.0, 55j),
             (-0.4j, 1.0, 3.0 + 4.0j), (3 - 0.7j, 8.0, 38j),
             (6 - 2j, 12.0, 9j), (2.5, 3.5, -12.0), (1 - 0.3j, 2 + 0.5j, 4j),
             (1.0, 1.0, 0.5j * np.pi)]  # e^{i pi/2}: Re ~ 6e-17 shows stray terms
    alone = [specfun.hyp1f1_series(a, b, z) for a, b, z in cases]
    a, b, z = (np.array(col, dtype=complex) for col in zip(*cases))
    together = specfun.hyp1f1_series(a, b, z)
    longer = specfun.hyp1f1_series(np.tile(a, 2), np.tile(b, 2),
                                   np.concatenate([z, 4.0 * z]))
    for i in range(len(cases)):
        assert together[i] == alone[i], cases[i]
        assert longer[i] == alone[i], cases[i]


def test_legendre_p_values():
    assert specfun.legendre_p(0, -0.73) == 1.0
    assert abs(specfun.legendre_p(2, 1.0) - 1.0) < 1e-14
    assert abs(specfun.legendre_p(3, 0.3) - (-0.3825)) < 1e-14
    with pytest.raises(ValueError):
        specfun.legendre_p(2, 1.2)


def test_legendre_matches_scipy():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=30)
    for ell in (1, 4, 9, 37, 150):
        got = specfun.legendre_p(ell, x)
        ref = eval_legendre(ell, x)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_legendre_explicit_polynomials():
    x = np.linspace(-1, 1, 41)
    explicit = [np.ones_like(x), x, (3 * x ** 2 - 1) / 2,
                (5 * x ** 3 - 3 * x) / 2,
                (35 * x ** 4 - 30 * x ** 2 + 3) / 8,
                (63 * x ** 5 - 70 * x ** 3 + 15 * x) / 8]
    sweep = specfun.legendre_sweep(5, x)
    for ell in range(6):
        assert np.max(np.abs(sweep[ell] - explicit[ell])) < 1e-13


def test_spherical_bessel_values():
    assert specfun.spherical_bessel_j(0, 1e-13) == pytest.approx(1.0)
    assert specfun.spherical_bessel_j(5, 0.0) == 0.0
    assert specfun.spherical_bessel_j(0, 0.0) == 1.0
    assert abs(specfun.spherical_bessel_j(1, np.pi) - 1.0 / np.pi) < 1e-14


def test_spherical_bessel_matches_scipy():
    for ell in (0, 1, 2, 5, 12, 30):
        for x in (0.1, 1.0, 4.5, 29.0, 100.0):
            got = specfun.spherical_bessel_j(ell, x)
            ref = spherical_jn(ell, x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (ell, x)


def test_plane_wave_expansion_consistency():
    rho, theta = 9.0, 1.1
    ell_top = int(rho) + 25
    acc = 0.0 + 0.0j
    for ell in range(ell_top + 1):
        acc += (1j ** ell) * (2 * ell + 1) \
            * specfun.spherical_bessel_j(ell, rho) \
            * specfun.legendre_p(ell, np.cos(theta))
    assert abs(acc - np.exp(1j * rho * np.cos(theta))) < 1e-8
