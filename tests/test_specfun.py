"""Kernel tests: complex log-gamma, 1F1 on both branches, the Legendre
recurrence of the partial-wave sums, and spherical Bessel functions as the
gamma = 0 Coulomb wave. Reference values frozen from a 40-digit mpmath
evaluation; live oracles (mpmath, scipy.special) cover the sweeps.
"""

import numpy as np
import pytest
from mpmath import mp
from mpmath import hyp1f1 as mp_hyp1f1
from scipy.special import eval_legendre, loggamma as sc_loggamma, spherical_jn

from coulscat import specfun
from coulscat.exact import FieldPoint, ScatteringParams, psi_exact
from coulscat.multipole import (
    _legendre_column,
    _legendre_rows,
    coulomb_wave_regular,
)

mp.dps = 40


# hyp1f1's two branches, each on hyp1f1's own argument handling
def series_branch(a, b, z):
    return specfun._Kummer(a, b)(z, specfun._continuation)


def asymptotic_branch(a, b, z):
    return specfun._Kummer(a, b)(z, specfun._asymptotic)


# frozen 40-digit brute-force series values
HYP1F1_TABLE = {
    (-0.5j, 1.0, 2j): complex(2.0044916162067503, 0.58353084750703743),
    (-1j, 1.0, 10j): complex(-7.951052480815969, 4.6081518760791091),
    (-0.4j, 1.0, 30j): complex(0.047014834675010053, 2.1284938582702404),
    (3 - 0.7j, 8.0, 38j): complex(0.010773283562048113, -0.0048555924217339591),
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
        assert abs(got - ref) <= 1e-11 * max(1.0, abs(ref))


# 40-digit mpmath loggamma (principal branch, as scipy's) left of
# Re z = 1/2, where the reflection formula alone lands 2 pi i k off the
# branch (+4 pi i at -4.5 + 3i); real-axis points carry Im z = +0.0
LOG_GAMMA_LEFT = [
    (complex(-4.5, 3.0), complex(-10.694354276574460638, -10.712660703414735498)),
    (complex(-0.75, 0.5), complex(0.44407010279754203821, -3.7487730599298159884)),
    (complex(-1.5, -2.0), complex(-3.862406087395576015, 4.6226094074869763684)),
    (complex(-19.3, 17.1), complex(-85.453069896455804321, -9.378149885418160037)),
    (complex(-7.2, -0.01), complex(-7.2562258955591480197, 25.069122814607116662)),
    (complex(0.3, -12.0), complex(-18.427550051957290387, -17.506526607888508717)),
    (complex(-0.5, 1.0), complex(-0.76436241986147779316, -2.989451660138271845)),
    (complex(-2.5, 0.0), complex(-0.056243716497674050673, -9.4247779607693797154)),
    (complex(-10.25, 0.0), complex(-14.203997900931090652, -34.557519189487725623)),
    (complex(-0.3, 0.0), complex(1.4648400508576025305, -3.1415926535897932385)),
    (complex(-6.145, -16.851), complex(-44.482641850866065438, -19.029146198844237129)),
    (complex(-15.606, -12.767), complex(-63.212958247249556631, 13.974608434272922332)),
    (complex(-13.656, -5.614), complex(-38.98906363854819532, 29.452807979948721267)),
    (complex(-3.611, -13.215), complex(-30.514645803520158085, -13.813402345998281678)),
    (complex(0.414, 3.55), complex(-4.7660660410182259272, 0.82331970668804411859)),
    (complex(-17.084, 4.672), complex(-45.971948665363526848, -41.792760018285771748)),
]


def test_log_gamma_principal_branch_frozen_mpmath():
    z = np.array([row[0] for row in LOG_GAMMA_LEFT])
    ref = np.array([row[1] for row in LOG_GAMMA_LEFT])
    assert np.max(np.abs(specfun.log_gamma_complex(z) - ref)) < 2e-13
    # Im z = -0.0 is the conjugate side of the cut
    real_axis = z.imag == 0.0
    below = specfun.log_gamma_complex(np.conj(z[real_axis]))
    assert np.max(np.abs(below - np.conj(ref[real_axis]))) < 2e-13
    for zi, ri in zip(z, ref):
        assert abs(specfun.log_gamma_complex(zi) - ri) < 2e-13


def test_log_gamma_branch_fix_leaves_other_values_alone():
    # only where the 2 pi i k is nonzero (Re z < -1/2) does a value move;
    # Gamma(-i gamma) of the psi ray keeps the bits of the bare reflection
    g = np.linspace(-20.0, 20.0, 80)
    z = -1j * g
    refl = (np.log(np.pi) - np.log(np.sin(np.pi * z))
            - specfun.log_gamma_complex(1.0 - z))
    assert np.array_equal(specfun.log_gamma_complex(z), refl)


# log_gamma_complex's own bits (real and imaginary part as float.hex), so
# that a rewrite of its arithmetic cannot drift unseen: Re z >= 1/2, the
# reflection strip -1/2 <= Re z < 1/2, Re z < -1/2 where the 2 pi i k is
# added, and points on or next to the real axis (signed zeros included)
LOG_GAMMA_BITS = [
    (0.5 + 0j, "0x1.250d048e7a1c0p-1", "0x0.0p+0"),
    (1 + 10j, "-0x1.b4684d55841adp+3", "0x1.b9b1768cbb3f5p+3"),
    (1 + 50j, "-0x1.2ea8d2b65c949p+6", "0x1.24c50f385f0c7p+7"),
    (3.7 - 2.2j, "0x1.73f0d42106524p-1", "-0x1.5be987de3ae45p+1"),
    (25 + 0.5j, "0x1.b63cadd315874p+5", "0x1.9972ab049636dp+0"),
    (0.75 - 0.001j, "0x1.a05118dd3ef40p-3", "0x1.1ca6d4af058fep-10"),
    (140.25 + 60j, "0x1.0d804eeef266ep+9", "0x1.2a2410c7bf10fp+8"),
    (2 + 0j, "0x1.0000000000000p-50", "0x0.0p+0"),
    (0.3 + 1j, "-0x1.498272a9d5e1ap-1", "-0x1.4a589f0363efcp+0"),
    (-0.2 - 3j, "-0x1.2432cdab48578p+2", "0x1.be2b62d424520p-1"),
    (2j, "-0x1.48dc65802140ap+1", "-0x1.70ef3503a9e16p+0"),
    (-0.5 + 0.1j, "0x1.38bc4d38eccc9p+0", "-0x1.91a39ef00a303p+1"),
    (0.1 - 20j, "-0x1.fb1fcf24e13b7p+4", "-0x1.3a4678c173281p+5"),
    (complex(0.49, -0.0), "0x1.2f3b57ea204dcp-1", "0x0.0p+0"),
    (-4.5 + 3j, "-0x1.56382675b7339p+3", "-0x1.56ce1dd1c9f0cp+3"),
    (-10.3 - 7j, "-0x1.0eb22bcc85a33p+5", "0x1.0d511b6f089fcp+4"),
    (-20.7 + 0.001j, "-0x1.58d75402a14a8p+5", "-0x1.07e404af48c21p+6"),
    (-1.5 + 1e-8j, "0x1.b858151820f76p-1", "-0x1.921fb53cb5ff0p+2"),
    (-7.25 - 15j, "-0x1.5f98918b160e9p+5", "-0x1.70e4bdabac094p+3"),
    (2.5 + 1e-12j, "0x1.2383e809a6800p-2", "0x1.8bd78d2ffb0a3p-41"),
    (-3.5 - 1e-10j, "-0x1.4f1b0fe64a5dbp+0", "0x1.921fb5442fbaep+3"),
    (-2.5 + 0j, "-0x1.ccbf9f5ed0fa0p-5", "-0x1.2d97c7f3321d2p+3"),
    (0.25 + 0j, "0x1.49bbd81c16ef9p+0", "0x0.0p+0"),
    (complex(-13.75, -0.0), "-0x1.70893507e7aacp+4", "0x1.5fdbbe9bba775p+5"),
]


def test_log_gamma_bits_pinned_scalar_and_array():
    z = np.array([row[0] for row in LOG_GAMMA_BITS])
    batch = specfun.log_gamma_complex(z)
    pairs = specfun.log_gamma_complex(z.reshape(12, 2)).ravel()
    for (zi, re, im), got, got2 in zip(LOG_GAMMA_BITS, batch, pairs):
        scalar = specfun.log_gamma_complex(zi)
        for v in (scalar, got, got2):
            assert (v.real.hex(), v.imag.hex()) == (re, im), zi


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


def test_hyp1f1_series_frozen_table():
    for (a, b, z), ref in HYP1F1_TABLE.items():
        got = series_branch(a, b, z)
        assert abs(got - ref) < 1e-14 * abs(ref), (a, b, z)


def test_hyp1f1_series_trivial():
    assert series_branch(0.3 - 2j, 1.0, 0.0) == 1.0
    z = 1.7j
    assert abs(series_branch(1.0, 1.0, z) - np.exp(z)) < 1e-15


def test_hyp1f1_series_defining_ode():
    # z F'' + (b - z) F' - a F = 0, derivatives by central differences
    # along the axis
    h = 1e-3j
    for a, b, z in [(-0.5j, 1.0, 3j), (1.5, 2.0, 4j), (-1j, 1.0, 8j)]:
        f0 = series_branch(a, b, z)
        fp = series_branch(a, b, z + h)
        fm = series_branch(a, b, z - h)
        d1 = (fp - fm) / (2 * h)
        d2 = (fp - 2 * f0 + fm) / h ** 2
        resid = z * d2 + (b - z) * d1 - a * f0
        assert abs(resid) < 1e-6 * abs(f0)


def test_hyp1f1_series_derivative_identity():
    # d/dz 1F1(a,b;z) = (a/b) 1F1(a+1,b+1;z)
    a, b, z = -0.7j, 1.0, 5j
    h = 1e-4j
    d1 = (series_branch(a, b, z + h)
          - series_branch(a, b, z - h)) / (2 * h)
    rhs = (a / b) * series_branch(a + 1, b + 1, z)
    assert abs(d1 - rhs) < 1e-7 * abs(rhs)


def test_hyp1f1_series_nonconvergence_error(monkeypatch):
    # the Maclaurin first step from the origin, and a Taylor step of a chain
    # from r0 > 0
    monkeypatch.setattr(specfun, "SERIES_MAX_TERMS", 20)
    with pytest.raises(RuntimeError, match="SERIES_MAX_TERMS = 20"):
        series_branch(-1j, 1.0, 25j)
    with pytest.raises(RuntimeError, match="SERIES_MAX_TERMS = 20"):
        specfun.kummer_ivp(specfun._Kummer(3 + 0.1j, 6.0), 2.0, 0.3 - 1.2j,
                           0.5 + 0.08j, 30.0, [2.0, 30.0])


def test_anchor_chain_past_its_budget_raises():
    # |z| = 1e8 lies inside a = 1e4's switch radius: a chain of ~5e7
    # anchors, hours of Taylor steps. The lattice stops at MAX_ANCHORS
    # (about 0.1 s) before any step, for hyp1f1 and kummer_ivp alike
    with pytest.raises(RuntimeError, match=r"MAX_ANCHORS = 262144 anchors "
                       r"to reach \|z\| = 1e\+08"):
        specfun.hyp1f1(1e4, 1.0, 1e8j)
    with pytest.raises(RuntimeError, match="MAX_ANCHORS"):
        specfun.kummer_ivp(specfun._Kummer(3 + 0.1j, 6.0), 2.0, 0.3 - 1.2j,
                           0.5 + 0.08j, 1e8, [2.0])
    # past |a| = A_MAX = 2^500 (where |a|^2 nears float64's largest number)
    # a lies outside hyp1f1's domain: a ValueError naming a, not a numpy
    # overflow warning or the chain's RuntimeError
    for a, z in ((1e308, 1e308j), (1e200, 5j)):
        with pytest.raises(ValueError, match=r"parameter a must have "
                           r"\|a\| <= 3.27339e\+150, got a = "):
            specfun.hyp1f1(a, 1.0, z)


def test_kummer_argument_errors():
    # b a pole of Gamma(b), on the convergent and the asymptotic branch
    for b in (0.0, -2.0):
        with pytest.raises(ValueError, match="non-positive integer"):
            specfun.hyp1f1(0.5, b, 1j)
        with pytest.raises(ValueError, match="non-positive integer"):
            specfun.hyp1f1(0.5, b, 100j)
    for r in ([1.5], [2.0, 30.5], [2.0, np.nan]):
        with pytest.raises(ValueError, match=r"\[r0, r_end\]"):
            specfun.kummer_ivp(specfun._Kummer(3 + 0.1j, 6.0), 2.0, 0.3 - 1.2j,
                               0.5 + 0.08j, 30.0, r)


@pytest.mark.parametrize("a, b, z, name", [
    # an infinite a makes every anchor step 0: the chain would never end
    (np.inf, 1.0, 1j, "a"),
    (complex(0.0, np.inf), 1.0, 2j, "a"),
    # NaN, as a one-element array: a silent NaN otherwise
    ([np.nan], 1.0, 1j, "a"),
])
def test_hyp1f1_rejects_non_finite_arguments(a, b, z, name):
    with pytest.raises(ValueError, match=r"parameter %s must be finite, "
                       r"got %s = " % (name, name)):
        specfun.hyp1f1(a, b, z)


@pytest.mark.parametrize("a, b, z", [
    # the negative real axis, where M (mpmath: -4.4e-270 and 4.4e-215) is
    # far below its terms and the chain cannot resolve it
    (50.0, 1.0, -800.0),
    (30.0, 2.0, -600.0),
    (-0.4j, 1.0, 3.0),
    (2 - 1j, 3.0, -80j),
    (-0.4j, 1.0, complex(1e-300, 5.0)),
    # non-finite, inside a batch and past the switch radius
    (-0.4j, 1.0, [5j, complex(np.inf, 1.0)]),
    (-0.4j, 1.0, [5j, np.nan]),
    (-0.4j, 1.0, complex(0.0, np.nan)),
    (-0.4j, 1.0, complex(0.0, np.inf)),
    (-0.4j, 1.0, complex(0.0, -np.inf)),
])
def test_hyp1f1_rejects_z_off_the_axis(a, b, z):
    for evaluate in (specfun.hyp1f1, series_branch, asymptotic_branch):
        with pytest.raises(ValueError, match=r"parameter z must lie on "
                           r"i\[0, inf\), got z = "):
            evaluate(a, b, z)


def test_hyp1f1_signed_zeros_lie_on_the_axis():
    # Re z = -0.0 and Im z = -0.0 are on the axis, with the bits of +0.0,
    # on both branches
    for a, b in ((-0.4j, 1.0), (2 - 1j, 3.0)):
        for x in (5.0, 100.0):
            assert _hex(specfun.hyp1f1(a, b, complex(-0.0, x))) == _hex(
                specfun.hyp1f1(a, b, 1j * x))
        assert _hex(specfun.hyp1f1(a, b, complex(0.0, -0.0))) == _hex(
            specfun.hyp1f1(a, b, 0.0))


def test_hyp1f1_rejects_b_past_its_bound():
    # the anchor steps near the origin scale like 1/|b|: both calls ran
    # until killed before |b| <= B_MAX was part of the domain
    bound = r"\|b\| <= 65536, got b = "
    with pytest.raises(ValueError, match=bound + r"\(1000000000\+0j\)"):
        specfun.hyp1f1(0.5, 1e9, 10j)
    # each parameter is read alone: no a + b + z to overflow (a warning,
    # which this suite's config makes an error)
    with pytest.raises(ValueError, match=bound):
        specfun.hyp1f1(1e308, 1e308, 1e308j)
    # an infinite or NaN b is past the bound
    for b in (np.inf, [-np.inf], np.nan):
        with pytest.raises(ValueError, match=bound):
            specfun.hyp1f1(0.5, b, 2j)
    # the bound itself lies inside
    specfun.hyp1f1(0.5, 2.0 ** 16, [1j, 1j])


def test_hyp1f1_asymptotic_frozen_table():
    for (a, b, z), ref in HYP1F1_LARGE.items():
        got = asymptotic_branch(a, b, z)
        assert abs(got - ref) < 1e-9 * abs(ref), (a, b, z)


def _hex(v):
    return v.real.hex(), v.imag.hex()


# large-|z| points for psi-ray, partial-wave and other (a, b)
ASYM_CASES = [(-0.4j, 1.0, 50j), (-0.4j, 1.0, 800j), (-3j, 1.0, 54j),
              (2 - 1j, 3.0, 80j), (1 + 0.5j, 2.0, 67j),
              (0.3 + 0.2j, 1.5, 70j), (0.3, 1.5, 90j), (4 - 0.7j, 8.0, 300j)]


def test_hyp1f1_asymptotic_batch_independent():
    # each element's bits alone and in a batch of its (a, b) with every
    # case's z: the term block, the Gamma constants and the row sums must
    # not depend on the rest of the batch
    z_all = np.array([zi for _, _, zi in ASYM_CASES])
    for i, (ai, bi, zi) in enumerate(ASYM_CASES):
        alone = asymptotic_branch(ai, bi, zi)
        batch = asymptotic_branch(ai, bi, z_all)
        one_pair = asymptotic_branch(ai, bi, np.array([zi, 2 * zi, zi]))
        assert batch[i] == alone == one_pair[0] == one_pair[2], ASYM_CASES[i]
        k = specfun._Kummer(ai, bi)
        pair = specfun._kummer_pair(k, z_all, deriv=True)
        single = specfun._kummer_pair(k, np.array([zi]), deriv=True)
        for got, ref in zip((x for y in pair for x in y),
                            (x for y in single for x in y)):
            assert got[i] == ref[0], ASYM_CASES[i]


def _kummer_pair_two_calls(k, z, deriv=False):
    # the pair with each inverse-power series summed in its own call (and
    # its constants formed afresh, whatever ratios k holds)
    a, b = k.ab
    s1, k1 = specfun._inv_power_series(
        specfun._ratios(b - a, 1.0 - a, z.ndim), z, True)
    s2, k2 = specfun._inv_power_series(
        specfun._ratios(a, a - b + 1.0, z.ndim), -z, True)
    ds = (s1 + ((a - b) * s1 - k1) / z, -(a * s2 + k2) / z)
    logz = np.log(z)
    return ((z + (a - b) * logz, s1, ds[0] if deriv else None),
            (-(a * logz), s2, ds[1] if deriv else None))


def test_kummer_pair_sums_both_series_in_one_block(monkeypatch):
    # S1 and S2 are the two rows of one _inv_power_series block, each with
    # the bits of its own call: psi-ray (a, b) of either sign of gamma,
    # inside the switch radius (where kummer_ivp's callers match) and past
    # it (hyp1f1's branch), one point and a batch
    rng = np.random.default_rng(53)
    calls = []
    inner = specfun._inv_power_series
    monkeypatch.setattr(specfun, "_inv_power_series",
                        lambda *args: calls.append(args) or inner(*args))
    for g in (0.7, -0.7, 4.0, -4.0):
        k = specfun._Kummer(-1j * g, 1.0)
        for n in (1, 300):
            for z in (1j * rng.uniform(0.5, 1.0, n) * k.radius,
                      1j * rng.uniform(1.0, 20.0, n) * k.radius):
                del calls[:]
                got = specfun._kummer_pair(k, z, deriv=True)
                assert len(calls) == 1
                ref = _kummer_pair_two_calls(k, z, deriv=True)
                for x, y in zip((v for f in got for v in f),
                                (v for f in ref for v in f)):
                    assert np.array_equal(x.view(np.int64),
                                          y.view(np.int64)), (g, n)
    # psi past the switch radius across a slice boundary: the bits of the
    # two-call pair in every slice
    monkeypatch.undo()
    from coulscat import exact
    p = exact.ScatteringParams(gamma=-0.7)
    rho = rng.uniform(100.0, 1000.0, exact._SLICE + 5)
    psi = exact.psi_exact_grid(p, rho, 2.0)
    monkeypatch.setattr(specfun, "_kummer_pair", _kummer_pair_two_calls)
    assert np.array_equal(psi.view(np.int64),
                          exact.psi_exact_grid(p, rho, 2.0).view(np.int64))


def test_hyp1f1_scalar_bits_match_mixed_batch():
    # seeded elements, each with its own (a, b), on both branches, each
    # batched with a second point of its (a, b) at half the radius, so that
    # its chain holds two points, which may lie on different branches: a
    # scalar call's bits are those of its element in the batch
    rng = np.random.default_rng(2207)
    n = 240
    a = rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n)
    b = rng.uniform(0.5, 8.0, n) + 1j * rng.uniform(-2, 2, n)
    z = 1j * rng.uniform(0.2, 130.0, n)
    far = np.abs(z) > [specfun._Kummer(ai, bi).radius
                       for ai, bi in zip(a, b)]
    assert far.sum() >= 10 and (~far).sum() >= 10
    for ai, bi, zi in zip(a, b, z):
        got = specfun.hyp1f1(ai, bi, np.array([zi, 0.5 * zi]))[0]
        assert _hex(specfun.hyp1f1(ai, bi, zi)) == _hex(got), (ai, bi, zi)


def test_hyp1f1_empty_input_returns_empty():
    # an empty broadcast shape evaluates nothing: an empty array of it
    for a, b, z in ((0.5, 1.0, np.zeros((0, 3))),
                    (np.full((1, 1), 0.5), 1.0, np.zeros(0)),
                    (-0.4j, 2.0, np.zeros((2, 0)))):
        got = specfun.hyp1f1(a, b, z)
        assert got.shape == np.broadcast(a, b, z).shape
        assert got.dtype == np.complex128
    assert coulomb_wave_regular(3, 1.0, np.zeros(0)).shape == (0,)
    assert coulomb_wave_regular(np.arange(0), 1.0, 2.0).shape == (0,)


def _inv_power_series_loop(p1, p2, w):
    # term by term, each element stopping at its first growing term; also
    # the sums of |t_k| and k |t_k|, the scale of their rounding
    trm, last = np.ones_like(w), np.full(w.shape, np.inf)
    tot, ktot, size, ksize = np.ones_like(w), 0.0, 1.0, 0.0
    for k in range(specfun.ASYMPTOTIC_TERMS):
        trm = trm * (p1 + k) * (p2 + k) / ((k + 1.0) * w)
        grew = np.abs(trm) > last
        trm = np.where(grew, 0.0, trm)
        last = np.where(grew, last, np.abs(trm))
        tot, ktot = tot + trm, ktot + (k + 1.0) * trm
        size, ksize = size + np.abs(trm), ksize + (k + 1.0) * np.abs(trm)
    return tot, ktot, size, ksize


def test_inv_power_series_matches_term_loop():
    # the block form keeps the loop's truncation (the same terms summed):
    # only the rounding of products and sums differs, by a few ulp of the
    # terms' magnitudes
    rng = np.random.default_rng(41)
    n = 400
    p1, p2 = (rng.uniform(-4, 4, n) + 1j * rng.uniform(-4, 4, n)
              for _ in range(2))
    w = (8.0 + 60.0 * rng.random(n)) * np.exp(2j * np.pi * rng.random(n))
    tot, ktot = specfun._inv_power_series(specfun._ratios(p1, p2, w.ndim),
                                          w, True)
    ref_tot, ref_ktot, size, ksize = _inv_power_series_loop(p1, p2, w)
    assert np.max(np.abs(tot - ref_tot) / size) < 1e-15
    assert np.max(np.abs(ktot - ref_ktot) / ksize) < 1e-15


def test_hyp1f1_asymptotic_truncates_at_smallest_term():
    # at |z| = 9 each inverse-power series has its smallest term near
    # k = 9 < ASYMPTOTIC_TERMS: the sum stops there, and the expansion
    # then agrees with 1F1 to within that term (times its prefactor)
    a, b, z = 0.5 + 0.3j, 2.0, 9j
    got = asymptotic_branch(a, b, z)
    ref = mp_hyp1f1(a, b, z)
    ma, mb, mz = mp.mpc(a), mp.mpf(b), mp.mpc(z)
    bound = 0
    for p1, p2, w, pre in (
            (mb - ma, 1 - ma, mz,
             mp.gamma(mb) / mp.gamma(ma) * mp.exp(mz) * mz ** (ma - mb)),
            (ma, ma - mb + 1, -mz,
             mp.gamma(mb) / mp.gamma(mb - ma) * mp.exp(1j * mp.pi * ma)
             * mz ** -ma)):
        terms = [abs(mp.rf(p1, k) * mp.rf(p2, k) / (mp.factorial(k) * w ** k))
                 for k in range(specfun.ASYMPTOTIC_TERMS + 1)]
        k_min = terms.index(min(terms))
        assert 2 <= k_min < specfun.ASYMPTOTIC_TERMS
        bound += abs(pre) * terms[k_min]
    assert abs(got - ref) < bound
    assert abs(got - ref) > 1e-6 * abs(ref)  # truncation, not rounding


def test_hyp1f1_asymptotic_exponential_limit():
    got = asymptotic_branch(1.0, 1.0, 50j)
    assert abs(got - np.exp(50j)) < 1e-8


def test_hyp1f1_asymptotic_polynomial_case():
    # nonpositive-integer a truncates 1F1 to a polynomial; the reciprocal
    # gamma factor must kill the first sum rather than blow up
    got = asymptotic_branch(-1.0, 1.0, 40j)
    ref = 1.0 - 40j
    assert abs(got - ref) < 1e-10 * abs(ref)


def test_hyp1f1_branch_crossover_consistency():
    # both branches evaluated just inside their shared overlap window
    a, b = -0.4j, 1.0
    z = 1j * 31.0
    s = series_branch(a, b, z)
    aa = asymptotic_branch(a, b, z)
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
    for a, z in ((-0.4j, np.array([5j, 80j])), (-1j, np.array([150j, 12j]))):
        assert (np.abs(z) > specfun._Kummer(a, 1.0).radius).sum() == 1
        batch = specfun.hyp1f1(a, 1.0, z)
        for i in range(2):
            assert batch[i] == specfun.hyp1f1(a, 1.0, z[i])


def test_hyp1f1_psi_ray_frozen_mpmath():
    for (g, x), ref in RAY_TABLE.items():
        got = specfun.hyp1f1(-1j * g, 1.0, 1j * x)
        assert abs(got - ref) < 1e-12 * abs(ref), (g, x)


# 50-digit mpmath psi(gamma, rho, theta) and l = 0 wave w_0(gamma, rho) at
# strongly attractive gamma, where M(a, b, .) oscillates at
# ~sqrt(|kappa| / r), kappa = b/2 - a; an anchor step spanning many periods
# lost every digit (relative error 2e139 at gamma = -1e4)
ATTRACTIVE_PSI = {
    (-300, 2.0, 1.0): complex(-3.1402879487459465, -0.4766241901135101),
    (-300, 10.0, 2.0): complex(0.2755766619337857, 1.5819615326946277),
    (-300, 50.0, 0.7): complex(-0.6942694568598066, 1.0026536733888556),
    (-300, 200.0, 2.5): complex(1.2879634742279993, -0.5798695331607563),
    (-300, 600.0, 1.5): complex(1.0185976989408718, -0.8291172711572814),
    (-1000, 2.0, 1.0): complex(-5.528506036661758, 5.793436402671852),
    (-1000, 10.0, 2.0): complex(0.44684649101997764, 0.5740426174480106),
    (-1000, 50.0, 0.7): complex(2.0324758500491185, 2.96219107395865),
    (-1000, 200.0, 2.5): complex(0.5227272980194567, 0.12038634611474901),
    (-1000, 600.0, 1.5): complex(0.12327191193071246, -1.6563274129346386),
    (-3000, 2.0, 1.0): complex(-4.068508874925524, 7.967667827364573),
    (-3000, 10.0, 2.0): complex(-5.1758611887020685, -1.525588061922613),
    (-3000, 50.0, 0.7): complex(2.329886337930993, 1.5680014975226455),
    (-3000, 200.0, 2.5): complex(-0.12917165913470455, 2.164641228522213),
    (-3000, 600.0, 1.5): complex(0.5561686580257581, 0.3022142051220735),
    (-10000, 2.0, 1.0): complex(-11.083852750756687, 2.981196151227472),
    (-10000, 10.0, 2.0): complex(-1.7040263518066774, -3.1852322157310904),
    (-10000, 50.0, 0.7): complex(-0.7522802376091483, -7.4814745314704165),
    (-10000, 200.0, 2.5): complex(2.165585539777627, -1.9031253595480389),
    (-10000, 600.0, 1.5): complex(-0.11887472656038423, -0.4615104913170546),
}
ATTRACTIVE_WAVE = {
    (-300, 5.0): complex(-0.058319275104776795, 0.25360081960956915),
    (-300, 50.0): complex(0.11753897550915313, -0.5111171301707212),
    (-1000, 5.0): complex(0.15360568829067567, 0.15664294156762737),
    (-1000, 50.0): complex(0.08323503469586847, 0.08488084537319716),
    (-3000, 5.0): complex(-0.014630972494044586, -0.008152715370086536),
    (-3000, 50.0): complex(-0.06163954872944697, -0.03434697840736908),
    (-10000, 5.0): complex(0.006898457904698875, 0.02869812381098217),
    (-10000, 50.0): complex(-0.04760257386347853, -0.19803042612248317),
}


def test_strongly_attractive_gamma_frozen_mpmath():
    for (g, rho, theta), ref in ATTRACTIVE_PSI.items():
        got = psi_exact(ScatteringParams(g), FieldPoint(rho, theta))
        assert abs(got - ref) < 1e-10 * abs(ref), (g, rho, theta)
    for (g, rho), ref in ATTRACTIVE_WAVE.items():
        got = coulomb_wave_regular(0, g, rho)
        assert abs(got - ref) < 1e-10 * abs(ref), (g, rho)


def test_hyp1f1_series_batch_independent():
    # an element's value is bit-identical alone, in a batch of its (a, b)
    # with every case's z, and in a batch whose larger |z| lengthens its
    # chain
    cases = [(-0.4j, 1.0, 7.3j), (-0.4j, 1.0, 0.6j), (-10j, 1.0, 55j),
             (3 - 0.7j, 8.0, 38j), (6 - 2j, 12.0, 9j), (1 - 0.3j, 2 + 0.5j, 4j),
             (1.0, 1.0, 0.5j * np.pi)]  # e^{i pi/2}: Re ~ 6e-17 shows stray terms
    z = np.array([zi for _, _, zi in cases])
    for i, (a, b, zi) in enumerate(cases):
        alone = series_branch(a, b, zi)
        assert series_branch(a, b, z)[i] == alone, cases[i]
        longer = series_branch(a, b, np.concatenate([z, 4.0 * z]))
        assert longer[i] == alone, cases[i]


@pytest.mark.parametrize("a, b", [(-4j, 1.0), (31 - 2j, 62.0)])
def test_hyp1f1_series_at_anchor_radii(a, b):
    # the psi ray and the l = 30 partial-wave factor on z = i r, exactly at
    # anchor radii r_k and one ulp either side: r_k closes the step that
    # ends there (t = 1), the next float above opens the next (t ~ 0); r_0
    # ends the Maclaurin step from the origin
    radii = specfun._anchor_radii(specfun._Kummer(a, b),
                                  1.0 / max(1.0, abs(a / b)), 60.0)
    picks = [radii[k] for k in (0, 1, 2, len(radii) // 2, len(radii) - 2)]
    r = np.array([np.nextafter(rk, to) for rk in picks
                  for to in (0.0, rk, np.inf)])
    got = series_branch(a, b, 1j * r)
    for ri, gi in zip(r, got):
        ref = complex(mp_hyp1f1(a, b, 1j * ri))
        assert abs(gi - ref) < 2e-14 * abs(ref), (ri, gi, ref)


def test_hyp1f1_series_at_zero_is_one():
    # z = 0 in any sign of zero, batched with other points of its chain, is
    # exactly 1 for each (a, b)
    z = np.array([0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0),
                  7j, 0.0])
    for a, b in ((-4j, 1.0), (1.5, 2.0), (31 - 2j, 62.0)):
        got = series_branch(a, b, z)
        assert np.all(got[z == 0.0] == 1.0), (a, b)
    assert series_branch(-4j, 1.0, -0.0) == 1.0


# hyp1f1's own bits (real and imaginary part as float.hex) where the
# convergent branch starts its chain: z = 0, |z| < r_0, |z| = r_0 =
# 1 / max(1, |a/b|), and points past r_0 (the second and a later step);
# kummer_ivp at its start radius and at the next anchor, with log w and
# w'/w at the end radius
CHAIN_START_BITS = [
    (-4j, 1.0, complex(0.0, 0.0), "0x1.0000000000000p+0", "0x0.0p+0"),
    (-4j, 1.0, complex(0.0, 0.1), "0x1.710aa4773599dp+0", "0x1.757573c5862c2p-7"),
    (-4j, 1.0, complex(0.0, 0.25), "0x1.232b860c1a528p+1", "0x1.5fd301aecdd3ep-4"),
    (-4j, 1.0, complex(0.0, 0.3), "0x1.4d2c60bc5352fp+1", "0x1.0d06ec0eae4d1p-3"),
    (-4j, 1.0, complex(0.0, 7.0), "-0x1.24ee7c0ac7a66p+11", "0x1.7a7a053b8bbaap+9"),
    (3 - 2j, 1.5, complex(0.0, 0.2), "0x1.371618093ebe7p+0", "0x1.e42c203e953a4p-2"),
    (3 - 2j, 1.5, complex(0.0, 0.41602514716892186),
     "0x1.4a618190a338ap+0", "0x1.21dc333dddbacp+0"),
    (3 - 2j, 1.5, complex(0.0, 0.5), "0x1.431c74788f273p+0", "0x1.6c33a415bd4eep+0"),
    (3 - 2j, 1.5, complex(0.0, 0.0), "0x1.0000000000000p+0", "0x0.0p+0"),
]
KUMMER_IVP_BITS = [
    ("0x1.b379629e6c2cap-3", "-0x1.5368c951e9cfdp+0"),
    ("-0x1.bb30397db9880p-9", "-0x1.04b1e2de0674bp+0"),
    ("-0x1.af73c3fd25cc4p+2", "0x1.7de538c8ba78ep+1"),
    ("0x1.d22b29d5f764cp-2", "0x1.faee90fd2ca2ap+0"),
]


def test_chain_start_bits_pinned_scalar_and_batch():
    # each (a, b)'s rows as one batch, and each row alone
    for ab in ((-4j, 1.0), (3 - 2j, 1.5)):
        rows = [row for row in CHAIN_START_BITS if row[:2] == ab]
        batch = specfun.hyp1f1(*ab, np.array([row[2] for row in rows]))
        for (ai, bi, zi, re, im), got in zip(rows, batch):
            assert (_hex(specfun.hyp1f1(ai, bi, zi)) == _hex(got)
                    == (re, im)), zi
    a, b, m0, dm0 = 3 + 0.1j, 6.0, 0.3 - 1.2j, 0.5 + 0.08j
    r = [2.0, specfun._anchor_radii(specfun._Kummer(a, b), 2.0, 30.0)[1]]
    log_w, end = specfun.kummer_ivp(specfun._Kummer(a, b), 2.0, m0, dm0,
                                    30.0, r)
    assert [_hex(v) for v in (*log_w, *end)] == KUMMER_IVP_BITS


def test_kummer_ivp_at_start_radius_is_initial_value():
    # r = r0 is the initial data itself, whatever else the batch holds, and
    # also where r_end = r0 leaves the chain no step
    a, b, m0, dm0 = 3 + 0.1j, 6.0, 0.3 - 1.2j, 0.5 + 0.08j
    for r_end, r in ((30.0, [2.0]), (30.0, [2.0, 2.0, 7.5, 30.0]),
                     (2.0, [2.0, 2.0])):
        log_w, _ = specfun.kummer_ivp(specfun._Kummer(a, b), 2.0, m0, dm0,
                                      r_end, r)
        assert log_w[0] == np.log(m0)


def test_one_step_points_keep_their_bits_alone_and_in_any_batch():
    # points one anchor step holds: alone, as a one-step batch (its row
    # broadcast, ungathered) and in a batch spanning several steps (its
    # columns gathered) give the same bits; r on a lattice radius closes
    # its step, and z = -0.0i sums as z = 0 on step 0
    k = specfun._Kummer(-0.7j, 1.0)
    radii = [0.0] + specfun._anchor_radii(k, k.r_start, 20.0)
    for lo, hi in ((0.0, radii[1]), (radii[3], radii[4])):
        z = 1j * np.array([np.nextafter(lo, np.inf), 0.5 * (lo + hi), hi])
        if lo == 0.0:
            z = np.concatenate([z, [0.0, complex(0.0, -0.0)]])
        alone = [_hex(specfun.hyp1f1(-0.7j, 1.0, zi)) for zi in z]
        for batch in (z, np.concatenate([z, [7j, 15j, 0.25j]])):
            assert [_hex(v) for v in specfun.hyp1f1(-0.7j, 1.0, batch)[:z.size]
                    ] == alone, (lo, batch)
    k, m0, dm0 = specfun._Kummer(3 + 0.1j, 6.0), 0.3 - 1.2j, 0.5 + 0.08j
    radii = specfun._anchor_radii(k, 2.0, 30.0)
    r = [np.nextafter(radii[2], np.inf), 0.5 * (radii[2] + radii[3]), radii[3]]
    alone = [specfun.kummer_ivp(k, 2.0, m0, dm0, 30.0, [ri]) for ri in r]
    for batch in (r, r + [2.0, 25.0, 7.7]):
        log_w, end = specfun.kummer_ivp(k, 2.0, m0, dm0, 30.0, batch)
        assert [_hex(v) for v in log_w[:3]] == [_hex(a[0][0]) for a in alone]
        assert all([_hex(v) for v in end] == [_hex(v) for v in a[1]]
                   for a in alone)


def test_point_at_the_switch_radius_takes_one_branch_alone_and_batched():
    # |z| = k.radius exactly is the convergent branch's, |z| one ulp past it
    # the large-|z| branch's, alone (branch's float test) and in a batch
    # (_dispatch's mask)
    k = specfun._Kummer(-0.7j, 1.0)
    for r, body in ((k.radius, specfun._continuation),
                    (np.nextafter(k.radius, np.inf), specfun._asymptotic)):
        want = _hex(k(1j * r, body))
        assert _hex(k(1j * r)) == want
        assert _hex(k(np.array([1j * r, 5j, 60j]))[0]) == want
        assert _hex(k(np.array([1j * r, 1j * r]))[1]) == want


def test_legendre_p_values():
    assert _legendre_column(-0.73, 0)[0] == 1.0
    assert abs(_legendre_column(1.0, 2)[2] - 1.0) < 1e-14
    assert abs(_legendre_column(0.3, 3)[3] - (-0.3825)) < 1e-14


def test_legendre_matches_scipy():
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, size=30)
    for ell in (1, 4, 9, 37, 150):
        got = list(_legendre_rows(x, ell))[ell]
        ref = eval_legendre(ell, x)
        assert np.max(np.abs(got - ref)) < 1e-10


def test_legendre_explicit_polynomials():
    x = np.linspace(-1, 1, 41)
    explicit = [np.ones_like(x), x, (3 * x ** 2 - 1) / 2,
                (5 * x ** 3 - 3 * x) / 2,
                (35 * x ** 4 - 30 * x ** 2 + 3) / 8,
                (63 * x ** 5 - 70 * x ** 3 + 15 * x) / 8]
    sweep = list(_legendre_rows(x, 5))
    for ell in range(6):
        assert np.max(np.abs(sweep[ell] - explicit[ell])) < 1e-13


def test_legendre_scalar_sweep_equals_array_sweep():
    # one angle's column runs the recurrence on Python floats, the sums over
    # an angle array in numpy: the same operations, so the same bits
    x = np.random.default_rng(17).uniform(-1.0, 1.0, 200)
    x[:5] = (-1.0, 1.0, 0.0, -0.5, 0.5)
    arrays = np.array([np.broadcast_to(row, x.shape)
                       for row in _legendre_rows(x, 2000)])
    for i, xi in enumerate(x):
        assert np.array_equal(_legendre_column(xi, 2000), arrays[:, i])
    assert np.array_equal(_legendre_column(x[7], 0), [1.0])
    assert np.array_equal(_legendre_column(x[7], 1), [1.0, x[7]])


def spherical_bessel_j(ell, x):
    """j_ell(x) from the free partial wave coulomb_wave_regular(ell, 0, x)
    / x = (2 ell + 1) i^ell j_ell(x)."""
    return coulomb_wave_regular(ell, 0.0, x) / x / ((2 * ell + 1) * 1j ** ell)


def test_spherical_bessel_values():
    assert spherical_bessel_j(0, 1e-13) == pytest.approx(1.0)
    assert abs(spherical_bessel_j(1, np.pi) - 1.0 / np.pi) < 1e-14


def test_spherical_bessel_matches_scipy():
    for ell in (0, 1, 2, 5, 12, 30):
        for x in (0.1, 1.0, 4.5, 29.0, 100.0):
            got = spherical_bessel_j(ell, x)
            ref = spherical_jn(ell, x)
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref)), (ell, x)


def test_plane_wave_expansion_consistency():
    rho, theta = 9.0, 1.1
    ell_top = int(rho) + 25
    leg = _legendre_column(np.cos(theta), ell_top)
    acc = 0.0 + 0.0j
    for ell in range(ell_top + 1):
        acc += coulomb_wave_regular(ell, 0.0, rho) / rho * leg[ell]
    assert abs(acc - np.exp(1j * rho * np.cos(theta))) < 1e-8
