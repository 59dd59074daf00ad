"""Partial-wave layer: phase-shift factors, regular radial waves, the
divergent amplitude series and its two repaired forms, and the free-wave
reference."""

import numpy as np
import pytest
from mpmath import mp, coulombf
from scipy.special import eval_legendre, spherical_jn

from coulscat import (
    BlackHoleParams,
    FieldPoint,
    ScatteringParams,
    born_amplitude_yukawa,
    coulomb_wave_asymptotic,
    coulomb_wave_regular,
    differential_cross_section,
    f_reduced_series,
    f_series_cesaro,
    f_series_partial_sweep,
    integrate_full_mode,
    phase_shift,
    phase_shift_sweep,
    psi_asymptotic,
    psi_asymptotic_grid,
    psi_exact,
    psi_multipole_sum,
    rutherford_amplitude,
    rutherford_amplitude_phase_separated,
)
from coulscat import multipole, specfun

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


def test_sweep_matches_direct():
    for g in (0.3, 2.0, 10.0):
        sweep = phase_shift_sweep(120, g)
        for ell in (0, 1, 7, 63, 120):
            assert abs(sweep[ell] - phase_shift(ell, g).factor) < 1e-12


# e^{2 i delta_ell} = exp(2 i Im log Gamma(ell + 1 + i gamma)) in 40-digit
# mpmath, keyed by gamma, at ell = PHASE_SWEEP_ELLS
PHASE_SWEEP_ELLS = (0, 1, 100, 1000, 2000)
PHASE_SWEEP_FROZEN = {
    -50.0: [complex(-0.8244046950562033, 0.5660007939652456),
            complex(0.8463764143710423, -0.5325851717767007),
            complex(0.9960408850856028, 0.08889631734717039),
            complex(0.9601465196231098, 0.2794971571512475),
            complex(0.9902482336738662, 0.1393141618996007)],
    -10.0: [complex(-0.7847473452131738, -0.6198157824554614),
            complex(0.646471995316782, 0.762937716508457),
            complex(-0.42670122049565173, 0.9043926516881488),
            complex(0.9979115719136068, 0.06459484995658912),
            complex(0.33736052435527464, -0.9413755236921842)],
    0.5: [complex(0.8832176710073695, -0.4689632668134232),
          complex(0.9051012160551603, 0.42519617671784166),
          complex(-0.10204506486575214, -0.9947797770042093),
          complex(0.8109222016149198, 0.5851539822371641),
          complex(0.25014419780073166, 0.968208593386068)],
    10.0: [complex(-0.7847473452131738, 0.6198157824554614),
           complex(0.646471995316782, -0.762937716508457),
           complex(-0.42670122049565173, -0.9043926516881488),
           complex(0.9979115719136068, -0.06459484995658912),
           complex(0.33736052435527464, 0.9413755236921842)],
    50.0: [complex(-0.8244046950562033, -0.5660007939652456),
           complex(0.8463764143710423, 0.5325851717767007),
           complex(0.9960408850856028, -0.08889631734717039),
           complex(0.9601465196231098, -0.2794971571512475),
           complex(0.9902482336738662, -0.1393141618996007)],
}


def test_phase_shift_sweep_frozen_mpmath():
    # the sweep feeds the partial sums, the Cesaro mean and the reduced
    # series; its error is the log-gamma seed's (3.8e-13 at gamma = 50)
    for g, refs in PHASE_SWEEP_FROZEN.items():
        sweep = phase_shift_sweep(2000, g)
        for ell, ref in zip(PHASE_SWEEP_ELLS, refs):
            assert abs(sweep[ell] - ref) < 5e-13, (g, ell)


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
# the large-|z| expansion of 1F1 does not hold. The gamma = 0 rows are free
# partial waves past rho = 300.
COULOMB_WAVE_LARGE_ELL = [
    (200, 1.0, 500.0, complex(-212.54515812645538092, 318.52238337668994649)),
    (100, 1.0, 400.0, complex(-16.517429214517424406, -161.03873233482146953)),
    (150, -5.0, 600.0, complex(252.1024131289058521, 15.649684538819052191)),
    (300, 2.0, 1000.0, complex(-236.01590725345116776, 535.19427538335502856)),
    (152, 0.0, 576.6, complex(-4.9828084281703251362, 0.0)),
    (83, 0.0, 548.1, complex(0.0, -3.1199349993079733968)),
    (81, 0.0, 1041.0, complex(0.0, -61.72231236453209327)),
    (190, 0.0, 1100.0, complex(-366.86235731832638592, 0.0)),
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


# 40-digit mpmath (2 ell + 1) i^ell e^{i sigma_ell} coulombf(ell, gamma, rho)
# at six ell of each sweep (ell_max, gamma, rho). Entries marked with |w| lie
# below the float64 normal range; their float64 roundings are 0 or
# subnormal, and they are checked against an absolute floor instead.
COULOMB_WAVE_SWEEP = {
    (1000, 1.0, 1200.0): [
        (0, complex(-0.9070979792953109, 0.2822294259852971)),
        (1, complex(0.6289157031603516, -1.1970304433112255)),
        (250, complex(-346.008170983531, 328.68163742580566)),
        (500, complex(-669.0261067549476, 45.279640942802914)),
        (750, complex(-623.56141584693, -218.8625654730273)),
        (1000, complex(1873.8546410235706, 1352.1565838280999)),
    ],
    (600, 1.0, 400.0): [
        (0, complex(-0.29703209186462143, 0.09241691493050104)),
        (1, complex(-0.6289528785076615, 1.197101200047378)),
        (150, complex(-20.92687798679232, 67.2734423034686)),
        (300, complex(-161.57709832715514, 105.33798360464819)),
        (450, complex(-1.887922032709393e-05, 3.2957025010026776e-06)),
        (600, complex(4.097051273272674e-55, 4.714966734731625e-56)),
    ],
    (300, -5.0, 700.0): [
        (0, complex(0.32585884883092264, -0.2604546808972088)),
        (1, complex(-1.5663060009937677, 0.8092947998043394)),
        (75, complex(39.624589826037706, -103.13933488168244)),
        (150, complex(-302.06593276924156, -18.751254694839364)),
        (225, complex(193.38834715086898, -79.14914365565939)),
        (300, complex(-111.329683886243, 28.79955170789437)),
    ],
    (260, -20.0, 10.0): [
        (0, complex(-0.005052865310862935, -0.0007369555473017702)),
        (1, complex(-0.2048071471898616, -0.040405941240780986)),
        (65, complex(2.490917920324219e-33, -2.0618435042631338e-33)),
        (130, complex(3.8990196251084328e-115, -4.538776080412661e-116)),
        (195, complex(9.125326109448498e-213, -2.84933010007266e-213)),
        (260, complex(-8.765e-321, 3.365e-320)),  # |w| = 3.5e-320
    ],
    (100, 20.0, 60.0): [
        (0, complex(-0.44425809792580545, 0.0647946164320461)),
        (1, complex(1.4264241549565302, -0.28141601199187716)),
        (25, complex(14.520451748015141, -23.40411268882989)),
        (50, complex(0.2385796523699668, 0.10082519426008137)),
        (75, complex(-1.8000834862903906e-09, -5.92802196226254e-10)),
        (100, complex(-1.2147083715619805e-21, -3.398447421208911e-21)),
    ],
    (60, 20.0, 1.0): [
        (0, complex(-2.924700510428161e-23, 4.265647573709527e-24)),
        (1, complex(6.29150060618198e-23, -1.241235998341718e-23)),
        (15, complex(2.409580085247689e-34, 1.7511894705834242e-34)),
        (30, complex(-2.706598542888751e-57, -1.5459397394865743e-57)),
        (45, complex(-1.3891899837115785e-84, 6.435116462672375e-87)),
        (60, complex(1.3092653397483477e-114, 1.1589649914917288e-114)),
    ],
    (150, 0.5, 0.1): [
        (0, complex(0.038347674963759626, -0.009549427664452742)),
        (1, complex(-0.0009396109566237684, 0.004209948428747433)),
        (37, complex(-2.526495926928444e-92, -6.220360439318516e-93)),
        (75, complex(6.203324454694955e-208, 4.164956487137555e-208)),
        (112, complex(-0.0, 0.0)),  # |w| = 8.3e-329
        (150, complex(0.0, -0.0)),  # |w| = 1.2e-458
    ],
    (150, 1.0, 0.1): [
        (0, complex(0.01140466658853306, -0.0035483846048647246)),
        (1, complex(-0.0007488020578153025, 0.0014252130368423547)),
        (37, complex(5.461037616476708e-93, -1.0415907676463428e-92)),
        (75, complex(-3.139620039821343e-208, 1.2840274139792564e-208)),
        (112, complex(0.0, -0.0)),  # |w| = 3.8e-329
        (150, complex(-0.0, 0.0)),  # |w| = 5.5e-459
    ],
    (40, 2.0, 0.001): [
        (0, complex(6.577503549520434e-06, 8.575591641610097e-07)),
        (1, complex(-1.3998569559496448e-08, 4.857528340312756e-09)),
        (10, complex(-1.6686555599907762e-46, 5.463480993651224e-44)),
        (20, complex(1.1910460593774467e-88, -2.9017587875664764e-89)),
        (30, complex(-1.1783522007317918e-135, -7.286108038758673e-136)),
        (40, complex(2.2451349933628255e-184, 4.6416811761812653e-184)),
    ],
}


def test_coulomb_wave_sweep_frozen_mpmath():
    for (ell_max, g, rho), rows in COULOMB_WAVE_SWEEP.items():
        w, _ = multipole._coulomb_wave_sweep(ell_max, g, rho)
        assert w.shape == (ell_max + 1,)
        for ell, ref in rows:
            tol = 1e-11 * abs(ref) if abs(ref) > 1e-280 else 1e-280
            assert abs(w[ell] - ref) < tol, (ell_max, g, rho, ell, w[ell])


def test_coulomb_wave_sweep_matches_per_ell_path():
    for ell_max, g, rho in [(60, 1.0, 10.0), (40, -1.0, 5.0), (60, 20.0, 1.0),
                            (150, 0.5, 0.1), (80, -20.0, 10.0)]:
        w, _ = multipole._coulomb_wave_sweep(ell_max, g, rho)
        direct = coulomb_wave_regular(np.arange(ell_max + 1), g, rho)
        err = np.max(np.abs(w - direct)) / np.max(np.abs(w))
        assert err < 1e-12, (ell_max, g, rho, err)


def test_coulomb_wave_sweep_start_margin(monkeypatch):
    # doubling the margin above ell_max and the turning point changes the
    # waves only by rounding: the start rule is past the point that matters
    configs = list(COULOMB_WAVE_SWEEP) + [(60, 1.0, 10.0), (40, -1.0, 5.0)]
    base = [multipole._coulomb_wave_sweep(*c)[0] for c in configs]
    monkeypatch.setattr(multipole, "_SWEEP_MARGIN", 2 * multipole._SWEEP_MARGIN)
    for c, w in zip(configs, base):
        wide, _ = multipole._coulomb_wave_sweep(*c)
        err = np.max(np.abs(wide - w)) / np.max(np.abs(w))
        assert err < 1e-14, (c, err)


def test_multipole_sum_far_out():
    # rho = 400 with 600 waves: one anchor chain for the whole sum
    p = params(1.0)
    pt = FieldPoint(rho=400.0, theta=1.0)
    ref = psi_exact(p, pt)
    assert abs(psi_multipole_sum(p, pt, 600) - ref) < 1e-12 * abs(ref)


# perfbench's seed-1701 pointwise psi_multipole_sum calls, (gamma, rho,
# theta, ell_max): |gamma| <= 1, rho in [0.5, 10], ell_max = rho
# + 10 |gamma| + 30 (criterion 2's domain); their sweeps have cond <= 58
POINTWISE_MULTIPOLE = [
    (-0.13642071196017425, 7.636840106152184, 0.5430370138165839, 39),
    (-0.5886675241610061, 5.229637532615203, 2.1237240477009847, 41),
    (0.5993581066164229, 8.008682228292429, 2.025349201199303, 44),
    (-0.8962343185950812, 6.241607635199214, 1.3363826322855008, 45),
    (0.21798385324911163, 2.363712047005454, 1.46802737524368, 34),
    (-0.43521979736210736, 6.627033389137738, 2.228321233050527, 40),
    (0.9425039005045353, 7.17970942586397, 2.553886098370182, 46),
    (0.6164970444694979, 2.8048143413799007, 2.9396248226517363, 38),
    (-0.09537464744451474, 1.0769501672403052, 0.03654673306739059, 32),
    (0.7130127691207275, 4.843447272350975, 0.12237659462207497, 41),
    (0.7549066811165333, 2.0801493141790086, 0.7499859183290158, 39),
    (-0.9786456569951701, 5.591887939322455, 1.506416920554928, 45),
    (0.40335062393920507, 5.881315902953023, 0.9570924890008766, 39),
    (0.5202079370391233, 4.472741704696996, 0.6940630272357143, 39),
    (-0.7582255858494148, 9.612475285269639, 1.0860947793419247, 47),
    (-0.7486406319375813, 0.8454346750342909, 2.4773198924287736, 38),
    (0.8401707544816077, 3.767468103580317, 1.934163214170518, 42),
    (-0.6504531039783571, 8.325346149892006, 3.0916104956478363, 44),
    (-0.34408776039152666, 9.08694493198815, 1.883081502294395, 42),
    (-0.3706108614775685, 2.615450543228632, 0.8186836806974636, 36),
    (0.11741894699337219, 8.932771719878934, 2.6882959703050737, 40),
    (0.3079376920525141, 3.935770459733393, 2.657504916419937, 37),
    (-0.6406218906670967, 0.5296779068220819, 1.6967321201592893, 36),
    (0.19960414761244039, 8.586274973482107, 2.8442596962740905, 40),
    (-0.19746560613055908, 9.380959397796492, 1.783378004452161, 41),
    (0.8950102746725768, 5.479561975955581, 2.987419985007536, 44),
    (-0.037638665265378846, 9.99663901532583, 0.16316482847988628, 40),
    (-0.49755708543874977, 3.2059020309830784, 2.4153279573709163, 38),
    (0.2824681400907689, 1.2474278604891111, 0.9168489519538919, 34),
    (0.023732548887976268, 2.9242015743183294, 1.612592210364669, 33),
    (0.49209651087667106, 6.711397110852761, 1.1551631341996318, 41),
    (-0.9204852626495633, 8.48654599822563, 0.2432788728462982, 47),
    (0.38061091249802326, 4.197429820711537, 2.7688959786510887, 38),
    (-0.827559397833803, 7.095517644934389, 2.2952903437285466, 45),
    (0.9743703336310969, 1.645237967993699, 0.36466428682909663, 41),
    (0.05373077861613873, 1.785048945782557, 0.40444528144292313, 32),
    (-0.2562680935913575, 3.490075265679238, 0.6155287109714355, 36),
    (-0.5371349823760361, 4.681587558074751, 2.097565771527242, 40),
    (0.6719457838201897, 7.42581739099762, 1.192876485745465, 44),
    (-0.24514635522823358, 6.066997654523272, 1.3169778862676145, 38),
]


def _no_1f1(*args):
    raise AssertionError("hyp1f1 called with %r" % (args,))


def test_multipole_sum_pointwise_runs_no_1f1(monkeypatch):
    # the forward-axis sum rule normalizes these sweeps: no anchor chain
    points = POINTWISE_MULTIPOLE + [(-1.0, 5.0, 1.0, 45)]
    refs = [psi_exact(params(g), FieldPoint(rho, theta))
            for g, rho, theta, _ in points]
    monkeypatch.setattr(multipole.specfun, "hyp1f1", _no_1f1)
    for (g, rho, theta, ell_max), ref in zip(points, refs):
        got = psi_multipole_sum(params(g), FieldPoint(rho, theta), ell_max)
        assert abs(got - ref) < 1e-12, (g, rho, theta, got, ref)


def test_coulomb_wave_sweep_direct_normalization_where_sum_cancels(
        monkeypatch):
    # repulsive gamma: psi(rho, 0) ~ e^{-pi gamma}, the sum rule cancels,
    # and one coulomb_wave_regular call at ell* fixes the scale
    calls = []
    hyp1f1 = multipole.specfun.hyp1f1
    monkeypatch.setattr(multipole.specfun, "hyp1f1",
                        lambda *args: calls.append(args) or hyp1f1(*args))
    for ell_max, g, rho in [(100, 20.0, 60.0), (60, 20.0, 1.0),
                            (60, 1.0, 10.0)]:
        calls.clear()
        _, est = multipole._coulomb_wave_sweep(ell_max, g, rho)
        assert est > multipole._SUM_RULE_TOL and len(calls) == 1, (g, rho)
    # |psi| = 5.4e-9 there
    p, pt = params(20.0), FieldPoint(rho=60.0, theta=1.0)
    assert abs(psi_multipole_sum(p, pt, 100) - psi_exact(p, pt)) < 1e-14


def test_multipole_sum_at_tiny_rho():
    # one downward step grows a value by up to about (2 L + 1) L (L + 1)
    # /rho: past 1e50 the sweep rescales below 1e250 (at 1e-60 a value
    # passed float64's range before), and where that bound itself
    # overflows it raises, naming rho
    for g in (0.5, -0.5):
        for rho in (1e-60, 1e-100, 1e-300):
            p, pt = params(g), FieldPoint(rho=rho, theta=1.0)
            ref = psi_exact(p, pt)
            got = psi_multipole_sum(p, pt, 10)
            assert abs(got - ref) < 1e-15 * abs(ref), (g, rho, got, ref)
        with pytest.raises(ArithmeticError, match="rho = 1e-310:"):
            psi_multipole_sum(params(g), FieldPoint(rho=1e-310, theta=1.0),
                              10)


def test_coulomb_wave_sweep_sum_rule_matches_per_ell_path(monkeypatch):
    cases = [(ell_max, g, rho)
             for g, rho, _, ell_max in POINTWISE_MULTIPOLE[::5]]
    cases.append((40, 2.0, 0.001))
    directs = [coulomb_wave_regular(np.arange(ell_max + 1), g, rho)
               for ell_max, g, rho in cases]
    monkeypatch.setattr(multipole.specfun, "hyp1f1", _no_1f1)
    for case, direct in zip(cases, directs):
        w, est = multipole._coulomb_wave_sweep(*case)
        assert est <= multipole._SUM_RULE_TOL, case
        err = np.max(np.abs(w - direct)) / np.max(np.abs(w))
        assert err < 1e-12, (case, err)


def test_coulomb_wave_array_ell_bits_match_scalar_calls():
    # each distinct ell is one 1F1 call; at rho = 600 (z = 1200 i) the
    # small ell take the asymptotic branch and the rest the series one
    ells = np.arange(41)
    radius = np.array([specfun._Kummer(ell + 1.0 - 0.7j, 2.0 * ell + 2).radius
                       for ell in ells])
    assert (radius < 1200.0).any() and (radius > 1200.0).any()
    for rho in (5.0, 600.0):
        batch = coulomb_wave_regular(ells, 0.7, rho)
        alone = np.array([coulomb_wave_regular(ell, 0.7, rho) for ell in ells])
        assert np.array_equal(batch.view(np.int64), alone.view(np.int64)), rho
    # an ell array against a rho array: each element its scalar call's bits
    ell, rho = np.array([[0], [3], [0]]), np.array([0.0, 5.0, 600.0])
    batch = coulomb_wave_regular(ell, 0.7, rho)
    for (i, j), got in np.ndenumerate(batch):
        assert got == coulomb_wave_regular(int(ell[i, 0]), 0.7, rho[j])


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
            ref = (2 * ell + 1) * 1j ** ell * rho * spherical_jn(ell, rho)
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
    with pytest.raises(ValueError, match=r"rho must lie in \(0, inf\)"):
        psi_multipole_sum(p, FieldPoint(rho=0.0, theta=1.0), 10)


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
        assert abs(f_series_partial_sweep(p, 2.0, L)[-1]) < 1e-12


def test_partial_sweep_consistency():
    p = params(3.0)
    sweep = f_series_partial_sweep(p, 1.7, 50)
    assert len(sweep) == 51
    # increments follow the term formula
    factors = phase_shift_sweep(50, p.gamma)
    term7 = ((15.0 / (2j * p.k)) * (factors[7] - 1.0)
             * eval_legendre(7, np.cos(1.7)))
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


def test_cesaro_converges_to_closed_form():
    p = params(0.5)
    theta = 1.0
    ref = rutherford_amplitude_phase_separated(p, theta)
    errs = [abs(f_series_cesaro(p, theta, n) - ref) for n in (100, 300, 1000)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02 * abs(ref)


def test_cesaro_is_mean_of_partial_sums():
    # the weighted single sum against the definition: the mean of S_0..S_n
    for g in (0.5, 3.0, -2.0):
        p = params(g)
        for theta in (0.25, 1.0, 2.0, 3.1):
            for n in (100, 1000):
                mean = np.mean(f_series_partial_sweep(p, theta, n))
                got = f_series_cesaro(p, theta, n)
                assert abs(got - mean) < 1e-12 * abs(mean), (g, theta, n)


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
    ref = rutherford_amplitude_phase_separated(p, 2.0)
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
    with pytest.raises(ValueError, match="ell_max"):
        f_reduced_series(p, 1.0, -1)
    assert f_reduced_series(params(0.0), 1.0, 100) == 0.0


def test_reduced_series_term_decay():
    # the summand falls like ell^(-3/2): O(1/ell) bracket times the
    # ell^(-1/2) Legendre envelope; fit block RMS over [50, 1000]
    g, theta = 0.5, 1.0
    ell_max = 1000
    factors = phase_shift_sweep(ell_max, g)
    ells = np.arange(ell_max + 1)
    leg = eval_legendre(ells, np.cos(theta))
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
        f = rutherford_amplitude_phase_separated(p, theta)
        assert abs(abs(f) ** 2
                   - differential_cross_section(p, theta)) < 1e-12


def test_plane_wave_partial_values():
    # one partial wave of the free plane wave, i^ell (2 ell + 1) j_ell(rho),
    # is coulomb_wave_regular(ell, 0, rho) / rho (F_ell(0, rho) =
    # rho j_ell(rho), DLMF 33.5.ii); coulomb_wave_asymptotic(ell, 0, rho) is
    # its large-rho two-exponential form
    def forms(ell, rho):
        return (coulomb_wave_regular(ell, 0.0, rho) / rho,
                coulomb_wave_asymptotic(ell, 0.0, rho))

    # ell = 0 at moderate rho: the two forms are identical (j_0 is exactly
    # the two-exponential expression)
    exact, asym = forms(0, 4.0)
    assert abs(exact - asym) < 1e-14
    # far zone: close agreement for low ell
    exact, asym = forms(3, 50.0)
    assert abs(exact - asym) < 1e-2
    # deep sub-threshold: the exact term is essentially zero while the
    # two-exponential form stays O(1/rho)
    exact, asym = forms(30, 5.0)
    assert abs(exact) < 1e-15
    assert abs(asym) > 1.0
    with pytest.raises(ValueError):
        coulomb_wave_regular(-1, 0.0, 5.0)
    for ell, rho in [(-1, 5.0), (2, 0.0)]:
        with pytest.raises(ValueError):
            coulomb_wave_asymptotic(ell, 0.0, rho)


def test_legendre_recurrence_identity():
    # the Bonnet recurrence behind every Legendre sum holds along one
    # angle's whole column, far past the acceptance grids
    x = np.cos(1.234)
    leg = multipole._legendre_column(x, 500)
    for ell in range(2, 501):
        resid = (ell * leg[ell] - (2 * ell - 1) * x * leg[ell - 1]
                 + (ell - 1) * leg[ell - 2])
        assert abs(resid) < 1e-12


def _asymptotic_split(p, rho, theta):
    """(psi_in, psi_scat) from the grid for arrays, from psi_asymptotic for
    one point."""
    if np.ndim(rho):
        pin, pscat, _ = psi_asymptotic_grid(p, rho, theta)
        return np.stack([pin, pscat], axis=-1)
    split = psi_asymptotic(p, FieldPoint(rho, theta))
    return np.array([split.psi_in, split.psi_scat])


# each scalar entry point against its own array evaluation, bit for bit, on
# n seeded points: 0-d operands would take numpy's scalar arithmetic, which
# rounds complex products differently from the array loops
SCALAR_WRAPPERS = {
    "psi_asymptotic": (_asymptotic_split, 1000),
    "rutherford_amplitude":
        (lambda p, rho, theta: rutherford_amplitude(p, theta), 1000),
    "rutherford_amplitude_phase_separated":
        (lambda p, rho, theta: rutherford_amplitude_phase_separated(p, theta),
         1000),
    "coulomb_wave_regular":
        (lambda p, rho, theta: coulomb_wave_regular(3, p.gamma, rho), 250),
    "coulomb_wave_asymptotic":
        (lambda p, rho, theta: coulomb_wave_asymptotic(3, p.gamma, rho), 1000),
    "differential_cross_section":
        (lambda p, rho, theta: differential_cross_section(p, theta), 1000),
    "f_series_cesaro":
        (lambda p, rho, theta: f_series_cesaro(p, theta, 100), 300),
    "f_reduced_series":
        (lambda p, rho, theta: f_reduced_series(p, theta, 100), 300),
    "born_amplitude_yukawa":
        (lambda p, rho, theta: born_amplitude_yukawa(p, theta, 0.3), 2000),
    # r from 2.5 to 400, on both sides of the matching radius
    "integrate_full_mode":
        (lambda p, rho, theta: integrate_full_mode(
            BlackHoleParams(mass=0.05, omega=1.0), 2, 5.0 * rho), 200),
}


@pytest.mark.parametrize("name", sorted(SCALAR_WRAPPERS))
def test_scalar_call_matches_array_call(name):
    f, n = SCALAR_WRAPPERS[name]
    p = params(0.7, k=1.3)
    rng = np.random.default_rng(13)
    rho = rng.uniform(0.5, 80.0, n)
    theta = rng.uniform(0.05, np.pi, n)
    batch = f(p, rho, theta)
    for i in range(len(rho)):
        assert np.array_equal(f(p, rho[i], theta[i]), batch[i]), (rho[i], theta[i])
