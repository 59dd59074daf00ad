"""Declared domains: every public evaluator raises a ValueError that names
the parameter, its bound and the value for NaN and for a value past either
end of the bound, instead of returning a number; and s = 1 - cos(theta),
which rounds to 0 for 0 < theta < 1.05e-8, is checked itself where a
closed form divides by it or takes its log."""

import re

import numpy as np
import pytest

from coulscat import (
    BlackHoleParams,
    FieldPoint,
    ScatteringParams,
    born_amplitude_yukawa,
    coulomb_wave_asymptotic,
    coulomb_wave_regular,
    current_decomposition_asymptotic,
    current_in_distorted,
    current_numeric,
    current_outgoing_exact,
    current_scattered_asymptotic,
    differential_cross_section,
    f_reduced_series,
    f_series_cesaro,
    f_series_partial_sweep,
    full_mode_phase_error,
    integrate_full_mode,
    interference_radial_leading,
    log_gamma_complex,
    long_wavelength_valid,
    oscillation_length,
    phase_shift,
    phase_shift_sweep,
    psi_asymptotic,
    psi_asymptotic_grid,
    psi_exact,
    psi_exact_grid,
    psi_multipole_sum,
    radial_mode_asymptotic,
    rutherford_amplitude,
    rutherford_amplitude_phase_separated,
    schrodinger_residual,
)
from coulscat.currents import CurrentVector, current_scan_grid
from coulscat.specfun import hyp1f1

P = ScatteringParams(gamma=0.7, k=1.3)
BH = BlackHoleParams(mass=0.05, omega=1.0)


def point(rho, theta):
    """A FieldPoint past its constructor's own checks, so that a bad value
    reaches the evaluator's."""
    pt = object.__new__(FieldPoint)
    object.__setattr__(pt, "rho", rho)
    object.__setattr__(pt, "theta", theta)
    return pt


# (evaluator, parameter, bound, call with that parameter set to x and every
# other one inside its domain)
DOMAINS = [
    ("psi_exact_grid", "rho", "[0, inf)",
     lambda x: psi_exact_grid(P, x, 1.0)),
    ("psi_exact_grid", "theta", "[0, pi]",
     lambda x: psi_exact_grid(P, 5.0, x)),
    ("psi_exact", "rho", "[0, inf)", lambda x: psi_exact(P, point(x, 1.0))),
    ("psi_asymptotic_grid", "rho", "[0, inf)",
     lambda x: psi_asymptotic_grid(P, x, 1.0)),
    ("psi_asymptotic_grid", "theta", "(0, pi]",
     lambda x: psi_asymptotic_grid(P, 5.0, x)),
    ("rutherford_amplitude", "theta", "(0, pi]",
     lambda x: rutherford_amplitude(P, x)),
    ("rutherford_amplitude_phase_separated", "theta", "(0, pi]",
     lambda x: rutherford_amplitude_phase_separated(P, x)),
    ("differential_cross_section", "theta", "(0, pi]",
     lambda x: differential_cross_section(P, x)),
    ("born_amplitude_yukawa", "theta", "[0, pi]",
     lambda x: born_amplitude_yukawa(P, x, 0.3)),
    ("born_amplitude_yukawa", "mu", "[0, inf)",
     lambda x: born_amplitude_yukawa(P, 1.0, x)),
    ("coulomb_wave_regular", "rho", "[0, inf)",
     lambda x: coulomb_wave_regular(2, 1.0, x)),
    ("coulomb_wave_asymptotic", "rho", "(0, inf)",
     lambda x: coulomb_wave_asymptotic(2, 1.0, x)),
    ("phase_shift", "gamma", "(-inf, inf)", lambda x: phase_shift(2, x)),
    ("phase_shift_sweep", "gamma", "(-inf, inf)",
     lambda x: phase_shift_sweep(3, x)),
    ("coulomb_wave_regular", "gamma", "(-inf, inf)",
     lambda x: coulomb_wave_regular(0, x, 1.0)),
    ("coulomb_wave_asymptotic", "gamma", "(-inf, inf)",
     lambda x: coulomb_wave_asymptotic(0, x, 10.0)),
    ("f_series_partial_sweep", "theta", "(0, pi]",
     lambda x: f_series_partial_sweep(P, x, 10)),
    ("f_series_cesaro", "theta", "(0, pi]",
     lambda x: f_series_cesaro(P, x, 10)),
    ("f_reduced_series", "theta", "(0, pi)",
     lambda x: f_reduced_series(P, x, 10)),
    ("psi_multipole_sum", "rho", "(0, inf)",
     lambda x: psi_multipole_sum(P, point(x, 1.0), 10)),
    ("current_in_distorted", "rho", "(0, inf)",
     lambda x: current_in_distorted(P, point(x, 1.0))),
    ("current_in_distorted", "theta", "(0, pi]",
     lambda x: current_in_distorted(P, point(10.0, x))),
    ("current_scattered_asymptotic", "rho", "(0, inf)",
     lambda x: current_scattered_asymptotic(P, point(x, 1.0))),
    ("current_scattered_asymptotic", "theta", "(0, pi]",
     lambda x: current_scattered_asymptotic(P, point(10.0, x))),
    ("interference_radial_leading", "rho", "(0, inf)",
     lambda x: interference_radial_leading(P, point(x, 1.0))),
    ("interference_radial_leading", "theta", "(0, pi]",
     lambda x: interference_radial_leading(P, point(10.0, x))),
    ("oscillation_length", "rho", "(0, inf)",
     lambda x: oscillation_length(P, point(x, 1.0))),
    ("oscillation_length", "theta", "(0, pi)",
     lambda x: oscillation_length(P, point(10.0, x))),
    # r_start defaults to ten Schwarzschild radii, 1.0 here
    ("integrate_full_mode", "r", "[1.0, inf)",
     lambda x: integrate_full_mode(BH, 2, x)),
    ("radial_mode_asymptotic", "r", "(0, inf)",
     lambda x: radial_mode_asymptotic(BH, 2, x)),
    # the partial-wave orders
    ("phase_shift", "ell", "[0, inf)", lambda x: phase_shift(x, 1.0)),
    ("coulomb_wave_regular", "ell", "[0, inf)",
     lambda x: coulomb_wave_regular(x, 1.0, 5.0)),
    ("coulomb_wave_asymptotic", "ell", "[0, inf)",
     lambda x: coulomb_wave_asymptotic(x, 1.0, 50.0)),
    ("integrate_full_mode", "ell", "[0, inf)",
     lambda x: integrate_full_mode(BH, x, 5.0)),
    ("long_wavelength_valid", "ell", "[1, inf)",
     lambda x: long_wavelength_valid(BH, x)),
    ("phase_shift_sweep", "ell_max", "[0, inf)",
     lambda x: phase_shift_sweep(x, 1.0)),
    ("psi_multipole_sum", "ell_max", "[0, inf)",
     lambda x: psi_multipole_sum(P, point(5.0, 1.0), x)),
    ("f_series_partial_sweep", "ell_max", "[0, inf)",
     lambda x: f_series_partial_sweep(P, 1.0, x)),
    ("f_reduced_series", "ell_max", "[0, inf)",
     lambda x: f_reduced_series(P, 1.0, x)),
    ("f_series_cesaro", "n", "[1, inf)", lambda x: f_series_cesaro(P, 1.0, x)),
    # the other scalars: a step, and r_start outside the horizon r_s = 0.1
    ("schrodinger_residual", "h", "(0, inf)",
     lambda x: schrodinger_residual(P, FieldPoint(5.0, 1.0), x)),
    ("integrate_full_mode", "r_start", "(0.1, inf)",
     lambda x: integrate_full_mode(BH, 2, 50.0, r_start=x)),
    # rho s overflows float64 past max/2 at theta = pi (s = 2)
    ("psi_exact", "rho", "[0, 8.988465674311579e+307]",
     lambda x: psi_exact(P, point(x, np.pi))),
    ("current_scan_grid", "rho", "[0, 8.988465674311579e+307]",
     lambda x: current_scan_grid(P, x, np.pi)),
    ("psi_asymptotic_grid", "rho", "[0, 8.988465674311579e+307]",
     lambda x: psi_asymptotic_grid(P, x, np.pi)),
    ("FieldPoint", "rho", "[0, 8.988465674311579e+307]",
     lambda x: FieldPoint(x, np.pi)),
    # and at theta = 3 (s = 1.99) past max/1.99; the residual's stencil
    # needs theta off the axis
    ("schrodinger_residual", "rho", "[0, 9.033667905448691e+307]",
     lambda x: schrodinger_residual(P, point(x, 3.0), 1e-3)),
    # the parameter objects
    ("FieldPoint", "rho", "[0, inf)", lambda x: FieldPoint(x, 1.0)),
    ("FieldPoint", "theta", "[0, pi]", lambda x: FieldPoint(5.0, x)),
    ("ScatteringParams", "gamma", "(-inf, inf)",
     lambda x: ScatteringParams(gamma=x)),
    ("ScatteringParams", "k", "(0, inf)",
     lambda x: ScatteringParams(gamma=0.7, k=x)),
    ("BlackHoleParams", "mass", "[0, inf)",
     lambda x: BlackHoleParams(mass=x, omega=1.0)),
    ("BlackHoleParams", "omega", "(0, inf)",
     lambda x: BlackHoleParams(mass=0.05, omega=x)),
]

ENDS = {"0": (-1.0, 0.0), "pi": (3.5, np.pi), "inf": (np.inf, np.inf),
        "-inf": (-np.inf, -np.inf), "1.0": (0.5, 1.0), "1": (0.0, 1.0),
        "0.1": (0.05, 0.1),
        "8.988465674311579e+307": (1e308, 8.988465674311579e+307),
        "9.033667905448691e+307": (1e308, 9.033667905448691e+307)}


def outside(bound):
    """NaN, and one value past each end of bound: the end itself where the
    bound is open there."""
    lo, hi = bound[1:-1].split(", ")
    return [np.nan, ENDS[lo][bound[0] == "("], ENDS[hi][bound[-1] == ")"]]


CASES = [pytest.param(call, name, bound, x, id="%s-%s-%r" % (f, name, x))
         for f, name, bound, call in DOMAINS for x in outside(bound)]


@pytest.mark.parametrize("call, name, bound, x", CASES)
def test_evaluator_rejects_values_outside_its_domain(call, name, bound, x):
    with pytest.raises(ValueError, match="^%s must lie in %s, got %s = "
                       % (name, re.escape(bound), name)):
        call(x)


# (evaluator, parameter that takes one value, call with it set to x): an
# array of two values inside the domain raises, naming the parameter
ONE_VALUE = [
    ("phase_shift", "ell", [1, 2], lambda x: phase_shift(x, 0.5)),
    ("phase_shift", "gamma", [0.1, 0.2], lambda x: phase_shift(1, x)),
    ("coulomb_wave_asymptotic", "ell", [1, 2],
     lambda x: coulomb_wave_asymptotic(x, 0.5, 50.0)),
    ("coulomb_wave_regular", "gamma", [0.1, 0.2],
     lambda x: coulomb_wave_regular(2, x, 5.0)),
    ("integrate_full_mode", "ell", [2, 3],
     lambda x: integrate_full_mode(BH, x, 100.0)),
    ("radial_mode_asymptotic", "ell", [2, 3],
     lambda x: radial_mode_asymptotic(BH, x, 100.0)),
    ("full_mode_phase_error", "ell", [2, 3],
     lambda x: full_mode_phase_error(BH, x)),
    ("ScatteringParams", "gamma", [0.1, 0.2], lambda x: ScatteringParams(x)),
    ("ScatteringParams", "k", [1.0, 2.0],
     lambda x: ScatteringParams(0.7, k=x)),
    ("BlackHoleParams", "mass", [0.1, 0.2], lambda x: BlackHoleParams(x, 1.0)),
    ("BlackHoleParams", "omega", [1.0, 2.0],
     lambda x: BlackHoleParams(0.05, x)),
    ("born_amplitude_yukawa", "mu", [0.1, 0.2],
     lambda x: born_amplitude_yukawa(P, 1.0, x)),
    ("f_series_partial_sweep", "theta", [0.5, 1.0],
     lambda x: f_series_partial_sweep(P, x, 10)),
    ("phase_shift_sweep", "ell_max", [5, 10],
     lambda x: phase_shift_sweep(x, 1.0)),
    ("psi_multipole_sum", "ell_max", [5, 10],
     lambda x: psi_multipole_sum(P, FieldPoint(5.0, 1.0), x)),
    ("f_series_partial_sweep", "ell_max", [5, 10],
     lambda x: f_series_partial_sweep(P, 1.0, x)),
    ("f_reduced_series", "ell_max", [5, 10],
     lambda x: f_reduced_series(P, 1.0, x)),
    ("f_series_cesaro", "n", [5, 10], lambda x: f_series_cesaro(P, 1.0, x)),
    ("phase_shift_sweep", "gamma", [0.1, 0.2],
     lambda x: phase_shift_sweep(3, x)),
    # named before a, b and z broadcast: a shape-(3,) z would not take a
    ("hyp1f1", "hyp1f1 parameter a", [0.5, 0.6],
     lambda x: hyp1f1(x, 1.0, [1j, 2j, 3j])),
    ("hyp1f1", "hyp1f1 parameter b", [1.0, 2.0], lambda x: hyp1f1(0.5, x, 1j)),
]


@pytest.mark.parametrize("name, values, call", [
    pytest.param(name, values, call, id="%s-%s" % (f, name))
    for f, name, values, call in ONE_VALUE])
def test_one_value_parameter_rejects_an_array(name, values, call):
    with pytest.raises(ValueError, match=r"^%s must be one value, got an "
                       r"array of shape \(2,\)$" % name):
        call(np.array(values))
    # one value as a one-element array still passes
    call(np.array(values[:1]))


def test_long_wavelength_validity_takes_an_array_of_orders():
    # ell is one value elsewhere in classical, but not here
    assert long_wavelength_valid(BH, np.array([1, 2])).tolist() == [True, True]


def test_one_point_evaluators_refuse_rho_s_past_float64():
    # a point past FieldPoint's bound, put together past its checks: at
    # (rho, theta) = (1e308, 3) interference_radial_leading returned NaN;
    # no numpy warning is raised on the way (the suite turns warnings into
    # errors). DOMAINS holds the residual's row.
    pt = point(1e308, 3.0)
    for evaluate in (lambda: interference_radial_leading(P, pt),
                     lambda: current_in_distorted(P, pt),
                     lambda: oscillation_length(P, pt)):
        with pytest.raises(ValueError, match=re.escape(
                "rho must lie in [0, 9.033667905448691e+307], got "
                "rho = 1e+308")):
            evaluate()
    with pytest.raises(ValueError, match=re.escape(
            "rho must lie in [0, 9.033667905448691e+307]")):
        FieldPoint(1e308, 3.0)
    # psi_exact_grid's domain: max/s is inside, the next float past it not
    edge = 9.033667905448691e+307
    FieldPoint(edge, 3.0)
    psi_exact_grid(P, edge, 3.0)
    for call in (lambda: FieldPoint(np.nextafter(edge, np.inf), 3.0),
                 lambda: psi_exact_grid(P, np.nextafter(edge, np.inf), 3.0)):
        with pytest.raises(ValueError, match="^rho must lie in"):
            call()


# (evaluator, partial-wave index, its bound, an integer n inside, call with
# the index set to x): a non-integer raises, and the integral float n.0
# gives the value of n
ORDERS = [
    ("phase_shift", "ell", "[0, inf)", 1, lambda x: phase_shift(x, 0.4).factor),
    ("coulomb_wave_regular", "ell", "[0, inf)", 1,
     lambda x: coulomb_wave_regular(x, 0.4, 2.0)),
    ("coulomb_wave_asymptotic", "ell", "[0, inf)", 2,
     lambda x: coulomb_wave_asymptotic(x, 1.0, 50.0)),
    ("integrate_full_mode", "ell", "[0, inf)", 2,
     lambda x: integrate_full_mode(BH, x, 100.0)),
    ("long_wavelength_valid", "ell", "[1, inf)", 1,
     lambda x: long_wavelength_valid(BH, x)),
    ("psi_multipole_sum", "ell_max", "[0, inf)", 10,
     lambda x: psi_multipole_sum(P, FieldPoint(5.0, 1.0), x)),
    ("phase_shift_sweep", "ell_max", "[0, inf)", 10,
     lambda x: phase_shift_sweep(x, 1.0)),
    ("f_series_partial_sweep", "ell_max", "[0, inf)", 10,
     lambda x: f_series_partial_sweep(P, 1.0, x)),
    ("f_series_cesaro", "n", "[1, inf)", 10,
     lambda x: f_series_cesaro(P, 1.0, x)),
    ("f_reduced_series", "ell_max", "[0, inf)", 10,
     lambda x: f_reduced_series(P, 1.0, x)),
]


@pytest.mark.parametrize("name, bound, n, call", [
    pytest.param(name, bound, n, call, id=f) for f, name, bound, n, call
    in ORDERS])
def test_partial_wave_index_must_be_an_integer(name, bound, n, call):
    with pytest.raises(ValueError, match="^%s must be an integer in %s, got "
                       "%s = %r$" % (name, re.escape(bound), name, n + 0.5)):
        call(n + 0.5)
    assert np.array_equal(call(float(n)), call(n))
    assert np.array_equal(call(np.int64(n)), call(n))


# (evaluator, call at a FieldPoint pt): the evaluators of one point
ONE_POINT = [
    ("psi_multipole_sum", lambda pt: psi_multipole_sum(P, pt, 10)),
    ("current_in_distorted", lambda pt: current_in_distorted(P, pt)),
    ("current_scattered_asymptotic",
     lambda pt: current_scattered_asymptotic(P, pt)),
    ("current_decomposition_asymptotic",
     lambda pt: current_decomposition_asymptotic(P, pt)),
    ("current_outgoing_exact", lambda pt: current_outgoing_exact(P, pt)),
    ("interference_radial_leading",
     lambda pt: interference_radial_leading(P, pt)),
    ("oscillation_length", lambda pt: oscillation_length(P, pt)),
    ("schrodinger_residual", lambda pt: schrodinger_residual(P, pt, 1e-3)),
    ("current_numeric",
     lambda pt: current_numeric(lambda q: psi_exact(P, q), P, pt)),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name)
                                  for name, call in ONE_POINT])
def test_one_point_evaluator_rejects_several_points(call):
    for pt in (FieldPoint(np.array([10.0, 20.0]), np.array([1.0, 1.5])),
               FieldPoint(10.0, np.array([1.0, 1.5]))):
        with pytest.raises(ValueError, match="^pt must hold one point, got "
                           r"rho of shape \(2?,?\) and theta of shape"):
            call(pt)
    call(FieldPoint(10.0, 1.0))


def test_field_point_of_arrays_names_its_first_bad_element():
    with pytest.raises(ValueError, match=r"^rho must lie in \[0, inf\), "
                       "got rho = nan$"):
        FieldPoint(np.array([1.0, np.nan, -1.0]), 1.0)
    with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi\], "
                       "got theta = -0.5$"):
        FieldPoint(np.array([1.0, 2.0]), np.array([0.5, -0.5]))
    pt = FieldPoint(np.array([[1.0], [2.0]]), np.array([0.0, 1.0, np.pi]))
    assert pt.s.shape == (3,)


def test_field_point_takes_a_list_as_psi_exact_grid_does():
    # a list is no scalar: it gets the array test (psi_exact_grid's
    # domain), not Python's TypeError from comparing a float with a list
    pt = FieldPoint([1.0, 2.0], 1.0)
    assert np.array_equal(psi_exact(P, pt).view(np.int64),
                          psi_exact_grid(P, [1.0, 2.0], 1.0).view(np.int64))
    for rho, theta, bad in (([1.0, -2.0], 1.0, r"rho must lie in \[0, inf\), "
                             "got rho = -2.0"),
                            (5.0, [0.5, 4.0], r"theta must lie in \[0, pi\], "
                             "got theta = 4.0")):
        for call in (FieldPoint, lambda r, t: psi_exact_grid(P, r, t)):
            with pytest.raises(ValueError, match="^%s$" % bad):
                call(rho, theta)


def test_field_evaluators_on_several_points_match_scalar_calls():
    # psi_exact and psi_asymptotic on arrays, element for element the bits
    # of their scalar calls (the one 1F1 call of an array runs each (a, b)
    # chain once; each element takes its own branch and Horner step)
    rng = np.random.default_rng(29)
    rho = np.concatenate([[0.0, 66.348], rng.uniform(0.1, 200.0, 30)])
    theta = np.concatenate([[1.0, 1.0], rng.uniform(0.01, np.pi, 30)])
    for gamma in (-1.5, 0.0, 0.7, 3.0):
        p = ScatteringParams(gamma=gamma)
        psi = psi_exact(p, FieldPoint(rho, theta))
        for i, (r, t) in enumerate(zip(rho.tolist(), theta.tolist())):
            assert psi[i] == psi_exact(p, FieldPoint(r, t)), (gamma, r, t)
        # the split needs rho s > 0: every point but the origin
        split = psi_asymptotic(p, FieldPoint(rho[1:], theta[1:]))
        for i, (r, t) in enumerate(zip(rho[1:].tolist(), theta[1:].tolist())):
            one = psi_asymptotic(p, FieldPoint(r, t))
            assert (split.psi_in[i], split.psi_scat[i], split.valid[i]) == (
                one.psi_in, one.psi_scat, one.valid), (gamma, r, t)


def test_closed_forms_check_s_where_it_rounds_to_zero():
    # theta = 1e-9 lies in (0, pi], but s = 1 - cos(theta) is 0.0 there
    pt = FieldPoint(rho=30.0, theta=1e-9)
    s_is_zero = r"^s must lie in \(0, 2\], got s = 0\.0$"
    for evaluate in (lambda: current_in_distorted(P, pt),
                     lambda: interference_radial_leading(P, pt),
                     lambda: oscillation_length(P, pt),
                     lambda: rutherford_amplitude_phase_separated(P, 1e-9),
                     lambda: f_reduced_series(P, [1.0, 1e-9], 10)):
        with pytest.raises(ValueError, match=s_is_zero):
            evaluate()
    # the forms that divide by sin(theta/2), not by s, hold there
    j = current_scattered_asymptotic(P, pt)
    assert j.j_r == pytest.approx(
        P.k * P.gamma ** 2 / (4.0 * 30.0 ** 2 * np.sin(5e-10) ** 4), rel=1e-15)
    assert rutherford_amplitude(P, 1e-9) == pytest.approx(
        -P.gamma / (2.0 * P.k * np.sin(5e-10) ** 2)
        * phase_shift(0, P.gamma).factor, rel=1e-15)
    assert differential_cross_section(P, 1e-9) == pytest.approx(
        P.gamma ** 2 / (4.0 * P.k ** 2 * np.sin(5e-10) ** 4), rel=1e-15)


def test_closed_forms_raise_where_float64_loses_the_value():
    # inside their declared domains these returned inf (with numpy's divide
    # or overflow warning), or for current_in_distorted inf silently; a
    # divisor below the smallest normal number would keep few bits of a
    # value in range (the last cross-section, about 4e28)
    at = "float64 cannot form this value at %s: "
    for call, where in (
            (lambda: differential_cross_section(P, 1e-100), "theta = 1e-100"),
            (lambda: differential_cross_section(P, np.array([1.0, 1e-100])),
             "theta = 1e-100"),
            (lambda: differential_cross_section(ScatteringParams(1e150),
                                                1e-3), "theta = 0.001"),
            (lambda: differential_cross_section(ScatteringParams(1e-140),
                                                1e-77), "theta = 1e-77"),
            (lambda: rutherford_amplitude(P, 1e-160), "theta = 1e-160"),
            (lambda: current_scattered_asymptotic(
                P, FieldPoint(10.0, 1e-100)), "rho = 10.0, theta = 1e-100"),
            (lambda: current_scattered_asymptotic(
                P, FieldPoint(1e-200, 1.0)), "rho = 1e-200, theta = 1.0"),
            (lambda: current_in_distorted(P, FieldPoint(1e-320, 1.0)),
             "rho = 1e-320, theta = 1.0"),
            (lambda: current_in_distorted(ScatteringParams(1e10),
                                          FieldPoint(1e-300, 1.0)),
             "rho = 1e-300, theta = 1.0")):
        with pytest.raises(ArithmeticError, match=re.escape(at % where)):
            call()
    # a value below float64's range, past rho^2's overflow, is 0.0 (Python's
    # ** raised a bare OverflowError)
    for rho in (1e200, 10 ** 200):
        assert current_scattered_asymptotic(P, FieldPoint(rho, 1.0)) == (
            CurrentVector(0.0, 0.0))
    # values that float64 holds are formed as before
    assert differential_cross_section(P, 1e-60) == (
        P.gamma ** 2 / (4.0 * P.k ** 2 * np.sin(5e-61) ** 4))
    assert current_in_distorted(P, FieldPoint(1e-300, 1.0)).j_r == (
        P.k * (np.cos(1.0) + P.gamma / 1e-300))


def test_born_amplitude_past_mu_squared_overflow():
    # mu^2 on a Python float raised a bare OverflowError at mu = 1e200; the
    # true f_B (about -8e-401) lies below float64's range, so it is 0
    assert born_amplitude_yukawa(P, 1.0, 1e200) == 0.0
    assert born_amplitude_yukawa(P, np.array([0.5, 1.0]), 1e200).tolist() == [
        0j, 0j]
    # values that float64 holds are formed as before
    q2 = (2.0 * P.k * np.sin(0.5)) ** 2
    assert born_amplitude_yukawa(P, 1.0, 1e100) == (
        -2.0 * P.gamma * P.k / (q2 + 1e100 ** 2))


def test_asymptotic_fields_and_currents_raise_where_float64_loses_them():
    # at tiny rho s these returned inf or NaN with numpy's overflow warnings
    # (the suite turns warnings into errors, so a warning fails here too)
    p = ScatteringParams(0.4)
    at = "float64 cannot form this value at rho = %r, theta = 1.0: "
    for rho, call in (
            (1e-150, lambda x: current_scan_grid(p, x, 1.0)),
            (1e-320, lambda x: current_scan_grid(p, x, 1.0)),
            (1e-150, lambda x: current_scan_grid(p, np.array([1.0, x]), 1.0)),
            (1e-150, lambda x: current_decomposition_asymptotic(
                p, FieldPoint(x, 1.0))),
            (1e-150, lambda x: current_outgoing_exact(p, FieldPoint(x, 1.0))),
            (1e-320, lambda x: psi_asymptotic(p, FieldPoint(x, 1.0))),
            (1e-320, lambda x: psi_asymptotic_grid(p, np.array([1.0, x]),
                                                   1.0))):
        with pytest.raises(ArithmeticError, match=re.escape(at % rho)):
            call(rho)
    # at 1e-300 the waves lie inside float64's range while their first
    # omitted term overflows: the split is returned, not valid
    split = psi_asymptotic(p, FieldPoint(1e-300, 1.0))
    assert np.isfinite([split.psi_in, split.psi_scat]).all()
    assert split.valid is False
    # and the currents hold where float64 does
    assert np.isfinite(current_scan_grid(p, 1e-90, 1.0)).all()


# text that numpy would parse as a number, at each place inputs are
# converted: (parameter named, call)
TEXT = [
    ("rho", lambda: psi_exact_grid(P, "5", 1.0)),
    ("rho", lambda: psi_exact_grid(P, np.array(["5", "6"]), 1.0)),
    ("theta", lambda: psi_exact_grid(P, 5.0, [b"1"])),
    ("rho", lambda: FieldPoint("5", 1.0)),
    ("theta", lambda: FieldPoint(5.0, "1")),
    ("hyp1f1 parameter a", lambda: hyp1f1("0.5", 1, 1j)),
    ("hyp1f1 parameter b", lambda: hyp1f1(0.5, np.array(["1"]), 1j)),
    ("hyp1f1 parameter z", lambda: hyp1f1(0.5, 1, "1j")),
    ("gamma", lambda: ScatteringParams(gamma="0.5")),
    ("k", lambda: ScatteringParams(0.5, k="1")),
    ("ell", lambda: phase_shift("2", 0.5)),
    ("mass", lambda: BlackHoleParams("0.05", 1.0)),
    ("omega", lambda: BlackHoleParams(0.05, "1")),
    ("mu", lambda: born_amplitude_yukawa(P, 1.0, "0.3")),
    ("gamma", lambda: phase_shift_sweep(3, "0.5")),
    ("gamma", lambda: coulomb_wave_regular(0, "0.5", 1.0)),
    ("gamma", lambda: coulomb_wave_asymptotic(0, "0.5", 10.0)),
    ("log_gamma_complex parameter z", lambda: log_gamma_complex("5")),
    ("log_gamma_complex parameter z", lambda: log_gamma_complex([b"5"])),
]


@pytest.mark.parametrize("name, call", [
    pytest.param(name, call, id="%s-%d" % (name, i))
    for i, (name, call) in enumerate(TEXT)])
def test_text_is_no_number(name, call):
    # psi_exact_grid(P, "5", 1.0) returned psi(5, 1), and
    # ScatteringParams(gamma="0.5") constructed and then failed in psi
    # with a bare TypeError
    with pytest.raises(ValueError, match="^%s must be a number, got " % name):
        call()


def test_parameter_objects_store_python_scalars():
    # a one-element array is one value: stored as the Python float it holds
    p = ScatteringParams(np.array([0.7]), k=np.array([1.3]))
    bh = BlackHoleParams(np.array([0.05]), np.float64(1.0))
    for v, want in ((p.gamma, 0.7), (p.k, 1.3), (bh.mass, 0.05),
                    (bh.omega, 1.0), (bh.gamma, -0.1)):
        assert type(v) is float and v == want
    assert psi_exact(p, FieldPoint(5.0, 1.0)) == psi_exact(
        ScatteringParams(0.7, 1.3), FieldPoint(5.0, 1.0))


def test_born_amplitude_takes_one_mu():
    # mu is one screening mass: an array of them must raise, not broadcast
    # against theta (a scalar theta would keep only the first mu's value)
    for theta in (1.0, np.array([0.5, 1.0])):
        with pytest.raises(ValueError):
            born_amplitude_yukawa(P, theta, np.array([0.1, 0.2]))
    assert born_amplitude_yukawa(P, 1.0, np.array([0.3])) == (
        born_amplitude_yukawa(P, 1.0, 0.3))


def test_large_gamma_raises_where_float64_loses_the_value():
    # psi_exact at theta = 2 returned nan+infj at (gamma, rho) = (230, 600)
    # and inf+nanj at (228, 1000), where mpmath gives |psi| = 1.3e-3 and
    # 0.87; exactly 0 at (240, 200), where |psi| = 1.5e-113; and a value
    # 2.9e-9 off at (232, 50), through a subnormal prefactor
    for gamma, rho in ((230.0, 600.0), (228.0, 1000.0), (240.0, 200.0),
                       (232.0, 50.0)):
        with pytest.raises(ArithmeticError, match="gamma = %r:" % gamma):
            psi_exact(ScatteringParams(gamma=gamma), FieldPoint(rho, 2.0))
    # coulomb_wave_regular returned NaN at the first two (|w| = 1.0 and 14)
    # and was 93% off at the third; at the last, rho^(ell+1) overflowed
    # (gamma = 0 there), so the message names ell, gamma and rho
    for ell, gamma, rho in ((0, 250.0, 600.0), (5, 300.0, 800.0),
                            (0, 240.0, 200.0), (100, 0.0, 1e7)):
        with pytest.raises(ArithmeticError, match=re.escape(
                "at ell = %r, gamma = %r, rho = %r:" % (ell, gamma, rho))):
            coulomb_wave_regular(ell, gamma, rho)
    # an array call names the first element it loses
    with pytest.raises(ArithmeticError, match=re.escape(
            "at ell = 100, gamma = 0.0, rho = 10000000.0:")):
        coulomb_wave_regular(np.array([0, 100]), 0.0, np.array([1.0, 1e7]))
    # true values below float64's range (5.5e-459 and 1.0e-433) are 0
    assert coulomb_wave_regular(150, 1.0, 0.1) == 0.0
    assert coulomb_wave_regular(500, 1.0, 50.0) == 0.0


def test_large_gamma_grid_returns_no_inf_or_nan():
    # each call on gamma in [200, 300], rho <= 1000 returns finite values
    # or raises ArithmeticError
    rng = np.random.default_rng(4242)
    raised = 0
    for gamma in rng.uniform(200.0, 300.0, 8):
        rho = rng.uniform(0.0, 1000.0, 6)
        theta = rng.uniform(0.0, np.pi, 6)
        ell = rng.integers(0, 10, 6)
        for call in (lambda: psi_exact_grid(ScatteringParams(gamma), rho, theta),
                     lambda: psi_exact(ScatteringParams(gamma),
                                       FieldPoint(rho[0], theta[0])),
                     lambda: coulomb_wave_regular(ell, gamma, rho)):
            try:
                assert np.isfinite(call()).all(), gamma
            except ArithmeticError:
                raised += 1
    assert 0 < raised < 24
