"""Tests for the closed-form scattering field.

The forward-direction moduli and the single frozen field value come from a
40-digit mpmath evaluation of the confluent form; everything else is checked
against internal identities (plane-wave limit, residual of the governing
equation, the forward plateau).
"""

import numpy as np
import pytest

from coulscat import (
    FieldPoint,
    ScatteringParams,
    psi_exact,
    psi_exact_grid,
    schrodinger_residual,
    specfun,
)

# e^{-pi*g/2} |Gamma(1+ig)| and sqrt(pi*g / sinh(pi*g)), 40-digit evaluation
FORWARD_TABLE = {
    0.1: (0.84765851976726925, 0.99183572960549593),
    0.5: (0.37668587465519748, 0.82617761427604519),
    1.0: (0.10842251310207263, 0.52156404686493985),
    2.0: (0.0066199236653028421, 0.15318961879123463),
}

PSI_FROZEN = complex(-0.73248239404777382, 0.68638210910700681)  # g=0.4 rho=12 th=2

# g=10 rho=100 at rho*s = 120 (theta = arccos(-0.2)), 40-digit mpmath at the
# same float theta: deep in the series branch, where |1F1| ~ 1e13
PSI_FAR_THETA = 1.7721542475852274
PSI_FAR_FROZEN = complex(-0.30605058013761754, 1.0601266864474468)


def test_params_validation():
    p = ScatteringParams(gamma=0.5, k=2.0)
    assert p.gamma == 0.5
    with pytest.raises(ValueError):
        ScatteringParams(gamma=0.5, k=0.0)
    with pytest.raises(ValueError):
        ScatteringParams(gamma=np.nan, k=1.0)


def test_field_point_validation():
    pt = FieldPoint(rho=3.0, theta=1.0)
    assert pt.s == pytest.approx(1.0 - np.cos(1.0))
    with pytest.raises(ValueError):
        FieldPoint(rho=-1.0, theta=1.0)
    with pytest.raises(ValueError):
        FieldPoint(rho=1.0, theta=-0.1)
    with pytest.raises(ValueError):
        FieldPoint(rho=1.0, theta=np.pi + 0.1)


def test_forward_modulus_frozen():
    for g, (ref, _) in FORWARD_TABLE.items():
        p = ScatteringParams(gamma=g, k=1.0)
        for rho in (1.0, 12.0, 300.0):  # modulus is rho-independent
            assert abs(abs(psi_exact(p, FieldPoint(rho, 0.0))) - ref) < 1e-14


def test_forward_modulus_identity():
    # the attenuated forward amplitude times e^{+pi*g/2} recovers
    # sqrt(pi*g / sinh(pi*g)) exactly
    for g, (ref, ident) in FORWARD_TABLE.items():
        assert abs(ref * np.exp(np.pi * g / 2.0) - ident) < 1e-13
        p = ScatteringParams(gamma=g, k=1.0)
        got = abs(psi_exact(p, FieldPoint(5.0, 0.0))) * np.exp(np.pi * g / 2.0)
        assert abs(got - ident) < 1e-13


def test_forward_modulus_decays_with_coupling():
    mods = [abs(psi_exact(ScatteringParams(gamma=g, k=1.0),
                          FieldPoint(3.0, 0.0)))
            for g in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    assert all(b < a for a, b in zip(mods, mods[1:]))
    assert mods[-1] < 1e-10


def test_psi_exact_frozen_point():
    p = ScatteringParams(gamma=0.4, k=1.0)
    got = psi_exact(p, FieldPoint(rho=12.0, theta=2.0))
    assert abs(got - PSI_FROZEN) < 1e-14


def test_psi_exact_neutral_limit_is_plane_wave():
    p = ScatteringParams(gamma=0.0, k=1.0)
    for rho, theta in [(3.0, 0.4), (25.0, 2.8), (140.0, 1.2)]:
        got = psi_exact(p, FieldPoint(rho=rho, theta=theta))
        ref = np.exp(1j * rho * np.cos(theta))
        assert abs(got - ref) < 1e-12


def test_psi_exact_grid_matches_scalar():
    # bit for bit, on both 1F1 branches and on the forward axis: a scalar
    # call is a 1-element grid, never numpy's 0-d arithmetic
    p = ScatteringParams(gamma=0.7, k=1.3)
    rng = np.random.default_rng(41)
    rho = rng.uniform(0.5, 120.0, 600)
    theta = rng.uniform(0.0, np.pi, 600)
    theta[:10] = 0.0
    series = rho * (1.0 - np.cos(theta)) <= specfun.series_radius(-0.7j)
    assert 100 < series.sum() < 500
    grid = psi_exact_grid(p, rho, theta)
    for i, (r, t) in enumerate(zip(rho, theta)):
        assert grid[i] == psi_exact(p, FieldPoint(rho=r, theta=t)), (r, t)


def test_forward_plateau_off_axis():
    # near the axis (rho*s small) the modulus stays on the forward plateau
    # even far from the scatterer
    p = ScatteringParams(gamma=0.8, k=1.0)
    plateau = abs(psi_exact(p, FieldPoint(1.0, 0.0)))
    for rho in (30.0, 80.0, 300.0):
        theta = np.sqrt(0.08 / rho)  # rho*s ~ 0.04
        val = abs(psi_exact(p, FieldPoint(rho=rho, theta=theta)))
        assert abs(val - plateau) < 0.1 * plateau


def test_schrodinger_residual_small_on_random_grid():
    p = ScatteringParams(gamma=0.4, k=1.0)
    rng = np.random.default_rng(19)
    rho = rng.uniform(1.0, 20.0, size=100)
    theta = rng.uniform(0.1, np.pi - 0.1, size=100)
    for r, t in zip(rho, theta):
        res = schrodinger_residual(p, FieldPoint(rho=r, theta=t), h=1e-3)
        assert abs(res) < 1e-5, (r, t)


def test_schrodinger_residual_second_order_in_step():
    p = ScatteringParams(gamma=0.6, k=1.0)
    pt = FieldPoint(rho=9.0, theta=1.3)
    steps = np.array([1e-3, 2e-3, 4e-3, 8e-3])
    resid = np.array([abs(schrodinger_residual(p, pt, h=h)) for h in steps])
    slope = np.polyfit(np.log(steps), np.log(resid), 1)[0]
    assert 1.7 < slope < 2.3


def test_schrodinger_residual_stencil_on_one_branch():
    # centres within 3h of the 1F1 switch radius put some stencil points on
    # the other side of it; the residual evaluates all five on the centre's
    # branch, so the branches' difference stays out of the differences
    p = ScatteringParams(gamma=0.4, k=1.0)
    h = 1e-4
    radius = specfun.series_radius(-0.4j)
    worst = max(schrodinger_residual(p, FieldPoint(rho=r, theta=np.pi / 2), h)
                for r in radius + np.linspace(-3.0 * h, 3.0 * h, 25))
    assert worst < 2e-6


def test_schrodinger_residual_step_validation():
    p = ScatteringParams(gamma=0.5, k=1.0)
    with pytest.raises(ValueError):
        schrodinger_residual(p, FieldPoint(rho=5.0, theta=1.0), h=0.0)
    with pytest.raises(ValueError):
        schrodinger_residual(p, FieldPoint(rho=5.0, theta=1.0), h=2.0)
    with pytest.raises(ValueError, match="rho > h"):
        schrodinger_residual(p, FieldPoint(rho=0.005, theta=1.0), h=0.01)
    # the polar stencil theta -+ h would cross the forward axis
    with pytest.raises(ValueError, match="axis"):
        schrodinger_residual(p, FieldPoint(rho=5.0, theta=1e-4), h=1e-3)


def test_psi_exact_large_gamma_far_from_axis():
    p = ScatteringParams(gamma=10.0, k=1.0)
    pt = FieldPoint(rho=100.0, theta=PSI_FAR_THETA)
    assert abs(pt.rho * pt.s - 120.0) < 1e-12
    got = psi_exact(p, pt)
    assert abs(got - PSI_FAR_FROZEN) < 1e-12 * abs(PSI_FAR_FROZEN)
