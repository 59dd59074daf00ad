"""Tests for the closed-form scattering field.

The forward-direction moduli and the single frozen field value come from a
40-digit mpmath evaluation of the confluent form; everything else is checked
against internal identities (plane-wave limit, residual of the governing
equation, the forward plateau).
"""

import tracemalloc

import numpy as np
import pytest

from coulscat import (
    FieldPoint,
    ScatteringParams,
    coulomb_wave_regular,
    exact,
    psi_asymptotic_grid,
    psi_exact,
    psi_exact_grid,
    schrodinger_residual,
    specfun,
)
from coulscat.currents import current_scan_grid

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


@pytest.mark.parametrize("grid, rho, theta, match", [
    (psi_exact_grid, -5.0, 1.0, r"rho must lie in \[0, inf\), got rho = -5"),
    (psi_exact_grid, np.nan, 1.0, r"rho .*, got rho = nan"),
    (psi_exact_grid, np.inf, 1.0, r"rho .*, got rho = inf"),
    (psi_exact_grid, 1.0, 4.0, r"theta must lie in \[0, pi\], got theta = 4"),
    (psi_exact_grid, 1.0, -1.0, r"theta .*, got theta = -1\.0"),
    (psi_asymptotic_grid, -5.0, 1.0, r"rho must lie in \[0, inf\)"),
    (psi_asymptotic_grid, np.nan, 1.0, r"got rho = nan"),
    (psi_asymptotic_grid, 1.0, 4.0, r"theta must lie in \(0, pi\]"),
    (psi_asymptotic_grid, 1.0, 0.0, r"theta .* \(0, pi\], got theta = 0\.0"),
])
def test_field_grids_reject_points_outside_domain(grid, rho, theta, match):
    # the grids check what FieldPoint checks, naming the first bad value,
    # before any arithmetic warns (the suite turns warnings into errors)
    with pytest.raises(ValueError, match=match):
        grid(ScatteringParams(gamma=0.4), [1.0, rho], [1.0, theta])


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


# psi_exact's own bits (real and imaginary part as float.hex) on each path:
# the forward axis, where z = 0 is the first Maclaurin term; the series
# branch at rho s = 0.5, 3 and 20; the large-|z| branch at rho s = 50 and
# 300; both signs of gamma
PSI_EXACT_BITS = [
    (0.7, 4.0, 0.0, "-0x1.94a6014228edap-3", "-0x1.00d9ec194f561p-3"),
    (-0.7, 7.5, 0.0, "0x1.08218ae11e3ecp-3", "0x1.0d9a2f48665bcp+1"),
    (0.7, 0.7841387604261375, 1.2, "0x1.49ef2a18550abp-2", "0x1.18c86d8c82430p-7"),
    (-0.7, 2.118424391156088, 2.0, "-0x1.774bc21b10412p-2", "-0x1.09ac305eb6ccep+0"),
    (1.5, 114.50531251495654, 0.6, "0x1.9eba944cf9b97p-9", "-0x1.0502e17e77dd7p+0"),
    (-1.5, 10.050289151424694, 3.0, "-0x1.ca153c6c47478p-2", "-0x1.befabf61b5bcdp-1"),
    (0.7, 108.76713248350109, 1.0, "0x1.d67f989e592f8p-3", "-0x1.eaca7748136e1p-1"),
    (-2.0, 166.5608435721003, 2.5, "0x1.e0d01b8c5d083p-1", "-0x1.556315a6c8b18p-2"),
]


def test_psi_exact_bits_pinned():
    for g, rho, theta, re, im in PSI_EXACT_BITS:
        got = psi_exact(ScatteringParams(gamma=g), FieldPoint(rho=rho, theta=theta))
        assert (got.real.hex(), got.imag.hex()) == (re, im), (g, rho, theta)


def test_psi_exact_grid_empty_input_returns_empty():
    p = ScatteringParams(gamma=0.4)
    assert psi_exact_grid(p, np.zeros(0), 1.0).shape == (0,)
    assert psi_exact_grid(p, np.zeros((2, 0)), np.zeros((1, 0))).shape == (2, 0)
    assert coulomb_wave_regular(2, 0.4, np.zeros(0)).shape == (0,)


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


def _bits(z):
    """The bit patterns of a complex array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(z).view(np.int64)


def test_psi_exact_grid_slices_keep_every_bit():
    # a batch of three slices, whose first reaches rho s <= 20 only and
    # whose later ones hold both 1F1 branches: each slice-sized piece alone
    # (one hyp1f1 call) has the batch's bits, and sampled points, the six on
    # each side of both slice boundaries among them, equal psi_exact
    n = exact._SLICE
    rng = np.random.default_rng(30)
    ends = [k * n + d for k in (1, 2) for d in range(-6, 6)]
    for gamma in (0.4, -1.5, 3.0):
        p = ScatteringParams(gamma=gamma)
        rho = np.concatenate([rng.uniform(0.0, 10.0, n),
                              rng.uniform(0.0, 150.0, n + 300)])
        theta = rng.uniform(0.0, np.pi, rho.size)
        theta[::50] = 0.0
        # both 1F1 branches and the axis at the boundaries
        rho[ends] = np.resize([5.0, 120.0, 60.0], len(ends))
        theta[ends] = np.resize([1.0, 2.0, 0.0, 1.5], len(ends))
        series = rho * (1.0 - np.cos(theta)) <= specfun.series_radius(
            -1j * gamma)
        assert 0.2 < series[n:].mean() < 0.8 and series[:n - 6].all()
        assert series[ends].any() and not series[ends].all()
        grid = psi_exact_grid(p, rho, theta)
        for i in range(0, rho.size, n):
            piece = psi_exact_grid(p, rho[i:i + n], theta[i:i + n])
            assert np.array_equal(_bits(grid[i:i + n]), _bits(piece)), gamma
        for i in ends + list(range(0, rho.size, 157)):
            assert grid[i] == psi_exact(p, FieldPoint(rho[i], theta[i])), (
                gamma, i)


def test_current_scan_grid_slices_keep_every_bit():
    # the exact field's gradient reads its dM/dz in slices too: every
    # current of a three-slice batch has the bits of its slice-sized piece
    n = exact._SLICE
    rng = np.random.default_rng(31)
    p = ScatteringParams(gamma=0.7)
    rho = rng.uniform(1.0, 150.0, 2 * n + 300)
    theta = rng.uniform(0.05, np.pi, rho.size)
    whole = current_scan_grid(p, rho, theta)
    for i in range(0, rho.size, n):
        piece = current_scan_grid(p, rho[i:i + n], theta[i:i + n])
        for w, q in zip(whole, piece):
            assert np.array_equal(w[:, i:i + n].view(np.int64),
                                  q.view(np.int64)), i


@pytest.mark.parametrize("evaluate", [psi_exact_grid, current_scan_grid])
def test_psi_exact_grid_memory_is_bounded_by_its_slices(evaluate):
    # 2e5 points past the switch radius (rho s from 46 to 460, the
    # asymptotic branch's (25, N) term blocks): the temporaries of one
    # slice, a fixed few MB, come to under 64 B a point beyond the output
    # (16 B of psi, 96 B of the six currents); evaluated in one piece they
    # took about 500 and 376 B a point
    p = ScatteringParams(gamma=0.4)
    rho = np.linspace(100.0, 1000.0, 200_000)
    evaluate(p, rho[:10], 1.0)
    tracemalloc.start()
    try:
        out = evaluate(p, rho, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - np.asarray(out).nbytes) / rho.size < 64


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
