"""Complex special-function kernel.

Everything downstream (wavefunctions, phase shifts, Coulomb waves, series
resummation) reduces to the functions in this module: complex log-gamma,
the confluent hypergeometric function 1F1 in both its convergent and
large-argument forms, Pochhammer symbols, Legendre polynomials and
spherical Bessel functions.

The convergent branch of 1F1, M(a, b, z), does not sum the Kummer series
out to z: on the imaginary axis its terms reach ~e^{|z|} while the sum stays
O(1), so a plain float64 sum loses |z|/ln(10) digits. Instead M is
continued analytically along the ray through z by Taylor re-expansion of
the Kummer ODE z M'' + (b - z) M' - a M = 0 (Pearson, Olver & Porter,
Numer. Algorithms 74 (2017), arXiv:1407.7786), all in float64:

* M and M' start from the Maclaurin sum at r_0 = 1 / max(1, |a/b|), where
  |a r_0 / b| <= 1 keeps its terms O(1).
* Anchors r_{k+1} = r_k + min(r_k/2, CONT_MAX_STEP, CONT_B_STEP r_k/|b|)
  carry M and M' outward, once per call for each distinct (a, b, ray). The
  lattice depends on (a, b) alone. r_k/2 keeps each step inside the local
  radius of convergence |z0|; CONT_MAX_STEP bounds the e^{|h|} cancellation
  of the e^z component; CONT_B_STEP r_k/|b| keeps the coefficient
  recurrence stable near the origin when |b| is large.
* Each element then takes one vectorized Taylor step from the nearest
  anchor below it. Its value depends on its own (a, b, z) only.

Against 40-digit mpmath this is within 2e-14 relative on the psi ray
(a, b) = (-i gamma, 1), |gamma| <= 20, |z| <= 1000, and within 4e-12 for the
partial-wave factor M(l+1-i gamma, 2l+2, 2i rho), l <= 300, |gamma| <= 20,
10 < rho <= 300, where rounding accumulates over the ~|z|/2 steps of the
chain.

The continuation serves every (a, b). For the small-rho partial-wave factors
(l < 80, |gamma| <= 20, rho <= 10, so |z| <= 20) it is within 1.0e-12 of
mpmath, worst at gamma = -20, l = 0, rho = 10, where M is small against its
terms; coulomb_wave_regular there is within 1.8e-13 on 150 random points.
A sum over l pays one anchor chain per l. Inputs and outputs are ordinary
complex128.
"""

import numpy as np

# Switch radius between the convergent branch and the large-|z| expansion:
# convergent while |z| <= SERIES_SWITCH_BASE + SERIES_SWITCH_SCALE * |a|^2
# (series_radius). The expansion needs |z| >> |a|^2, so the radius grows
# with |a|^2 without a cap: the convergent branch stays accurate at any
# |z|, and its anchor chain costs about |z|/2 steps per distinct (a, b).
# The base constant is a tunable; both branches are accurate well past the
# boundary in either direction.
SERIES_SWITCH_BASE = 30.0
SERIES_SWITCH_SCALE = 2.0

# Taylor-continuation step bounds (see the module docstring).
CONT_MAX_STEP = 2.0
CONT_B_STEP = 16.0

_LANCZOS_G = 7
_LANCZOS_COEFFS = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_HALF_LOG_TWO_PI = 0.91893853320467274178


def _is_nonpositive_integer(z):
    z = np.asarray(z, dtype=np.complex128)
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))


def log_gamma_complex(z):
    """Principal-branch log Gamma(z) (the analytic continuation, as in
    scipy.special.loggamma), via the Lanczos g=7 rational approximation
    with the reflection formula for Re(z) < 1/2.

    Raises ValueError at the poles (non-positive real integers).
    """
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    if np.any(_is_nonpositive_integer(z)):
        raise ValueError("log_gamma_complex pole: z is a non-positive integer")
    refl = z.real < 0.5
    zz = np.where(refl, 1.0 - z, z) - 1.0
    acc = np.full(zz.shape, _LANCZOS_COEFFS[0], dtype=np.complex128)
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc = acc + _LANCZOS_COEFFS[i] / (zz + i)
    t = zz + (_LANCZOS_G + 0.5)
    out = _HALF_LOG_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(acc)
    if np.any(refl):
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(refl, np.log(np.pi) - np.log(np.sin(np.pi * z)) - out, out)
    return complex(out[0]) if scalar else out


def reciprocal_gamma(z):
    """1/Gamma(z), entire: returns exactly 0 at the poles of Gamma."""
    z = np.asarray(z, dtype=np.complex128)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    pole = _is_nonpositive_integer(z)
    safe = np.where(pole, 1.0, z)
    out = np.where(pole, 0.0, np.exp(-log_gamma_complex(safe)))
    return complex(out[0]) if scalar else out


def pochhammer(x, k):
    """Rising factorial (x)_k = x (x+1) ... (x+k-1) by repeated
    multiplication, stable where the gamma-ratio form would cancel."""
    if k < 0:
        raise ValueError("pochhammer order k must be >= 0")
    x = np.asarray(x, dtype=np.complex128)
    scalar = x.ndim == 0
    out = np.ones(np.atleast_1d(x).shape, dtype=np.complex128)
    xv = np.atleast_1d(x)
    for j in range(k):
        out = out * (xv + j)
    return complex(out[0]) if scalar else out


def _broadcast(a, b, z):
    """a, b, z as complex arrays of their common shape, at least 1-d, and
    whether all three were scalars."""
    a, b, z = (np.asarray(v, dtype=np.complex128) for v in (a, b, z))
    scalar = a.ndim == 0 and b.ndim == 0 and z.ndim == 0
    shape = np.broadcast_shapes(a.shape, b.shape, z.shape)
    return [np.atleast_1d(np.broadcast_to(v, shape)) for v in (a, b, z)], scalar


def _raise_unconverged(max_terms, z):
    raise RuntimeError(
        "hyp1f1_series did not converge within %d terms (|z| up to %.3g)"
        % (max_terms, float(np.max(np.abs(z)))))


def _converged(consec, active, small):
    """Per-element run length of terms below tolerance; an element whose
    run has reached 3 is frozen and keeps its count."""
    return np.where(active, np.where(small, consec + 1, 0), consec)


def _maclaurin(a, b, z, tol, max_terms):
    """Plain float64 Kummer series for M, elementwise, each element frozen
    once its last three terms are below tol*|sum|."""
    term = np.ones(z.shape, dtype=np.complex128)
    m = term.copy()
    consec = np.zeros(z.shape, dtype=np.int64)
    for n in range(max_terms):
        active = consec < 3
        if not active.any():
            return m
        term = term * (a + n) * z / ((b + n) * (n + 1))
        m = np.where(active, m + term, m)
        consec = _converged(consec, active, np.abs(term) <= tol * np.abs(m))
    _raise_unconverged(max_terms, z)


def _anchor_radii(r0, b, r_max):
    """The anchor lattice of one (a, b): radii r_0 = r0,
    r_{k+1} = r_k + min(r_k / 2, CONT_MAX_STEP, CONT_B_STEP * r_k / |b|),
    up to the first radius >= r_max."""
    radii = [r0]
    b_step = CONT_B_STEP / abs(b)
    while radii[-1] < r_max:
        r = radii[-1]
        radii.append(r + min(0.5 * r, CONT_MAX_STEP, b_step * r))
    return radii


def _chain(a, b, u, radii, tol, max_terms):
    """M and M' at every anchor radii[k] * u of one (a, b, ray): the
    Maclaurin sum at the first anchor, then one Taylor step of the Kummer ODE
    per anchor. Python complex arithmetic, because one-element numpy steps
    would cost ~10x more per chain. Each series stops after three
    consecutive terms below tol relative to M (and, for the d_n n sums that
    give h M', to |M| + |h M'|)."""
    z = radii[0] * u
    t = m = 1.0 + 0.0j
    dm = 0.0j
    consec = 0
    for n in range(max_terms):
        t = t * (a + n) * z / ((b + n) * (n + 1))
        m += t
        dm += (n + 1) * t
        at = abs(t)
        consec = consec + 1 if (at <= tol * abs(m)
                                and (n + 1) * at <= tol * (abs(m) + abs(dm))) else 0
        if consec == 3:
            break
    else:
        _raise_unconverged(max_terms, z)
    dm = dm / z
    ms, dms = [m], [dm]
    for k in range(1, len(radii)):
        z0 = radii[k - 1] * u
        h = (radii[k] - radii[k - 1]) * u
        d0, d1 = m, h * dm
        m, dm = d0 + d1, d1
        p, q = h * h / z0, h / z0
        bz = b - z0
        consec = 0
        for n in range(max_terms):
            d2 = ((n + a) * p * d0 - (n + 1) * (n + bz) * q * d1) / ((n + 1) * (n + 2))
            m += d2
            dm += (n + 2) * d2
            ad = abs(d2)
            consec = consec + 1 if (ad <= tol * abs(m)
                                    and (n + 2) * ad <= tol * (abs(m) + abs(dm))) else 0
            if consec == 3:
                break
            d0, d1 = d1, d2
        else:
            _raise_unconverged(max_terms, z0 + h)
        dm = dm / h
        ms.append(m)
        dms.append(dm)
    return ms, dms


def _taylor_step(a, b, z0, h, m0, dm0, tol, max_terms):
    """M(z0 + h) from M, M' at z0, elementwise: the Taylor series of the
    Kummer ODE about z0 in d_n = M^(n)(z0) h^n / n!,
    d_{n+2} = [(n+a) h^2 d_n - (n+1)(n+b-z0) h d_{n+1}] / (z0 (n+1)(n+2)),
    each element frozen after three terms below tol*|sum|."""
    d0, d1 = m0, h * dm0
    m = d0 + d1
    p, q = h * h / z0, h / z0
    bz = b - z0
    consec = np.zeros(m.shape, dtype=np.int64)
    for n in range(max_terms):
        active = consec < 3
        if not active.any():
            return m
        d2 = ((n + a) * p * d0 - (n + 1) * (n + bz) * q * d1) / ((n + 1) * (n + 2))
        m = np.where(active, m + d2, m)
        consec = _converged(consec, active, np.abs(d2) <= tol * np.abs(m))
        d0, d1 = d1, d2
    _raise_unconverged(max_terms, z0 + h)


def _continuation(a, b, z, tol, max_terms):
    """Float64 analytic continuation of M(a, b, z) along the ray through
    each z (see the module docstring)."""
    out = np.empty(z.shape, dtype=np.complex128)
    r = np.abs(z)
    # first anchor radius: |a r_start / b| <= 1 keeps the Maclaurin terms O(1)
    r_start = 1.0 / np.maximum(1.0, np.abs(a) / np.abs(b))
    near = r <= r_start
    if near.any():
        out[near] = _maclaurin(a[near], b[near], z[near], tol, max_terms)
    far = ~near
    if not far.any():
        return out
    a, b, z, r, r_start = a[far], b[far], z[far], r[far], r_start[far]
    # ray direction by real division: z / r in complex arithmetic rounds
    # i x / x to two different values
    u = np.empty_like(z)
    u.real, u.imag = z.real / r, z.imag / r
    keys = np.stack([a, b, u], axis=1).view(np.float64)
    if (keys == keys[0]).all():
        first, inverse = [0], np.zeros(z.shape, dtype=np.intp)
    else:
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
        inverse = inverse.reshape(-1)
    z0 = np.empty(z.shape, dtype=np.complex128)
    m0 = np.empty(z.shape, dtype=np.complex128)
    dm0 = np.empty(z.shape, dtype=np.complex128)
    for g, i in enumerate(first):
        sel = inverse == g
        radii = _anchor_radii(float(r_start[i]), complex(b[i]), float(r[sel].max()))
        ms, dms = _chain(complex(a[i]), complex(b[i]), complex(u[i]), radii,
                         tol, max_terms)
        k = np.searchsorted(radii, r[sel], side="right") - 1
        z0[sel] = np.asarray(radii)[k] * u[i]
        m0[sel] = np.asarray(ms)[k]
        dm0[sel] = np.asarray(dms)[k]
    out[far] = _taylor_step(a, b, z0, z - z0, m0, dm0, tol, max_terms)
    return out


def hyp1f1_series(a, b, z, tol=1e-17, max_terms=2500):
    """Convergent evaluation of Kummer's 1F1(a, b; z) = M(a, b, z): float64
    analytic continuation of the Kummer ODE along the ray through z (see the
    module docstring).

    Every series involved (the Maclaurin sum, each Taylor step) is summed
    until its last three consecutive terms are all below tol*|sum| (three,
    because complex oscillatory terms dip below tolerance spuriously).

    a, b, z may be scalars or broadcastable arrays. b must not be a
    non-positive integer. An element's value depends on its own (a, b, z)
    only, never on the rest of the batch. Raises RuntimeError if any series
    needs more than max_terms terms.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    (a, b, z), scalar = _broadcast(a, b, z)
    if np.any(_is_nonpositive_integer(b)):
        raise ValueError("hyp1f1 parameter b must not be a non-positive integer")
    # + 0.0 turns -0.0 into +0.0, so equal parameters group together
    out = _continuation(a + 0.0, b + 0.0, z + 0.0, tol, max_terms)
    return complex(out[0]) if scalar else out


def hyp1f1_asymptotic(a, b, z, n_terms=24):
    """Large-|z| expansion of 1F1 as the sum of a growing e^z piece and an
    algebraic piece, each an inverse-power series truncated at n_terms.
    For z on the positive imaginary axis the phase factor e^{+i pi a} is the
    correct one, and that is the branch implemented here.

    Each inverse-power series also self-truncates at its smallest term, so a
    generous n_terms never degrades the result.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    (a, b, z), scalar = _broadcast(a, b, z)

    def inv_power_series(p1, p2, w):
        tot = np.ones_like(w)
        trm = np.ones_like(w)
        last = np.full(w.shape, np.inf)
        for k in range(n_terms):
            trm = trm * (p1 + k) * (p2 + k) / ((k + 1.0) * w)
            mag = np.abs(trm)
            grew = mag > last  # passed the smallest term: stop adding
            trm = np.where(grew, 0.0, trm)
            last = np.where(grew, last, mag)
            tot = tot + trm
        return tot

    logz = np.log(z)
    lg_b = log_gamma_complex(b)
    sum1 = inv_power_series(b - a, 1.0 - a, z)
    sum2 = inv_power_series(a, a - b + 1.0, -z)
    pre1 = np.exp(z + (a - b) * logz + lg_b) * reciprocal_gamma(a)
    pre2 = np.exp(1j * np.pi * a - a * logz + lg_b) * reciprocal_gamma(b - a)
    out = pre1 * sum1 + pre2 * sum2
    return complex(out[0]) if scalar else out


def series_radius(a):
    """|z| up to which hyp1f1 uses the convergent-series branch for this a,
    SERIES_SWITCH_BASE + SERIES_SWITCH_SCALE |a|^2 (a scalar or array)."""
    radius = SERIES_SWITCH_BASE + SERIES_SWITCH_SCALE * np.abs(a) ** 2
    return float(radius) if np.ndim(radius) == 0 else radius


def hyp1f1(a, b, z, tol=1e-17, n_terms=24, branch=None):
    """1F1(a, b; z) choosing the convergent branch (hyp1f1_series) for
    |z| <= series_radius(a) = SERIES_SWITCH_BASE + SERIES_SWITCH_SCALE*|a|^2
    and the large-argument expansion beyond. Mixed arrays are partitioned
    between the branches elementwise.

    branch forces "series" or "asymptotic" for every element; callers doing
    finite differencing use it to keep a whole stencil on one branch.
    """
    (a, b, z), scalar = _broadcast(a, b, z)

    if branch == "series":
        use_series = np.ones(z.shape, dtype=bool)
    elif branch == "asymptotic":
        use_series = np.zeros(z.shape, dtype=bool)
    elif branch is None:
        use_series = np.abs(z) <= series_radius(a)
    else:
        raise ValueError("branch must be None, 'series' or 'asymptotic'")

    out = np.empty(z.shape, dtype=np.complex128)
    if np.any(use_series):
        out[use_series] = hyp1f1_series(
            a[use_series], b[use_series], z[use_series], tol=tol)
    if np.any(~use_series):
        out[~use_series] = hyp1f1_asymptotic(
            a[~use_series], b[~use_series], z[~use_series], n_terms=n_terms)
    return complex(out[0]) if scalar else out


def legendre_p(ell, x):
    """Legendre polynomial P_ell(x) on [-1, 1] by the upward Bonnet
    recurrence. x may be an array."""
    sweep = legendre_sweep(ell, x)
    out = sweep[ell]
    return float(out) if np.asarray(x).ndim == 0 else out


def legendre_sweep(ell_max, x):
    """All of P_0(x) .. P_{ell_max}(x), shape (ell_max+1,) + x.shape."""
    if ell_max < 0:
        raise ValueError("ell_max must be >= 0")
    x = np.asarray(x, dtype=np.float64)
    xv = np.atleast_1d(x)
    if np.any(np.abs(xv) > 1.0 + 8.0 * np.finfo(float).eps):
        raise ValueError("legendre argument outside [-1, 1]")
    xv = np.clip(xv, -1.0, 1.0)
    out = np.empty((ell_max + 1,) + xv.shape)
    out[0] = 1.0
    if ell_max >= 1:
        out[1] = xv
    for n in range(1, ell_max):
        out[n + 1] = ((2 * n + 1) * xv * out[n] - n * out[n - 1]) / (n + 1)
    return out.reshape((ell_max + 1,) + x.shape)


def spherical_bessel_j(ell, x):
    """Spherical Bessel j_ell(x) for x >= 0: downward (Miller) recurrence
    normalized against j_0 when x < ell, plain upward recurrence otherwise.
    """
    if ell < 0:
        raise ValueError("ell must be >= 0")
    x = float(x)
    if x < 0:
        raise ValueError("x must be >= 0")
    if x == 0.0:
        return 1.0 if ell == 0 else 0.0
    if ell == 0:
        return np.sin(x) / x
    if x >= ell:
        jm, j0 = np.sin(x) / x, np.sin(x) / x ** 2 - np.cos(x) / x
        if ell == 1:
            return j0
        for n in range(1, ell):
            jm, j0 = j0, (2 * n + 1) / x * j0 - jm
        return j0
    # Miller: start well above ell with arbitrary seed, recurse down,
    # normalize by the known j_0
    start = ell + 30 + int(x)
    jp, jc = 0.0, 1e-300
    target = 0.0
    for n in range(start, 0, -1):
        jp, jc = jc, (2 * n + 1) / x * jc - jp
        if n - 1 == ell:
            target = jc
        if abs(jc) > 1e250:  # rescale to dodge overflow
            jp *= 1e-250
            jc *= 1e-250
            target *= 1e-250
    return float(target * (np.sin(x) / x) / jc)
