"""Complex special-function kernel.

Everything downstream (wavefunctions, phase shifts, Coulomb waves, series
resummation) reduces to the functions in this module: complex log-gamma
and the confluent hypergeometric function 1F1 in both its convergent and
large-argument forms.

The convergent branch of 1F1, M(a, b, z), does not sum the Kummer series
out to z: on the imaginary axis its terms reach ~e^{|z|} while the sum stays
O(1), so a plain float64 sum loses |z|/ln(10) digits. Instead M is
continued analytically up the imaginary axis by Taylor re-expansion of
the Kummer ODE z M'' + (b - z) M' - a M = 0 (Pearson, Olver & Porter,
Numer. Algorithms 74 (2017), arXiv:1407.7786), all in float64:

* The chain starts at the origin. Its first step, out to
  r_0 = 1 / max(1, |a/b|), sums the Maclaurin terms of M, which
  |a r_0 / b| <= 1 keeps O(1).
* Anchors r_{k+1} = r_k + min(r_k/2, CONT_MAX_STEP, CONT_B_STEP r_k/|b|)
  carry M and M' outward, once per call for each distinct (a, b), the
  lattice's only inputs. r_k/2 keeps each step inside the local radius of
  convergence |z0|; CONT_MAX_STEP bounds the e^{|h|} cancellation
  of the e^z component; CONT_B_STEP r_k/|b| keeps the coefficient
  recurrence stable near the origin when |b| is large.
* An element z with r_k < |z| <= r_{k+1} (z = 0 opens the first step) is
  the Horner sum sum_n d_n t^n of that step's Taylor coefficients
  d_n = M^(n)(z_k) H^n / n!, H the step, at t = (z - z_k) / H; on the first
  step z_k = 0 and d_n are the Maclaurin terms. Its value depends on its
  own (a, b, z) only.

Against 40-digit mpmath this is within 2e-14 relative on the psi ray
(a, b) = (-i gamma, 1), |gamma| <= 20, |z| <= 1000, and within 4e-12 for the
partial-wave factor M(l+1-i gamma, 2l+2, 2i rho), l <= 300, |gamma| <= 20,
10 < rho <= 300, where rounding accumulates over the ~|z|/2 steps of the
chain. For the free wave (gamma = 0), l < 200, 300 < rho <= 1100, it is
within 4.3e-13 of its envelope 2l+1 on 2,000 seeded points (up to 2.1e-11
relative near its nodes).

The continuation serves every (a, b). For the small-rho partial-wave factors
(l < 80, |gamma| <= 20, rho <= 10, so |z| <= 20) it is within 1.0e-12 of
mpmath, worst at gamma = -20, l = 0, rho = 10, where M is small against its
terms; coulomb_wave_regular there is within 1.8e-13 on 150 random points.
Inputs and outputs are ordinary complex128.

kummer_ivp runs the same chain and Horner sums (_ray_values) from initial
data at i r0 (r0 > 0) up the imaginary axis, for any solution of the Kummer
ODE (the Schwarzschild full mode in classical is one), to a given end
radius, and returns logs (the chain carries a power-of-two scale, so the
solution may fall far below float64's range). Past that radius a caller
matches the solution to the two large-|z| solutions of _kummer_pair, which
hyp1f1's large-|z| branch (_asymptotic) also sums.

Each of their inverse-power series is one (ASYMPTOTIC_TERMS + 1, N) block of
terms (_inv_power_series), and the Lanczos sum of log_gamma_complex one
(8, N) block; a block's rows are added in row order whatever N. So a call
costs a fixed number of numpy operations on either branch, and every value,
like the convergent branch's, is the same alone as in any batch.
"""

import math

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
# Largest |b| in hyp1f1's domain: near the origin each anchor step grows r
# by 1 + CONT_B_STEP/|b|, so a chain grows like |b| (4,096 anchors per
# e-fold of r at 2^16). The package's b: 1, 2, 2 ell + 2 and 2 lambda + 2.
B_MAX = 2.0 ** 16
# An anchor chain rescales its value and derivative by an exact power of
# two once |value| leaves [2^-500, 2^500] (_anchor_steps).
_RESCALE_LO, _RESCALE_HI = 2.0 ** -500, 2.0 ** 500

# Convergent-branch series: relative tolerance of the last three terms, and
# the term budget beyond which a series raises (read once per call); anchor
# budget of a chain, ~|z|/2 anchors (2^18: ~7 s, the full mode to ell = 511).
# Terms of each large-|z| inverse-power series.
SERIES_TOL = 1e-17
SERIES_MAX_TERMS = 2500
MAX_ANCHORS = 2 ** 18
ASYMPTOTIC_TERMS = 24

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
_LANCZOS_SHIFTS = np.arange(1.0, len(_LANCZOS_COEFFS))[:, None]
_HALF_LOG_TWO_PI = 0.91893853320467274178
_TERM_INDEX = np.arange(float(ASYMPTOTIC_TERMS + 1))[:, None]


def _is_nonpositive_integer(z):
    # z equal to its rounded real part is real and an integer
    return (z == np.rint(z.real)) & (z.real <= 0.0)


def _sum_rows(block):
    """Sum of a (K, ...) complex block's rows, in row order whatever the
    batch: over a float64 view axis 0 is never numpy's (pairwise) inner loop."""
    return np.add.reduce(block.view(np.float64), axis=0).view(np.complex128)


def log_gamma_complex(z):
    """Principal-branch log Gamma(z) (the analytic continuation, as in
    scipy.special.loggamma), via the Lanczos g=7 rational approximation
    with the reflection formula for Re(z) < 1/2.

    Raises ValueError at the poles (non-positive real integers).
    """
    z = np.asarray(z, dtype=np.complex128)
    shape, z = z.shape, z.reshape(-1)
    refl = z.real < 0.5
    reflect = refl.any()  # the poles, and the reflection, lie left of 1/2
    if reflect and _is_nonpositive_integer(z).any():
        raise ValueError("log_gamma_complex pole: z is a non-positive integer")
    zz = (np.where(refl, 1.0 - z, z) if reflect else z) - 1.0
    # c_0 + sum_i c_i / (zz + i), one division over an (8, zz.size) block
    terms = _LANCZOS_COEFFS[1:, None] / (zz + _LANCZOS_SHIFTS)
    terms[0] += _LANCZOS_COEFFS[0]
    acc = _sum_rows(terms)
    t = zz + (_LANCZOS_G + 0.5)
    out = _HALF_LOG_TWO_PI + (zz + 0.5) * np.log(t) - t + np.log(acc)
    if reflect:
        # log Gamma(z) = log(pi / sin(pi z)) - log Gamma(1 - z), up to the
        # 2 pi i k that puts it on the principal branch; k is nonzero only
        # for Re z < -1/2, and only there is it added, so every other value
        # keeps its bits
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(refl, np.log(np.pi) - np.log(np.sin(np.pi * z)) - out, out)
        turns = np.floor(0.5 * z.real + 0.25)
        wrap = refl & (turns != 0.0)
        if wrap.any():
            out[wrap] += 1j * np.copysign(2.0 * np.pi, z.imag[wrap]) * turns[wrap]
    return complex(out[0]) if shape == () else out.reshape(shape)


def _entry(body, a, b, z):
    """body(a, b, z) on a, b, z broadcast once and flattened, returned in
    their common shape (a Python complex when all three are scalars).
    Raises ValueError naming an a, b or z outside hyp1f1's domain."""
    a, b, z = (np.asarray(v, dtype=np.complex128) for v in (a, b, z))
    # each parameter alone (a + b + z can overflow), by inside tests, which
    # NaN fails, and reduced once: a reduction costs more than the masks
    ok_a = np.isfinite(a)
    ok_b = (np.abs(b) <= B_MAX) & ~_is_nonpositive_integer(b)
    ok_z = (z.real == 0.0) & (z.imag >= 0.0) & (z.imag < np.inf)
    if not (ok_a & ok_b & ok_z).all():
        for name, v, ok, domain in (
                ("a", a, ok_a, "be finite"),
                ("b", b, ok_b, "not be a non-positive integer and must have "
                 "|b| <= %g" % B_MAX),
                ("z", z, ok_z, "lie on i[0, inf)")):
            if not ok.all():
                raise ValueError("hyp1f1 parameter %s must %s, got %s = %r"
                                 % (name, domain, name, complex(v[~ok][0])))
    shape = np.broadcast(a, b, z).shape
    size = math.prod(shape)
    if size == 0:
        return np.empty(shape, dtype=np.complex128)
    out = body(*[(v if v.size == size else np.broadcast_to(v, shape)).reshape(-1)
                 for v in (a, b, z)])
    return complex(out[0]) if shape == () else out.reshape(shape)


def _raise_unconverged(max_terms, z):
    raise RuntimeError(
        "hyp1f1's convergent branch (the Kummer-ODE continuation) did not "
        "converge within SERIES_MAX_TERMS = %d terms "
        "(|z| up to %.3g)" % (max_terms, float(np.max(np.abs(z)))))


def _anchor_radii(r0, b, r_max):
    """The anchor lattice of one (a, b): radii r_0 = r0,
    r_{k+1} = r_k + min(r_k / 2, CONT_MAX_STEP, CONT_B_STEP * r_k / |b|),
    up to the first radius >= r_max (a RuntimeError past MAX_ANCHORS)."""
    radii = [r0]
    b_step = CONT_B_STEP / abs(b)
    for _ in range(MAX_ANCHORS):
        r = radii[-1]
        if r >= r_max:
            return radii
        radii.append(r + min(0.5 * r, CONT_MAX_STEP, b_step * r))
    raise RuntimeError("the Kummer-ODE continuation needs more than "
                       "MAX_ANCHORS = %d anchors to reach |z| = %.3g"
                       % (MAX_ANCHORS, r_max))


def _anchor_steps(a, b, radii, m, dm, keep):
    """Carry a solution w of the Kummer ODE from w = m, w' = dm at i radii[0]
    to i radii[-1]. Step k runs from z0 = i radii[k] by
    H = i (radii[k+1] - radii[k]), and w(z0 + t H) = 2^e_k sum_n d_n t^n with
    d_n = w^(n)(z0) H^n / (2^e_k n!),
    d_{n+2} = [(n+a) H^2 d_n - (n+1)(n+b-z0) H d_{n+1}] / (z0 (n+1)(n+2)).
    The origin is a singular point of the ODE; the solutions regular there
    are the multiples w = m M(a, b, z) (so dm = m a / b, which is not read),
    and a step from radius 0 sums their Maclaurin terms d_0 = m,
    d_{n+1} = d_n (a+n) H / ((b+n)(n+1)) instead.
    Python complex arithmetic: one-element numpy steps would cost ~10x more
    per chain. Each series stops after three consecutive terms below
    SERIES_TOL relative to the value (and, for the n d_n sum that gives H w',
    to |value| + |H w'|); three, because complex oscillatory terms dip below
    the tolerance spuriously. Where |value| leaves [2^-500, 2^500] the pair
    is rescaled by an exact power of two, which leaves every later step's
    bits unchanged but its scale, so a solution that falls like
    |z|^{-Re a} over a long chain stays in float64's range.

    Returns {k: (e_k, [d_0, d_1, ...])} for the steps k in keep, and the
    value, derivative and exponent at the last anchor."""
    tol, max_terms = SERIES_TOL, SERIES_MAX_TERMS
    rows, exp = {}, 0
    for k in range(len(radii) - 1):
        h = (radii[k + 1] - radii[k]) * 1j
        consec = 0
        if radii[k] == 0.0:
            d = m
            row = [d]
            dm = 0.0j
            for n in range(max_terms):
                n1 = n + 1
                d = d * (a + n) * h / ((b + n) * n1)
                row.append(d)
                m += d
                dm += n1 * d
                ad = abs(d)
                if ad <= tol * abs(m) and n1 * ad <= tol * (abs(m) + abs(dm)):
                    consec += 1
                    if consec == 3:
                        break
                else:
                    consec = 0
            else:
                _raise_unconverged(max_terms, h)
        else:
            z0 = radii[k] * 1j
            d0, d1 = m, h * dm
            row = [d0, d1]
            append = row.append
            m, dm = d0 + d1, d1
            p, q = h * h / z0, h / z0
            bz = b - z0
            for n in range(max_terms):
                n1, n2 = n + 1, n + 2
                d2 = ((n + a) * p * d0 - n1 * (n + bz) * q * d1) / (n1 * n2)
                append(d2)
                m += d2
                dm += n2 * d2
                ad = abs(d2)
                if ad <= tol * abs(m) and n2 * ad <= tol * (abs(m) + abs(dm)):
                    consec += 1
                    if consec == 3:
                        break
                else:
                    consec = 0
                d0, d1 = d1, d2
            else:
                _raise_unconverged(max_terms, z0 + h)
        if k in keep:
            rows[k] = exp, row
        dm = dm / h
        if not _RESCALE_LO <= abs(m) <= _RESCALE_HI:
            shift = math.frexp(abs(m))[1]
            scale = 2.0 ** -shift
            m, dm = m * scale, dm * scale
            exp += shift
    return rows, (m, dm, exp)


def _ray_values(a, b, radii, m, dm, r):
    """The solution w of _anchor_steps at the points i r,
    radii[0] <= r <= radii[-1]: a point of step k,
    radii[k] < r <= radii[k+1], is the Horner sum of that step's
    coefficients, and r = radii[0] is step 0 at t = 0, its d_0 = m exactly.
    Rows are kept only for the steps that hold a point, and each Horner step
    gathers one coefficient column when there are several.

    Returns the sums, their exponents e (w = 2^e sum) and the end data of
    _anchor_steps."""
    lattice = np.asarray(radii)
    slot = np.searchsorted(lattice[1:], r)  # each point's step
    if (slot == slot[:1]).all():  # one step holds every point
        used = slot[:1].copy()
        slot[:] = 0
    else:
        used, slot = np.unique(slot, return_inverse=True)
    rows, end = _anchor_steps(a, b, radii, m, dm, set(used.tolist()))
    kept = [rows[k] for k in used]
    table = np.zeros((max((len(row) for _, row in kept), default=1),
                      used.size), dtype=np.complex128)
    for s, (_, row) in enumerate(kept):
        table[:len(row), s] = row
    lo = lattice[used]
    # complex t = (i r - i r_k) / (i H): the real (r - r_k) / H rounds apart
    t = (r * 1j - lo[slot] * 1j) / ((lattice[used + 1] - lo)[slot] * 1j)
    # a lone step's coefficients broadcast, ungathered: a sum rounds alike
    pick = slot if used.size > 1 else slice(None)
    w = table[-1][slot]
    for column in table[-2::-1]:
        # out of place: numpy rounds an in-place 1-element product otherwise
        w = w * t + column[pick]
    return w, np.array([e for e, _ in kept], dtype=np.int64)[slot], end


def _continuation(a, b, z):
    """hyp1f1's convergent branch: float64 analytic continuation of
    M(a, b, z) up the imaginary axis from the origin (see the module
    docstring), on flat arrays a, b, z.

    Every series of the chain (the Maclaurin terms, each Taylor step) is
    summed until three consecutive terms are all below SERIES_TOL relative
    to the sum; each z is the Horner sum of the series whose step holds it.
    An element's value depends on its own (a, b, z) only, never on the rest
    of the batch. Raises RuntimeError if any series needs more than
    SERIES_MAX_TERMS terms."""
    # + 0.0 turns -0.0 into +0.0 (in |z| here, in a and b where they are
    # read), so equal parameters group together
    r = z.imag + 0.0
    out = np.empty(r.shape, dtype=np.complex128)
    # first anchor past the origin: |a r_start / b| <= 1 keeps the
    # Maclaurin terms O(1)
    r_start = 1.0 / np.maximum(1.0, np.abs(a) / np.abs(b))
    groups = [(0, slice(None))]  # one (a, b): no masked copies
    if r.size > 1:
        keys = np.stack([a + 0.0, b + 0.0], axis=1).view(np.float64)
        if not (keys == keys[0]).all():
            _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                          return_inverse=True)
            groups = [(i, inverse.reshape(-1) == g) for g, i in enumerate(first)]
    for i, sel in groups:
        ai, bi = complex(a[i] + 0.0), complex(b[i] + 0.0)
        radii = [0.0] + _anchor_radii(float(r_start[i]), bi, float(r[sel].max()))
        w, e, _ = _ray_values(ai, bi, radii, 1.0 + 0.0j, ai / bi, r[sel])
        if e.any():
            # M's own scale: inf or 0 only where float64 cannot hold M
            with np.errstate(over="ignore", invalid="ignore"):
                w = w * np.exp2(e)
        out[sel] = w
    return out


def kummer_ivp(a, b, r0, m0, dm0, r_end, r):
    """The solution w of the Kummer ODE z w'' + (b - z) w' - a w = 0 with
    w = m0 and w' = dm0 at z0 = i r0, carried up the imaginary axis to
    z = i r_end (a, b, m0, dm0 scalars, r0 > 0): the 1F1 continuation
    started from this initial data instead of the origin.
    Anchors on the _anchor_radii lattice from r0, its last radius moved to
    r_end; each radius r, r0 <= r <= r_end, is the Horner sum of its step's
    Taylor coefficients (r = r0 gives m0 itself), so a value depends on its
    own r only.

    Returns log w at every i r (an array of the shape of r, at least 1-d),
    and log w and w'/w at i r_end: logs, because over a long chain w can
    leave float64's range (the chain itself stays inside by its power-of-two
    scale)."""
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    bad = ~((r >= r0) & (r <= r_end))
    if bad.any():
        raise ValueError("kummer_ivp radii must lie in [r0, r_end] = [%r, %r]"
                         ", got r = %r" % (r0, r_end, float(r[bad][0])))
    radii = _anchor_radii(r0, b, r_end)
    radii[-1] = r_end
    if len(radii) > 1:
        w, e, (m, dm, exp) = _ray_values(a, b, radii, m0, dm0, r)
    else:  # r_end = r0: no step, and every r is r0
        w, e, (m, dm, exp) = np.full(r.shape, m0, np.complex128), 0, (m0, dm0, 0)
    log2 = math.log(2.0)
    with np.errstate(divide="ignore"):
        log_w = np.log(w) + e * log2
    return log_w, (np.log(m) + exp * log2, dm / m)


def _inv_power_series(p1, p2, w, deriv):
    """sum_k (p1)_k (p2)_k / (k! w^k), k = 0 .. ASYMPTOTIC_TERMS, and with
    deriv also sum_k k (p1)_k (p2)_k / (k! w^k), as terms C_k w^-k:
    C_k = prod_{j <= k} c_j, c_j = (p1 + j - 1)(p2 + j - 1) / j (a column
    for scalar p1, p2), and the powers of 1/w by doubling. Each element
    stops adding at its smallest term: the terms after the first that grows
    (|c_j| > |w|) are dropped, so a generous ASYMPTOTIC_TERMS never degrades
    the result."""
    w = np.asarray(w)
    shape, w = w.shape, w.reshape(-1)
    k = _TERM_INDEX
    c = (p1 + k[:-1]) * (p2 + k[:-1]) / k[1:]
    drop = np.maximum.accumulate(np.abs(c[1:]), axis=0) > np.abs(w)
    trm = np.empty((k.size, w.size), dtype=np.complex128)
    trm[0], trm[1] = 1.0, 1.0 / w
    s = 1
    while s < ASYMPTOTIC_TERMS:  # rows s+1 .. 2s are rows 1 .. s times row s
        top = trm[s + 1:2 * s + 1]
        np.multiply(trm[1:1 + len(top)], trm[s], out=top)
        s *= 2
    trm[1:] *= np.multiply.accumulate(c, axis=0)
    np.copyto(trm[2:], 0.0, where=drop)
    tot = _sum_rows(trm).reshape(shape)
    return tot, (_sum_rows(k * trm).reshape(shape) if deriv else None)


def _kummer_pair(a, b, z, deriv=False):
    """The two formal solutions of the Kummer ODE at large |z| (DLMF 13.7.2,
    13.7.3), y1 = e^z z^{a-b} S1(z) and y2 = z^{-a} S2(-z), with
    S1(z) = sum_k (b-a)_k (1-a)_k / (k! z^k) and
    S2(-z) = sum_k (a)_k (a-b+1)_k / (k! (-z)^k) on principal logs.

    Returns (log1, s1, ds1), (log2, s2, ds2) with y_j = e^{log_j} s_j, so
    that callers can keep the prefactors in logs; with deriv,
    y_j' = e^{log_j} ds_j, else ds_j is None. Their Wronskian is
    y1 y2' - y1' y2 = -e^z z^{-b}."""
    logz = np.log(z)
    s1, k1 = _inv_power_series(b - a, 1.0 - a, z, deriv)
    s2, k2 = _inv_power_series(a, a - b + 1.0, -z, deriv)
    ds1 = ds2 = None
    if deriv:
        # z d/dz of z^{-k} is -k z^{-k}
        ds1 = s1 + ((a - b) * s1 - k1) / z
        ds2 = -(a * s2 + k2) / z
    return (z + (a - b) * logz, s1, ds1), (-(a * logz), s2, ds2)


def _asymptotic(a, b, z):
    """hyp1f1's large-|z| branch on flat arrays a, b, z: the expansion
    Gamma(b)/Gamma(a) y1 + Gamma(b)/Gamma(b-a) e^{i pi a} y2, with y1 the
    growing e^z solution and y2 the algebraic one (_kummer_pair), each an
    inverse-power series truncated at ASYMPTOTIC_TERMS and at its smallest
    term. On i[0, inf) the algebraic piece's (-z)^{-a} is z^{-a} e^{i pi a}.
    An element's value depends on its own (a, b, z) only."""
    if a.size > 1 and (a == a[0]).all() and (b == b[0]).all():
        # one (a, b) for the batch: Gamma constants and term ratios once
        a, b = a[:1], b[:1]
    (log1, s1, _), (log2, s2, _) = _kummer_pair(a, b, z)
    # log Gamma(b), and 1/Gamma(a), 1/Gamma(b - a) as exactly 0 at the
    # poles of Gamma, from one log-gamma block
    n, ab = b.size, np.concatenate((a, b - a))
    pole = _is_nonpositive_integer(ab)
    lg = log_gamma_complex(np.concatenate((b, np.where(pole, 1.0, ab))))
    rg = np.where(pole, 0.0, np.exp(-lg[n:]))
    pre1 = np.exp(log1 + lg[:n]) * rg[:n]
    pre2 = np.exp(1j * np.pi * a + log2 + lg[:n]) * rg[n:]
    return pre1 * s1 + pre2 * s2


def series_radius(a):
    """|z| up to which hyp1f1 uses the convergent-series branch for this a,
    SERIES_SWITCH_BASE + SERIES_SWITCH_SCALE |a|^2 (a scalar or array).
    Past |a| ~ 1e154 it is inf, and the chain raises its own RuntimeError."""
    with np.errstate(over="ignore"):
        radius = SERIES_SWITCH_BASE + SERIES_SWITCH_SCALE * np.abs(a) ** 2
    return float(radius) if np.ndim(radius) == 0 else radius


def hyp1f1(a, b, z):
    """Kummer's 1F1(a, b; z) = M(a, b, z) for scalars or broadcastable
    arrays a, b, z, by the convergent branch (_continuation) for
    |z| <= series_radius(a) = SERIES_SWITCH_BASE + SERIES_SWITCH_SCALE*|a|^2
    and the large-argument expansion (_asymptotic) beyond. Mixed arrays are
    partitioned between the branches elementwise; a caller that needs one
    branch for a whole stencil passes that body to _entry itself.

    Domain, checked on both branches (a ValueError names the parameter):
    z on i[0, inf) (every package call's ray), either sign of zero; a finite;
    b not a non-positive integer (a pole of M), |b| <= B_MAX = 2^16. The
    convergent branch raises RuntimeError past MAX_ANCHORS = 2^18 anchors.
    """
    return _entry(_dispatch, a, b, z)


def _dispatch(a, b, z):
    near = z.imag <= series_radius(a)
    # the whole batch on one branch: no masked copies
    if near.all():
        return _continuation(a, b, z)
    if not near.any():
        return _asymptotic(a, b, z)
    out = np.empty(z.shape, dtype=np.complex128)
    for sel, body in ((near, _continuation), (~near, _asymptotic)):
        out[sel] = body(a[sel], b[sel], z[sel])
    return out
