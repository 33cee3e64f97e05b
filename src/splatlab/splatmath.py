"""Closed-form Gaussian moments and the batched 2x2 eigen-solve used by every blending kernel.

The three 1D Gaussian moments

    I0(sigma, a, b) = integral_a^b     exp(-x^2 / 2 sigma^2) dx
    I1(sigma, a, b) = integral_a^b x   exp(-x^2 / 2 sigma^2) dx
    I2(sigma, a, b) = integral_a^b x^2 exp(-x^2 / 2 sigma^2) dx

have the closed forms

    I0 = sqrt(pi/2) * sigma * (erf(b / sqrt(2) sigma) - erf(a / sqrt(2) sigma))
    I1 = sigma^2 * (exp(-a^2 / 2 sigma^2) - exp(-b^2 / 2 sigma^2))
    I2 = sigma^2 * (I0 + a exp(-a^2 / 2 sigma^2) - b exp(-b^2 / 2 sigma^2))

All three are evaluated in a cancellation-aware way so that relative accuracy
holds far into the tails (bounds many sigma from the origin), which the
moment-conservation tests exercise at 1e-9. I0 takes one of three cases per
element, with s = x / sqrt(2) sigma:

    right of center (0 <= sa):  erfc(sa) - erfc(sb)
    left of center (sb <= 0):   the same pair on the mirrored interval, by
                                I0(sigma, a, b) = I0(sigma, -b, -a)
    mixed-sign (sa < 0 < sb):   erf(sb) - erf(sa)

so a one-sided element evaluates one erfc pair and a mixed-sign one an erf
pair; a mixed-sign element that shares its array with one-sided ones also runs
through the erfc pair, whose value it then overwrites. Either function costs
about 7-30 ns per element, by argument range (scipy 1.17, 2-vCPU x86-64 VM).

gaussian_i0 serves the integrated kernel and errorlab's closed-form truth;
gaussian_moments_012 serves the gb kernel. ISO_TOL, the one tolerance on a
covariance's shape, serves eigen2x2_batch and errorlab's truth.

tests/_reference.py keeps a case-by-case I0 (gaussian_i0_cases) as the
tests' bit-identical oracle for gaussian_i0, and a one-matrix-at-a-time
eigen-solve (eigen2x2) as the oracle for eigen2x2_batch.
"""

from __future__ import annotations

import numpy as np
import scipy.special

SQRT_HALF_PI = np.sqrt(np.pi / 2.0)
SQRT2 = np.sqrt(2.0)
ISO_TOL = 1e-12  # relative tolerance of the isotropy and axis-alignment tests


def gaussian_i0(sigma, a, b):
    """I0 alone over [a, b]: the hot path for callers that need no I1 or I2;
    no validation, array in / array out."""
    # erf(b') - erf(a') loses all precision once both bounds sit in the same
    # far tail (erf saturates at 1), so a one-sided interval takes erfc, the
    # left tail mirrored onto the right (negation is exact); the mixed-sign
    # case adds two positive terms and is safe as plain erf. Strict signs
    # keep sa = -0.0 and sb = +0.0 one-sided.
    scale = SQRT2 * sigma
    sa = np.asarray(a, dtype=float) / scale
    sb = np.asarray(b, dtype=float) / scale
    mixed = (sa < 0.0) & (sb > 0.0)
    if mixed.all():
        return SQRT_HALF_PI * sigma * (scipy.special.erf(sb) - scipy.special.erf(sa))
    # a one-sided [lo, hi] is [|sa|, |sb|] in the right tail, [|sb|, |sa|] in the left
    abs_a, abs_b = np.abs(sa), np.abs(sb)
    lo, hi = np.minimum(abs_a, abs_b), np.maximum(abs_a, abs_b)
    out = scipy.special.erfc(lo) - scipy.special.erfc(hi)
    if np.count_nonzero(mixed):
        out[mixed] = scipy.special.erf(sb[mixed]) - scipy.special.erf(sa[mixed])
    return SQRT_HALF_PI * sigma * out


def gaussian_moments_012(sigma, a, b):
    """All three moments over [a, b] at once, sharing the exp evaluations;
    no validation, array in / array out."""
    sigma = np.asarray(sigma, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s2 = sigma * sigma
    two_s2 = 2.0 * s2
    ea = np.exp(-(a * a) / two_s2)
    eb = np.exp(-(b * b) / two_s2)
    i0 = gaussian_i0(sigma, a, b)
    i1 = s2 * (ea - eb)
    i2 = s2 * (i0 + a * ea - b * eb)
    return i0, i1, i2


def eigen2x2_batch(cxx, cxy, cyy):
    """Vectorized analytic eigen-solve for many symmetric 2x2 matrices.

    Takes the three unique entries as arrays, returns
    (lam1, lam2, e1x, e1y) with lam1 >= lam2 and e2 = perp(e1) implied.
    Degenerate entries come back with lam2 <= 0; callers cull on that. When
    (lam1 - lam2) / 2 <= ISO_TOL * |lam1|, e1 is the screen axis of the larger
    diagonal entry, x on ties.
    """
    cxx = np.asarray(cxx, dtype=float)
    cxy = np.asarray(cxy, dtype=float)
    cyy = np.asarray(cyy, dtype=float)
    half_tr = 0.5 * (cxx + cyy)
    disc = np.hypot(0.5 * (cxx - cyy), cxy)
    lam1 = half_tr + disc
    det = cxx * cyy - cxy * cxy
    with np.errstate(divide="ignore", invalid="ignore"):
        lam2 = np.where(lam1 > 0.0, det / np.where(lam1 > 0.0, lam1, 1.0), -1.0)

    c1x, c1y = cxy, lam1 - cxx  # two candidate eigenvectors of lam1
    c2x, c2y = lam1 - cyy, cxy
    first = c1x * c1x + c1y * c1y >= c2x * c2x + c2y * c2y
    # An isotropic matrix (both candidates null when exact) has no principal
    # axis; its frame must not swing with roundoff in cxy.
    iso = disc <= ISO_TOL * np.abs(lam1)
    on_x = cxx >= cyy
    ex = np.where(iso, on_x, np.where(first, c1x, c2x))
    ey = np.where(iso, ~on_x, np.where(first, c1y, c2y))
    norm = np.sqrt(ex * ex + ey * ey)
    norm = np.where(norm > 0.0, norm, 1.0)
    ex, ey = ex / norm, ey / norm
    # Deterministic sign: largest-magnitude component positive.
    sign = np.where(np.where(np.abs(ex) >= np.abs(ey), ex, ey) < 0.0, -1.0, 1.0)
    return lam1, lam2, ex * sign, ey * sign
