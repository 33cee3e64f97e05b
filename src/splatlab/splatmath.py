"""Closed-form Gaussian moments and the screen-paired splat frame used by every blending kernel.

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
gaussian_moments_012 serves the gb kernel; screen_frame solves each splat's
frame once for blending.prepare_splats; has_frame, its drawable test on one
covariance, serves errorlab. ISO_TOL, the one tolerance on a covariance's
shape, serves screen_frame (isotropy) and errorlab's truth (axis alignment).

tests/_reference.py keeps a case-by-case I0 (gaussian_i0_cases) as the
tests' bit-identical oracle for gaussian_i0, and a one-matrix-at-a-time
eigen-solve (eigen2x2) as the oracle for screen_frame's eigenvalues and
eigenvectors.
"""

from __future__ import annotations

import math

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


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def screen_frame(cxx, cxy, cyy):
    """The principal frames of symmetric 2x2 matrices, given as arrays of
    their three unique entries, paired with the screen axes in one closed
    form (the Jacobi rotation; Golub & Van Loan, Matrix Computations, 8.5).

    Returns (lam1, lam2, det, sigma, axes): the eigenvalues lam1 >= lam2,
    the determinant, and per screen axis k the unit eigenvector axes[k]
    (axes[k, c] its screen component c, axes[k, k] > 0) and the square root
    sigma[k] of its eigenvalue. The lam1 eigenvector lies within 45 degrees
    of screen x exactly when cxx >= cyy, and is axes[0] then; axes[1] =
    perp(axes[0]). Within ISO_TOL of isotropic ((lam1 - lam2) / 2 <= ISO_TOL
    * |lam1|) the axes are the screen axes. A matrix with no drawable frame
    (not positive definite in this arithmetic, or 2 lam1^2, the kernels'
    largest product, or lam1 / det, the inverse's, not finite) comes back with
    lam2 <= 0 and no warning; prepare_splats culls it; has_frame tests one matrix.
    """
    cxx = np.asarray(cxx, dtype=float)
    cxy = np.asarray(cxy, dtype=float)
    cyy = np.asarray(cyy, dtype=float)
    half_diff = 0.5 * (cxx - cyy)
    disc = np.hypot(half_diff, cxy)
    lam1 = 0.5 * (cxx + cyy) + disc
    det = cxx * cyy - cxy * cxy
    drawable = (lam1 > 0.0) & (det > 0.0) & (2.0 * lam1 * lam1 < np.inf) & (lam1 / det < np.inf)
    lam2 = np.where(drawable, det / lam1, -1.0)  # > 0, since lam1 / det is finite
    on_x = cxx >= cyy
    sigma = np.sqrt(np.where(on_x, (lam1, lam2), (lam2, lam1)))
    # the x-paired eigenvector; both terms of its x component are >= 0, so
    # nothing cancels. An isotropic matrix has no principal axis, and its
    # frame must not swing with roundoff in cxy.
    iso = disc <= ISO_TOL * np.abs(lam1)
    ux = np.where(iso, 1.0, np.abs(half_diff) + disc)
    uy = np.where(iso, 0.0, np.where(on_x, cxy, -cxy))
    norm = np.hypot(ux, uy)
    ux, uy = ux / norm, uy / norm
    return lam1, lam2, det, sigma, np.array(((ux, uy), (-uy, ux)))


def has_frame(cxx: float, cxy: float, cyy: float) -> bool:
    """screen_frame's lam2 > 0 for one covariance of Python floats, in its
    expressions: equal when cxy = 0, else up to an ulp of lam1, where
    math.hypot and np.hypot may round apart. A product overflows to inf."""
    lam1 = 0.5 * (cxx + cyy) + math.hypot(0.5 * (cxx - cyy), cxy)
    det = cxx * cyy - cxy * cxy
    return lam1 > 0.0 and det > 0.0 and 2.0 * lam1 * lam1 < math.inf and lam1 / det < math.inf
