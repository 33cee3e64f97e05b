"""Independent numerical oracles used by the test suite.

Everything here integrates Gaussians numerically (adaptive quadrature or
panelled Gauss-Legendre) and never touches the package's erf closed forms, so
agreement is evidence rather than tautology. Box-moment terms (mass, mean and
variance of a uniform box) are elementary arithmetic shared with no special
functions.
"""

import numpy as np
from scipy import integrate

# Points beyond 9 sigma contribute < 1e-18 relative mass; clipping there keeps
# panel counts bounded for arbitrarily wide windows.
TAIL_SIGMA = 9.0


def moment_quad(k, sigma, a, b):
    """Adaptive 1D quadrature of x^k exp(-x^2 / 2 sigma^2) over [a, b]."""
    val, _ = integrate.quad(
        lambda x: x**k * np.exp(-(x * x) / (2.0 * sigma * sigma)),
        a,
        b,
        epsabs=0.0,
        epsrel=1e-12,
        limit=200,
    )
    return val


def _gl_nodes(a, b, panels, order):
    """Tensor of GL nodes/weights over [a, b] split into panels.

    a, b are arrays of shape (n,); returns x, w of shape (n, panels*order).
    Degenerate intervals (a >= b) get zero weights.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0, panels + 1)
    lo = edges[:-1][None, :, None]  # (1, panels, 1)
    hi = edges[1:][None, :, None]
    span = (b - a)[:, None, None]
    width = np.maximum(span, 0.0) * (hi - lo)
    mid_frac = 0.5 * (lo + hi)
    x = a[:, None, None] + span * mid_frac + 0.5 * width * xg[None, None, :]
    w = 0.5 * width * wg[None, None, :]
    n = a.shape[0]
    return x.reshape(n, -1), w.reshape(n, -1)


def gaussian_moments_gl(sigma, a, b, panels=32, order=24):
    """(i0, i1, i2) of exp(-x^2/2 sigma^2) over [a, b] by panelled GL.

    Vectorized over case arrays. Tails beyond 9 sigma are clipped (integrand
    below 3e-18 there), keeping panel width under ~0.6 sigma always.
    """
    sigma = np.asarray(sigma, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    lo = np.maximum(a, -TAIL_SIGMA * sigma)
    hi = np.minimum(b, TAIL_SIGMA * sigma)
    x, w = _gl_nodes(lo, hi, panels, order)
    g = np.exp(-(x * x) / (2.0 * sigma[:, None] ** 2)) * w
    i0 = g.sum(axis=1)
    i1 = (x * g).sum(axis=1)
    i2 = (x * x * g).sum(axis=1)
    return i0, i1, i2


def window_moments_numeric(t, o, sigma1, sigma2, u, v, l1, l2):
    """Moments of t*(1 - o g1(x) g2(y)) over the box centered (u, v), sides (l1, l2).

    Box terms are exact arithmetic; Gaussian terms come from panelled GL via
    Fubini (the integrand's Gaussian part is separable by construction).
    Vectorized over case arrays; returns (m0, m1u, m1v, m2u, m2v).
    """
    t = np.asarray(t, dtype=float)
    o = np.asarray(o, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    l1 = np.asarray(l1, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    i0u, i1u, i2u = gaussian_moments_gl(sigma1, u - l1 / 2, u + l1 / 2)
    i0v, i1v, i2v = gaussian_moments_gl(sigma2, v - l2 / 2, v + l2 / 2)
    area = l1 * l2
    to = t * o
    m0 = t * area - to * i0u * i0v
    m1u = t * area * u - to * i1u * i0v
    m1v = t * area * v - to * i0u * i1v
    m2u = t * area * (u * u + l1 * l1 / 12.0) - to * i2u * i0v
    m2v = t * area * (v * v + l2 * l2 / 12.0) - to * i0u * i2v
    return m0, m1u, m1v, m2u, m2v


def window_moments_dblquad(t, o, sigma1, sigma2, u, v, l1, l2):
    """Gold-standard non-separable 2D adaptive quadrature of the same moments.

    Slow; used to spot-check window_moments_numeric on subsamples. Returns
    (m0, m1u, m1v, m2u, m2v).
    """

    def f(y, x, px, py):
        g = np.exp(-(x * x) / (2 * sigma1 * sigma1) - (y * y) / (2 * sigma2 * sigma2))
        return t * (1.0 - o * g) * x**px * y**py

    lims = (u - l1 / 2, u + l1 / 2, lambda x: v - l2 / 2, lambda x: v + l2 / 2)
    out = []
    for px, py in ((0, 0), (1, 0), (0, 1), (2, 0), (0, 2)):
        val, _ = integrate.dblquad(
            f, *lims, args=(px, py), epsabs=1e-13, epsrel=1e-11
        )
        out.append(val)
    return tuple(out)


def alpha_integral_dblquad(o, sigma1, sigma2, u, v, l1=1.0, l2=1.0):
    """2D adaptive quadrature of o g1 g2 over a box; checks integrated alpha."""

    def f(y, x):
        return o * np.exp(-(x * x) / (2 * sigma1 * sigma1) - (y * y) / (2 * sigma2 * sigma2))

    val, _ = integrate.dblquad(
        f, u - l1 / 2, u + l1 / 2, lambda x: v - l2 / 2, lambda x: v + l2 / 2,
        epsabs=1e-13, epsrel=1e-11,
    )
    return val


def residual_transmittance_gl(mus, sigmas, opacities, panels=24, order=8):
    """Integral over the unit pixel at the origin of prod_j (1 - alpha_j).

    Isotropic splats: mus (m, 2), sigmas (m,), opacities (m,). Panelled GL in
    2D; independent of every closed form in the package.
    """
    mus = np.asarray(mus, dtype=float).reshape(-1, 2)
    sigmas = np.asarray(sigmas, dtype=float).reshape(-1)
    opacities = np.asarray(opacities, dtype=float).reshape(-1)
    x, wx = _gl_nodes(np.array([-0.5]), np.array([0.5]), panels, order)
    x, wx = x[0], wx[0]
    xx, yy = np.meshgrid(x, x, indexing="ij")
    w2 = wx[:, None] * wx[None, :]
    trans = np.ones_like(xx)
    for (mx, my), s, o in zip(mus, sigmas, opacities):
        d2 = (xx - mx) ** 2 + (yy - my) ** 2
        trans *= 1.0 - o * np.exp(-d2 / (2.0 * s * s))
    return float((trans * w2).sum())


def residual_one_splat_gl(mu, cxx, cxy, cyy, o, panels=32, order=24):
    """1 - o * the integral of one splat's Gaussian over the unit pixel at the
    origin, for any covariance, thin and rotated ones too.

    At height y the Gaussian is its y marginal times a 1D Gaussian in x about
    the conditional mean mx(y) with the conditional sigma sc, so panelled GL
    takes y over the pixel clipped to TAIL_SIGMA marginal sigmas and, at each
    y node, x by gaussian_moments_gl. Where mx(y) crosses a pixel edge, the x
    integral steps over TAIL_SIGMA * sc in x; y is cut there, so that each
    step has panels of its own.
    """
    sy, sc = np.sqrt(cyy), np.sqrt((cxx * cyy - cxy * cxy) / cyy)
    lo, hi = max(-0.5, mu[1] - TAIL_SIGMA * sy), min(0.5, mu[1] + TAIL_SIGMA * sy)
    cuts = {lo, hi}
    if cxy != 0.0:
        for edge in (-0.5, 0.5):
            c = mu[1] + (edge - mu[0]) * cyy / cxy  # mx(c) = edge
            w = TAIL_SIGMA * sc * cyy / abs(cxy)
            cuts.update(min(max(c + d, lo), hi) for d in (-w, 0.0, w))
    cuts = sorted(cuts)
    y, wy = _gl_nodes(cuts[:-1], cuts[1:], panels, order)
    y, wy = y.ravel(), wy.ravel()
    mx = mu[0] + (y - mu[1]) * cxy / cyy
    ix = gaussian_moments_gl(np.full_like(y, sc), -0.5 - mx, 0.5 - mx, panels, order)[0]
    return 1.0 - o * float(np.sum(wy * np.exp(-((y - mu[1]) ** 2) / (2.0 * cyy)) * ix))
