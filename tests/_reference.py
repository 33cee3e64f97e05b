"""Scalar, one-splat-at-a-time reference implementations.

splatlab ships one implementation per operation, the vectorized path the
renderer runs. The functions here compute the same quantities one splat and
one window at a time, written for reading rather than speed, and serve the
tests as a step-by-step oracle for that path:

  update_window, scalar_alpha_*   blending.blend_grid / _WindowBlend.step
  _fallback_blend                 _WindowBlend._fallback, in the splat frame
  gaussian_i0_cases               splatmath.gaussian_i0
  residual_closed_form            errorlab.true_residual_transmittance's
                                  closed form, bit for bit
  eigen2x2                        splatmath.screen_frame
  eval_sh                         the color line of scene.project_cloud
  project_splat                   scene.project_cloud
  project_cloud_einsum            scene.project_cloud, bit for bit

They share only the 1D closed-form moments (splatmath.gaussian_moments_012
and gaussian_i0) and the module constants with the package; those are
checked against quadrature in _oracles.py. residual_closed_form calls
gaussian_i0 once per subset and axis, where the truth makes one call for
all of them: gaussian_i0 works element by element, so the two agree bit
for bit. Color is the view-independent DC term of a splat's spherical
harmonics, as in scene: the lab's claims are about how alpha and
transmittance combine in a pixel, and a zoom keeps the pose, so every
sampling rate of a view shares its colors. So eval_sh is the one line of
project_cloud's color, and project_cloud_einsum pins its bits with those of
the projection.
_fallback_blend keeps the center Gaussian in its frame form, exp(-((u /
sigma1)^2 + (v / sigma2)^2) / 2), where the package evaluates it once, from
the inverse covariance (_alpha_center): an oracle independent of that form.
eigen2x2 likewise keeps its own form, the better of two eigenvector
candidates with a sign rule and a 45 degree pairing (paired_axes), where
screen_frame solves the paired frame in one closed form; near isotropy the
candidates cancel, so its frame is exact only to about eps / anisotropy, and
the tests compare the two frames with a tolerance.

The scalar code takes one screen-space splat at a time as a Splat2D record.
The fixtures below are not oracles; the test modules share them so that each
has one definition:

  stack_splats                     Splat2D records as the ProjectedCloud the
                                   package takes, in list order
  iso_splat, rot_splat             one Splat2D, isotropic, or with standard
                                   deviations sig1, sig2 turned by theta
  assert_pixels_equal_blend_pixel  every pixel of a frame, bit for bit,
                                   against blending.blend_pixel at its center
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.special

from splatlab.blending import ALPHA_MAX, GUARD_LO, MIN_SIDE, blend_pixel
from splatlab.scene import SH_C0, ProjectedCloud
from splatlab.splatmath import ISO_TOL, SQRT2, SQRT_HALF_PI, gaussian_i0, gaussian_moments_012

# --- one screen-space splat ---------------------------------------------------


class Splat2D(NamedTuple):
    """One screen-space splat: 2D Gaussian plus depth, opacity and color."""

    mu2d: np.ndarray  # (2,) pixels
    cov2d: np.ndarray  # (2, 2) symmetric, pixels^2
    depth: float  # camera-space z
    opacity: float
    color: np.ndarray  # (3,) linear rgb


def stack_splats(splats) -> ProjectedCloud:
    """A ProjectedCloud holding the Splat2D records in list order."""
    splats = list(splats)
    cov = np.array([s.cov2d for s in splats], dtype=float).reshape(-1, 2, 2)
    return ProjectedCloud(
        mu2d=np.array([s.mu2d for s in splats], dtype=float).reshape(-1, 2),
        cxx=cov[:, 0, 0],
        cxy=cov[:, 0, 1],
        cyy=cov[:, 1, 1],
        depth=[s.depth for s in splats],
        opacity=[s.opacity for s in splats],
        color=np.array([s.color for s in splats], dtype=float).reshape(-1, 3),
    )


def iso_splat(mu, sig, o, color=(1.0, 0.0, 0.0), depth=1.0) -> Splat2D:
    """An isotropic splat of standard deviation sig px."""
    return Splat2D(
        mu2d=np.asarray(mu, float),
        cov2d=sig * sig * np.eye(2),
        depth=depth,
        opacity=o,
        color=np.asarray(color, float),
    )


def rot_splat(mu, sig1, sig2, theta, o, color=(1.0, 0.0, 0.0), depth=1.0) -> Splat2D:
    """A splat of standard deviations sig1 and sig2 px along its axes, the
    first turned by theta radians from the screen x axis."""
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]])
    cov = r @ np.diag([sig1 * sig1, sig2 * sig2]) @ r.T
    return Splat2D(
        mu2d=np.asarray(mu, float),
        cov2d=0.5 * (cov + cov.T),
        depth=depth,
        opacity=o,
        color=np.asarray(color, float),
    )


def assert_pixels_equal_blend_pixel(prep, fb, mode, ss_k, **kw):
    """Every pixel of the frame fb equals, bit for bit, blend_pixel of prep at
    its center; kw goes to blend_pixel (epsilon)."""
    height, width = fb.residual.shape
    for y in range(height):
        for x in range(width):
            rgb, res = blend_pixel(prep, (x + 0.5, y + 0.5), mode, ss_k=ss_k, **kw)
            assert fb.rgb[y, x].tobytes() == rgb.tobytes(), (mode, x, y)
            assert fb.residual[y, x] == res, (mode, x, y)


# --- 1D Gaussian mass ---------------------------------------------------------


def gaussian_i0_cases(sigma, a, b):
    """I0 over [a, b] case by case: erf over every element, then an erfc pair
    over every element for each one-sided case that occurs anywhere, merged
    with np.where. splatmath.gaussian_i0 must equal it bit for bit."""
    # erf(b') - erf(a') loses all precision once both bounds sit in the same
    # far tail (erf saturates at 1), so switch to erfc there; the mixed-sign
    # case adds two positive terms and is safe as plain erf.
    sa = np.asarray(a, dtype=float) / (SQRT2 * sigma)
    sb = np.asarray(b, dtype=float) / (SQRT2 * sigma)
    out = scipy.special.erf(sb) - scipy.special.erf(sa)
    pos = sa >= 0.0  # both bounds right of center (sa <= sb always)
    neg = sb <= 0.0
    if np.any(pos):
        out = np.where(pos, scipy.special.erfc(sa) - scipy.special.erfc(sb), out)
    if np.any(neg):
        out = np.where(neg, scipy.special.erfc(-sb) - scipy.special.erfc(-sa), out)
    return SQRT_HALF_PI * sigma * out


# --- closed-form truth --------------------------------------------------------


def _product_integral(params) -> float:
    """Integral over the unit pixel at 0 of the product of the alphas of one
    or two axis-aligned splats, each a (mu row, (sigma_x, sigma_y), opacity)
    row of Python floats. Per axis, the product of two unnormalized Gaussians
    of sigmas p and q is one of sigma pq / hypot(p, q) about the
    sigma-weighted mean, times a prefactor that falls with their distance."""
    total = math.prod([o for _, _, o in params])
    (mu0, sigma0, _), rest = params[0], params[1:]
    for ax in range(2):
        a, p, pref = mu0[ax], sigma0[ax], 1.0
        for mu, sigma, _ in rest:
            b, q = mu[ax], sigma[ax]
            d = a - b  # squared by *, which gives inf where float ** raises
            pref *= math.exp(-(d * d) / (2.0 * (p * p + q * q)))
            a, p = (a * q * q + b * p * p) / (p * p + q * q), p * q / math.hypot(p, q)
        total *= pref * float(gaussian_i0(p, -0.5 - a, 0.5 - a))
    return total


def residual_closed_form(splats: ProjectedCloud) -> float:
    """The integral over the unit pixel at 0 of prod(1 - alpha_i) for up to
    two axis-aligned splats, one subset and one axis at a time: 1 plus
    (-1)^r times the integral of each r-subset's product of alphas.
    errorlab.true_residual_transmittance must equal it bit for bit."""
    params = [(mu, (math.sqrt(xx), math.sqrt(yy)), o)
              for mu, xx, yy, o in zip(splats.mu2d.tolist(), splats.cxx.tolist(),
                                       splats.cyy.tolist(), splats.opacity.tolist())]
    total = 1.0
    for r in range(1, len(params) + 1):
        for subset in itertools.combinations(params, r):
            total += (-1.0) ** r * _product_integral(subset)
    return total


# --- 2x2 eigen-solve ----------------------------------------------------------


class DegenerateSplatError(ValueError):
    """2x2 covariance is not positive definite."""


@dataclass(frozen=True)
class Eigen2:
    """Eigen-decomposition of a symmetric positive definite 2x2 matrix.

    lambda1 >= lambda2 > 0; e1, e2 are unit eigenvectors with deterministic
    signs (largest-magnitude component positive).
    """

    lambda1: float
    lambda2: float
    e1: np.ndarray
    e2: np.ndarray

    @property
    def sigma1(self) -> float:
        return float(np.sqrt(self.lambda1))

    @property
    def sigma2(self) -> float:
        return float(np.sqrt(self.lambda2))


def _canonical_sign(v):
    # Flip so the largest-magnitude component is positive; ties defer to the
    # first component.
    if abs(v[0]) >= abs(v[1]):
        return v if v[0] >= 0.0 else -v
    return v if v[1] >= 0.0 else -v


def eigen2x2(cov) -> Eigen2:
    """Analytic eigen-decomposition of a symmetric 2x2 covariance.

    Raises DegenerateSplatError when the matrix is not positive definite.
    Within ISO_TOL of isotropic, e1 is the screen axis of the larger diagonal
    entry.
    """
    cov = np.asarray(cov, dtype=float)
    a, b, c = cov[0, 0], 0.5 * (cov[0, 1] + cov[1, 0]), cov[1, 1]
    half_tr = 0.5 * (a + c)
    # hypot-style discriminant: no cancellation when a ~ c and b ~ 0
    disc = np.hypot(0.5 * (a - c), b)
    lam1 = half_tr + disc
    det = a * c - b * b
    if lam1 <= 0.0 or det <= 0.0 or not np.isfinite(lam1):
        raise DegenerateSplatError(
            f"covariance not positive definite (trace/2={half_tr:g}, det={det:g})"
        )
    # det/lam1 never subtracts nearly-equal quantities, unlike half_tr - disc
    lam2 = det / lam1

    if disc <= ISO_TOL * lam1:
        e1 = np.array([1.0, 0.0]) if a >= c else np.array([0.0, 1.0])
    else:
        # (A - lam1 I) e1 = 0 has two row solutions; pick the better conditioned.
        cand1 = np.array([b, lam1 - a])
        cand2 = np.array([lam1 - c, b])
        e1 = cand1 if cand1 @ cand1 >= cand2 @ cand2 else cand2
        e1 = e1 / np.linalg.norm(e1)
    e1 = _canonical_sign(e1)
    e2 = _canonical_sign(np.array([-e1[1], e1[0]]))
    return Eigen2(lambda1=float(lam1), lambda2=float(lam2), e1=e1, e2=e2)


# --- transmittance window -----------------------------------------------------


@dataclass
class TransmittanceWindow:
    """Uniform-box model of a pixel's remaining transmittance."""

    center: np.ndarray  # (2,) pixels
    sides: np.ndarray  # (2,) positive, pixels
    value: float  # [0, 1]

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(2)
        self.sides = np.asarray(self.sides, dtype=float).reshape(2)

    @property
    def mass(self) -> float:
        """Integrated transmittance over the plane."""
        return self.value * (self.sides[0] * self.sides[1])


def init_window(pixel_center) -> TransmittanceWindow:
    """Fresh full-transmittance window over one pixel's unit square."""
    return TransmittanceWindow(
        center=np.asarray(pixel_center, dtype=float), sides=np.array([1.0, 1.0]), value=1.0
    )


@dataclass(frozen=True)
class SplatFrame:
    """Window geometry re-expressed in a splat's principal-axis coordinates."""

    u: float
    v: float
    u1: float
    u2: float
    v1: float
    v2: float
    sigma1: float
    sigma2: float


def paired_axes(eig: Eigen2):
    """Axis pairing that keeps the implied window rotation within 45 degrees.

    Returns (a1, s1, a2, s2) where a1 is the eigenvector closest to the screen
    x axis (paired with the window's first side) and s1 its sigma. Ties keep
    the major axis on a1.
    """
    if abs(eig.e1[0]) >= abs(eig.e1[1]):
        return eig.e1, eig.sigma1, eig.e2, eig.sigma2
    return eig.e2, eig.sigma2, eig.e1, eig.sigma1


def to_splat_frame(win: TransmittanceWindow, splat: Splat2D, eig: Eigen2) -> SplatFrame:
    a1, s1, a2, s2 = paired_axes(eig)
    d = win.center - splat.mu2d
    # elementwise (not @) to match the vectorized kernels bit for bit
    u = float(d[0] * a1[0] + d[1] * a1[1])
    v = float(d[0] * a2[0] + d[1] * a2[1])
    hu = 0.5 * win.sides[0]
    hv = 0.5 * win.sides[1]
    return SplatFrame(
        u=u, v=v, u1=u - hu, u2=u + hu, v1=v - hv, v2=v + hv, sigma1=s1, sigma2=s2
    )


def integrated_weight(frame: SplatFrame, t: float, o: float) -> float:
    """Integral of t * alpha over the window box (separable erf closed form)."""
    i0u, _, _ = gaussian_moments_012(frame.sigma1, frame.u1, frame.u2)
    i0v, _, _ = gaussian_moments_012(frame.sigma2, frame.v1, frame.v2)
    return t * o * float(i0u) * float(i0v)


@dataclass(frozen=True)
class GaussianMoments:
    """Moments of t * (1 - alpha) over the window, in the splat frame."""

    m0: float  # remaining mass
    m1: np.ndarray  # (2,) first moment per axis
    m2: np.ndarray  # (2,) second moment per axis


def compute_moments(frame: SplatFrame, t: float, o: float) -> GaussianMoments:
    i0u, i1u, i2u = gaussian_moments_012(frame.sigma1, frame.u1, frame.u2)
    i0v, i1v, i2v = gaussian_moments_012(frame.sigma2, frame.v1, frame.v2)
    lu = frame.u2 - frame.u1
    lv = frame.v2 - frame.v1
    area = lu * lv
    to = t * o
    w = to * i0u * i0v
    m0 = max(t * area - w, 0.0)
    m1 = np.array([t * area * frame.u - to * i1u * i0v, t * area * frame.v - to * i0u * i1v])
    m2 = np.array(
        [
            t * area * (frame.u * frame.u + lu * lu / 12.0) - to * i2u * i0v,
            t * area * (frame.v * frame.v + lv * lv / 12.0) - to * i0u * i2v,
        ]
    )
    return GaussianMoments(m0=float(m0), m1=m1, m2=m2)


def scalar_alpha_center(pixel_center, splat: Splat2D) -> float:
    """Alpha sampled at a point: o * exp(-d^2/2), Mahalanobis d, clamped at ALPHA_MAX."""
    cov = splat.cov2d
    det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[0, 1]
    d = np.asarray(pixel_center, dtype=float) - splat.mu2d
    q = (cov[1, 1] * d[0] * d[0] - 2.0 * cov[0, 1] * d[0] * d[1] + cov[0, 0] * d[1] * d[1]) / det
    return min(splat.opacity * float(np.exp(-0.5 * q)), ALPHA_MAX)


def scalar_alpha_integrated(pixel_center, splat: Splat2D, eig: Eigen2) -> float:
    """Alpha integrated over the unit pixel square centered at pixel_center.

    Evaluated in the splat frame with the same box reinterpretation the window
    model uses; equals the Gaussian-blending weight on a fresh window.
    """
    frame = to_splat_frame(init_window(pixel_center), splat, eig)
    return integrated_weight(frame, 1.0, splat.opacity)


def _fallback_blend(win: TransmittanceWindow, frame: SplatFrame, o: float):
    # Splat over 1 / GUARD_LO windows wide on both axes: freeze geometry,
    # scalar-blend at the window center with the raw (unclamped) alpha.
    alpha = o * float(
        np.exp(-0.5 * ((frame.u / frame.sigma1) ** 2 + (frame.v / frame.sigma2) ** 2))
    )
    area = win.sides[0] * win.sides[1]
    weight = (win.value * alpha) * area
    nxt = TransmittanceWindow(
        center=win.center.copy(), sides=win.sides.copy(), value=win.value * (1.0 - alpha)
    )
    return weight, nxt


def update_window(win: TransmittanceWindow, splat: Splat2D, eig: Eigen2):
    """Blend one splat into the window; returns (weight, next window).

    Mass is conserved: next.mass == win.mass - weight up to roundoff. When
    both window sides fall below GUARD_LO times the paired sigma, geometry is
    frozen and a scalar blend at the window center is applied instead.
    """
    frame = to_splat_frame(win, splat, eig)
    if win.sides[0] / frame.sigma1 < GUARD_LO and win.sides[1] / frame.sigma2 < GUARD_LO:
        return _fallback_blend(win, frame, splat.opacity)

    mom = compute_moments(frame, win.value, splat.opacity)
    weight = integrated_weight(frame, win.value, splat.opacity)
    if weight == 0.0:
        # No measurable overlap; moment-matching would only round-trip the box.
        return 0.0, win

    if mom.m0 <= 0.0:
        # Splat consumed the entire window mass.
        nxt = TransmittanceWindow(center=win.center.copy(), sides=win.sides.copy(), value=0.0)
        return win.mass, nxt

    mean = mom.m1 / mom.m0
    var = np.maximum(mom.m2 / mom.m0 - mean * mean, 0.0)
    sides = np.maximum(np.sqrt(12.0 * var), MIN_SIDE)
    value = mom.m0 / (sides[0] * sides[1])
    if value > 1.0:
        # Box taller than full transmittance cannot be represented; flatten to
        # value 1 and widen mass-neutrally.
        sides = sides * np.sqrt(value)
        value = 1.0

    a1, _, a2, _ = paired_axes(eig)
    center = splat.mu2d + a1 * mean[0] + a2 * mean[1]
    return weight, TransmittanceWindow(center=center, sides=sides, value=float(value))


# --- projection and SH color --------------------------------------------------


def quat_to_rotmat(q) -> np.ndarray:
    """Rotation matrix from a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def build_covariance(scale, rot) -> np.ndarray:
    """World-space covariance of a splat: R diag(s^2) R^T."""
    q = np.asarray(rot, dtype=float)
    r = quat_to_rotmat(q / np.linalg.norm(q))
    m = r * np.asarray(scale, dtype=float)[None, :]  # R @ diag(s)
    return m @ m.T


def eval_sh(dc) -> np.ndarray:
    """Linear rgb from DC coefficients dc (any shape, channel last): the
    trained-file convention, SH_C0 * dc + 0.5, clamped at 0."""
    return np.maximum(SH_C0 * np.asarray(dc, dtype=float) + 0.5, 0.0)


def project_splat(cloud, i: int, cam, lowpass: float = 0.0):
    """Project splat i of a SplatCloud to screen space; returns a Splat2D, or
    None when culled.

    lowpass is added to the diagonal of cov2d after projection.
    """
    mu = cloud.mu[i]
    r, t = cam.rotation, cam.translation
    p = r @ mu + t
    z = p[2]
    if z <= cam.near:
        return None
    x, y = p[0], p[1]
    mu2d = np.array([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy])

    jac = np.array(
        [
            [cam.fx / z, 0.0, -cam.fx * x / (z * z)],
            [0.0, cam.fy / z, -cam.fy * y / (z * z)],
        ]
    )
    cov3d = build_covariance(cloud.scale[i], cloud.rot[i])
    jw = jac @ r
    cov2d = jw @ cov3d @ jw.T
    cov2d = 0.5 * (cov2d + cov2d.T)
    cov2d[0, 0] += lowpass
    cov2d[1, 1] += lowpass

    if not (np.all(np.isfinite(mu2d)) and np.all(np.isfinite(cov2d))):
        return None

    color = eval_sh(cloud.sh[i, 0])

    return Splat2D(
        mu2d=mu2d, cov2d=cov2d, depth=float(z), opacity=float(cloud.opacity[i]), color=color
    )


def project_cloud_einsum(cloud, cam, lowpass: float = 0.0) -> ProjectedCloud:
    """scene.project_cloud as it was before its contraction became an ordered
    sum: the bit-exact oracle of that sum. The body is the old one verbatim,
    but for the rotation matrices, built here one splat at a time by
    quat_to_rotmat (the same arithmetic per entry).

    Project every splat in one vectorized pass; order of survivors is stable."""
    n = len(cloud)
    r, t = cam.rotation, cam.translation
    p = cloud.mu @ r.T + t  # (n, 3) camera space
    z = p[:, 2]
    front = z > cam.near
    n_culled_near = int(n - np.count_nonzero(front))

    idx = np.flatnonzero(front)
    p = p[idx]
    z = z[idx]
    x, y = p[:, 0], p[:, 1]
    mu2d = np.stack([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy], axis=1)

    # cov2d = (J R) Sigma (J R)^T with J the perspective Jacobian at the mean.
    rot = np.array([quat_to_rotmat(q) for q in cloud.rot[idx]]).reshape(-1, 3, 3)
    m = rot * cloud.scale[idx][:, None, :]  # (n, 3, 3) = R diag(s)
    zz = z * z
    jac = np.zeros((idx.size, 2, 3))
    jac[:, 0, 0] = cam.fx / z
    jac[:, 0, 2] = -cam.fx * x / zz
    jac[:, 1, 1] = cam.fy / z
    jac[:, 1, 2] = -cam.fy * y / zz
    a = np.einsum("nij,jk,nkl->nil", jac, r, m)  # (n, 2, 3)
    cxx = np.einsum("nk,nk->n", a[:, 0], a[:, 0]) + lowpass
    cyy = np.einsum("nk,nk->n", a[:, 1], a[:, 1]) + lowpass
    cxy = np.einsum("nk,nk->n", a[:, 0], a[:, 1])

    finite = (
        np.isfinite(z)
        & np.isfinite(mu2d).all(axis=1)
        & np.isfinite(cxx)
        & np.isfinite(cxy)
        & np.isfinite(cyy)
    )
    n_culled_nonfinite = int(idx.size - np.count_nonzero(finite))
    if n_culled_nonfinite:
        keep = np.flatnonzero(finite)
        idx, mu2d, z = idx[keep], mu2d[keep], z[keep]
        cxx, cxy, cyy = cxx[keep], cxy[keep], cyy[keep]

    color = eval_sh(cloud.sh[idx, 0])

    return ProjectedCloud(
        mu2d=mu2d,
        cxx=cxx,
        cxy=cxy,
        cyy=cyy,
        depth=z,
        opacity=cloud.opacity[idx].copy(),
        color=color,
        n_culled_near=n_culled_near,
        n_culled_nonfinite=n_culled_nonfinite,
    )
