"""Transmittance-error sweeps, ground-truth oracles, and image metrics.

The two-splat sweep places isotropic splats at (mu_x, -offset_y) and
(mu_x, +offset_y) over the unit pixel centered at the origin and compares each
blend mode's residual transmittance against the exact integral of the product
transmittance over the pixel. Splats are ProjectedCloud rows, front to back
by depth. The truth is closed-form for up to two axis-aligned splats; its
quadrature path, for the rest, imports scipy.integrate on first use, so a
process that only renders, or only takes the closed form, never loads it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .blending import (EPSILON_DEFAULT, blend_pixel, check_epsilon, check_mode, check_ss_k,
                       prepare_splats)
from .scene import ProjectedCloud
from .splatmath import ISO_TOL, gaussian_i0

PSNR_CAP = 99.0
# the truth's quadrature breaks the pixel at center +- sigma * 4^k below this
# width (px) too: with breaks at the centers alone, splats of sigma 1e-3 px
# came out exact but one of 1e-4 px was missed by 1e-4
_QUAD_LADDER_PX = 0.01


def _first_bad_det(sigmas: list) -> int | None:
    """Index of the first sigma (a Python float) whose covariance sigma^2 I
    has no finite determinant sigma^4 > 0, or None. The truth and
    prepare_splats both take that determinant; in double precision it
    underflows to 0 below sigma of about 1.3e-81 and overflows above about
    1.2e77."""
    for i, s in enumerate(sigmas):
        var = s * s  # float arithmetic: inf or 0.0, never a numpy warning
        if not 0.0 < var * var < math.inf:  # NaN too
            return i
    return None


def iso_cloud(mu, sigma, opacity, color, depth) -> ProjectedCloud:
    """Isotropic screen-space splats, covariance sigma^2 I: mu (m, 2), color
    (m, 3), sigma (> 0, with a finite sigma^4 > 0), opacity and depth (m,)."""
    sigma = np.asarray(sigma, dtype=float)
    bad = np.flatnonzero(~(sigma > 0.0))  # NaN too
    if bad.size:
        raise ValueError(f"sigma[{bad[0]}] is {sigma.flat[bad[0]]}, must be > 0")
    i = _first_bad_det(sigma.ravel().tolist())
    if i is not None:
        raise ValueError(f"sigma[{i}] is {sigma.flat[i]}, its sigma^4 is not a finite value > 0")
    var = np.square(sigma)
    return ProjectedCloud(mu2d=mu, cxx=var, cxy=np.zeros_like(var), cyy=var.copy(),
                          depth=depth, opacity=opacity, color=color)


def two_splat_config(mu_x: float, sigma: float, opacity: float = 1.0,
                     offset_y: float = 0.1) -> ProjectedCloud:
    """The paper sweep's symmetric pair: red at -offset_y in front of green."""
    return iso_cloud([[mu_x, -offset_y], [mu_x, offset_y]], [sigma, sigma], [opacity, opacity],
                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0])


def _axis_params(splats: ProjectedCloud) -> list | None:
    """(mu row, (sigma_x, sigma_y), opacity) per splat, sigmas and opacity as
    Python floats; None when any splat is not axis-aligned."""
    out = []
    for mu, xx, xy, yy, o in zip(splats.mu2d, splats.cxx.tolist(), splats.cxy.tolist(),
                                 splats.cyy.tolist(), splats.opacity.tolist()):
        if abs(xy) > ISO_TOL * math.sqrt(xx * yy):
            return None
        out.append((mu, (math.sqrt(xx), math.sqrt(yy)), o))
    return out


def _alpha_integral(mu, sigma, o) -> float:
    # integral over [-0.5, 0.5]^2 of o * exp(-sum over the axes of (x-mu)^2 / 2 sigma^2)
    ix = gaussian_i0(sigma[0], -0.5 - mu[0], 0.5 - mu[0])
    iy = gaussian_i0(sigma[1], -0.5 - mu[1], 0.5 - mu[1])
    return o * float(ix) * float(iy)


def _pair_integral(mu1, s1, o1, mu2, s2, o2) -> float:
    # integral of alpha1*alpha2: the product of two unnormalized axis-aligned
    # Gaussians is itself one, separable per axis with 1/sc^2 = 1/p^2 + 1/q^2
    # for the axis's sigmas p and q, and a distance-dependent prefactor.
    total = o1 * o2
    for ax in range(2):
        a, b, p, q = mu1[ax], mu2[ax], s1[ax], s2[ax]
        sc = p * q / math.hypot(p, q)
        muc = (a * q * q + b * p * p) / (p * p + q * q)
        pref = math.exp(-((a - b) ** 2) / (2.0 * (p * p + q * q)))
        total *= pref * float(gaussian_i0(sc, -0.5 - muc, 0.5 - muc))
    return total


def true_residual_transmittance(splats: ProjectedCloud, method: str = "auto") -> float:
    """Exact integral of the product transmittance over the unit pixel at 0.

    Closed form for up to two axis-aligned splats, |cxy| <= ISO_TOL *
    sqrt(cxx * cyy) (expansion of (1-a1)(1-a2) with the product-of-Gaussians
    identity); otherwise, or always when method is "quad", nested adaptive
    quadrature to 1e-10, over y outside and x inside, broken at each splat's
    center y and at its conditional mean x given y, so that a thin splat is
    not stepped over. The quadrature imports scipy.integrate on first use.
    ValueError naming the first splat whose covariance is not positive
    definite.
    """
    if method not in ("auto", "quad"):
        raise ValueError(f"unknown method {method!r}")
    pd = (splats.cxx > 0.0) & (splats.cxx * splats.cyy - splats.cxy * splats.cxy > 0.0)
    if not pd.all():
        raise ValueError(f"covariance of splat {np.argmin(pd)} is not positive definite")
    params = None if method == "quad" else _axis_params(splats)
    if params is not None and len(params) <= 2:
        total = 1.0
        for mu, s, o in params:
            total -= _alpha_integral(mu, s, o)
        if len(params) == 2:
            total += _pair_integral(*params[0], *params[1])
        return total

    # per splat: mu, the inverse covariance (a, b, c) and opacity; at height
    # y its ridge, the conditional mean x = mx + (y - my) * g with the
    # conditional sigma sx about it; and its center y with the sigma of y
    gaussians, ridges, heights = [], [], []
    for (mx, my), xx, xy, yy, o in zip(splats.mu2d.tolist(), splats.cxx.tolist(),
                                       splats.cxy.tolist(), splats.cyy.tolist(),
                                       splats.opacity.tolist()):
        det = xx * yy - xy * xy
        gaussians.append((mx, my, yy / det, -xy / det, xx / det, o))
        ridges.append((mx, my, xy / yy, math.sqrt(det / yy)))
        heights.append((my, math.sqrt(yy)))

    def product_t(x, y):
        t = 1.0
        for mx, my, a, b, c, o in gaussians:
            dx, dy = x - mx, y - my
            t *= 1.0 - o * math.exp(-0.5 * (a * dx * dx + 2.0 * b * dx * dy + c * dy * dy))
        return t

    from scipy import integrate  # here, not at the top: no render and no closed form needs it

    def quad(f, centers, *args):
        # the adaptive rule samples a panel no nearer its ends than 0.2% of its
        # length, so it can step over a thin splat: break at each center m, and
        # at m +- sigma * 4^k below _QUAD_LADDER_PX
        points = set()
        for m, sigma in centers:
            points.add(m)
            while 0.0 < sigma < _QUAD_LADDER_PX:
                points.update((m - sigma, m + sigma))
                sigma *= 4.0
        points = [p for p in points if -0.5 < p < 0.5]
        return integrate.quad(f, -0.5, 0.5, args=args, points=points or None, epsabs=1e-12,
                              epsrel=1e-10, limit=50 + len(points))[0]

    def row_integral(y):
        return quad(product_t, [(mx + (y - my) * g, sx) for mx, my, g, sx in ridges], y)

    return quad(row_integral, heights)


def transmittance_error(mode: str, splats, *, epsilon: float = EPSILON_DEFAULT,
                        ss_k: int = 256, true_value: float) -> float:
    """Delta T = residual transmittance of the mode at the unit pixel at the
    origin minus true_value, the exact one.

    splats is whatever blend_pixel takes: a ProjectedCloud or a PreparedSplats.
    true_value, finite, is true_residual_transmittance of the ProjectedCloud.
    """
    if not math.isfinite(true_value):
        raise ValueError(f"true_value must be finite, not {true_value!r}")
    _, t_mode = blend_pixel(splats, (0.0, 0.0), mode, epsilon=epsilon, ss_k=ss_k)
    return t_mode - true_value


@dataclass(frozen=True)
class SweepConfig:
    """Two-splat sweep over mu_x or sigma with everything else held fixed."""

    sweep_var: str  # "mu_x" or "sigma"
    start: float
    stop: float
    step: float  # linear step; log10 step when spacing="log"
    spacing: str = "linear"
    modes: tuple = ("center", "integrated", "gb")
    mu_x: float = 0.5  # fixed when sweeping sigma
    sigma: float = 1.0  # fixed when sweeping mu_x
    opacity: float = 1.0
    offset_y: float = 0.1
    epsilon: float = EPSILON_DEFAULT
    ss_k: int = 256

    def __post_init__(self):
        if self.sweep_var not in ("mu_x", "sigma"):
            raise ValueError(f"unknown sweep variable {self.sweep_var!r}")
        if self.spacing not in ("linear", "log"):
            raise ValueError(f"unknown spacing {self.spacing!r}")
        # mu_x is read by a sigma sweep only
        fixed = ("mu_x", "offset_y") if self.sweep_var == "sigma" else ("offset_y",)
        for name in ("start", "stop", "step") + fixed:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if self.stop < self.start:
            raise ValueError("empty sweep range")
        if self.spacing == "log" and not self.start > 0:
            raise ValueError("log spacing needs start > 0")
        # the truth and iso_cloud take sigma > 0 only
        if self.sweep_var == "sigma" and not self.start > 0:
            raise ValueError(f"a sigma sweep needs start > 0, not {self.start!r}")
        if self.sweep_var == "mu_x" and not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, not {self.sigma!r}")
        with np.errstate(over="ignore"):  # an inf value is rejected next
            sigmas = self.values().tolist() if self.sweep_var == "sigma" else [self.sigma]
        i = _first_bad_det(sigmas)
        if i is not None:
            raise ValueError(f"sigma {sigmas[i]!r}: its sigma^4 is not a finite value > 0")
        if not 0.0 <= self.opacity <= 1.0:  # NaN too
            raise ValueError(f"opacity must be in [0, 1], not {self.opacity!r}")
        if isinstance(self.modes, str) or not self.modes:
            raise ValueError(f"modes must be a non-empty tuple of mode names, not {self.modes!r}")
        try:
            for mode in self.modes:
                check_mode(mode)
        except ValueError as err:
            raise ValueError(f"modes {self.modes!r}: {err}") from None
        check_epsilon(self.epsilon)
        check_ss_k(self.ss_k)

    def values(self) -> np.ndarray:
        if self.spacing == "linear":
            return np.arange(self.start, self.stop + 0.5 * self.step, self.step)
        lo, hi = math.log10(self.start), math.log10(self.stop)
        return 10.0 ** np.arange(lo, hi + 0.5 * self.step, self.step)


def paper_mu_sweep(**overrides) -> SweepConfig:
    """mu_x in [-3, 3] step 0.05 at sigma = 1."""
    kw = dict(sweep_var="mu_x", start=-3.0, stop=3.0, step=0.05, sigma=1.0)
    kw.update(overrides)
    return SweepConfig(**kw)


def paper_sigma_sweep(**overrides) -> SweepConfig:
    """sigma log-spaced in [0.05, 5] at mu_x = 0.5."""
    kw = dict(sweep_var="sigma", start=0.05, stop=5.0, step=0.05, spacing="log",
              mu_x=0.5)
    kw.update(overrides)
    return SweepConfig(**kw)


@dataclass(frozen=True)
class SweepRow:
    sweep_var: str
    value: float
    mode: str
    delta_t: float


def run_sweep(config: SweepConfig, csv_path=None):
    """Evaluate the sweep grid; returns (rows, mean |delta_t| per mode).

    Writes CSV (columns sweep_var, value, mode, delta_t) when csv_path is
    given; the summary goes to the return value (callers print it).
    """
    rows: list[SweepRow] = []
    for val in config.values():
        mu_x = float(val) if config.sweep_var == "mu_x" else config.mu_x
        sigma = float(val) if config.sweep_var == "sigma" else config.sigma
        splats = two_splat_config(mu_x, sigma, config.opacity, config.offset_y)
        t_true = true_residual_transmittance(splats)
        prep = prepare_splats(splats)  # shared by every mode
        for mode in config.modes:
            dt = transmittance_error(mode, prep, epsilon=config.epsilon, ss_k=config.ss_k,
                                     true_value=t_true)
            rows.append(SweepRow(config.sweep_var, float(val), mode, dt))
    summary = {m: float(np.mean([abs(r.delta_t) for r in rows if r.mode == m]))
               for m in config.modes}
    if csv_path is not None:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sweep_var", "value", "mode", "delta_t"])
            for r in rows:
                writer.writerow([r.sweep_var, repr(r.value), r.mode, repr(r.delta_t)])
    return rows, summary


def psnr(a, b) -> float:
    """10 log10(1 / MSE) over linear rgb; capped at 99 dB (identical images),
    -inf where the MSE overflows. ValueError when a and b are empty, or naming
    the one that holds a NaN or an infinity: neither has a telling MSE."""
    arr_a = np.asarray(a.rgb if hasattr(a, "rgb") else a, dtype=float)
    arr_b = np.asarray(b.rgb if hasattr(b, "rgb") else b, dtype=float)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"dimension mismatch: {arr_a.shape} vs {arr_b.shape}")
    if not arr_a.size:
        raise ValueError(f"a and b are empty (shape {arr_a.shape}); they have no MSE")
    for name, arr in (("a", arr_a), ("b", arr_b)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} is not finite (nan or inf)")
    with np.errstate(over="ignore"):  # finite inputs far apart: the MSE is inf
        mse = float(np.mean((arr_a - arr_b) ** 2))
    if mse <= 0.0:
        return PSNR_CAP
    if mse == math.inf:
        return -math.inf
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP)
