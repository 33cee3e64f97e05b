"""Transmittance-error sweeps, ground-truth oracles, and image metrics.

The two-splat sweep places isotropic splats at (mu_x, -offset_y) and
(mu_x, +offset_y) over the unit pixel centered at the origin and compares each
blend mode's residual transmittance against the exact integral of the product
transmittance over the pixel. Splats are ProjectedCloud rows, front to back
by depth.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .blending import EPSILON_DEFAULT, blend_pixel, prepare_splats
from .scene import ProjectedCloud
from .splatmath import gaussian_moment_k

PSNR_CAP = 99.0
_ISO_TOL = 1e-12


def iso_cloud(mu, sigma, opacity, color, depth) -> ProjectedCloud:
    """Isotropic screen-space splats, covariance sigma^2 I: mu (m, 2), color
    (m, 3), sigma, opacity and depth (m,)."""
    var = np.square(np.asarray(sigma, dtype=float))
    return ProjectedCloud(mu2d=mu, cxx=var, cxy=np.zeros_like(var), cyy=var.copy(),
                          depth=depth, opacity=opacity, color=color)


def two_splat_config(mu_x: float, sigma: float, opacity: float = 1.0,
                     offset_y: float = 0.1) -> ProjectedCloud:
    """The paper sweep's symmetric pair: red at -offset_y in front of green."""
    return iso_cloud([[mu_x, -offset_y], [mu_x, offset_y]], [sigma, sigma], [opacity, opacity],
                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0])


def _iso_params(splats: ProjectedCloud) -> list:
    """(mu row, sigma, opacity) per splat; sigma and opacity as Python floats."""
    out = []
    for mu, xx, xy, yy, o in zip(splats.mu2d, splats.cxx.tolist(), splats.cxy.tolist(),
                                 splats.cyy.tolist(), splats.opacity.tolist()):
        if abs(xy) > _ISO_TOL * xx or abs(xx - yy) > _ISO_TOL * xx:
            raise ValueError("closed form requires isotropic splats")
        out.append((mu, math.sqrt(xx), o))
    return out


def _alpha_integral_iso(mu, sigma, o) -> float:
    # integral of o * exp(-|x-mu|^2 / 2 sigma^2) over [-0.5, 0.5]^2
    ix = gaussian_moment_k(0, sigma, -0.5 - mu[0], 0.5 - mu[0])
    iy = gaussian_moment_k(0, sigma, -0.5 - mu[1], 0.5 - mu[1])
    return o * float(ix) * float(iy)


def _pair_integral_iso(mu1, s1, o1, mu2, s2, o2) -> float:
    # integral of alpha1*alpha2: the product of two unnormalized isotropic
    # Gaussians is itself an unnormalized Gaussian, separable per axis with
    # 1/sc^2 = 1/s1^2 + 1/s2^2 and a distance-dependent prefactor.
    sc = s1 * s2 / math.hypot(s1, s2)
    total = o1 * o2
    for ax in range(2):
        a, b = mu1[ax], mu2[ax]
        muc = (a * s2 * s2 + b * s1 * s1) / (s1 * s1 + s2 * s2)
        pref = math.exp(-((a - b) ** 2) / (2.0 * (s1 * s1 + s2 * s2)))
        total *= pref * float(gaussian_moment_k(0, sc, -0.5 - muc, 0.5 - muc))
    return total


def true_residual_transmittance(splats: ProjectedCloud, method: str = "auto") -> float:
    """Exact integral of the product transmittance over the unit pixel at 0.

    Closed form for up to two isotropic splats (expansion of (1-a1)(1-a2) with
    the product-of-Gaussians identity); adaptive 2D quadrature to 1e-10
    otherwise. method forces "closed" or "quad".
    """
    if method not in ("auto", "closed", "quad"):
        raise ValueError(f"unknown method {method!r}")
    use_closed = method == "closed"
    if method == "auto":
        try:
            _iso_params(splats)
            use_closed = len(splats) <= 2
        except ValueError:
            use_closed = False
    if use_closed:
        params = _iso_params(splats)
        if len(params) > 2:
            raise ValueError("closed form covers at most two splats")
        total = 1.0
        for mu, s, o in params:
            total -= _alpha_integral_iso(mu, s, o)
        if len(params) == 2:
            (mu1, s1, o1), (mu2, s2, o2) = params
            total += _pair_integral_iso(mu1, s1, o1, mu2, s2, o2)
        return total

    invs = [np.linalg.inv([[xx, xy], [xy, yy]])
            for xx, xy, yy in zip(splats.cxx, splats.cxy, splats.cyy)]

    def product_t(y, x):
        t = 1.0
        for mu, inv, o in zip(splats.mu2d, invs, splats.opacity):
            dx, dy = x - mu[0], y - mu[1]
            q = inv[0, 0] * dx * dx + 2.0 * inv[0, 1] * dx * dy + inv[1, 1] * dy * dy
            t *= 1.0 - o * math.exp(-0.5 * q)
        return t

    val, _ = integrate.dblquad(product_t, -0.5, 0.5, -0.5, 0.5,
                               epsabs=1e-12, epsrel=1e-10)
    return val


def transmittance_error(mode: str, splats, *, epsilon: float = EPSILON_DEFAULT,
                        ss_k: int = 256, true_value: float) -> float:
    """Delta T = residual transmittance of the mode at the unit pixel at the
    origin minus true_value, the exact one.

    splats is whatever blend_pixel takes: a ProjectedCloud or a PreparedSplats.
    true_residual_transmittance of the ProjectedCloud gives true_value.
    """
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
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if self.stop < self.start:
            raise ValueError("empty sweep range")
        if not self.modes:
            raise ValueError("at least one mode required")

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
    """10 log10(1 / MSE) over linear rgb; capped at 99 dB (identical images)."""
    arr_a = np.asarray(a.rgb if hasattr(a, "rgb") else a, dtype=float)
    arr_b = np.asarray(b.rgb if hasattr(b, "rgb") else b, dtype=float)
    if arr_a.shape != arr_b.shape:
        raise ValueError(f"dimension mismatch: {arr_a.shape} vs {arr_b.shape}")
    mse = float(np.mean((arr_a - arr_b) ** 2))
    if mse <= 0.0:
        return PSNR_CAP
    return min(10.0 * math.log10(1.0 / mse), PSNR_CAP)
