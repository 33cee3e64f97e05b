"""Transmittance-error sweeps, ground-truth oracles, and image metrics.

The two-splat sweep places isotropic splats at (mu_x, -offset_y) and
(mu_x, +offset_y) over the unit pixel centered at the origin and compares each
blend mode's residual transmittance against the exact integral of the product
transmittance over the pixel. Splats are ProjectedCloud rows, front to back
by depth. The truth is closed-form for up to two axis-aligned splats, each
subset's product of alphas integrated per axis, with the integrals of every
subset and axis from one gaussian_i0 call. For the rest it takes nested
quadrature, reading each splat in one form: its y marginal times its
conditional Gaussian in x about the ridge, the conditional mean x given y.
That path imports scipy.integrate on first use, so a process that only
renders, or only takes the closed form, never loads it.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .blending import (EPSILON_DEFAULT, PreparedSplats, blend_pixel, check_epsilon, check_mode,
                       check_ss_k, prepare_splats)
from .scene import ProjectedCloud
from .splatmath import ISO_TOL, gaussian_i0, has_frame

PSNR_CAP = 99.0
# the truth's quadrature breaks the pixel at center +- sigma * 4^k below this
# width (px) too: with breaks at the centers alone, splats of sigma 1e-3 px
# came out exact but one of 1e-4 px was missed by 1e-4
_QUAD_LADDER_PX = 0.01


def iso_cloud(mu, sigma, opacity, color, depth) -> ProjectedCloud:
    """Isotropic screen-space splats, covariance sigma^2 I: mu (m, 2), color
    (m, 3), sigma (> 0 and drawable by splatmath.has_frame: about 1.3e-81 to
    9.7e76), opacity and depth (m,)."""
    sigma = np.asarray(sigma, dtype=float)
    bad = np.flatnonzero(~(sigma > 0.0))  # NaN too
    if bad.size:
        raise ValueError(f"sigma[{bad[0]}] is {sigma.flat[bad[0]]}, must be > 0")
    for i, s in enumerate(sigma.ravel().tolist()):
        if not has_frame(s * s, 0.0, s * s):
            raise ValueError(f"sigma[{i}] is {s!r}, its covariance sigma^2 I has no drawable frame")
    var = np.square(sigma)
    return ProjectedCloud(mu2d=mu, cxx=var, cxy=np.zeros_like(var), cyy=var.copy(),
                          depth=depth, opacity=opacity, color=color)


def two_splat_config(mu_x: float, sigma: float, opacity: float = 1.0,
                     offset_y: float = 0.1) -> ProjectedCloud:
    """The paper sweep's symmetric pair: red at -offset_y in front of green."""
    return iso_cloud([[mu_x, -offset_y], [mu_x, offset_y]], [sigma, sigma], [opacity, opacity],
                     [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [1.0, 2.0])


def _product_gaussian(subset):
    """One subset of axis-aligned splats, each a (mu row, (sigma_x, sigma_y),
    opacity) row of Python floats, as one Gaussian: the product of their
    opacities and, per axis, the (prefactor, sigma, mean) of the product of
    their alphas, all Python floats. Per axis, the product of two
    unnormalized Gaussians of sigmas p and q is one of sigma pq / hypot(p, q)
    about the sigma-weighted mean, times a prefactor that falls with their
    distance."""
    (mu0, sigma0, _), rest = subset[0], subset[1:]
    axes = []
    for ax in range(2):
        a, p, pref = mu0[ax], sigma0[ax], 1.0
        for mu, sigma, _ in rest:
            b, q = mu[ax], sigma[ax]
            d = a - b  # squared by *, which gives inf where float ** raises
            pref *= math.exp(-(d * d) / (2.0 * (p * p + q * q)))
            a, p = (a * q * q + b * p * p) / (p * p + q * q), p * q / math.hypot(p, q)
        axes.append((pref, p, a))
    return math.prod([o for _, _, o in subset]), axes


def true_residual_transmittance(splats: ProjectedCloud, method: str = "auto") -> float:
    """Exact integral of the product transmittance over the unit pixel at 0.

    Closed form for up to two axis-aligned splats, |cxy| <= ISO_TOL *
    sqrt(cxx * cyy): the expansion of prod(1 - alpha_i) over the subsets of
    the splats, each subset's product of Gaussians integrated per axis, all
    subsets' x and y integrals in one gaussian_i0 call.
    Otherwise, or always when method is "quad", nested adaptive quadrature
    to 1e-10, over y outside and x inside. Each splat is its y marginal
    times its conditional Gaussian in x, so at height y the inner integrand
    is a product of 1D Gaussians. The quadrature breaks at each splat's
    center y and at its ridge, the conditional mean x given y, so that a
    thin splat is not stepped over. It imports scipy.integrate on first use.
    TypeError for anything but a ProjectedCloud; ValueError naming the first
    splat that prepare_splats culls (splatmath.has_frame), so that the truth
    integrates exactly the splats that every blend mode draws.
    """
    if not isinstance(splats, ProjectedCloud):
        raise TypeError(f"true_residual_transmittance takes a ProjectedCloud, not "
                        f"{type(splats).__name__}; pass the cloud that prepare_splats was given")
    if method not in ("auto", "quad"):
        raise ValueError(f"unknown method {method!r}")
    cloud = list(zip(splats.mu2d.tolist(), splats.cxx.tolist(), splats.cxy.tolist(),
                     splats.cyy.tolist(), splats.opacity.tolist()))
    closed = method == "auto" and len(cloud) <= 2  # and every splat axis-aligned
    for i, (_, xx, xy, yy, _) in enumerate(cloud):
        if not has_frame(xx, xy, yy):
            raise ValueError(f"covariance of splat {i}, ({xx!r}, {xy!r}, {yy!r}), has no "
                             "drawable frame, so every blend mode culls it")
        closed = closed and abs(xy) <= ISO_TOL * math.sqrt(xx * yy)
    if closed:
        params = [(mu, (math.sqrt(xx), math.sqrt(yy)), o) for mu, xx, _, yy, o in cloud]
        subsets = [s for r in range(1, len(params) + 1) for s in itertools.combinations(params, r)]
        folds = [_product_gaussian(s) for s in subsets]
        # one I0 call for every subset and axis; I0 works element by element, so no bit moves
        factors = [f for _, axes in folds for f in axes]  # (pref, sigma, mean), x then y
        sigma, mean = np.array([p for _, p, _ in factors]), np.array([a for _, _, a in factors])
        i0 = iter(gaussian_i0(sigma, -0.5 - mean, 0.5 - mean).tolist())
        total = 1.0
        for subset, (term, axes) in zip(subsets, folds):
            for pref, _, _ in axes:
                term *= pref * next(i0)
            total += (-1.0) ** len(subset) * term
        return total

    # per splat, one row (mx, my, g, sx, sy, o): its y marginal, sigma sy about
    # my, times its conditional Gaussian in x, sigma sx about the ridge
    # x = mx + (y - my) * g. No inverse covariance, whose exponent cancels on a
    # needle; every square is d * d, since a float ** 2 raises OverflowError
    rows = [(mx, my, xy / yy, math.sqrt((xx * yy - xy * xy) / yy), math.sqrt(yy), o)
            for (mx, my), xx, xy, yy, o in cloud]

    from scipy import integrate  # here, not at the top: no render and no closed form needs it

    def quad(f, centers):
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
        return integrate.quad(f, -0.5, 0.5, points=points or None, epsabs=1e-12,
                              epsrel=1e-10, limit=50 + len(points))[0]

    def row_integral(y):
        # at height y each splat is a 1D Gaussian in x: amplitude a, ridge r
        line = []
        for mx, my, g, sx, sy, o in rows:
            d = (y - my) / sy
            line.append((mx + (y - my) * g, sx, o * math.exp(-0.5 * d * d)))

        def product_t(x):
            t = 1.0
            for r, sx, a in line:
                d = (x - r) / sx
                t *= 1.0 - a * math.exp(-0.5 * d * d)
            return t

        return quad(product_t, [(r, sx) for r, sx, _ in line])

    return quad(row_integral, [(my, sy) for _, my, _, _, sy, _ in rows])


def transmittance_error(mode: str, splats, *, epsilon: float = EPSILON_DEFAULT,
                        ss_k: int = 256, true_value: float) -> float:
    """Delta T = residual transmittance of the mode at the unit pixel at the
    origin minus true_value, the exact one.

    splats is a ProjectedCloud or a PreparedSplats (TypeError otherwise);
    true_value, finite, is true_residual_transmittance of the ProjectedCloud.
    """
    if not isinstance(splats, (ProjectedCloud, PreparedSplats)):
        raise TypeError(f"transmittance_error takes a ProjectedCloud or a PreparedSplats, not "
                        f"{type(splats).__name__}")
    if not math.isfinite(true_value):
        raise ValueError(f"true_value must be finite, not {true_value!r}")
    _, t_mode = blend_pixel(splats, (0.0, 0.0), mode, epsilon=epsilon, ss_k=ss_k)
    return t_mode - true_value


@dataclass(frozen=True)
class SweepConfig:
    """Two-splat sweep over mu_x or sigma with everything else held fixed:
    mu_x spaced linearly, sigma logarithmically."""

    sweep_var: str  # "mu_x" or "sigma"
    start: float
    stop: float
    step: float  # linear step over mu_x; log10 step over sigma
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
        # mu_x is read by a sigma sweep only
        fixed = ("mu_x", "offset_y") if self.sweep_var == "sigma" else ("offset_y",)
        for name in ("start", "stop", "step") + fixed:
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if not self.step > 0:
            raise ValueError("step must be > 0")
        if self.stop < self.start:
            raise ValueError("empty sweep range")
        # the truth and iso_cloud take sigma > 0 only, and log spacing start > 0
        if self.sweep_var == "sigma" and not self.start > 0:
            raise ValueError(f"a sigma sweep needs start > 0, not {self.start!r}")
        if self.sweep_var == "mu_x" and not self.sigma > 0:
            raise ValueError(f"sigma must be > 0, not {self.sigma!r}")
        # the grid, built once: mu_x itself, or log10 of sigma
        lo, hi = ((self.start, self.stop) if self.sweep_var == "mu_x"
                  else (math.log10(self.start), math.log10(self.stop)))
        # where arange's span overflows, a quarter scale is exact but for a subnormal lo
        q = 1.0 if math.isfinite(hi + 0.5 * self.step - lo) else 0.25
        try:
            grid = np.arange(lo * q, hi * q + 0.5 * self.step * q, self.step * q)
        except (ValueError, MemoryError) as err:  # NumPy sizes it before allocating
            raise ValueError(f"start {self.start!r}, stop {self.stop!r} and step {self.step!r} "
                             f"make a grid too large for one array: {err}") from None
        with np.errstate(over="ignore"):  # an inf value is rejected below
            grid = 10.0 ** grid if self.sweep_var == "sigma" else np.append(lo, grid[1:] / q)
        object.__setattr__(self, "_grid", grid)
        for s in grid.tolist() if self.sweep_var == "sigma" else [self.sigma]:
            if not has_frame(s * s, 0.0, s * s):
                raise ValueError(f"sigma {s!r}: its covariance sigma^2 I has no drawable frame")
        if not math.isfinite(grid[-1]):  # a mu_x past the float range
            raise ValueError(f"mu_x grid of start {self.start!r} and step {self.step!r} overflows")
        if not 0.0 <= self.opacity <= 1.0:  # NaN too
            raise ValueError(f"opacity must be in [0, 1], not {self.opacity!r}")
        if not isinstance(self.modes, tuple) or not self.modes:
            raise ValueError(f"modes must be a non-empty tuple of mode names, not {self.modes!r}")
        try:
            for mode in self.modes:
                check_mode(mode)
        except ValueError as err:
            raise ValueError(f"modes {self.modes!r}: {err}") from None
        check_epsilon(self.epsilon)
        check_ss_k(self.ss_k)

    def values(self) -> np.ndarray:
        """A copy of the grid, built once: the mu_x or the sigma values."""
        return self._grid.copy()


def paper_mu_sweep(**overrides) -> SweepConfig:
    """mu_x in [-3, 3] step 0.05 at sigma = 1."""
    kw = dict(sweep_var="mu_x", start=-3.0, stop=3.0, step=0.05, sigma=1.0)
    kw.update(overrides)
    return SweepConfig(**kw)


def paper_sigma_sweep(**overrides) -> SweepConfig:
    """sigma log-spaced in [0.05, 5] at mu_x = 0.5."""
    kw = dict(sweep_var="sigma", start=0.05, stop=5.0, step=0.05, mu_x=0.5)
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
