"""Per-pixel blending kernels.

Four modes share this module:

  center      scalar alpha sampled at the pixel center (the classic scheme)
  integrated  scalar alpha integrated over the unit pixel (erf closed form)
  gb          Gaussian blending: transmittance tracked as a moment-matched
              uniform window
  ss          K x K center-mode sub-blends averaged; the oracle

The window model: each pixel carries a transmittance distribution approximated
by an axis-aligned uniform box (center x, sides l, value t). Blending a splat
computes the zeroth/first/second moments of t * (1 - alpha(x)) over the box in
the splat's principal-axis frame via closed-form Gaussian integrals, then
moment-matches a new box. The integrated weight of the splat is

    w = t * o * I0_{sigma1}(u1, u2) * I0_{sigma2}(v1, v2)

and the new box mass equals the old mass minus w by construction. Where the
window side / sigma leaves [GUARD_LO, GUARD_HI] on either axis, the point takes
the scalar fallback instead: its box keeps its geometry and its value is scaled
by 1 - alpha at the box center. Each step sends each point down one branch.

blend_grid is the one implementation of every mode: one front-to-back walk
over the splats in which a splat updates only the grid points inside its
support box. A large splat (a box over 256 points or 1/16 of the grid) is one
vectorized step over the live points of its box, which it fills well on its
own. A run of consecutive small splats is blended in depth layers: its
(point, splat) pairs are stable-sorted by point, and layer k is one step over
every point with a k-th splat in the run, with one splat index per point.
Each point still meets the same splats in the same order through the same
elementwise arithmetic, so the schedule changes no pixel. The rasterizer
calls blend_grid on bands of pixel rows, blend_pixel on a single pixel, where
every splat is large. tests/_reference.py replays the same arithmetic one
splat and one window at a time (update_window, scalar_alpha_*) as the tests'
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from splatlab.scene import ProjectedCloud
from splatlab.splatmath import eigen2x2_batch, gaussian_i0, gaussian_moments_012

EPSILON_DEFAULT = 1e-4  # classic termination threshold on remaining transmittance
ALPHA_MAX = 0.99  # scalar-mode clamp
ALPHA_SKIP = 1.0 / 255.0  # scalar-mode skip threshold
MIN_SIDE = 1e-6  # pixels; window sides never collapse below this
GUARD_LO = 0.1  # window side / sigma below this -> scalar fallback
GUARD_HI = 1e6  # window side / sigma above this -> scalar fallback
SUPPORT_SIGMA = 3.0  # rasterizer truncation: points beyond this many sigmas ignore the splat

MODES = ("center", "integrated", "gb", "ss")

# The blend_grid schedule (see _steps); none of these changes a pixel.
_LARGE_POINTS = 256  # a box over this many grid points fills a vectorized step by itself
_LARGE_SHARE = 16  # a box over 1/16 of the grid is large too, so a 1x1 grid steps splat by splat
_MIN_RUN = 8  # shorter runs save fewer steps than their pair sorts cost
_RUN_PAIRS = 1 << 14  # pairs per run: bounds run memory and the pairs left to points that end in it


def canonical_mode(mode: str) -> str:
    """mode itself when it names one of MODES; ValueError otherwise."""
    if mode not in MODES:
        raise ValueError(f"unknown blend mode {mode!r}; use one of {list(MODES)}")
    return mode


@dataclass
class PreparedSplats:
    """Depth-sorted splats with precomputed eigen frames and support boxes.

    a1/a2 are the eigenvectors paired with the window's x and y sides (a1 is
    the one within 45 degrees of screen x, the major axis on ties), s1/s2
    their sigmas. aabb rows are the closed support boxes (x1, y1, x2,
    y2) at prepare_splats' support_sigma, infinite when untruncated; a splat
    changes no point outside its box. inv_* entries are the inverse-covariance
    coefficients for center-alpha evaluation.
    """

    mu: np.ndarray  # (m, 2)
    color: np.ndarray  # (m, 3)
    opacity: np.ndarray  # (m,)
    depth: np.ndarray  # (m,)
    a1: np.ndarray  # (m, 2)
    a2: np.ndarray  # (m, 2)
    s1: np.ndarray  # (m,)
    s2: np.ndarray  # (m,)
    aabb: np.ndarray  # (m, 4)
    inv_xx: np.ndarray  # (m,)
    inv_xy: np.ndarray
    inv_yy: np.ndarray
    n_culled_degenerate: int = 0

    def __len__(self) -> int:
        return self.mu.shape[0]

    def support_rects(self, xs: np.ndarray, ys: np.ndarray):
        """Per splat, the index ranges [x0, x1) of xs and [y0, y1) of ys (both
        ascending) whose coordinates lie in its closed aabb; returns x0, x1, y0, y1."""
        bx1, by1, bx2, by2 = self.aabb.T
        return (
            xs.searchsorted(bx1, side="left"),
            xs.searchsorted(bx2, side="right"),
            ys.searchsorted(by1, side="left"),
            ys.searchsorted(by2, side="right"),
        )


def prepare_splats(projected: ProjectedCloud, support_sigma: float | None = None) -> PreparedSplats:
    """Eigen-decompose, cull degenerates, and depth-sort (stable) for blending.

    support_sigma sets the per-splat support boxes the kernels test evaluation
    points against; None (the default for direct pixel blending) leaves the
    Gaussians untruncated, while the rasterizer prepares at SUPPORT_SIGMA.
    """
    mu2d, cxx, cxy, cyy = projected.mu2d, projected.cxx, projected.cxy, projected.cyy
    depth, opacity, color = projected.depth, projected.opacity, projected.color

    lam1, lam2, e1x, e1y = eigen2x2_batch(cxx, cxy, cyy)
    ok = lam2 > 0.0
    n_bad = int(lam2.size - np.count_nonzero(ok))
    if n_bad:
        keep = np.flatnonzero(ok)
        mu2d, depth, opacity, color = mu2d[keep], depth[keep], opacity[keep], color[keep]
        lam1, lam2, e1x, e1y = lam1[keep], lam2[keep], e1x[keep], e1y[keep]
        cxx, cxy, cyy = cxx[keep], cxy[keep], cyy[keep]

    # Stable sort keeps input order on depth ties.
    order = np.argsort(depth, kind="stable")
    mu2d, depth, opacity, color = mu2d[order], depth[order], opacity[order], color[order]
    lam1, lam2, e1x, e1y = lam1[order], lam2[order], e1x[order], e1y[order]
    cxx, cxy, cyy = cxx[order], cxy[order], cyy[order]

    sig1, sig2 = np.sqrt(lam1), np.sqrt(lam2)
    e1 = np.stack([e1x, e1y], axis=1)
    e2 = np.stack([-e1y, e1x], axis=1)
    # Canonical perpendicular sign: largest-magnitude component positive.
    lead = np.where(np.abs(e2[:, 0]) >= np.abs(e2[:, 1]), e2[:, 0], e2[:, 1])
    e2 = np.where((lead < 0.0)[:, None], -e2, e2)

    # 45-degree pairing per splat (window-independent).
    swap = np.abs(e1[:, 0]) < np.abs(e1[:, 1])
    a1 = np.where(swap[:, None], e2, e1)
    a2 = np.where(swap[:, None], e1, e2)
    s1 = np.where(swap, sig2, sig1)
    s2 = np.where(swap, sig1, sig2)

    if support_sigma is None:
        # Untruncated: pixel-level blending sees the full Gaussians. Finite
        # cutoffs are the rasterizer's concern.
        aabb = np.tile([-np.inf, -np.inf, np.inf, np.inf], (mu2d.shape[0], 1))
    else:
        ext = support_sigma * (sig1[:, None] * np.abs(e1) + sig2[:, None] * np.abs(e2))
        aabb = np.concatenate([mu2d - ext, mu2d + ext], axis=1)  # x1, y1, x2, y2

    det = cxx * cyy - cxy * cxy
    return PreparedSplats(
        mu=mu2d,
        color=color,
        opacity=opacity,
        depth=depth,
        a1=a1,
        a2=a2,
        s1=s1,
        s2=s2,
        aabb=aabb,
        inv_xx=cyy / det,
        inv_xy=cxy / det,
        inv_yy=cxx / det,
        n_culled_degenerate=n_bad,
    )


def _alpha_center(prep: PreparedSplats, j, d: np.ndarray) -> np.ndarray:
    """Unclamped alpha of splat j sampled at offsets d = point - mu, (p, 2);
    j is one splat index or one per point."""
    q = (
        prep.inv_xx[j] * d[:, 0] * d[:, 0]
        - 2.0 * prep.inv_xy[j] * d[:, 0] * d[:, 1]
        + prep.inv_yy[j] * d[:, 1] * d[:, 1]
    )
    return prep.opacity[j] * np.exp(-0.5 * q)


def _frame(prep: PreparedSplats, j, d: np.ndarray):
    """Offsets d = point - mu, (p, 2), in splat j's principal frame: (u, v) =
    (d . a1, d . a2); j is one splat index or one per point."""
    a1, a2 = prep.a1[j], prep.a2[j]
    # elementwise (not @) so results do not depend on the batch size
    return d[:, 0] * a1[..., 0] + d[:, 1] * a1[..., 1], d[:, 0] * a2[..., 0] + d[:, 1] * a2[..., 1]


def _alpha_integrated(prep: PreparedSplats, j, d: np.ndarray) -> np.ndarray:
    """Unclamped alpha of splat j integrated over the unit square around each
    point; j is one splat index or one per point."""
    u, v = _frame(prep, j, d)
    return prep.opacity[j] * gaussian_i0(prep.s1[j], u - 0.5, u + 0.5) * gaussian_i0(
        prep.s2[j], v - 0.5, v + 0.5)


def _masked(j, mask: np.ndarray):
    """The splat index of the points kept by mask: j itself when it is one
    index for every point, else its per-point entries under mask."""
    return j[mask] if isinstance(j, np.ndarray) else j


class _ScalarBlend:
    """Classic compositing: one transmittance scalar per point, alpha clamped
    at ALPHA_MAX and skipped below ALPHA_SKIP."""

    def __init__(self, points: np.ndarray, alpha_of):
        self.points = points
        self.alpha_of = alpha_of
        self.rgb = np.zeros((points.shape[0], 3))
        self.t = np.ones(points.shape[0])

    def step(self, prep: PreparedSplats, j, act: np.ndarray, epsilon: float) -> np.ndarray:
        """Composite splat j (one index, or one per point of act) at the live
        points act; returns the points it terminates."""
        alpha = np.minimum(self.alpha_of(prep, j, self.points[act] - prep.mu[j]), ALPHA_MAX)
        use = alpha >= ALPHA_SKIP
        if not use.any():
            return act[:0]
        t = self.t
        tn = t[act] * (1.0 - alpha)
        # Classic convention: a splat that would push T below epsilon is not
        # composited; the point terminates at its previous T.
        kill = use & (tn < epsilon)
        comp = use & ~kill
        ci = act[comp]
        self.rgb[ci] += (alpha[comp] * t[ci])[:, None] * prep.color[_masked(j, comp)]
        t[ci] = tn[comp]
        return act[kill]

    def residual(self) -> np.ndarray:
        return self.t


class _WindowBlend:
    """Gaussian blending: per-point transmittance windows. A step sends each
    point down one branch, _moments in the guard, _fallback outside it."""

    def __init__(self, points: np.ndarray):
        self.rgb = np.zeros((points.shape[0], 3))
        self.wc = points.copy()  # window centers
        self.ws = np.ones((points.shape[0], 2))  # window sides
        self.wv = np.ones(points.shape[0])  # window values

    def step(self, prep: PreparedSplats, j, act: np.ndarray, epsilon: float) -> np.ndarray:
        """Blend splat j (one index, or one per point of act) into the windows
        of the live points act; returns the points whose remaining mass drops
        below epsilon. A branch with no points is not called."""
        r1, r2 = self.ws[act, 0] / prep.s1[j], self.ws[act, 1] / prep.s2[j]
        ok = (r1 >= GUARD_LO) & (r1 <= GUARD_HI) & (r2 >= GUARD_LO) & (r2 <= GUARD_HI)
        if ok.all():
            return self._moments(prep, j, act, epsilon)
        if not ok.any():
            return self._fallback(prep, j, act, epsilon)
        trip = ~ok
        return np.concatenate((self._moments(prep, _masked(j, ok), act[ok], epsilon),
                               self._fallback(prep, _masked(j, trip), act[trip], epsilon)))

    def _moments(self, prep: PreparedSplats, j, act: np.ndarray, epsilon: float) -> np.ndarray:
        """In-guard points: moment-match a new box to t * (1 - alpha) over the
        window, by the closed-form Gaussian moments in the splat frame."""
        u, v = _frame(prep, j, self.wc[act] - prep.mu[j])
        l1, l2 = self.ws[act, 0], self.ws[act, 1]
        t = self.wv[act]
        mass = t * (l1 * l2)
        hu, hv = 0.5 * l1, 0.5 * l2
        i0u, i1u, i2u = gaussian_moments_012(prep.s1[j], u - hu, u + hu)
        i0v, i1v, i2v = gaussian_moments_012(prep.s2[j], v - hv, v + hv)
        to = t * prep.opacity[j]
        w_int = to * i0u * i0v
        m0 = np.maximum(mass - w_int, 0.0)

        # Splats with zero integrated weight leave the window untouched. Every
        # other splat is composited; the one that drops the mass below epsilon
        # still contributes, and the point terminates after it.
        upd = w_int != 0.0
        ui = act[upd]
        if ui.size == 0:
            return ui
        m0u = m0[upd]
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_u = np.where(m0u > 0.0, (mass * u - to * i1u * i0v)[upd] / m0u, 0.0)
            mean_v = np.where(m0u > 0.0, (mass * v - to * i0u * i1v)[upd] / m0u, 0.0)
            m2u = (mass * (u * u + l1 * l1 / 12.0) - to * i2u * i0v)[upd]
            m2v = (mass * (v * v + l2 * l2 / 12.0) - to * i0u * i2v)[upd]
            var_u = np.where(m0u > 0.0, np.maximum(m2u / m0u - mean_u * mean_u, 0.0), 0.0)
            var_v = np.where(m0u > 0.0, np.maximum(m2v / m0u - mean_v * mean_v, 0.0), 0.0)
            l1n = np.maximum(np.sqrt(12.0 * var_u), MIN_SIDE)
            l2n = np.maximum(np.sqrt(12.0 * var_v), MIN_SIDE)
            vn = np.where(m0u > 0.0, m0u / (l1n * l2n), 0.0)
        over = vn > 1.0
        if over.any():
            grow = np.sqrt(np.where(over, vn, 1.0))
            l1n = np.where(over, l1n * grow, l1n)
            l2n = np.where(over, l2n * grow, l2n)
            vn = np.where(over, 1.0, vn)
        ju = _masked(j, upd)
        self.wc[ui] = prep.mu[ju] + mean_u[:, None] * prep.a1[ju] + mean_v[:, None] * prep.a2[ju]
        self.ws[ui, 0], self.ws[ui, 1], self.wv[ui] = l1n, l2n, vn
        self.rgb[ui] += w_int[upd][:, None] * prep.color[ju]
        return ui[m0u < epsilon]

    def _fallback(self, prep: PreparedSplats, j, act: np.ndarray, epsilon: float) -> np.ndarray:
        """Guard-tripped points: scale the value by the raw scalar alpha at
        the window center; the window keeps its geometry."""
        u, v = _frame(prep, j, self.wc[act] - prep.mu[j])
        alpha = prep.opacity[j] * np.exp(-0.5 * ((u / prep.s1[j]) ** 2 + (v / prep.s2[j]) ** 2))
        t = self.wv[act]
        area = self.ws[act, 0] * self.ws[act, 1]
        tn = t * (1.0 - alpha)
        self.wv[act] = tn
        self.rgb[act] += ((t * alpha) * area)[:, None] * prep.color[j]
        return act[tn * area < epsilon]

    def residual(self) -> np.ndarray:
        """Remaining transmittance mass of each window."""
        return self.wv * self.ws[:, 0] * self.ws[:, 1]


def subsample_axis(coords, k: int) -> np.ndarray:
    """k half-texel-offset sub-coordinates per pixel coordinate, pixel-major."""
    off = (np.arange(k) + 0.5) / k - 0.5
    return (np.asarray(coords, dtype=float).reshape(-1, 1) + off).ravel()


def pixel_blocks(sub: np.ndarray, k: int) -> np.ndarray:
    """Regroup a (ny*k, nx*k, ...) sub-point grid into (ny*nx, k, k, ...)
    per-pixel blocks: pixels row-major, then sub-rows (y) outer, sub-columns
    (x) inner."""
    ny, nx = sub.shape[0] // k, sub.shape[1] // k
    blocks = sub.reshape(ny, k, nx, k, *sub.shape[2:]).swapaxes(1, 2)
    return np.ascontiguousarray(blocks).reshape(ny * nx, k, k, *sub.shape[2:])


def _run_pairs(run, x0, x1, y0, nx: int, cover):
    """(point, splat) pairs of a run of splats, splat by splat in depth order
    and row-major inside each splat's support rectangle; cover holds each
    run splat's rectangle size."""
    ends = np.cumsum(cover)
    of = np.repeat(np.arange(run.size), cover)  # each pair's position in the run
    row, col = np.divmod(np.arange(ends[-1]) - (ends - cover)[of], (x1[run] - x0[run])[of])
    return (y0[run] * nx + x0[run])[of] + row * nx + col, run[of]


def _layers(pt, js, p: int):
    """Depth layers of a run's pairs, given in depth order: layer k pairs
    every point with its k-th splat of the run. The sort by point is stable,
    so each point still meets its splats in depth order."""
    if pt.size == 0:
        return
    # a uint16 key sorts by radix
    order = np.argsort(pt.astype(np.uint16) if p <= 1 << 16 else pt, kind="stable")
    pt, js = pt[order], js[order]
    head = np.empty(pt.size, dtype=bool)
    head[0] = True
    np.not_equal(pt[1:], pt[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    rank = np.arange(pt.size) - np.repeat(starts, np.diff(np.append(starts, pt.size)))
    order = np.argsort(rank.astype(np.uint16), kind="stable")
    pt, js = pt[order], js[order]
    lo = 0
    for hi in np.cumsum(np.bincount(rank)).tolist():
        yield pt[lo:hi], js[lo:hi]
        lo = hi


def _steps(prep: PreparedSplats, xs: np.ndarray, ys: np.ndarray, done: np.ndarray):
    """The blend steps of the grid ys x xs in depth order, as (points, j).

    A large splat is one step with j its index, over the points of its
    support rectangle, and so is each splat of a run of fewer than _MIN_RUN
    consecutive small ones. A longer run is one step per depth layer, with j
    one splat index per point, split where its pairs exceed _RUN_PAIRS. Each
    point meets the same splats in the same order either way. Points already
    marked in done are left out of a run's pairs; the caller filters each
    step's points the same way.
    """
    p = done.size
    x0, x1, y0, y1 = prep.support_rects(xs, ys)
    nbox = np.maximum(x1 - x0, 0) * np.maximum(y1 - y0, 0)
    drawn = np.flatnonzero(nbox)
    cover = nbox[drawn]
    small = cover <= min(_LARGE_POINTS, p // _LARGE_SHARE)
    runs, pair_ends = [], None
    if small.any():
        # [start, stop) of every maximal stretch of consecutive small splats
        edge = np.concatenate(([False], small)) != np.concatenate((small, [False]))
        runs = np.flatnonzero(edge).reshape(-1, 2).tolist()
        pair_ends = np.cumsum(cover)
    rects = np.array([drawn, y0[drawn], y1[drawn], x0[drawn], x1[drawn]]).T.tolist()
    index = np.arange(p).reshape(ys.size, xs.size)
    i = 0
    for start, stop in runs + [[drawn.size, drawn.size]]:
        if stop - start < _MIN_RUN:
            start = stop  # too short to repay the sorts: step it splat by splat
        for j, ya, yb, xa, xb in rects[i:start]:
            yield index[ya:yb, xa:xb].ravel(), j
        while start < stop:
            end = min(stop, max(start + 1, int(pair_ends.searchsorted(
                pair_ends[start] - cover[start] + _RUN_PAIRS, side="right"))))
            run = drawn[start:end]
            pt, js = _run_pairs(run, x0, x1, y0, xs.size, cover[start:end])
            keep = ~done[pt]
            yield from _layers(pt[keep], js[keep], p)
            start = end
        i = stop


def blend_grid(
    prep: PreparedSplats,
    xs,
    ys,
    mode: str,
    epsilon: float = EPSILON_DEFAULT,
    ss_k: int = 16,
):
    """Blend at every point of the separable grid ys x xs, both ascending.

    Returns rgb (ny, nx, 3), composited over black, and residual (ny, nx),
    row-major in y. Splats are walked once, front to back; each updates only
    the live points inside its closed support box, an index rectangle found
    by binary search on each axis. Large splats are one step each, over their rectangle; runs of
    small ones are one step per depth layer (_steps), which cuts the steps
    on frames of many small splats from one per splat to about the depth
    complexity. Every point's result depends on its own coordinates and its
    own splat sequence alone, so neither the schedule nor any split of a
    frame into grids changes a pixel. ss blends the k x k sub-points of
    every pixel in center mode and averages each pixel's block.
    """
    mode = canonical_mode(mode)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if mode == "ss":
        if ss_k < 1:
            raise ValueError("supersample factor must be >= 1")
        rgb, t = blend_grid(prep, subsample_axis(xs, ss_k), subsample_axis(ys, ss_k),
                            "center", epsilon)
        return (pixel_blocks(rgb, ss_k).mean(axis=(1, 2)).reshape(ys.size, xs.size, 3),
                pixel_blocks(t, ss_k).mean(axis=(1, 2)).reshape(ys.size, xs.size))

    points = np.empty((ys.size, xs.size, 2))
    points[..., 0] = xs
    points[..., 1] = ys[:, None]
    points = points.reshape(-1, 2)
    p = points.shape[0]
    if mode == "gb":
        blend = _WindowBlend(points)
    else:
        blend = _ScalarBlend(points, _alpha_center if mode == "center" else _alpha_integrated)

    done = np.zeros(p, dtype=bool)
    live = p
    for act, j in _steps(prep, xs, ys, done):
        if live < p:
            keep = ~done[act]
            act, j = act[keep], _masked(j, keep)
        if act.size == 0:
            continue
        ended = blend.step(prep, j, act, epsilon)
        if ended.size:
            done[ended] = True
            live -= ended.size
            if live == 0:
                break

    return blend.rgb.reshape(ys.size, xs.size, 3), blend.residual().reshape(ys.size, xs.size)


def blend_pixel(
    splats,
    pixel,
    mode: str,
    epsilon: float = EPSILON_DEFAULT,
    ss_k: int = 16,
):
    """Blend splats at one pixel, front to back; returns (rgb, residual) as
    blend_grid does, rgb composited over black.

    splats is a ProjectedCloud, prepared here untruncated, or a PreparedSplats.
    pixel gives the pixel's center coordinates; integrated and gb modes treat
    the unit square around it as the pixel footprint.
    """
    prep = splats if isinstance(splats, PreparedSplats) else prepare_splats(splats)
    xy = np.asarray(pixel, dtype=float).reshape(2)
    rgb, res = blend_grid(prep, xy[:1], xy[1:], mode, epsilon, ss_k)
    return rgb[0, 0], float(res[0, 0])
