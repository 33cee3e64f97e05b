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

and the new box mass equals the old mass minus w by construction. Only where
the splat is wider than 1 / GUARD_LO window sides on both axes, so that alpha
at the box center stands for its average, the point takes the scalar fallback:
its box keeps its geometry and its value is scaled by 1 - alpha, the
center-mode alpha, unclamped, at the box center. Each step sends each point
down one branch.

The window state is axis-first, as rgb is channel-major (3, p): the centers
and the sides are (2, p) planes of x and y, the values (p,). The splat data
is splat-last (PreparedSplats), so a moment update takes each per-axis
quantity once for both axes, as a (u, v) plane: one frame product, one
gaussian_moments_012 call, one divide for the four moment quotients, and one
write per state array. The guard is one comparison over both planes.

blend_grid is the one implementation of every mode: one front-to-back walk
over the splats in which a splat is stepped only over the grid points of its
box, where the step body can change a point. The gb body has no skip and
takes the support box. The center body (which the ss sub-blends run) and the
integrated body skip alpha below ALPHA_SKIP, as the 3DGS rasterizer does, and
take the part of the support box where that alpha can reach ALPHA_SKIP, a box
made conservative for their rounding (PreparedSplats.support_rects). tiles is
the one cut of a grid, for blend_grid and the rasterizer alike, into tiles of
at most _TILE_POINTS blend points (ss counts every sub-point); _steps alone
decides a tile's steps. A splat is stepped once per tile its box crosses, and
a box crosses fewer square tiles than full-width row bands of the same area.
There is no binning: each tile walks the whole depth-sorted list. Each step is
a _Rect or a _Gather of live points that carries its splat index j, and each
step body is written once over both forms. Both read a state array at their
points on its trailing (point) axis (get), and a per-splat stack at j with the
point axes its values broadcast over (of).

A large splat (a box over 256 points) is one vectorized step over the live
points of its box, which it fills well on its own. That step is dense when
at least half of the box's points are live: it reads and writes basic-slice
views of the box in the state, its point axis reshaped to the grid (a _Rect),
and masks the done points out of every write: rgb, channel-major, takes one
in-place add of (w * mask) * color, each other state array one masked copy.
Any other box gathers its live points by a flat index array and scatters back
(a _Gather), for two reasons measured on a 2-vCPU x86-64 VM: on the 1 x 1
grids of blend_pixel the dense form's fixed cost made the paper sweeps 4-8%
slower, and on a box that is mostly done it spends an alpha on every done
point (integrated on two_plane at x3, with 45% of box points done, took 1.3x
as long). In gb, when the live windows of a box take both branches, each
branch's points take the form they would as a box of their own. A run of at
least _MIN_RUN consecutive small splats is blended in depth layers, in
batches of at most _TILE_POINTS (point, splat) pairs: a batch's pairs are
stable-sorted by point, and layer k is one gathered step over every point
with a k-th splat in the batch, with one splat index per point.

Each point still meets the same splats in the same order through the same
elementwise arithmetic, and a point outside a body's box is one that body
would leave as it is, so neither the boxes, nor the tiles, nor the schedule,
nor a step's form changes a pixel. The rasterizer calls blend_grid on each
tile of a frame, in processes of its own (raster), and blend_pixel on a
single pixel, where every drawn splat is small. blend_grid runs in the
calling process.
tests/_reference.py replays the same arithmetic one splat and one window at a
time (update_window, scalar_alpha_*) as the tests' oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, isqrt

import numpy as np

from splatlab.scene import ProjectedCloud, is_count
from splatlab.splatmath import gaussian_i0, gaussian_moments_012, screen_frame

EPSILON_DEFAULT = 1e-4  # classic termination threshold on remaining transmittance
ALPHA_MAX = 0.99  # scalar-mode clamp
ALPHA_SKIP = 1.0 / 255.0  # scalar-mode skip threshold
MIN_SIDE = 1e-6  # pixels; window sides never collapse below this
GUARD_LO = 0.1  # window side / sigma below this on both axes -> scalar fallback
# rasterizer truncation: the support box is the bounding box of
# SUPPORT_SIGMA * (sigma1 |e1| + sigma2 |e2|), up to SUPPORT_SIGMA * sqrt(2) sigma per axis
SUPPORT_SIGMA = 3.0

MODES = ("center", "integrated", "gb", "ss")

# The blend_grid schedule (see _steps); none of these changes a pixel.
_LARGE_POINTS = 256  # a box over this many grid points fills a vectorized step by itself
_MIN_RUN = 8  # shorter runs save fewer steps than their pair sorts cost
_TILE_POINTS = 1 << 14  # blend points per tile (pixels times ss_k**2 in ss), pairs per run batch

# The skip boxes (see PreparedSplats.support_rects); neither changes a pixel.
_BOX_ULPS = 64  # rounding allowance of a skip box's q in units of eps (its test fails at 0)
_EPS = float(np.finfo(float).eps)
_NO_POINTS = np.empty(0, dtype=np.intp)  # a step's ended points when none ended


def check_mode(mode) -> None:
    """ValueError unless mode names one of MODES."""
    if mode not in MODES:
        raise ValueError(f"unknown blend mode {mode!r}; use one of {list(MODES)}")


@dataclass
class PreparedSplats:
    """Depth-sorted splats with precomputed screen-paired frames and support boxes.

    Every per-splat array but aabb ends in the splat axis, as every blend
    state array ends in its point axis: mu[c] and color[c] are coordinate and
    channel c. axes[k] (2, m) is the unit vector paired with the window's k-th
    side, x for k = 0 (the eigenvector within 45 degrees of screen x: the
    major axis exactly when cxx >= cyy, so on ties) and y for k = 1, with
    axes[k, c] its screen component c and axes[k, k] > 0; sigma[k] is the
    sigma along axes[k] (splatmath.screen_frame). reach[k] is the half-width
    along screen axis k, sqrt(cxx) or sqrt(cyy), of the bounding box of the
    ellipse q = d' C^-1 d <= 1, widened for rounding (see support_rects).
    The inv rows xx, xy, yy are the inverse covariance of the center Gaussian
    (_alpha_center), which serves center, the ss sub-blends and the gb
    fallback. aabb rows are the closed support boxes (x1, y1, x2, y2) at
    prepare_splats' support_sigma, infinite when untruncated; a splat changes
    no point outside its box. They stay point-major, as their readers take
    them (perfbench's _work_counts unpacks aabb.T).

    Each step body steps a splat over the points of its own box, by
    support_rects: gb over the support box; center (which the ss sub-blends
    run) and integrated, which skip alpha below ALPHA_SKIP, over the part of
    the support box where that alpha can reach ALPHA_SKIP.
    """

    mu: np.ndarray  # (2, m)
    color: np.ndarray  # (3, m)
    opacity: np.ndarray  # (m,)
    sigma: np.ndarray  # (2, m)
    axes: np.ndarray  # (2, 2, m)
    aabb: np.ndarray  # (m, 4)
    reach: np.ndarray  # (2, m)
    inv: np.ndarray  # (3, m)
    n_culled_degenerate: int = 0  # splats culled by prepare_splats: screen_frame's lam2 <= 0

    def __len__(self) -> int:
        return self.opacity.size

    def support_rects(self, xs: np.ndarray, ys: np.ndarray, skip: float = 0.0,
                      footprint: float = 0.0):
        """Per splat, the index ranges [x0, x1) of xs and [y0, y1) of ys (both
        ascending) whose coordinates lie in its closed box; returns x0, x1,
        y0, y1.

        The box is aabb. For a step body that skips alpha below skip > 0,
        where alpha is o exp(-q / 2) averaged over a square of half-side
        footprint in the splat frame (0: sampled at the point), it is cut to
        where that alpha can reach skip: the bounding box of the ellipse q <=
        r^2 = 2 ln(o / skip), r * reach[k] along screen axis k, grown by the
        square's bounding box, footprint * (|axes[0]| + |axes[1]|). The float
        error of q grows like eps * lam1 / lam2 in the center form and like
        eps * sigma1 / 1 px in the erfc differences of integrated alpha;
        prepare_splats widens reach by _BOX_ULPS eps times their sum, infinite
        where that allowance is not below 1, and r^2 gets _BOX_ULPS eps for the
        rounding of log, exp and the product with o, so that no point outside
        the box passes the skip. skip = 0 leaves aabb.
        """
        lo, hi = self.aabb.T[:2], self.aabb.T[2:]
        if skip > 0.0:
            # o <= skip passes nowhere; its r is sqrt(_BOX_ULPS eps), not 0, so
            # that an infinite reach gives an infinite box, not NaN
            r2 = 2.0 * np.log(np.maximum(self.opacity / skip, 1.0)) + _BOX_ULPS * _EPS
            h = np.sqrt(r2) * self.reach
            if footprint:
                ext = np.abs(self.axes)
                h += footprint * (ext[0] + ext[1])
            lo, hi = np.maximum(lo, self.mu - h), np.minimum(hi, self.mu + h)
        return (
            xs.searchsorted(lo[0], side="left"),
            xs.searchsorted(hi[0], side="right"),
            ys.searchsorted(lo[1], side="left"),
            ys.searchsorted(hi[1], side="right"),
        )


def prepare_splats(projected: ProjectedCloud, support_sigma: float = np.inf) -> PreparedSplats:
    """Solve each splat's screen-paired frame once, cull those with no drawable
    frame (screen_frame's lam2 <= 0), and depth-sort (stable) for blending.

    support_sigma (> 0) sets the per-splat support boxes the kernels test
    evaluation points against; the default, inf, leaves the Gaussians
    untruncated for direct pixel blending, while the rasterizer prepares at
    SUPPORT_SIGMA. Anything but a ProjectedCloud is a TypeError.
    """
    if not isinstance(projected, ProjectedCloud):
        raise TypeError(f"prepare_splats takes a ProjectedCloud, not {type(projected).__name__}")
    if not support_sigma > 0:  # NaN too
        raise ValueError(f"support_sigma must be > 0, not {support_sigma!r}")
    lam1, lam2, det, sigma, axes = screen_frame(projected.cxx, projected.cxy, projected.cyy)
    keep = np.flatnonzero(lam2 > 0.0)
    # Stable sort keeps input order on depth ties.
    order = keep[np.argsort(projected.depth[keep], kind="stable")]
    mu, color = projected.mu2d.T.take(order, axis=1), projected.color.T.take(order, axis=1)
    opacity = projected.opacity[order]
    cxx, cxy, cyy = projected.cxx[order], projected.cxy[order], projected.cyy[order]
    lam1, lam2, det = lam1[order], lam2[order], det[order]
    sigma, axes = sigma[..., order], axes[..., order]

    # every component of ext is > 0, so an infinite support_sigma gives infinite boxes
    ext = sigma[:, None] * np.abs(axes)
    ext = support_sigma * (ext[0] + ext[1])
    aabb = np.concatenate((mu - ext, mu + ext)).T  # rows x1, y1, x2, y2
    # the rounding allowance of support_rects' skip boxes, with the major sigma
    # sqrt(lam1); an infinite lam1 / lam2 gives an infinite reach
    with np.errstate(over="ignore"):
        tol = _BOX_ULPS * _EPS * (lam1 / lam2 + np.sqrt(lam1))
    widen = np.divide(1.0, 1.0 - tol, out=np.full_like(tol, np.inf), where=tol < 1.0)
    reach = np.sqrt(np.array((cxx, cyy)) * widen)

    return PreparedSplats(
        mu=mu,
        color=color,
        opacity=opacity,
        sigma=sigma,
        axes=axes,
        aabb=aabb,
        reach=reach,
        inv=np.array((cyy, cxy, cxx)) / det,  # xx, xy, yy
        n_culled_degenerate=len(projected) - keep.size,
    )


def _alpha_center(prep: PreparedSplats, j, dx, dy) -> np.ndarray:
    """Unclamped alpha of splat j sampled at offsets (dx, dy) = point - mu;
    j is one splat index or one per point."""
    inv = prep.inv
    q = inv[0, j] * dx * dx - 2.0 * inv[1, j] * dx * dy + inv[2, j] * dy * dy
    return prep.opacity[j] * np.exp(-0.5 * q)


def _alpha_integrated(prep: PreparedSplats, j, dx, dy) -> np.ndarray:
    """Unclamped alpha of splat j integrated over the unit square around each
    point, at offsets (dx, dy) = point - mu; j is one splat index or one per point."""
    # the offsets in the splat frame, (u, v) = (d . axes[0], d . axes[1]),
    # elementwise (not @) so results do not depend on the batch size
    a = prep.axes[..., j]
    u, v = dx * a[0, 0] + dy * a[0, 1], dx * a[1, 0] + dy * a[1, 1]
    sigma = prep.sigma[..., j]
    # one I0 call per axis: one call over both made I0 on a 120 x 120 box
    # 1.25x as slow (2-vCPU x86-64 VM; its temporaries outgrow the 2 MiB L2)
    return prep.opacity[j] * gaussian_i0(sigma[0], u - 0.5, u + 0.5) * gaussian_i0(
        sigma[1], v - 0.5, v + 0.5)


def _trailing(a: np.ndarray, key):
    """The index of key on the trailing (point) axis of a 1-D or 2-D array:
    key itself on a 1-D one, where NumPy takes its fast path (a[..., key]
    took 6x as long on one point, NumPy 2.4 on a 2-vCPU x86-64 VM)."""
    return key if a.ndim == 1 else (slice(None), key)


class _Gather:
    """A step's points as a flat index array act into the blend state, all
    of them live, and j the splat each meets: one index for every point, or
    one per point. Every state array holds its points on its trailing axis
    (rgb (3, p), the gb window planes (2, p), values (p,)), and get reads a
    state array at the points on that axis. Reads gather copies, writes
    scatter.

    A step body reaches its points only through the members this class
    shares with _Rect: j, of (a per-splat array at j, axis-first, shaped to
    broadcast against get), offsets (point - mu as x and y), get (a state
    array at the points), alive (a mask cut to the live points), within (the
    live points under a mask as a step of their own), points (their flat
    indices) and write (the step's updates)."""

    def __init__(self, act: np.ndarray, j):
        self.act, self.j = act, j
        self.at = (..., j) if isinstance(j, np.ndarray) else (..., j, None)

    def _masked(self, mask):
        return self.j[mask] if isinstance(self.j, np.ndarray) else self.j

    def of(self, a: np.ndarray) -> np.ndarray:
        return a[self.at]

    def offsets(self, points: np.ndarray, mu: np.ndarray):
        d = self.get(points) - self.of(mu)
        return d[0], d[1]

    def get(self, a: np.ndarray) -> np.ndarray:
        return a[_trailing(a, self.act)]

    def alive(self, mask: np.ndarray) -> np.ndarray:
        return mask

    def within(self, mask: np.ndarray) -> _Gather:
        return _Gather(self.act[mask], self._masked(mask))

    def points(self, where: np.ndarray) -> np.ndarray:
        return self.act[where] if np.count_nonzero(where) else _NO_POINTS

    def write(self, where, rgb: np.ndarray, w: np.ndarray, color: np.ndarray, *pairs) -> None:
        """rgb += w * color[:, j], and a = v for each (a, v) of pairs, at the
        points the mask where keeps, which read color as of does; with where
        None every point updates and nothing is compacted."""
        sel = self
        if where is not None:
            sel, w = self.within(where), w[where]
            pairs = [(a, v[_trailing(v, where)]) for a, v in pairs]
        rgb[:, sel.act] += w * sel.of(color)
        for a, v in pairs:
            a[_trailing(a, sel.act)] = v


class _Rect:
    """A step's points as the rectangle key = (rows, cols) of the grid whose
    flat indices are index, all meeting splat j: basic-slice views of the
    blend state, each state array's trailing point axis reshaped to
    index.shape (get), with the mask live of the points that are not done.
    Reads are views, so a body writes a state array only after its last read
    of it; writes copy where a mask of live points holds (live itself when
    none is given), and rgb adds color[:, j] * (w * mask) over the whole
    rectangle, where a masked point adds an exact zero."""

    def __init__(self, key: tuple, live: np.ndarray, index: np.ndarray, j: int):
        self.key, self.live, self.index, self.j = key, live, index, j
        self.at = (..., j, None, None)

    def of(self, a: np.ndarray) -> np.ndarray:
        return a[self.at]

    def offsets(self, points: np.ndarray, mu: np.ndarray):
        # points is a separable grid: x along its first row and y down its
        # first column broadcast to the whole rectangle
        grid = self.get(points)
        return grid[0, 0] - mu[0, self.j], grid[1, :, :1] - mu[1, self.j]

    def get(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(a.shape[:-1] + self.index.shape)[(..., *self.key)]

    def alive(self, mask: np.ndarray) -> np.ndarray:
        return mask & self.live

    def within(self, mask: np.ndarray):
        return _rect_points(self.key, mask, self.index, self.j)

    def points(self, where: np.ndarray) -> np.ndarray:
        return self.index[self.key][where] if np.count_nonzero(where) else _NO_POINTS

    def write(self, where, rgb: np.ndarray, w: np.ndarray, color: np.ndarray, *pairs) -> None:
        where = self.live if where is None else where
        # one in-place add over the channel-major rgb: a masked copy per
        # channel took 1.5-3.4x as long on boxes of 17 x 17 to 128 x 128
        out = self.get(rgb)
        out += self.of(color) * (w * where)
        for a, v in pairs:
            np.copyto(self.get(a), v, where=where)


def _rect_points(key: tuple, live: np.ndarray, index: np.ndarray, j: int):
    """The points under live of the rectangle key = (rows, cols) of the grid
    of flat indices index, as a step of splat j in the form the module
    docstring's rule gives: a _Rect or a _Gather."""
    if live.size > _LARGE_POINTS and 2 * np.count_nonzero(live) >= live.size:
        return _Rect(key, live, index, j)
    return _Gather(index[key][live], j)


class _ScalarBlend:
    """Classic compositing: one transmittance scalar per point, alpha clamped
    at ALPHA_MAX and skipped below skip (ALPHA_SKIP). alpha_of takes alpha
    over a square of half-side footprint in the splat frame around each point
    (0 for a point sample). skip is the one skip rule: step composites alpha
    >= skip, and blend_grid steps a splat over the box where its alpha can
    reach skip (PreparedSplats.support_rects of skip and footprint)."""

    skip = ALPHA_SKIP

    def __init__(self, points: np.ndarray, alpha_of, footprint: float):
        self.points = points
        self.alpha_of = alpha_of
        self.footprint = footprint
        self.rgb = np.zeros((3, points.shape[1]))  # channel-major
        self.t = np.ones(points.shape[1])

    def step(self, prep: PreparedSplats, sel, epsilon: float) -> np.ndarray:
        """Composite the splats sel.j at the live points of the step sel;
        returns the points it terminates."""
        j = sel.j
        alpha = np.minimum(self.alpha_of(prep, j, *sel.offsets(self.points, prep.mu)),
                           ALPHA_MAX)
        use = sel.alive(alpha >= self.skip)
        n_use = np.count_nonzero(use)
        if not n_use:
            return _NO_POINTS
        t = sel.get(self.t)
        tn = t * (1.0 - alpha)
        # Classic convention: a splat that would push T below epsilon is not
        # composited; the point terminates at its previous T.
        kill = use & (tn < epsilon)
        ended = sel.points(kill)
        if ended.size:
            use = use & ~kill
        elif n_use == use.size:
            use = None  # every point composites
        sel.write(use, self.rgb, alpha * t, prep.color, (self.t, tn))
        return ended

    def residual(self) -> np.ndarray:
        return self.t


class _WindowBlend:
    """Gaussian blending: per-point transmittance windows. A step sends each
    point down one branch: _fallback when the splat is wider than
    1 / GUARD_LO window sides on both axes, _moments otherwise. Neither
    skips (skip = footprint = 0), so a splat is stepped over its support
    box."""

    skip = footprint = 0.0

    def __init__(self, points: np.ndarray):
        self.rgb = np.zeros((3, points.shape[1]))  # channel-major
        self.wc = points.copy()  # window centers (x, y), axis-first like points
        self.ws = np.ones_like(self.wc)  # window sides
        self.wv = np.ones(points.shape[1])  # window values

    def step(self, prep: PreparedSplats, sel, epsilon: float) -> np.ndarray:
        """Blend the splats sel.j into the windows of the live points of the
        step sel; returns the points whose remaining mass drops below
        epsilon. A branch with no points is not called; when both have
        points, each takes its own."""
        ok = sel.get(self.ws) / sel.of(prep.sigma) >= GUARD_LO
        ok = ok[0] | ok[1]
        trip = sel.alive(~ok)
        if not np.count_nonzero(trip):
            return self._moments(prep, sel, epsilon)
        ok = sel.alive(ok)
        if not np.count_nonzero(ok):
            return self._fallback(prep, sel, epsilon)
        return np.concatenate((self._moments(prep, sel.within(ok), epsilon),
                               self._fallback(prep, sel.within(trip), epsilon)))

    def _moments(self, prep: PreparedSplats, sel, epsilon: float) -> np.ndarray:
        """In-guard points: moment-match a new box to t * (1 - alpha) over the
        window, by the closed-form Gaussian moments in the splat frame. Each
        quantity of an axis is computed once for both, as a (u, v) plane."""
        mu, axes = sel.of(prep.mu), sel.of(prep.axes)
        d = sel.get(self.wc) - mu
        uv = d[0] * axes[:, 0] + d[1] * axes[:, 1]  # (u, v) = (d . axes[0], d . axes[1])
        ws = sel.get(self.ws)
        t = sel.get(self.wv)
        mass = t * (ws[0] * ws[1])
        h = 0.5 * ws
        i0, i1, i2 = gaussian_moments_012(sel.of(prep.sigma), uv - h, uv + h)
        to = t * prep.opacity[sel.j]
        # Rows of the moment numerators: mean u, mean v, mean square u, mean
        # square v. Their Gaussian terms are (t o I_k(u)) I_0(v) for u and
        # (t o I_0(u)) I_k(v) for v, in that operand order.
        left = to * np.concatenate((i1[:1], i0[:1], i2[:1], i0[:1]))
        w_int = left[1] * i0[1]
        m0 = np.maximum(mass - w_int, 0.0)

        # Splats with zero integrated weight leave the window untouched. Every
        # other splat is composited; the one that drops the mass below epsilon
        # still contributes, and the point terminates after it.
        upd = sel.alive(w_int != 0.0)
        n_upd = np.count_nonzero(upd)
        if not n_upd:
            return _NO_POINTS
        num = mass * np.concatenate((uv, uv * uv + ws * ws / 12.0)) - left * np.concatenate(
            (i0[1:], i1[1:], i0[1:], i2[1:]))
        # Where m0 is +0.0 the window is empty: every quotient by m0 reads 0,
        # so both variances are 0 and vn = m0 / (l_u * l_v) = +0.0.
        q = np.divide(num, m0, out=np.zeros_like(num), where=m0 > 0.0)
        mean = q[:2]
        sides = np.maximum(np.sqrt(12.0 * np.maximum(q[2:] - mean * mean, 0.0)), MIN_SIDE)
        vn = m0 / (sides[0] * sides[1])
        over = vn > 1.0
        if np.count_nonzero(over):
            sides = np.where(over, sides * np.sqrt(np.where(over, vn, 1.0)), sides)
            vn = np.where(over, 1.0, vn)
        sel.write(None if n_upd == upd.size else upd, self.rgb, w_int, prep.color,
                  (self.wc, mu + mean[0] * axes[0] + mean[1] * axes[1]), (self.ws, sides),
                  (self.wv, vn))
        return sel.points(upd & (m0 < epsilon))

    def _fallback(self, prep: PreparedSplats, sel, epsilon: float) -> np.ndarray:
        """Guard-tripped points: scale the value by the center-mode alpha,
        unclamped, at the window center; the window keeps its geometry."""
        d = sel.get(self.wc) - sel.of(prep.mu)
        alpha = _alpha_center(prep, sel.j, d[0], d[1])
        t = sel.get(self.wv)
        ws = sel.get(self.ws)
        area = ws[0] * ws[1]
        tn = t * (1.0 - alpha)
        sel.write(None, self.rgb, (t * alpha) * area, prep.color, (self.wv, tn))
        return sel.points(sel.alive(tn * area < epsilon))

    def residual(self) -> np.ndarray:
        """Remaining transmittance mass of each window."""
        return self.wv * self.ws[0] * self.ws[1]


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


def _layers(pt, js):
    """Depth layers of a run's pairs, given in depth order, as gathered
    steps: layer k pairs every point with its k-th splat of the run. The sort
    by point is stable, so each point still meets its splats in depth order.

    Both sort keys are uint16, which sorts by radix, and exact: a point index
    is below the tile's at most _TILE_POINTS points (blend_grid), and a rank
    below the batch's at most _TILE_POINTS pairs, or one small splat's at
    most _LARGE_POINTS (_steps); both bounds are at most 1 << 16."""
    if pt.size == 0:
        return
    order = np.argsort(pt.astype(np.uint16), kind="stable")
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
        yield _Gather(pt[lo:hi], js[lo:hi])
        lo = hi


def _steps(ranges, live: np.ndarray):
    """The blend steps of a grid in depth order: each a _Rect or a _Gather of
    the points marked in live (ny, nx) when the step is taken, inside the
    index ranges = (x0, x1, y0, y1) of the grid, one rectangle per splat (a
    step body's boxes, PreparedSplats.support_rects).

    A large splat is one step over its rectangle, and so is each splat of a
    run of fewer than _MIN_RUN consecutive small ones. A longer run is one
    step per depth layer, with one splat index per point, split into batches
    of at most _TILE_POINTS pairs, or of one splat where its box holds more.
    A step with no live point is left out.
    """
    p = live.size
    flat = live.reshape(-1)
    index = np.arange(p).reshape(live.shape)
    x0, x1, y0, y1 = ranges
    nbox = np.maximum(x1 - x0, 0) * np.maximum(y1 - y0, 0)
    drawn = np.flatnonzero(nbox)
    cover = nbox[drawn]
    small = cover <= _LARGE_POINTS
    runs, pair_ends = [], None
    # on a 1 x 1 grid every layer holds one pair, so a run saves no step
    if p > 1 and np.count_nonzero(small) >= _MIN_RUN:
        # [start, stop) of every maximal stretch of consecutive small splats
        edge = np.concatenate(([False], small)) != np.concatenate((small, [False]))
        runs = np.flatnonzero(edge).reshape(-1, 2).tolist()
        pair_ends = np.cumsum(cover)
    rects = np.array([drawn, y0[drawn], y1[drawn], x0[drawn], x1[drawn]]).T.tolist()
    i = 0
    for start, stop in runs + [[drawn.size, drawn.size]]:
        if stop - start < _MIN_RUN:
            start = stop  # too short to repay the sorts: step it splat by splat
        for j, ya, yb, xa, xb in rects[i:start]:
            key = (slice(ya, yb), slice(xa, xb))
            box = live[key]
            if np.count_nonzero(box):
                yield _rect_points(key, box, index, j)
        while start < stop:
            end = min(stop, max(start + 1, int(pair_ends.searchsorted(
                pair_ends[start] - cover[start] + _TILE_POINTS, side="right"))))
            run = drawn[start:end]
            pt, js = _run_pairs(run, x0, x1, y0, live.shape[1], cover[start:end])
            keep = flat[pt]
            for layer in _layers(pt[keep], js[keep]):
                keep = flat[layer.act]
                n_keep = np.count_nonzero(keep)
                if n_keep == keep.size:  # nothing in the layer has ended: no copy
                    yield layer
                elif n_keep:
                    yield layer.within(keep)
            start = end
        i = stop


def check_ss_k(ss_k) -> int:
    """ss_k itself when it is an integer >= 1, not a bool; ValueError naming
    it otherwise."""
    if not is_count(ss_k):
        raise ValueError(f"ss_k must be an integer >= 1, not {ss_k!r}")
    return ss_k


def check_epsilon(epsilon) -> None:
    """ValueError naming epsilon unless it is finite and >= 0; a NaN would
    end no point (tn < nan is always false)."""
    if not (isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, not {epsilon!r}")


def _check_axis(name: str, a: np.ndarray, k: int) -> None:
    """ValueError naming the axis and showing its values unless they are
    finite and non-decreasing, and in ss (k > 1) their k sub-points per pixel
    too, which puts pixel centers at least (k - 1) / k apart; support_rects'
    searchsorted needs both."""
    sub = subsample_axis(a, k) if k > 1 else a
    # ends finite and no step down (a NaN fails every comparison): all finite
    if sub.size and not (isfinite(sub[0]) and isfinite(sub[-1])
                         and (sub.size == 1 or (sub[1:] >= sub[:-1]).all())):
        gap = f", pixel centers at least (k - 1) / k = {(k - 1) / k:g} apart" if k > 1 else ""
        raise ValueError(f"{name} must be finite and non-decreasing{gap}, not {a}")


def _balanced(n: int, most: int) -> int:
    """The size that cuts n >= 1 into the fewest near-equal pieces of at most most >= 1."""
    return -(-n // -(-n // most))


def tiles(nx: int, ny: int, k: int) -> list:
    """The tiles of an ny x nx grid of k * k blend points a pixel, as
    row-major (rows, cols) slice pairs: the whole grid when it holds at most
    _TILE_POINTS blend points, whatever its width; otherwise balanced tiles
    of whole pixels that hold at most that many, or of single pixels where
    one holds more. A tile is at most isqrt(_TILE_POINTS // k**2) pixels
    wide, so a larger grid no wider is cut into bands of rows."""
    if nx * ny * k * k <= _TILE_POINTS:
        return [(slice(0, ny), slice(0, nx))]
    cols = _balanced(nx, max(isqrt(_TILE_POINTS // (k * k)), 1))
    rows = _balanced(ny, max(_TILE_POINTS // (cols * k * k), 1))
    return [(slice(top, top + rows), slice(left, left + cols))
            for top in range(0, ny, rows) for left in range(0, nx, cols)]


def blend_grid(
    prep: PreparedSplats,
    xs,
    ys,
    mode: str,
    epsilon: float = EPSILON_DEFAULT,
    ss_k: int = 16,
):
    """Blend at every point of the separable grid ys x xs, both finite and
    non-decreasing (in ss, the k sub-points of every pixel too: pixel
    centers at least (k - 1) / k apart); ValueError naming the axis otherwise,
    or epsilon unless it is finite and >= 0.

    Returns rgb (ny, nx, 3), composited over black, and residual (ny, nx),
    row-major in y; an empty axis gives empty arrays of those shapes. Each
    tile of tiles(nx, ny, k), one when the grid holds at most _TILE_POINTS
    blend points (sub-points in ss) whatever its width, walks the splats once,
    front to back, in the steps of _steps; an ss pixel that holds more is
    blended in tiles of its sub-point grid. ss blends the k x k sub-points of
    every pixel in center mode and averages each pixel's block; ss_k must be
    an integer >= 1.
    """
    check_mode(mode)
    check_epsilon(epsilon)
    k = check_ss_k(ss_k) if mode == "ss" else 1
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    _check_axis("xs", xs, k)
    _check_axis("ys", ys, k)
    cut = tiles(xs.size, ys.size, k)
    if len(cut) > 1:
        rgb, res = np.empty((ys.size, xs.size, 3)), np.empty((ys.size, xs.size))
        for tile in cut:
            rgb[tile], res[tile] = blend_grid(prep, xs[tile[1]], ys[tile[0]], mode, epsilon, ss_k)
        return rgb, res
    if mode == "ss":
        rgb, t = blend_grid(prep, subsample_axis(xs, k), subsample_axis(ys, k), "center", epsilon)
        return (pixel_blocks(rgb, k).mean(axis=(1, 2)).reshape(ys.size, xs.size, 3),
                pixel_blocks(t, k).mean(axis=(1, 2)).reshape(ys.size, xs.size))

    points = np.empty((2, ys.size, xs.size))  # axis-first, like every state array
    points[0] = xs
    points[1] = ys[:, None]
    points = points.reshape(2, -1)
    p = points.shape[1]
    if mode == "gb":
        blend = _WindowBlend(points)
    elif mode == "center":
        blend = _ScalarBlend(points, _alpha_center, 0.0)
    else:
        blend = _ScalarBlend(points, _alpha_integrated, 0.5)  # the unit pixel

    live = np.ones((ys.size, xs.size), dtype=bool)  # the points not done
    flat_live = live.reshape(-1)
    n_live = p
    # gb squares a window's offsets in the splat frame (uv * uv, and a * a in
    # gaussian_moments_012), which overflow to inf for a window about 1e154 px
    # from an untruncated splat; that splat's weight there is 0, which skips
    # the update. One errstate per walk: an entry costs about 1.5-2.3 us.
    with np.errstate(over="ignore"):
        for step in _steps(prep.support_rects(xs, ys, blend.skip, blend.footprint), live):
            ended = blend.step(prep, step, epsilon)
            if ended.size:
                flat_live[ended] = False
                n_live -= ended.size
                if n_live == 0:
                    break

    return blend.rgb.T.reshape(ys.size, xs.size, 3), blend.residual().reshape(ys.size, xs.size)


def blend_pixel(
    splats,
    pixel,
    mode: str,
    epsilon: float = EPSILON_DEFAULT,
    ss_k: int = 16,
):
    """Blend splats at one pixel, front to back; returns (rgb, residual) as
    blend_grid does, rgb composited over black.

    splats is a ProjectedCloud, prepared here untruncated, or a PreparedSplats
    (TypeError otherwise). pixel gives the pixel's center coordinates (x, y),
    both finite; integrated and gb modes treat the unit square around it as
    the pixel footprint.
    """
    if not isinstance(splats, (ProjectedCloud, PreparedSplats)):
        raise TypeError(f"blend_pixel takes a ProjectedCloud or a PreparedSplats, not "
                        f"{type(splats).__name__}")
    xy = np.asarray(pixel, dtype=float).ravel()
    if xy.size != 2:
        raise ValueError(f"pixel must hold 2 coordinates (x, y), not {pixel!r}")
    if not (isfinite(xy[0]) and isfinite(xy[1])):
        raise ValueError(f"pixel must be finite, not {pixel!r}")
    prep = splats if isinstance(splats, PreparedSplats) else prepare_splats(splats)
    rgb, res = blend_grid(prep, xy[:1], xy[1:], mode, epsilon, ss_k)
    return rgb[0, 0], float(res[0, 0])
