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
support box. It cuts its grid into bands of rows of at most _BAND_POINTS
blend points (ss counts every sub-point), and _steps alone decides the steps
of a band. Each step is a _Rect or a _Gather of live points that carries its
splat index j, and each step body is written once over both forms.

A large splat (a box over 256 points or 1/16 of the grid) is one vectorized
step over the live points of its box, which it fills well on its own. That
step is dense when the box holds over 256 points and at least half of them
are live: it reads and writes basic-slice views of the box in the state
reshaped to the grid (a _Rect), and masks the done points out of every
write. Any other box gathers its live points by a flat index array and
scatters back (a _Gather), for two reasons measured on a 2-vCPU x86-64 VM: on
the 1 x 1 grids of blend_pixel the dense form's fixed cost made the paper
sweeps 4-8% slower, and on a box that is mostly done it spends an alpha on
every done point (integrated on two_plane at x3, with 45% of box points done,
took 1.3x as long). In gb, when the live windows of a box take both branches,
each branch's points take the form they would as a box of their own. A run of
consecutive small splats is blended in depth layers: its (point, splat) pairs
are stable-sorted by point, and layer k is one gathered step over every point
with a k-th splat in the run, with one splat index per point.

Each point still meets the same splats in the same order through the same
elementwise arithmetic, so neither the bands, nor the schedule, nor a step's
form changes a pixel. The rasterizer calls blend_grid on the whole frame,
blend_pixel on a single pixel, where every splat is large.
tests/_reference.py replays the same arithmetic one splat and one window at a
time (update_window, scalar_alpha_*) as the tests' oracle.
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
_BAND_POINTS = 1 << 14  # blend points per band (pixels times ss_k**2 in ss): bounds band memory


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


def _alpha_center(prep: PreparedSplats, j, dx, dy) -> np.ndarray:
    """Unclamped alpha of splat j sampled at offsets (dx, dy) = point - mu;
    j is one splat index or one per point."""
    q = (
        prep.inv_xx[j] * dx * dx
        - 2.0 * prep.inv_xy[j] * dx * dy
        + prep.inv_yy[j] * dy * dy
    )
    return prep.opacity[j] * np.exp(-0.5 * q)


def _frame(prep: PreparedSplats, j, dx, dy):
    """Offsets (dx, dy) = point - mu in splat j's principal frame: (u, v) =
    (d . a1, d . a2); j is one splat index or one per point."""
    a1, a2 = prep.a1[j], prep.a2[j]
    # elementwise (not @) so results do not depend on the batch size
    return dx * a1[..., 0] + dy * a1[..., 1], dx * a2[..., 0] + dy * a2[..., 1]


def _alpha_integrated(prep: PreparedSplats, j, dx, dy) -> np.ndarray:
    """Unclamped alpha of splat j integrated over the unit square around each
    point; j is one splat index or one per point."""
    u, v = _frame(prep, j, dx, dy)
    return prep.opacity[j] * gaussian_i0(prep.s1[j], u - 0.5, u + 0.5) * gaussian_i0(
        prep.s2[j], v - 0.5, v + 0.5)


class _Gather:
    """A step's points as a flat index array act into the (p, ...) blend
    state, all of them live, and j the splat each meets: one index for every
    point, or one per point. Reads gather copies, writes scatter.

    A step body reaches its points only through the members this class
    shares with _Rect: j, offsets (point - mu as x and y), get (a state array
    at the points), alive (a mask cut to the live points), within (the live
    points under a mask as a step of their own), points (their flat indices)
    and write (the step's updates)."""

    def __init__(self, act: np.ndarray, j):
        self.act, self.j = act, j

    def _masked(self, mask):
        return self.j[mask] if isinstance(self.j, np.ndarray) else self.j

    def offsets(self, points: np.ndarray, mu: np.ndarray):
        d = points[self.act] - mu
        return d[:, 0], d[:, 1]

    def get(self, a: np.ndarray) -> np.ndarray:
        return a[self.act]

    def alive(self, mask: np.ndarray) -> np.ndarray:
        return mask

    def within(self, mask: np.ndarray) -> _Gather:
        return _Gather(self.act[mask], self._masked(mask))

    def points(self, where: np.ndarray) -> np.ndarray:
        return self.act[where]

    def write(self, where, rgb: np.ndarray, w: np.ndarray, color: np.ndarray, *pairs) -> None:
        """rgb += w * color[j], and a = v for each (a, v) of pairs, at the
        points the mask where keeps (every point when None)."""
        keep = slice(None) if where is None else where
        ids = self.act[keep]
        rgb[ids] += w[keep][:, None] * color[self._masked(keep)]
        for a, v in pairs:
            a[ids] = v[keep]


class _Rect:
    """A step's points as the rectangle key = (rows, cols) of the grid whose
    flat indices are index, all meeting splat j: basic-slice views of the
    (p, ...) blend state reshaped to index.shape + (...), with the mask live
    of the points that are not done. Reads are views, so a body writes a
    state array only after its last read of it; writes copy where a mask of
    live points holds (live itself when none is given)."""

    def __init__(self, key: tuple, live: np.ndarray, index: np.ndarray, j: int):
        self.key, self.live, self.index, self.j = key, live, index, j

    def offsets(self, points: np.ndarray, mu: np.ndarray):
        # points is a separable grid: x along its first row and y down its
        # first column broadcast to the whole rectangle
        grid = self.get(points)
        return grid[0, :, 0] - mu[0], grid[:, :1, 1] - mu[1]

    def get(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(self.index.shape + a.shape[1:])[self.key]

    def alive(self, mask: np.ndarray) -> np.ndarray:
        return mask & self.live

    def within(self, mask: np.ndarray):
        return _rect_points(self.key, mask, self.index, self.j)

    def points(self, where: np.ndarray) -> np.ndarray:
        return self.index[self.key][where]

    def write(self, where, rgb: np.ndarray, w: np.ndarray, color: np.ndarray, *pairs) -> None:
        # rgb channel by channel, as a masked copy of the sum: a mask broadcast
        # over the channels, or np.add(..., where=), ran 2.6-3x slower (numpy 2.4)
        where = self.live if where is None else where
        view = self.get(rgb)
        for a, v in (*((rgb[:, c], view[..., c] + w * color[self.j, c]) for c in range(3)), *pairs):
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
    at ALPHA_MAX and skipped below ALPHA_SKIP."""

    def __init__(self, points: np.ndarray, alpha_of):
        self.points = points
        self.alpha_of = alpha_of
        self.rgb = np.zeros((points.shape[0], 3))
        self.t = np.ones(points.shape[0])

    def step(self, prep: PreparedSplats, sel, epsilon: float) -> np.ndarray:
        """Composite the splats sel.j at the live points of the step sel;
        returns the points it terminates."""
        j = sel.j
        alpha = np.minimum(self.alpha_of(prep, j, *sel.offsets(self.points, prep.mu[j])),
                           ALPHA_MAX)
        use = sel.alive(alpha >= ALPHA_SKIP)
        if not use.any():
            return sel.points(use)
        t = sel.get(self.t)
        tn = t * (1.0 - alpha)
        # Classic convention: a splat that would push T below epsilon is not
        # composited; the point terminates at its previous T.
        kill = use & (tn < epsilon)
        comp = use & ~kill
        sel.write(comp, self.rgb, alpha * t, prep.color, (self.t, tn))
        return sel.points(kill)

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

    def step(self, prep: PreparedSplats, sel, epsilon: float) -> np.ndarray:
        """Blend the splats sel.j into the windows of the live points of the
        step sel; returns the points whose remaining mass drops below
        epsilon. A branch with no points is not called; when both have
        points, each takes its own."""
        ws = sel.get(self.ws)
        r1, r2 = ws[..., 0] / prep.s1[sel.j], ws[..., 1] / prep.s2[sel.j]
        ok = (r1 >= GUARD_LO) & (r1 <= GUARD_HI) & (r2 >= GUARD_LO) & (r2 <= GUARD_HI)
        trip = sel.alive(~ok)
        if not trip.any():
            return self._moments(prep, sel, epsilon)
        ok = sel.alive(ok)
        if not ok.any():
            return self._fallback(prep, sel, epsilon)
        return np.concatenate((self._moments(prep, sel.within(ok), epsilon),
                               self._fallback(prep, sel.within(trip), epsilon)))

    def _moments(self, prep: PreparedSplats, sel, epsilon: float) -> np.ndarray:
        """In-guard points: moment-match a new box to t * (1 - alpha) over the
        window, by the closed-form Gaussian moments in the splat frame."""
        j = sel.j
        d = sel.get(self.wc) - prep.mu[j]
        u, v = _frame(prep, j, d[..., 0], d[..., 1])
        ws = sel.get(self.ws)
        l1, l2 = ws[..., 0], ws[..., 1]
        t = sel.get(self.wv)
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
        upd = sel.alive(w_int != 0.0)
        if not upd.any():
            return sel.points(upd)
        pos = m0 > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            mean_u = np.where(pos, (mass * u - to * i1u * i0v) / m0, 0.0)
            mean_v = np.where(pos, (mass * v - to * i0u * i1v) / m0, 0.0)
            m2u = mass * (u * u + l1 * l1 / 12.0) - to * i2u * i0v
            m2v = mass * (v * v + l2 * l2 / 12.0) - to * i0u * i2v
            var_u = np.where(pos, np.maximum(m2u / m0 - mean_u * mean_u, 0.0), 0.0)
            var_v = np.where(pos, np.maximum(m2v / m0 - mean_v * mean_v, 0.0), 0.0)
            l1n = np.maximum(np.sqrt(12.0 * var_u), MIN_SIDE)
            l2n = np.maximum(np.sqrt(12.0 * var_v), MIN_SIDE)
            vn = np.where(pos, m0 / (l1n * l2n), 0.0)
        over = vn > 1.0
        if over.any():
            grow = np.sqrt(np.where(over, vn, 1.0))
            l1n = np.where(over, l1n * grow, l1n)
            l2n = np.where(over, l2n * grow, l2n)
            vn = np.where(over, 1.0, vn)
        mu, a1, a2 = prep.mu[j], prep.a1[j], prep.a2[j]
        sel.write(upd, self.rgb, w_int, prep.color,
                  *((self.wc[:, c], mu[..., c] + mean_u * a1[..., c] + mean_v * a2[..., c])
                    for c in (0, 1)), (self.ws[:, 0], l1n), (self.ws[:, 1], l2n), (self.wv, vn))
        return sel.points(upd & (m0 < epsilon))

    def _fallback(self, prep: PreparedSplats, sel, epsilon: float) -> np.ndarray:
        """Guard-tripped points: scale the value by the raw scalar alpha at
        the window center; the window keeps its geometry."""
        j = sel.j
        d = sel.get(self.wc) - prep.mu[j]
        u, v = _frame(prep, j, d[..., 0], d[..., 1])
        alpha = prep.opacity[j] * np.exp(-0.5 * ((u / prep.s1[j]) ** 2 + (v / prep.s2[j]) ** 2))
        t = sel.get(self.wv)
        ws = sel.get(self.ws)
        area = ws[..., 0] * ws[..., 1]
        tn = t * (1.0 - alpha)
        sel.write(None, self.rgb, (t * alpha) * area, prep.color, (self.wv, tn))
        return sel.points(sel.alive(tn * area < epsilon))

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
    """Depth layers of a run's pairs, given in depth order, as gathered
    steps: layer k pairs every point with its k-th splat of the run. The sort
    by point is stable, so each point still meets its splats in depth order."""
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
        yield _Gather(pt[lo:hi], js[lo:hi])
        lo = hi


def _steps(prep: PreparedSplats, xs: np.ndarray, ys: np.ndarray, live: np.ndarray):
    """The blend steps of the grid ys x xs in depth order: each a _Rect or a
    _Gather of the points marked in live (ny, nx) when the step is taken.

    A large splat is one step over its support rectangle, and so is each
    splat of a run of fewer than _MIN_RUN consecutive small ones. A longer
    run is one step per depth layer, with one splat index per point, split
    where its pairs exceed _RUN_PAIRS. A step with no live point is left out.
    """
    p = live.size
    flat = live.reshape(-1)
    index = np.arange(p).reshape(live.shape)
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
    i = 0
    for start, stop in runs + [[drawn.size, drawn.size]]:
        if stop - start < _MIN_RUN:
            start = stop  # too short to repay the sorts: step it splat by splat
        for j, ya, yb, xa, xb in rects[i:start]:
            key = (slice(ya, yb), slice(xa, xb))
            box = live[key]
            if box.any():
                yield _rect_points(key, box, index, j)
        while start < stop:
            end = min(stop, max(start + 1, int(pair_ends.searchsorted(
                pair_ends[start] - cover[start] + _RUN_PAIRS, side="right"))))
            run = drawn[start:end]
            pt, js = _run_pairs(run, x0, x1, y0, xs.size, cover[start:end])
            keep = flat[pt]
            for layer in _layers(pt[keep], js[keep], p):
                keep = flat[layer.act]
                if keep.all():  # nothing in the layer has ended: no copy
                    yield layer
                elif keep.any():
                    yield layer.within(keep)
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
    row-major in y; an empty axis gives empty arrays of those shapes. The
    grid is cut into bands of whole rows that hold at most _BAND_POINTS blend
    points (sub-points in ss), or of single rows where one row holds more;
    an ss pixel row that holds more is blended in bands of sub-point rows.
    Each band walks the splats once, front to back, in the steps of _steps.
    ss blends the k x k sub-points of every pixel in center mode and
    averages each pixel's block.
    """
    mode = canonical_mode(mode)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    k = ss_k if mode == "ss" else 1
    if k < 1:
        raise ValueError("supersample factor must be >= 1")
    rows = max(_BAND_POINTS // (max(xs.size, 1) * k * k), 1)
    if ys.size > rows:
        rgb, res = np.empty((ys.size, xs.size, 3)), np.empty((ys.size, xs.size))
        for top in range(0, ys.size, rows):
            band = slice(top, top + rows)
            rgb[band], res[band] = blend_grid(prep, xs, ys[band], mode, epsilon, ss_k)
        return rgb, res
    if mode == "ss":
        rgb, t = blend_grid(prep, subsample_axis(xs, k), subsample_axis(ys, k), "center", epsilon)
        return (pixel_blocks(rgb, k).mean(axis=(1, 2)).reshape(ys.size, xs.size, 3),
                pixel_blocks(t, k).mean(axis=(1, 2)).reshape(ys.size, xs.size))

    points = np.empty((ys.size, xs.size, 2))
    points[..., 0] = xs
    points[..., 1] = ys[:, None]
    points = points.reshape(-1, 2)
    p = points.shape[0]
    if mode == "gb":
        blend = _WindowBlend(points)
    else:
        blend = _ScalarBlend(points, _alpha_center if mode == "center" else _alpha_integrated)

    live = np.ones((ys.size, xs.size), dtype=bool)  # the points not done
    flat_live = live.reshape(-1)
    n_live = p
    for step in _steps(prep, xs, ys, live):
        ended = blend.step(prep, step, epsilon)
        if ended.size:
            flat_live[ended] = False
            n_live -= ended.size
            if n_live == 0:
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
