"""Front-to-back full-frame rendering.

The frame is blended in bands of whole pixel rows by blending.blend_grid,
which walks the depth-sorted splats once per band and lets each splat update
only the pixel centers inside its support box. A pixel's result depends on
its own center alone, so the band size bounds memory (ss expands every pixel
into ss_k**2 sub-points) without changing any pixel.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blending import (EPSILON_DEFAULT, SUPPORT_SIGMA, PreparedSplats, blend_grid, canonical_mode,
                       prepare_splats)
from .scene import Camera, SplatCloud, project_cloud

# diagonal covariance floor (px^2) for center mode; the window modes and the
# supersample reference run unfiltered
LOWPASS_CENTER = 0.3

# blend points per band (pixels times ss_k**2 in ss mode); bounds band memory
_BAND_POINTS = 1 << 14


@dataclass
class RenderStats:
    n_input: int = 0
    n_culled_near: int = 0
    n_culled_nonfinite: int = 0
    n_culled_degenerate: int = 0
    n_drawn: int = 0  # splats whose support box holds at least one pixel center
    wall_time: float = 0.0


@dataclass
class Framebuffer:
    """Linear-light rgb plus the residual transmittance that survived blending."""

    rgb: np.ndarray  # (h, w, 3)
    residual: np.ndarray  # (h, w)
    stats: RenderStats = field(default_factory=RenderStats)

    def __post_init__(self):
        self.rgb = np.asarray(self.rgb, dtype=float)
        self.residual = np.asarray(self.residual, dtype=float)
        if self.rgb.ndim != 3 or self.rgb.shape[2] != 3:
            raise ValueError("rgb must have shape (h, w, 3)")
        if self.residual.shape != self.rgb.shape[:2]:
            raise ValueError("residual shape must match rgb height and width")
        if not np.all(np.isfinite(self.rgb)) or np.any(self.rgb < 0):
            raise ValueError("rgb must be finite and nonnegative")
        if np.any(self.residual < 0) or np.any(self.residual > 1):
            raise ValueError("residual transmittance must lie in [0, 1]")


def render_projected(
    projected,
    width: int,
    height: int,
    mode: str = "gb",
    *,
    epsilon: float = EPSILON_DEFAULT,
    ss_k: int = 16,
    background=(0.0, 0.0, 0.0),
) -> Framebuffer:
    """Render already-projected splats: a ProjectedCloud, prepared here at
    SUPPORT_SIGMA, or a PreparedSplats."""
    if width <= 0 or height <= 0:
        raise ValueError("image dimensions must be positive")
    mode = canonical_mode(mode)
    prep = projected if isinstance(projected, PreparedSplats) else prepare_splats(projected, SUPPORT_SIGMA)
    xs = np.arange(width) + 0.5
    ys = np.arange(height) + 0.5
    k = max(ss_k, 1) if mode == "ss" else 1
    rows = max(_BAND_POINTS // (width * k * k), 1)
    rgb = np.empty((height, width, 3))
    res = np.empty((height, width))
    for top in range(0, height, rows):
        band = slice(top, top + rows)
        rgb[band], res[band] = blend_grid(prep, xs, ys[band], mode, background, epsilon, ss_k)

    fb = Framebuffer(rgb=rgb, residual=res)
    x0, x1, y0, y1 = prep.support_rects(xs, ys)
    fb.stats.n_drawn = int(np.count_nonzero((x0 < x1) & (y0 < y1)))
    fb.stats.n_culled_degenerate = prep.n_culled_degenerate
    return fb


def render(
    scene: SplatCloud,
    camera: Camera,
    mode: str = "gb",
    *,
    epsilon: float = EPSILON_DEFAULT,
    ss_k: int = 16,
    background=(0.0, 0.0, 0.0),
    lowpass: float | None = None,
) -> Framebuffer:
    """Project a 3D scene and render it in the given blend mode.

    lowpass=None picks the per-mode default: the 0.3 px^2 screen-space floor
    for center, none for the window modes and supersampling.
    """
    mode = canonical_mode(mode)
    if lowpass is None:
        lowpass = LOWPASS_CENTER if mode == "center" else 0.0
    t0 = time.perf_counter()
    proj = project_cloud(scene, camera, lowpass=lowpass)
    prep = prepare_splats(proj, SUPPORT_SIGMA)
    fb = render_projected(
        prep, camera.width, camera.height, mode,
        epsilon=epsilon, ss_k=ss_k, background=background,
    )
    fb.stats.n_input = len(scene)
    fb.stats.n_culled_near = proj.n_culled_near
    fb.stats.n_culled_nonfinite = proj.n_culled_nonfinite
    fb.stats.wall_time = time.perf_counter() - t0
    return fb
