"""Front-to-back full-frame rendering.

The frame is one blending.blend_grid call over the pixel centers. blend_grid
cuts it into near-square tiles of whole pixels, walks the depth-sorted splats
once per tile and steps each splat only over the pixel centers inside its
box, the part of its support box where the mode's step body can change a
point. A pixel's result depends on its own center alone, so the tile
size bounds memory (ss expands every pixel into ss_k**2 sub-points) without
changing any pixel.

A frame's rgb is composited over black; fb.rgb + fb.residual[..., None] * bg
composites it over any other background bg.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .blending import SUPPORT_SIGMA, PreparedSplats, blend_grid, check_mode, prepare_splats
from .scene import Camera, SplatCloud, check_image_size, project_cloud

# diagonal covariance floor (px^2) for center mode; the window modes and the
# supersample reference run unfiltered
LOWPASS_CENTER = 0.3


@dataclass
class RenderStats:
    n_input: int = 0
    n_culled_near: int = 0
    n_culled_nonfinite: int = 0
    n_culled_degenerate: int = 0
    # splats whose support box holds at least one pixel center; a mode that
    # skips low alpha steps some of them over no pixel
    n_drawn: int = 0
    wall_time: float = 0.0


@dataclass
class Framebuffer:
    """Linear-light rgb composited over black, plus the residual transmittance
    that survived blending: fb.rgb + fb.residual[..., None] * bg is the frame
    over the background bg."""

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
        if not np.all((self.residual >= 0) & (self.residual <= 1)):  # NaN fails both
            raise ValueError("residual transmittance must lie in [0, 1]")


def render_projected(
    prep: PreparedSplats,
    width: int,
    height: int,
    mode: str = "gb",
    *,
    ss_k: int = 16,
) -> Framebuffer:
    """Render splats prepared by prepare_splats, whose support_sigma sets their
    truncation (render uses SUPPORT_SIGMA); any other input is a TypeError.
    width and height are integers >= 1. Points terminate at EPSILON_DEFAULT;
    blend_grid takes any other epsilon."""
    if not isinstance(prep, PreparedSplats):
        raise TypeError(f"render_projected takes a PreparedSplats, not {type(prep).__name__}; "
                        "prepare it with prepare_splats(projected, SUPPORT_SIGMA)")
    check_image_size(width, height)
    xs = np.arange(width) + 0.5
    ys = np.arange(height) + 0.5
    rgb, res = blend_grid(prep, xs, ys, mode, ss_k=ss_k)
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
    ss_k: int = 16,
) -> Framebuffer:
    """Project a 3D scene and render it in the given blend mode.

    center projects with the LOWPASS_CENTER screen-space floor, the window
    modes and supersampling with none; for another floor, render the output
    of project_cloud(..., lowpass=...) through prepare_splats and
    render_projected.
    """
    check_mode(mode)
    t0 = time.perf_counter()
    proj = project_cloud(scene, camera, lowpass=LOWPASS_CENTER if mode == "center" else 0.0)
    prep = prepare_splats(proj, SUPPORT_SIGMA)
    fb = render_projected(prep, camera.width, camera.height, mode, ss_k=ss_k)
    fb.stats.n_input = len(scene)
    fb.stats.n_culled_near = proj.n_culled_near
    fb.stats.n_culled_nonfinite = proj.n_culled_nonfinite
    fb.stats.wall_time = time.perf_counter() - t0
    return fb
