"""Front-to-back full-frame rendering.

A frame is blended by blending.blend_grid over its pixel centers, tile by
tile in the one cut of a grid, blending.tiles: the whole frame when it holds
at most _TILE_POINTS blend points (pixels, times ss_k**2 in ss), near-square
tiles otherwise. A pixel's result depends on its own center alone, so the
tiles change no pixel, and they are independent work.

Where os.fork exists (POSIX), render_projected deals a frame's T tiles to n
processes, n the least of T and the CPUs the process may run on
(os.sched_getaffinity): band i, tiles iT // n to (i + 1)T // n - 1, goes to
the parent for i = 0 and to a forked child each for the rest, all writing
into one anonymous shared mmap. So a frame forks exactly when it has more
than one tile and more than one CPU is available, and its tiles do not
depend on the CPU count. Any process can blend a band again to the same
bits, so the parent blends again every band whose child did not exit 0 or
whose fork failed: a split frame has the pixels and the exceptions of one
blend_grid call, and a killed child or a failed fork costs only time
(RenderStats.n_bands_redone). The children's memory is not in the parent's
resource.getrusage(RUSAGE_SELF) ru_maxrss; RUSAGE_CHILDREN reports the
largest child's. blend_grid and blend_pixel stay single-process.

A frame's rgb is composited over black; fb.rgb + fb.residual[..., None] * bg
composites it over any other background bg.
"""

from __future__ import annotations

import mmap
import os
import signal
import time
import warnings
from contextlib import suppress
from dataclasses import dataclass, field

import numpy as np

from .blending import (SUPPORT_SIGMA, PreparedSplats, blend_grid, check_mode, check_ss_k,
                       prepare_splats, tiles)
from .scene import Camera, SplatCloud, check_image_size, project_cloud

# diagonal covariance floor (px^2) for center mode; the window modes and the
# supersample reference run unfiltered
LOWPASS_CENTER = 0.3


@dataclass
class RenderStats:
    """What a render did: n_input splats in the scene; n_culled_near and
    n_culled_nonfinite culled by project_cloud (near plane, non-finite
    projection), n_culled_degenerate by prepare_splats; n_drawn whose support
    box holds a pixel center (a mode that skips low alpha steps some over no
    pixel); n_bands_redone bands (a band: one process's run of tiles) no child
    finished; wall_time, render's seconds. render_projected leaves n_input, the
    projection culls and wall_time 0."""

    n_input: int = 0
    n_culled_near: int = 0
    n_culled_nonfinite: int = 0
    n_culled_degenerate: int = 0
    n_drawn: int = 0
    n_bands_redone: int = 0
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


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _blend_bands(prep: PreparedSplats, xs: np.ndarray, ys: np.ndarray, mode: str, ss_k):
    """blend_grid over the tiles of the grid ys x xs, in bands as the module
    docstring says, into one shared buffer. Returns rgb (ny, nx, 3), residual
    (ny, nx) and the number of bands the parent blended again because no child
    finished them. mode and ss_k are checked before any fork."""
    check_mode(mode)
    ny, nx = ys.size, xs.size
    cut = tiles(nx, ny, check_ss_k(ss_k) if mode == "ss" else 1)
    n = min(_cpus(), len(cut)) if hasattr(os, "fork") else 1
    edges = [len(cut) * i // n for i in range(n + 1)]
    out = np.frombuffer(mmap.mmap(-1, 4 * nx * ny * 8), dtype=float)
    rgb, res = out[:3 * nx * ny].reshape(ny, nx, 3), out[3 * nx * ny:].reshape(ny, nx)

    def blend(band: int) -> None:
        for rows, cols in cut[edges[band]:edges[band + 1]]:
            rgb[rows, cols], res[rows, cols] = blend_grid(prep, xs[cols], ys[rows], mode, ss_k=ss_k)

    children = {}  # pid -> band
    redo = []  # bands no child finished
    try:
        for band in range(1, n):
            try:
                with warnings.catch_warnings():
                    # Python >= 3.12 warns that fork in a process with threads
                    # (OpenBLAS starts its own at import) may deadlock the
                    # child. The child runs only element-wise NumPy/SciPy
                    # code, makes no BLAS call, and leaves by os._exit.
                    warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                            DeprecationWarning)
                    pid = os.fork()
            except OSError:
                redo.append(band)
                continue
            if pid == 0:
                try:
                    blend(band)
                    os._exit(0)
                finally:
                    os._exit(1)
            children[pid] = band
        blend(0)
        for pid in list(children):
            if os.waitpid(pid, 0)[1]:
                redo.append(children[pid])
            del children[pid]
    finally:
        for pid in children:
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    for band in sorted(redo):
        blend(band)
    return rgb, res, len(redo)


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
    width and height are integers >= 1 whose frame buffer, 32 bytes a pixel,
    fits in sys.maxsize bytes. Points terminate at EPSILON_DEFAULT; blend_grid
    takes any other epsilon.

    A frame of more than one tile (blending.tiles) on a POSIX process that
    may run on several CPUs is blended in bands of tiles by the parent and
    forked children (module docstring; stats.n_bands_redone). Either way
    this returns the pixels and raises the exceptions of one blend_grid call
    on the whole frame, and reaps every child first."""
    if not isinstance(prep, PreparedSplats):
        raise TypeError(f"render_projected takes a PreparedSplats, not {type(prep).__name__}; "
                        "prepare it with prepare_splats(projected, SUPPORT_SIGMA)")
    check_image_size(width, height)
    xs, ys = np.arange(width) + 0.5, np.arange(height) + 0.5
    rgb, res, n_redone = _blend_bands(prep, xs, ys, mode, ss_k)
    fb = Framebuffer(rgb=rgb, residual=res, stats=RenderStats(n_bands_redone=n_redone))
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
