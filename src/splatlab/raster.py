"""Front-to-back full-frame rendering.

A frame is blended by blending.blend_grid over its pixel centers. blend_grid
cuts it into near-square tiles of whole pixels, walks the depth-sorted splats
once per tile and steps each splat only over the pixel centers inside its
box, the part of its support box where the mode's step body can change a
point. A pixel's result depends on its own center alone, so the tile
size bounds memory (ss expands every pixel into ss_k**2 sub-points) without
changing any pixel.

For the same reason the rows of a frame are independent work. Where os.fork
exists (POSIX), render_projected cuts a frame's rows into n contiguous bands,
n the least of: the CPUs the process may run on (os.sched_getaffinity), the
rows, and the frame's blend points (pixels, times ss_k**2 in ss) over
_BAND_POINTS. The parent blends the first band with blend_grid and n - 1
forked children blend one band each, all writing into one anonymous shared
mmap; with n = 1 that loop is one blend_grid call on the whole frame, and no
fork. A band is a blend_grid call on a sub-grid of rows, whose points meet
the same splats in the same order through the same arithmetic, so the split
changes no pixel. The children's memory is not in the parent's
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
                       prepare_splats)
from .scene import Camera, SplatCloud, check_image_size, project_cloud

# diagonal covariance floor (px^2) for center mode; the window modes and the
# supersample reference run unfiltered
LOWPASS_CENTER = 0.3

# Blend points (pixels, times ss_k**2 in ss) that each band of a split frame
# holds at least: a band of fewer would not repay its fork (about 5 ms on a
# 2-vCPU x86-64 VM, 10 ms at most). A frame of fewer than twice this stays serial.
_BAND_POINTS = 10_000


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


def _cpus() -> int:
    """The number of CPUs this process may run on; 1 where the OS does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _fork_band(blend, band: int) -> tuple[int, int]:
    """Fork a child that runs blend(band) and leaves by os._exit, 0 on success;
    on an exception it writes the exception's type and message to a pipe and
    leaves with 1. Returns the child's pid and the read end of its pipe."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python >= 3.12 warns that fork in a process with threads (OpenBLAS
            # starts its own at import) may deadlock the child. The child runs
            # only element-wise NumPy/SciPy code, makes no BLAS call, and
            # leaves by os._exit.
            warnings.filterwarnings("ignore", r".*use of fork\(\) may lead to deadlocks",
                                    DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(r)
            blend(band)
            code = 0
        except BaseException as exc:
            os.write(w, f"{type(exc).__name__}: {exc}".encode(errors="replace"))
        finally:
            os._exit(code)
    os.close(w)
    return pid, r


def _blend_bands(prep: PreparedSplats, xs: np.ndarray, ys: np.ndarray, mode: str, ss_k):
    """blend_grid over the grid ys x xs, its rows cut into bands as the module
    docstring says, into one shared buffer; returns rgb (ny, nx, 3) and
    residual (ny, nx). A failed child band raises a RuntimeError that names
    it, after every child has been reaped; an exception in the parent kills
    and reaps the children before it propagates. mode and ss_k are checked
    before any fork."""
    check_mode(mode)
    k = check_ss_k(ss_k) if mode == "ss" else 1
    ny, nx = ys.size, xs.size
    n = max(1, min(_cpus(), ny, nx * ny * k * k // _BAND_POINTS)) if hasattr(os, "fork") else 1
    edges = [ny * i // n for i in range(n + 1)]
    out = np.frombuffer(mmap.mmap(-1, 4 * nx * ny * 8), dtype=float)
    rgb, res = out[:3 * nx * ny].reshape(ny, nx, 3), out[3 * nx * ny:].reshape(ny, nx)

    def blend(band: int) -> None:
        rows = slice(edges[band], edges[band + 1])
        rgb[rows], res[rows] = blend_grid(prep, xs, ys[rows], mode, ss_k=ss_k)

    children = {}  # band -> (pid, read end of its error pipe)
    failed = []
    try:
        for band in range(1, n):
            children[band] = _fork_band(blend, band)
        blend(0)
        for band, (pid, fd) in list(children.items()):
            why = b"".join(iter(lambda: os.read(fd, 1 << 16), b"")).decode(errors="replace")
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[band]
            os.close(fd)
            if code:
                why = why or (f"killed by signal {-code}" if code < 0 else f"exit status {code}")
                failed.append(f"band {band} (rows {edges[band]}:{edges[band + 1]}) failed: {why}")
    finally:
        for pid, fd in children.values():
            with suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
            os.close(fd)
    if failed:
        raise RuntimeError(f"{len(failed)} of {n} bands failed; " + "; ".join(failed))
    return rgb, res


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
    blend_grid takes any other epsilon.

    A frame of at least 2 * _BAND_POINTS blend points (pixels, times ss_k**2
    in ss) on a POSIX process that may run on several CPUs is blended in
    bands of rows, the parent's and those of forked children, which change
    no pixel (see the module docstring); the children are reaped before this
    returns or raises, and their memory is not in the parent's ru_maxrss.
    Any other frame is one blend_grid call."""
    if not isinstance(prep, PreparedSplats):
        raise TypeError(f"render_projected takes a PreparedSplats, not {type(prep).__name__}; "
                        "prepare it with prepare_splats(projected, SUPPORT_SIGMA)")
    check_image_size(width, height)
    xs = np.arange(width) + 0.5
    ys = np.arange(height) + 0.5
    rgb, res = _blend_bands(prep, xs, ys, mode, ss_k)
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
