"""Workloads, timing and output checks of the splatlab benchmark.

A run sets its workload up several times (the median is `setup_s`), then
repeats passes over the workload's operations until the time budget is
spent. Each timed span wraps exactly one call into splatlab; every check runs
after the pass, outside the spans. A failed check or an exception counts one
failed operation.

Times of program work are reported in `ref`: multiples of the time a fixed
reference computation (reference(), a mix of interpreted arithmetic and
small-array numpy calls, about 7 ms) takes on the same machine at the same
moment. The reference runs between the timed calls (after the PLY loads and
after each render(), or after each sweeps pass), and every time measured in
a pass is divided by the median reference time from REF_WINDOW_S before the
pass to REF_WINDOW_S after it. A shared host's speed drifts by a third and
more over minutes; the drift moves the reference and the program together,
so their ratio holds where raw seconds do not. The report line gives the
reference's median in seconds and the raw pass times.

Workloads (all inputs come from `synth` and the seed; the render workloads
write their scenes with save_ply at set-up and load_ply them on every pass):

  zoom      two_plane_zoom_scene at x1, x2, x4, four modes, ss k=8. The scene
            where the paper's effect shows: many splats, few pixels.
  hires     two_plane_scene and random_cloud at x3, four modes, ss k=4. Many
            pixels and tiles, so binning and per-(splat, tile) dispatch lead.
  sweeps    the paper's two-splat mu and sigma sweeps plus a sigma sweep over
            [5, 20] that crosses the gb guard; closed-form truth. All work is
            in blend_pixel, splatmath and errorlab, none in the rasterizer.

End-to-end metrics, the same names on every workload:

  setup_s             import time plus the median set-up (scene generation,
                      PLY write, warm-up renders), in seconds
  pass_ref            median over passes of the time of every call into
                      splatlab in one pass, PLY loads included
  render_ref.<mode>   time spent producing the outputs of one blend mode in a
                      pass: render() of every frame, or transmittance_error()
                      of every sweep point; per frame or sweep the median over
                      passes, summed
  oracle_ref          the same for the oracle the modes are scored against:
                      the ss render of each frame, or the closed-form truth of
                      each sweep point
  psnr_db.<mode>      PSNR against the oracle: of each frame's rgb against
                      its ss render, averaged over frames; of the residual
                      transmittance against the truth, pooled over the paper's
                      mu and sigma sweeps
  dt_abs_mean.<mode>  mean |delta T| against the same oracle: per pixel of
                      the residual against the ss residual, or per row of the
                      paper's mu and sigma sweeps
  peak_rss_mb         ru_maxrss of the process

The traced run (--trace 1) replaces render() by its stages (project_cloud,
prepare_splats, bin_splats, render_projected) and blend_pixel for
transmittance_error, checks that the staged outputs equal the untraced ones,
and reports the per-layer metrics of PER_LAYER. A layer that a workload does
not exercise reports 0, as does a probed function that splatlab no longer has;
the report line names the latter under "absent".
"""

from __future__ import annotations

import hashlib
import inspect
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy

import splatlab
from splatlab import blending, raster, scene as scenemod, splatmath, synth
from splatlab.errorlab import (
    paper_mu_sweep,
    paper_sigma_sweep,
    psnr,
    run_sweep,
    transmittance_error,
    true_residual_transmittance,
    two_splat_config,
)
from splatlab.raster import render
from splatlab.scene import Camera, SplatCloud, load_ply, save_ply

MODES = ("center", "integrated", "gb")
ORACLE = "ss"
RENDER_MODES = MODES + (ORACLE,)
WORKLOADS = ("zoom", "hires", "sweeps")

SETUP_REPEATS = 3
CHECK_PIXELS = 3  # seeded pixels per (frame, mode) compared with blend_pixel
PIXEL_TOL = 1e-9
QUAD_POINTS = 3  # seeded sweep points whose closed-form truth is checked by quadrature
QUAD_TOL = 1e-9
PLY_RTOL = 1e-5  # float32 storage of float64 values, through log/logit activations
PLY_ATOL = 1e-6

END_TO_END = (
    ("setup_s", "s"),
    ("pass_ref", "ref"),
    *((f"render_ref.{m}", "ref") for m in MODES),
    ("oracle_ref", "ref"),
    *((f"psnr_db.{m}", "dB") for m in MODES),
    *((f"dt_abs_mean.{m}", "1") for m in MODES),
    ("peak_rss_mb", "MB"),
)

# Which end-to-end metric each layer metric should move, and where:
#   synth.scene_s                      setup_s on zoom, hires
#   scene.load_ply_*                   pass_ref on zoom, hires (a small share)
#   scene.project_cloud_s,
#   blending.prepare_splats_s          render_ref.* on zoom, hires (a small share)
#   raster.bin_splats_s, *_tile_pairs  render_ref.* on hires
#   raster.render_projected_s.<mode>,
#   raster.ns_per_splat_px.<mode>      render_ref.<mode> (oracle_ref for ss) on zoom, hires
#   splatmath.moments_ns_per_elem.*    render_ref.gb and render_ref.integrated everywhere
#   blending.blend_pixel_us.<mode>     render_ref.<mode> on sweeps
#   errorlab.truth_s                   oracle_ref on sweeps
# The counts (scene.splats_in and culls, blending.splats_drawn and
# splat_px_pairs, errorlab.points) and trace.overhead_frac move nothing.
PER_LAYER = (
    ("synth.scene_s", "s"),
    ("scene.load_ply_s", "s"),
    ("scene.load_ply_mb_per_s", "MB/s"),
    ("scene.project_cloud_s", "s"),
    ("scene.splats_in", "count"),
    ("scene.culled_near", "count"),
    ("scene.culled_nonfinite", "count"),
    ("blending.prepare_splats_s", "s"),
    ("blending.splats_drawn", "count"),
    ("blending.splat_px_pairs", "count"),
    *((f"blending.blend_pixel_us.{m}", "us") for m in MODES),
    ("raster.bin_splats_s", "s"),
    ("raster.splat_tile_pairs", "count"),
    *((f"raster.render_projected_s.{m}", "s") for m in RENDER_MODES),
    *((f"raster.ns_per_splat_px.{m}", "ns") for m in RENDER_MODES),
    ("splatmath.moments_ns_per_elem.tile", "ns"),
    ("splatmath.moments_ns_per_elem.frame", "ns"),
    ("errorlab.truth_s", "s"),
    ("errorlab.points", "count"),
    ("trace.overhead_frac", "1"),
)

now = time.perf_counter

# ---------------------------------------------------------------------------
# Reference computation: the unit of the end-to-end times

REF_LOOP = 50_000  # interpreted float additions, about half the reference
REF_CALLS = 300  # rounds of small-array numpy calls, the other half
_REF_ARRAY = np.array([0.3, -1.2, 2.5, 0.7])


def reference() -> float:
    """Runs the reference computation once; returns its wall time in seconds.

    It mixes the two kinds of work splatlab's time goes to, interpreted
    Python and numpy calls on small arrays, so that a slower or faster host
    moves it as it moves splatlab. It depends on nothing in splatlab."""
    t0 = now()
    acc = 0.0
    for i in range(REF_LOOP):
        acc += i * 0.5
    a = _REF_ARRAY
    for _ in range(REF_CALLS):
        b = np.exp(-a * a)
        c = np.stack((a, b))
        acc += float(np.sqrt(b).sum()) + bool((c > 0).any())
    return now() - t0


REF_WINDOW_S = 2.0


class RefClock:
    """Reference times taken between timed calls, and the conversion of a
    pass's wall times into `ref` units."""

    def __init__(self):
        self.samples: list = []  # (when, seconds)
        self.sample()

    def sample(self) -> None:
        self.samples.append((now(), reference()))

    def rate(self, start: float, end: float) -> float:
        """1 / the median reference time around the span [start, end]."""
        near = [d for t, d in self.samples if start - REF_WINDOW_S <= t <= end + REF_WINDOW_S]
        return 1.0 / statistics.median(near or [d for _, d in self.samples])


# ---------------------------------------------------------------------------
# Failure accounting


class Ledger:
    """Counts attempted and failed operations; keeps the first problems seen."""

    MAX_PROBLEMS = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        if len(self.problems) < self.MAX_PROBLEMS:
            self.problems.append(f"{label}: {why}")

    @contextmanager
    def operation(self, label: str):
        """One attempted operation; an exception inside is counted, not raised."""
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # any failure of the program under test is a result
            self.fail(label, f"{type(exc).__name__}: {exc}")

    def check(self, label: str, problems) -> None:
        """Counts one failed operation when a check on its output found problems."""
        problems = [p for p in problems if p]
        if problems:
            self.fail(label, "; ".join(problems))

    def verify(self, label: str, check, *args) -> None:
        """Runs check(*args), which returns a list of problems; raising is one."""
        try:
            problems = check(*args)
        except Exception as exc:  # a check that cannot run has failed
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.check(label, problems)


def image_hashes(fb) -> tuple[str, str]:
    return (hashlib.sha256(np.ascontiguousarray(fb.rgb).tobytes()).hexdigest(),
            hashlib.sha256(np.ascontiguousarray(fb.residual).tobytes()).hexdigest())


def _median_sum(passes: list[dict], keys) -> float | None:
    """Sum over keys of each key's median over the passes that recorded it."""
    total, seen = 0.0, False
    for key in keys:
        vals = [p[key] for p in passes if key in p]
        if vals:
            total += statistics.median(vals)
            seen = True
    return total if seen else None


# ---------------------------------------------------------------------------
# Render workloads: zoom, hires


@dataclass
class Scene:
    """A synthetic scene as the workload's user has it: a PLY file."""

    path: str
    cloud: SplatCloud  # what load_ply must return on every pass
    nbytes: int


@dataclass
class Frame:
    label: str
    scene: str  # key into RenderSetup.scenes
    camera: Camera
    ss_k: int


@dataclass
class RenderSetup:
    scenes: dict  # name -> Scene
    frames: list


def _zoom_frames(seed: int, small: bool):
    scales = (1,) if small else (1, 2, 4)
    k = 8  # k=4 loses about 1 dB of oracle fidelity on this scene
    cloud, cam = synth.two_plane_zoom_scene(seed)
    return {"two_plane_zoom": cloud}, [
        Frame(f"two_plane_zoom@x{s}", "two_plane_zoom", cam.scaled(s), k) for s in scales]


def _hires_frames(seed: int, small: bool):
    scale, k = (0.25, 2) if small else (3, 4)
    clouds, frames = {}, []
    for name, make in (("two_plane", synth.two_plane_scene), ("cloud", synth.random_cloud)):
        clouds[name], cam = make(seed)
        frames.append(Frame(f"{name}@x{scale:g}", name, cam.scaled(scale), k))
    return clouds, frames


def _warm_up(seed: int, ss_k: int) -> None:
    cloud, cam = synth.random_cloud(seed, n=64)
    for mode in RENDER_MODES:
        render(cloud, cam.scaled(0.25), mode, ss_k=ss_k)


def _cloud_problems(got: SplatCloud, want: SplatCloud, exact: bool) -> list[str]:
    out = []
    for attr in ("mu", "scale", "rot", "opacity", "sh"):
        a, b = getattr(got, attr), getattr(want, attr)
        same = a.shape == b.shape and (
            np.array_equal(a, b) if exact else np.allclose(a, b, rtol=PLY_RTOL, atol=PLY_ATOL))
        if not same:
            out.append(f"{attr} differs from the saved cloud")
    return out


def _lowpass(mode: str) -> float:
    return raster.LOWPASS_CENTER if mode == "center" else 0.0


def _load_scenes(setup: RenderSetup, ledger: Ledger, times: dict) -> dict:
    clouds = {}
    for name, sc in setup.scenes.items():
        with ledger.operation(f"load_ply {name}"):
            t0 = now()
            clouds[name] = load_ply(sc.path)
            times[(name, "load_ply")] = now() - t0
    return clouds


def _pixel_problems(cloud, fr: Frame, mode: str, fb, rng) -> list[str]:
    """Seeded pixels of the frame must equal blend_pixel on the same
    3 sigma-prepared splats."""
    proj = scenemod.project_cloud(cloud, fr.camera, lowpass=_lowpass(mode))
    prep = blending.prepare_splats(proj, blending.SUPPORT_SIGMA)
    out = []
    for _ in range(CHECK_PIXELS):
        x = int(rng.integers(fr.camera.width))
        y = int(rng.integers(fr.camera.height))
        rgb, res = blending.blend_pixel(prep, (x + 0.5, y + 0.5), mode, ss_k=fr.ss_k)
        err = max(float(np.max(np.abs(rgb - fb.rgb[y, x]))), abs(res - fb.residual[y, x]))
        if not err <= PIXEL_TOL:
            out.append(f"pixel ({x}, {y}) differs from blend_pixel by {err:.3g}")
    return out


class RenderWorkload:
    def __init__(self, name: str, seed: int, small: bool, workdir: str):
        self.name, self.seed, self.small, self.workdir = name, seed, small, workdir
        self.hashes: dict = {}  # (frame, mode) -> (rgb sha256, residual sha256)
        self.accuracy: dict = {}  # metric name -> value, from the first pass

    def setup(self, spans: dict) -> None:
        t0 = now()
        clouds, frames = (_zoom_frames if self.name == "zoom" else _hires_frames)(self.seed, self.small)
        spans["synth"] = now() - t0
        scenes = {}
        for name, cloud in clouds.items():
            path = os.path.join(self.workdir, f"{name}.ply")
            save_ply(path, cloud)
            scenes[name] = Scene(path, cloud, os.path.getsize(path))
        _warm_up(self.seed, frames[0].ss_k)
        self.state = RenderSetup(scenes, frames)

    def after_setup(self, ledger: Ledger) -> None:
        """save_ply/load_ply must round-trip within float32 tolerance; the
        loaded cloud is what every pass's load_ply must reproduce exactly."""
        for name, sc in self.state.scenes.items():
            with ledger.operation(f"ply round trip {name}"):
                loaded = load_ply(sc.path)
                ledger.check(f"ply round trip {name}", _cloud_problems(loaded, sc.cloud, exact=False))
                sc.cloud = loaded

    def run_pass(self, ledger: Ledger, clock: RefClock):
        """One untraced pass: load every scene, render every frame in every
        mode, sampling the reference after the loads and after each render.
        Returns the seconds spent in those calls and each call's seconds."""
        times: dict = {}
        outs: dict = {}
        clouds = _load_scenes(self.state, ledger, times)
        clock.sample()
        for fr in self.state.frames:
            for mode in RENDER_MODES:
                with ledger.operation(f"render {fr.label} {mode}"):
                    t0 = now()
                    fb = render(clouds.get(fr.scene), fr.camera, mode, ss_k=fr.ss_k)
                    times[(fr.label, mode)] = now() - t0
                    outs[(fr.label, mode)] = fb
                clock.sample()
        self._check(ledger, clouds, outs)
        return sum(times.values()), times

    def _check(self, ledger: Ledger, clouds: dict, outs: dict) -> None:
        for name, cloud in clouds.items():
            ledger.check(f"load_ply {name}",
                         _cloud_problems(cloud, self.state.scenes[name].cloud, exact=True))
        first = not self.hashes
        rng = np.random.default_rng(self.seed)
        for fr in self.state.frames:
            for mode in RENDER_MODES:
                key = (fr.label, mode)
                if key not in outs:
                    continue
                fb = outs[key]
                label = f"render {fr.label} {mode}"
                h = image_hashes(fb)
                if key not in self.hashes:
                    self.hashes[key] = h
                    ledger.verify(label, _pixel_problems, self.state.scenes[fr.scene].cloud,
                                  fr, mode, fb, rng)
                elif h != self.hashes[key]:
                    ledger.check(label, ["image differs from the first pass"])
        if first:
            self._score(ledger, outs)

    def _score(self, ledger: Ledger, outs: dict) -> None:
        for mode in MODES:
            pairs = [(outs[(fr.label, mode)], outs[(fr.label, ORACLE)]) for fr in self.state.frames
                     if (fr.label, mode) in outs and (fr.label, ORACLE) in outs]
            if len(pairs) != len(self.state.frames):
                continue
            self.accuracy[f"psnr_db.{mode}"] = float(np.mean([psnr(a, b) for a, b in pairs]))
            self.accuracy[f"dt_abs_mean.{mode}"] = float(
                np.mean([np.mean(np.abs(a.residual - b.residual)) for a, b in pairs]))
        if self.name == "zoom" and all(f"psnr_db.{m}" in self.accuracy for m in MODES):
            p = [self.accuracy[f"psnr_db.{m}"] for m in ("gb", "integrated", "center")]
            if not p[0] > p[1] > p[2]:
                ledger.check("zoom accuracy", [f"psnr gb > integrated > center fails: {p}"])

    def end_to_end(self, passes: list) -> dict:
        frames = [fr.label for fr in self.state.frames]
        times = [t for _, t in passes]
        out = {"pass_ref": statistics.median(sum(t.values()) for t in times)}
        for mode in MODES:
            out[f"render_ref.{mode}"] = _median_sum(times, [(f, mode) for f in frames])
        out["oracle_ref"] = _median_sum(times, [(f, ORACLE) for f in frames])
        out.update(self.accuracy)
        return out

    def report(self) -> dict:
        return {"scenes": {name: {"splats": len(sc.cloud), "ply_bytes": sc.nbytes}
                           for name, sc in self.state.scenes.items()},
                "frames": {fr.label: {"width": fr.camera.width, "height": fr.camera.height,
                                      "ss_k": fr.ss_k} for fr in self.state.frames},
                "hashes": {f"{f} {m}": {"rgb": h[0], "residual": h[1]}
                           for (f, m), h in self.hashes.items()}}

    # -- traced pass --------------------------------------------------------

    def traced_pass(self, ledger: Ledger, probes: "Probes"):
        """run_pass with render() decomposed into its stages, one span each."""
        sums: dict = defaultdict(float)
        loads: dict = {}
        start = now()
        clouds = _load_scenes(self.state, ledger, loads)
        sums["scene.load_ply_s"] = sum(loads.values())
        staged: dict = {}
        for fr in self.state.frames:
            cloud = clouds.get(fr.scene)
            w, h = fr.camera.width, fr.camera.height
            for mode in RENDER_MODES if probes.staged else ():
                with ledger.operation(f"staged {fr.label} {mode}"):
                    t0 = now()
                    proj = probes.project_cloud(cloud, fr.camera, lowpass=_lowpass(mode))
                    t1 = now()
                    prep = probes.prepare_splats(proj, blending.SUPPORT_SIGMA)
                    t2 = now()
                    tiles = probes.bin_splats(prep, probes.tile_size, w, h) if probes.bin_splats else None
                    t3 = now()
                    fb = probes.render_projected(prep, w, h, mode, ss_k=fr.ss_k)
                    t4 = now()
                    sums["scene.project_cloud_s"] += t1 - t0
                    sums["blending.prepare_splats_s"] += t2 - t1
                    if tiles is not None:
                        sums["raster.bin_splats_s"] += t3 - t2
                    sums[f"raster.render_projected_s.{mode}"] += t4 - t3
                    staged[(fr.label, mode)] = fb
                    if not hasattr(prep, "aabb") and "PreparedSplats.aabb" not in probes.absent:
                        probes.absent.append("PreparedSplats.aabb")
                    counts = _work_counts(cloud, proj, prep, tiles, w, h)
                    for name, value in counts.items():
                        sums[name] += value
                    sums[f"_px_pairs.{mode}"] += counts["blending.splat_px_pairs"]
        wall = now() - start
        for key, fb in staged.items():
            if self.hashes.get(key) != image_hashes(fb):
                ledger.check(f"staged {key[0]} {key[1]}", ["staged image differs from render()"])
        return wall, dict(sums)

    def per_layer(self, traced: list, spans: list) -> dict:
        keys = {k for _, s in traced for k in s}
        out = {k: statistics.median(s[k] for _, s in traced if k in s) for k in keys}
        for mode in RENDER_MODES:
            pairs = out.pop(f"_px_pairs.{mode}", 0)
            rp = out.get(f"raster.render_projected_s.{mode}", 0.0)
            out[f"raster.ns_per_splat_px.{mode}"] = rp / pairs * 1e9 if pairs else 0.0
        if out.get("scene.load_ply_s"):
            nbytes = sum(sc.nbytes for sc in self.state.scenes.values())
            out["scene.load_ply_mb_per_s"] = nbytes / 1e6 / out["scene.load_ply_s"]
        out["synth.scene_s"] = statistics.median(s.get("synth", 0.0) for s in spans)
        return out


def _work_counts(cloud, proj, prep, tiles, width: int, height: int) -> dict:
    """Work counts of one staged render, computed by the benchmark from the
    stage outputs: splats drawn are prepared splats whose 3 sigma box holds at
    least one pixel centre of the frame."""
    aabb = getattr(prep, "aabb", None)
    drawn = pairs = 0
    if aabb is not None and len(aabb):
        x1, y1, x2, y2 = np.asarray(aabb, dtype=float).T
        # pixel i has centre i + 0.5; boxes are closed intervals
        nx = (np.clip(np.floor(x2 - 0.5), -1, width - 1) - np.clip(np.ceil(x1 - 0.5), 0, width) + 1)
        ny = (np.clip(np.floor(y2 - 0.5), -1, height - 1) - np.clip(np.ceil(y1 - 0.5), 0, height) + 1)
        cover = np.maximum(nx, 0) * np.maximum(ny, 0)
        drawn = int(np.count_nonzero(cover))
        pairs = int(cover.sum())
    return {
        "scene.splats_in": len(cloud),
        "scene.culled_near": int(getattr(proj, "n_culled_near", 0)),
        "scene.culled_nonfinite": int(getattr(proj, "n_culled_nonfinite", 0)),
        "blending.splats_drawn": drawn,
        "blending.splat_px_pairs": pairs,
        "raster.splat_tile_pairs": sum(len(v) for v in tiles.values()) if tiles is not None else 0,
    }


# ---------------------------------------------------------------------------
# Sweeps workload


@dataclass
class SweepPoint:
    sweep: str
    value: float
    splats: list
    epsilon: float
    ss_k: int


class SweepWorkload:
    PAPER = ("mu", "sigma")  # the sweeps dt_abs_mean and psnr_db pool

    def __init__(self, name: str, seed: int, small: bool, workdir: str):
        self.seed, self.small = seed, small
        self.dts: list | None = None  # per point, per mode, from the first pass
        self.accuracy: dict = {}

    def setup(self, spans: dict) -> None:
        if self.small:
            cfgs = {"mu": paper_mu_sweep(step=1.0), "sigma": paper_sigma_sweep(step=0.5),
                    "sigma_guard": paper_sigma_sweep(start=5.0, stop=20.0, step=0.3)}
        else:
            cfgs = {"mu": paper_mu_sweep(), "sigma": paper_sigma_sweep(),
                    "sigma_guard": paper_sigma_sweep(start=5.0, stop=20.0)}
        points = []
        for label, cfg in cfgs.items():
            for val in cfg.values():
                mu_x = float(val) if cfg.sweep_var == "mu_x" else cfg.mu_x
                sigma = float(val) if cfg.sweep_var == "sigma" else cfg.sigma
                points.append(SweepPoint(label, float(val),
                                         two_splat_config(mu_x, sigma, cfg.opacity, cfg.offset_y),
                                         cfg.epsilon, cfg.ss_k))
        self.configs, self.points = cfgs, points
        pt = points[0]
        truth = true_residual_transmittance(pt.splats)
        for mode in MODES:
            transmittance_error(mode, pt.splats, epsilon=pt.epsilon, ss_k=pt.ss_k, true_value=truth)

    def after_setup(self, ledger: Ledger) -> None:
        rng = np.random.default_rng(self.seed)
        for i in rng.choice(len(self.points), size=min(QUAD_POINTS, len(self.points)), replace=False):
            pt = self.points[int(i)]
            label = f"truth {pt.sweep}={pt.value:.6g}"
            with ledger.operation(label):
                closed = true_residual_transmittance(pt.splats)
                quad = true_residual_transmittance(pt.splats, method="quad")
                if not abs(closed - quad) <= QUAD_TOL:
                    ledger.check(label, [f"closed form {closed!r} vs quadrature {quad!r}"])

    def run_pass(self, ledger: Ledger, clock: RefClock):
        """One pass over every sweep point, then one reference sample. Returns
        the pass's wall seconds and the seconds of the truth and of each mode
        per sweep."""
        times: dict = defaultdict(float)
        dts: list = []
        start = now()
        for pt in self.points:
            row = None
            with ledger.operation(f"sweep {pt.sweep}={pt.value:.6g}"):
                t0 = now()
                truth = true_residual_transmittance(pt.splats)
                t1 = now()
                times[(pt.sweep, ORACLE)] += t1 - t0
                vals = {}
                for mode in MODES:
                    t0 = now()
                    vals[mode] = transmittance_error(mode, pt.splats, epsilon=pt.epsilon,
                                                     ss_k=pt.ss_k, true_value=truth)
                    times[(pt.sweep, mode)] += now() - t0
                row = vals
            dts.append(row)
        wall = now() - start
        clock.sample()
        self._check(ledger, dts)
        return wall, dict(times)

    def _check(self, ledger: Ledger, dts: list) -> None:
        if self.dts is None:
            self.dts = dts
            self._check_against_run_sweep(ledger)
            self._score(ledger)
            return
        for pt, row, ref in zip(self.points, dts, self.dts):
            if row is not None and row != ref:
                ledger.check(f"sweep {pt.sweep}={pt.value:.6g}", ["delta T differs from the first pass"])

    def _check_against_run_sweep(self, ledger: Ledger) -> None:
        """The benchmark's own loop must reproduce errorlab.run_sweep exactly."""
        for label, cfg in self.configs.items():
            with ledger.operation(f"run_sweep {label}"):
                rows, _ = run_sweep(cfg)
                mine = [(pt.value, m, row[m]) for pt, row in zip(self.points, self.dts)
                        if pt.sweep == label and row is not None for m in MODES]
                theirs = [(r.value, r.mode, r.delta_t) for r in rows]
                if mine != theirs:
                    ledger.check(f"run_sweep {label}", ["rows differ from the benchmark's loop"])

    def _score(self, ledger: Ledger) -> None:
        rows = [row for pt, row in zip(self.points, self.dts) if pt.sweep in self.PAPER]
        if any(r is None for r in rows):
            return
        for mode in MODES:
            d = np.array([r[mode] for r in rows])
            self.accuracy[f"dt_abs_mean.{mode}"] = float(np.mean(np.abs(d)))
            self.accuracy[f"psnr_db.{mode}"] = psnr(d, np.zeros_like(d))
        dt = [self.accuracy[f"dt_abs_mean.{m}"] for m in ("gb", "integrated", "center")]
        if not dt[0] < dt[1] < dt[2]:
            ledger.check("sweep accuracy", [f"dt_abs_mean gb < integrated < center fails: {dt}"])

    def end_to_end(self, passes: list) -> dict:
        times = [t for _, t in passes]
        out = {"pass_ref": statistics.median(sum(t.values()) for t in times)}
        for mode in MODES:
            out[f"render_ref.{mode}"] = _median_sum(times, [(s, mode) for s in self.configs])
        out["oracle_ref"] = _median_sum(times, [(s, ORACLE) for s in self.configs])
        out.update(self.accuracy)
        return out

    def report(self) -> dict:
        return {"sweeps": {label: len(cfg.values()) for label, cfg in self.configs.items()}}

    def traced_pass(self, ledger: Ledger, probes: "Probes"):
        """transmittance_error decomposed into the truth and blend_pixel."""
        sums: dict = defaultdict(float)
        calls = 0
        start = now()
        for pt, ref in zip(self.points, self.dts or []):
            label = f"traced sweep {pt.sweep}={pt.value:.6g}"
            with ledger.operation(label):
                t0 = now()
                truth = true_residual_transmittance(pt.splats)
                sums["errorlab.truth_s"] += now() - t0
                calls += 1
                problems = []
                for mode in MODES:
                    t0 = now()
                    _, t_mode = blending.blend_pixel(pt.splats, (0.0, 0.0), mode,
                                                     epsilon=pt.epsilon, ss_k=pt.ss_k)
                    sums[f"blending.blend_pixel_us.{mode}"] += now() - t0
                    if ref is not None and t_mode - truth != ref[mode]:
                        problems.append(f"{mode} delta T differs from transmittance_error")
                ledger.check(label, problems)
        wall = now() - start
        for mode in MODES:
            sums[f"blending.blend_pixel_us.{mode}"] *= 1e6 / max(calls, 1)
        sums["errorlab.points"] = calls
        return wall, dict(sums)

    def per_layer(self, traced: list, spans: list) -> dict:
        keys = {k for _, s in traced for k in s}
        return {k: statistics.median(s[k] for _, s in traced if k in s) for k in keys}


# ---------------------------------------------------------------------------
# Probes: the staged API the traced run calls, absent when splatlab drops it


@dataclass
class Probes:
    project_cloud: object
    prepare_splats: object
    bin_splats: object
    render_projected: object
    moments: object
    tile_size: int | None
    absent: list = field(default_factory=list)

    @property
    def staged(self) -> bool:
        return None not in (self.project_cloud, self.prepare_splats, self.render_projected)


def find_probes() -> Probes:
    found = {
        "project_cloud": getattr(scenemod, "project_cloud", None),
        "prepare_splats": getattr(blending, "prepare_splats", None),
        "bin_splats": getattr(raster, "bin_splats", None),
        "render_projected": getattr(raster, "render_projected", None),
        "moments": getattr(splatmath, "gaussian_moments_012", None),
    }
    tile_size = None
    if found["render_projected"] is not None:
        param = inspect.signature(found["render_projected"]).parameters.get("tile_size")
        tile_size = param.default if param is not None else None
    if found["bin_splats"] is not None and tile_size is None:
        found["bin_splats"] = None  # nothing says which tile size render() bins with
    absent = [name for name, fn in found.items() if fn is None]
    return Probes(**found, tile_size=tile_size, absent=absent)


def moments_ns_per_elem(moments, rng, n_elem: int, calls: int, repeats: int) -> float:
    """Median ns per element of gaussian_moments_012 over windows that span
    the gb guard range and reach into both tails."""
    sigma = 10.0 ** rng.uniform(-1.3, 0.5, n_elem)
    side = sigma * 10.0 ** rng.uniform(-1.0, 1.0, n_elem)
    centre = sigma * rng.uniform(-4.0, 4.0, n_elem)
    a, b = centre - 0.5 * side, centre + 0.5 * side
    samples = []
    for _ in range(repeats):
        t0 = now()
        for _ in range(calls):
            moments(sigma, a, b)
        samples.append((now() - t0) / (calls * n_elem) * 1e9)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# Runs


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "splatlab": getattr(splatlab, "__version__", "?"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def make_workload(name: str, seed: int, small: bool, workdir: str):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    cls = SweepWorkload if name == "sweeps" else RenderWorkload
    return cls(name, seed, small, workdir)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name: str, seed: int, seconds: float, trace: bool, *, import_s: float = 0.0,
        small: bool = False, workroot: str | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result, report).

    result has the keys correct, attempted, failed and metrics; report holds
    the environment, image hashes, counts of passes and the problems found.
    """
    ledger = Ledger()
    if workroot is not None:
        os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=workroot)
    try:
        wl = make_workload(name, seed, small, workdir)
        setup_times, spans = [], []
        for _ in range(1 if small else SETUP_REPEATS):
            span: dict = {}
            t0 = now()
            wl.setup(span)
            setup_times.append(now() - t0)
            spans.append(span)
        wl.after_setup(ledger)
        setup_s = import_s + statistics.median(setup_times)

        passes, traced = [], []
        probes = find_probes() if trace else None
        clock = RefClock()
        spans_s = []  # (start, end) of each untraced pass
        start = now()
        while not passes or now() - start < seconds:
            t0 = now()
            passes.append(wl.run_pass(ledger, clock))
            spans_s.append((t0, now()))
            if trace:
                traced.append(wl.traced_pass(ledger, probes))

        if trace:
            metrics = wl.per_layer(traced, spans)
            untimed = statistics.median(w for w, _ in passes)
            metrics["trace.overhead_frac"] = (statistics.median(w for w, _ in traced) - untimed) / untimed
            rng = np.random.default_rng(seed)
            reps = 1 if small else 5
            if probes.moments is not None:
                metrics["splatmath.moments_ns_per_elem.tile"] = moments_ns_per_elem(
                    probes.moments, rng, 256, calls=20 if small else 200, repeats=reps)
                metrics["splatmath.moments_ns_per_elem.frame"] = moments_ns_per_elem(
                    probes.moments, rng, 1 << 20, calls=1, repeats=reps)
            units = PER_LAYER
        else:
            clock.sample()  # so that the last pass has the reference after it
            in_ref = [(wall, {key: t * clock.rate(*span) for key, t in times.items()})
                      for (wall, times), span in zip(passes, spans_s)]
            metrics = wl.end_to_end(in_ref)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END
        out = {}
        for metric, unit in units:
            value = metrics.get(metric, 0.0 if trace else None)
            if value is not None:
                out[metric] = {"value": float(value), "unit": unit}
        missing = [m for m, _ in units if m not in out]
        if missing:
            ledger.check("metrics", [f"could not compute {', '.join(missing)}"])
        result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
                  "failed": ledger.failed, "metrics": out}
        report = {"workload": name, "environment": environment(seed), "small": small,
                  "seconds": seconds, "pass_walls_s": [w for w, _ in passes], "setup_runs_s": setup_times,
                  "reference_s": statistics.median(d for _, d in clock.samples),
                  "import_s": import_s, "problems": ledger.problems,
                  "absent": probes.absent if trace else [], **wl.report()}
        return result, report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
