"""The blend_grid schedule: runs of small splats blended in depth layers,
large splats stepped dense or gathered, and each body's box.

blend_grid steps a large splat on its own and a run of consecutive small
splats one depth layer at a time; a large splat's rectangle is stepped dense,
on slice views, or gathered by index. The center and integrated bodies step a
splat only over the part of its support box where its alpha can pass the
skip. None of these choices may change a pixel, so every test compares frames
bit for bit with blend_pixel, whose 1 x 1 grid meets each splat in a schedule
of its own, or with another schedule of the same frame. Each test also
checks, on the frame render alone, that the frame does reach the path it is
about.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import assert_pixels_equal_blend_pixel, iso_splat, rot_splat, stack_splats
from splatlab import blending, raster, synth
from splatlab.blending import ALPHA_SKIP, SUPPORT_SIGMA, blend_grid, blend_pixel, prepare_splats
from splatlab.raster import Framebuffer, render_projected
from splatlab.scene import project_cloud

MODES = ["center", "integrated", "gb", "ss"]


class StepLog:
    """Counts blend_grid's steps by kind, the points layer steps end, and the
    calls of each blend body (_ScalarBlend.step, _WindowBlend._moments and
    _fallback) on one splat's rectangle by form: forms[(body, "dense")] for
    a _Rect, forms[(body, "gathered")] for a _Gather."""

    def __init__(self, monkeypatch):
        self.single = self.layer = self.ended_in_layer = 0
        self.forms = Counter()
        steps = blending._steps

        def logged_steps(*args):
            for sel in steps(*args):
                if isinstance(sel.j, np.ndarray):
                    self.layer += 1
                else:
                    self.single += 1
                yield sel

        monkeypatch.setattr(blending, "_steps", logged_steps)
        for cls, name in ((blending._ScalarBlend, "step"), (blending._WindowBlend, "_moments"),
                          (blending._WindowBlend, "_fallback")):
            monkeypatch.setattr(cls, name, self._wrap(name, getattr(cls, name)))

    def _wrap(self, name, body):
        def logged_body(blend, prep, sel, epsilon):
            ended = body(blend, prep, sel, epsilon)
            if isinstance(sel.j, np.ndarray):
                self.ended_in_layer += ended.size
            else:
                self.forms[name, "dense" if isinstance(sel, blending._Rect) else "gathered"] += 1
            return ended
        return logged_body


@pytest.mark.parametrize("mode", MODES)
def test_zoom_frame_equals_blend_pixel(mode, monkeypatch):
    # two_plane_zoom at x1: 24x18 pixels under thousands of small splats, the
    # frame the layered walk is for.
    cloud, cam = synth.two_plane_zoom_scene(0)
    lowpass = raster.LOWPASS_CENTER if mode == "center" else 0.0
    prep = prepare_splats(project_cloud(cloud, cam, lowpass=lowpass), SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    fb = render_projected(prep, cam.width, cam.height, mode, ss_k=2)
    assert log.layer > 0
    assert_pixels_equal_blend_pixel(prep, fb, mode, ss_k=2)


def test_layer_sort_keys_fit_uint16(monkeypatch):
    # _layers sorts point indices and ranks as uint16 keys. That is exact
    # because blend_grid holds a tile to _TILE_POINTS points, and _steps a
    # batch to _TILE_POINTS pairs, or to one small splat's at most
    # _LARGE_POINTS. The largest grids: zoom@x1 in ss at the benchmark's k,
    # and a blend_pixel at ss_k=256 under 200 splats of sigma 0.01 px. The
    # log lives in this process, so the frame is held to one band (one CPU).
    monkeypatch.setattr(raster, "_cpus", lambda: 1)
    bound = max(blending._TILE_POINTS, blending._LARGE_POINTS)
    assert bound <= 1 << 16
    seen = []
    layers = blending._layers

    def logged(pt, js):
        seen.append((pt.size, int(pt.max()) + 1 if pt.size else 0))
        return layers(pt, js)

    monkeypatch.setattr(blending, "_layers", logged)
    cloud, cam = synth.two_plane_zoom_scene(0)
    prep = prepare_splats(project_cloud(cloud, cam), SUPPORT_SIGMA)
    render_projected(prep, cam.width, cam.height, "ss", ss_k=8)
    rng = np.random.default_rng(4)
    specks = stack_splats([iso_splat(rng.uniform(0.05, 0.95, 2), 0.01, 0.5, depth=float(depth),
                                     color=(1, 0, 0)) for depth in range(200)])
    frame = len(seen)
    blend_pixel(prepare_splats(specks, SUPPORT_SIGMA), (0.5, 0.5), "ss", ss_k=256)
    assert 0 < frame < len(seen)  # both reach the layers
    pairs, points = map(max, zip(*seen))
    assert pairs <= bound and points <= blending._TILE_POINTS, (pairs, points)


def test_blend_pixel_steps_splat_by_splat(monkeypatch):
    # On blend_pixel's 1 x 1 grid every depth layer would hold one pair, so a
    # run would save no step: each of the 12 small splats is a step of its own.
    cloud = stack_splats([iso_splat((0.5, 0.5), 1.0, 0.1, depth=float(depth), color=(1, 0, 0))
                          for depth in range(12)])
    prep = prepare_splats(cloud, SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    blend_pixel(prep, (0.5, 0.5), "center")
    assert (log.single, log.layer) == (12, 0)


def interleaved_scene(rng, opacity=(0.2, 0.9)):
    """Groups of 9-14 small splats (3 sigma boxes of at most 5x5 points) in
    depth order between one or two large ones (boxes of 17x17 and more) on
    a 24x18 frame, so runs alternate with single-splat steps."""
    splats, depth = [], 1.0
    for _ in range(6):
        for _ in range(int(rng.integers(9, 15))):
            splats.append(iso_splat(rng.uniform([6, 5], [18, 13]), rng.uniform(0.3, 0.8),
                                    rng.uniform(*opacity), depth=depth,
                                    color=rng.uniform(0, 1, 3)))
            depth += 1.0
        for _ in range(int(rng.integers(1, 3))):
            splats.append(iso_splat(rng.uniform([3, 3], [21, 15]), rng.uniform(3.0, 5.0),
                                    rng.uniform(0.1, 0.5), depth=depth,
                                    color=rng.uniform(0, 1, 3)))
            depth += 1.0
    return stack_splats(splats)


@pytest.mark.parametrize("mode", MODES)
def test_runs_interleaved_with_large_splats(mode, monkeypatch):
    prep = prepare_splats(interleaved_scene(np.random.default_rng(21)), SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    fb = render_projected(prep, 24, 18, mode, ss_k=2)
    assert log.layer >= 6 and log.single >= 6
    assert_pixels_equal_blend_pixel(prep, fb, mode, ss_k=2)


@pytest.mark.parametrize("mode", ["center", "integrated", "gb"])
def test_points_terminate_inside_a_run(mode, monkeypatch):
    # Opaque small splats and a large epsilon end most points after one or
    # two splats, in the middle of a run; their later pairs must be skipped.
    prep = prepare_splats(interleaved_scene(np.random.default_rng(22), opacity=(0.95, 0.99)),
                          SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    fb = Framebuffer(*blend_grid(prep, np.arange(24) + 0.5, np.arange(18) + 0.5, mode, 0.3, 1))
    assert log.ended_in_layer > 0
    assert_pixels_equal_blend_pixel(prep, fb, mode, ss_k=1, epsilon=0.3)


@pytest.mark.parametrize("mode", MODES)
def test_run_pair_budget_changes_no_pixel(mode, monkeypatch):
    # A budget of a few pairs splits every run into many small batches (and
    # the frame into tiles of a few pixels).
    cloud, cam = synth.two_plane_zoom_scene(1)
    prep = prepare_splats(project_cloud(cloud, cam), SUPPORT_SIGMA)
    xs, ys = np.arange(cam.width) + 0.5, np.arange(cam.height) + 0.5
    want = Framebuffer(*blend_grid(prep, xs, ys, mode, 0.05, 2))
    log = StepLog(monkeypatch)
    monkeypatch.setattr(blending, "_TILE_POINTS", 8)
    got = Framebuffer(*blend_grid(prep, xs, ys, mode, 0.05, 2))
    assert got.rgb.tobytes() == want.rgb.tobytes()
    assert got.residual.tobytes() == want.residual.tobytes()
    assert log.layer > 100


def dense_rect_scene():
    """Six large splats on a 48 x 24 frame, front to back. Rendered at
    epsilon 0.5, every rectangle holds over _LARGE_POINTS points (the live
    counts are center mode's):

      0  all live: dense
      1  opacity 0.99: ends a disk of points around (12, 12)
      2  inside that disk, 44 of 324 points live: gathered
      3  partly over the disk, 588 of 720 live: dense, with done points
      4  sigma 12: every live gb window trips the guard (side/sigma < 0.1
         on both axes): dense
      5  sigma 10: gb windows with a side of 1 or more (0 and 3 widened
         some) stay in the guard, the rest trip; each branch holds under
         half of the box's 1152 points, so both are gathered
    """
    return stack_splats([
        iso_splat((24, 12), 4.0, 0.5, depth=1.0, color=(0.9, 0.2, 0.1)),
        iso_splat((12, 12), 8.0, 0.99, depth=2.0, color=(0.1, 0.8, 0.2)),
        iso_splat((12, 12), 3.0, 0.6, depth=3.0, color=(0.2, 0.3, 0.9)),
        iso_splat((30, 12), 5.0, 0.5, depth=4.0, color=(0.7, 0.7, 0.1)),
        iso_splat((36, 12), 12.0, 0.4, depth=5.0, color=(0.3, 0.1, 0.6)),
        iso_splat((30, 12), 10.0, 0.4, depth=6.0, color=(0.5, 0.5, 0.5)),
    ])


DENSE_FORMS = {
    "center": {("step", "dense"): 5, ("step", "gathered"): 1},
    "integrated": {("step", "dense"): 5, ("step", "gathered"): 1},
    "gb": {("_moments", "dense"): 3, ("_moments", "gathered"): 2, ("_fallback", "dense"): 1,
           ("_fallback", "gathered"): 1},
    "ss": {("step", "dense"): 5, ("step", "gathered"): 1},
}


@pytest.mark.parametrize("mode", MODES)
def test_dense_rect_steps_equal_blend_pixel(mode, monkeypatch):
    # Dense steps must mask the done points out of every write; blend_pixel
    # (a 1 x 1 grid, so every rectangle is gathered) is the reference.
    prep = prepare_splats(dense_rect_scene(), SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    fb = Framebuffer(*blend_grid(prep, np.arange(48) + 0.5, np.arange(24) + 0.5, mode, 0.5, 2))
    assert {form for _, form in log.forms} == {"dense", "gathered"}
    assert dict(log.forms) == DENSE_FORMS[mode]
    assert_pixels_equal_blend_pixel(prep, fb, mode, ss_k=2, epsilon=0.5)


def rotated_rect_scene():
    """Four large anisotropic splats, sigma 6:1 along 30 and 60 degrees, on
    a 48 x 24 frame, front to back. Rendered at epsilon 0.5, every rectangle
    holds over _LARGE_POINTS points and is stepped dense in every mode:

      0  6 x 1 px at 30 degrees, all live: axes[0] is the major axis
      1  6 x 1 px at 60 degrees, all live: axes[0] is the minor axis
      2  4.8 x 0.8 px at 30 degrees, opacity 0.99, between 0 and 1: ends
         points
      3  60 x 10 px at 60 degrees over the whole frame: gb windows whose x
         side 0-2 narrowed below 1 px (0.1 of the sigma paired with x) trip
         the guard and are stepped dense; the other 373 stay in it, under
         half of the box, and are gathered
    """
    return stack_splats([
        rot_splat((14, 12), 6.0, 1.0, math.pi / 6, 0.7, depth=1.0, color=(0.9, 0.2, 0.1)),
        rot_splat((34, 12), 6.0, 1.0, math.pi / 3, 0.6, depth=2.0, color=(0.1, 0.8, 0.2)),
        rot_splat((24, 12), 4.8, 0.8, math.pi / 6, 0.99, depth=3.0, color=(0.2, 0.3, 0.9)),
        rot_splat((24, 12), 60.0, 10.0, math.pi / 3, 0.3, depth=4.0, color=(0.5, 0.5, 0.5)),
    ])


ROTATED_FORMS = {
    "center": {("step", "dense"): 4},
    "integrated": {("step", "dense"): 4},
    "gb": {("_moments", "dense"): 3, ("_moments", "gathered"): 1, ("_fallback", "dense"): 1},
    "ss": {("step", "dense"): 4},
}


@pytest.mark.parametrize("mode", MODES)
def test_dense_rotated_steps_equal_blend_pixel(mode, monkeypatch):
    # Dense steps read each splat's frame, sigmas and mean per axis: over
    # rotated anisotropic splats a slip in those reads (an axis for a
    # component, one splat's values for another's) changes pixels that
    # blend_pixel, whose steps are all gathered, computes right.
    prep = prepare_splats(rotated_rect_scene(), SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    fb = Framebuffer(*blend_grid(prep, np.arange(48) + 0.5, np.arange(24) + 0.5, mode, 0.5, 2))
    assert dict(log.forms) == ROTATED_FORMS[mode]
    assert_pixels_equal_blend_pixel(prep, fb, mode, ss_k=2, epsilon=0.5)


@settings(max_examples=20)
@given(seed=st.integers(0, 2**32 - 1), n_small=st.integers(0, 12), n_large=st.integers(0, 4),
       width=st.integers(1, 24), height=st.integers(1, 18))
def test_render_bounds_and_band_split_property(seed, n_small, n_large, width, height):
    # Random frames of small and large splats: the residual stays in [0, 1],
    # rgb finite and >= 0, in every mode, and tiles of one blend point, whose
    # edges cut the dense rectangles, change no byte.
    rng = np.random.default_rng(seed)
    sigmas = np.concatenate([rng.uniform(0.3, 1.0, n_small), rng.uniform(3.0, 8.0, n_large)])
    scene = stack_splats([
        iso_splat(rng.uniform([-2, -2], [width + 2, height + 2]), sigma, rng.uniform(0.05, 1.0),
                  depth=float(depth), color=rng.uniform(0, 1, 3))
        for depth, sigma in zip(rng.permutation(sigmas.size), rng.permutation(sigmas))])
    prep = prepare_splats(scene, SUPPORT_SIGMA)
    for mode in MODES:
        fb = render_projected(prep, width, height, mode, ss_k=2)
        assert np.isfinite(fb.rgb).all() and (fb.rgb >= 0).all()
        assert ((fb.residual >= 0) & (fb.residual <= 1)).all()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blending, "_TILE_POINTS", 1)
            rows = render_projected(prep, width, height, mode, ss_k=2)
        assert rows.rgb.tobytes() == fb.rgb.tobytes()
        assert rows.residual.tobytes() == fb.residual.tobytes()


def step_support_boxes(mp):
    """Make every body step each splat over its plain support box: the boxes
    of PreparedSplats.support_rects with no skip, whatever the body's."""
    support_rects = blending.PreparedSplats.support_rects
    mp.setattr(blending.PreparedSplats, "support_rects",
               lambda self, xs, ys, skip=0.0, footprint=0.0: support_rects(self, xs, ys))


def ellipse_coords(sp):
    """Screen coordinates about a splat's skip ellipse q <= 2 ln(o / ALPHA_SKIP):
    its mean, the edges of its bounding box and of that box grown by half a
    pixel, each nudged in and out by relative 1e-14, 1e-12 and 1e-9, and the
    other coordinate of the points where the ellipse meets its box; (xs, ys)."""
    (cxx, cxy), (_, cyy) = sp.cov2d
    mx, my = sp.mu2d
    r = math.sqrt(max(2.0 * math.log(sp.opacity / ALPHA_SKIP), 0.0))
    xs, ys = [mx], [my]
    for sign in (-1.0, 1.0):
        for grow in (0.0, 0.5):
            for nudge in (0.0, -1e-14, 1e-14, -1e-12, 1e-12, -1e-9, 1e-9):
                xs.append(mx + sign * (r * math.sqrt(cxx) * (1.0 + nudge) + grow))
                ys.append(my + sign * (r * math.sqrt(cyy) * (1.0 + nudge) + grow))
        ys.append(my + sign * r * cxy / math.sqrt(cxx))
        xs.append(mx + sign * r * cxy / math.sqrt(cyy))
    return xs, ys


def both_boxes(render):
    """render() with the bodies' own boxes and with plain support boxes."""
    got = render()
    with pytest.MonkeyPatch.context() as mp:
        step_support_boxes(mp)
        want = render()
    return got, want


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), ss_k=st.integers(1, 3),
       epsilon=st.sampled_from([1e-4, 0.0]))
def test_skip_boxes_change_no_pixel_property(seed, n, ss_k, epsilon):
    # Thin rotated splats (sigma 1e-7..1e3 px, axis ratio up to 1e9) of
    # opacity from ALPHA_SKIP * (1 +- 1e-9) to 1, on grids through their skip
    # ellipses and boxes: every frame and blend_pixel, truncated and not,
    # equals the same render stepped over the plain support boxes, in every
    # mode. Splats whose rounding allowance reaches 1 keep the support box.
    rng = np.random.default_rng(seed)
    splats, xs, ys = [], [], []
    for depth in range(n):
        minor = 10.0 ** rng.uniform(-7.0, 3.0)
        major = minor * 10.0 ** rng.uniform(0.0, min(9.0, 3.0 - math.log10(minor)))
        opacity = [ALPHA_SKIP * (1.0 - 1e-9), ALPHA_SKIP * (1.0 + 1e-9),
                   rng.uniform(ALPHA_SKIP, 1.0), 1.0][rng.integers(4)]
        sp = rot_splat(rng.uniform(-2.0, 2.0, 2), major, minor, rng.uniform(0.0, math.pi),
                       opacity, depth=float(depth), color=rng.uniform(0.0, 1.0, 3))
        splats.append(sp)
        sx, sy = ellipse_coords(sp)
        xs += sx
        ys += sy
    xs, ys = np.sort(xs), np.sort(ys)
    cloud = stack_splats(splats)
    for prep in (prepare_splats(cloud, SUPPORT_SIGMA), prepare_splats(cloud)):
        for mode in ("center", "integrated", "gb"):
            got, want = both_boxes(lambda: blend_grid(prep, xs, ys, mode, epsilon))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), mode
        # ss: a 5 x 5 grid of pixels, one of whose sub-points sits on a coordinate
        off = (rng.integers(ss_k) + 0.5) / ss_k - 0.5
        px, py = (rng.choice(a) - off + np.arange(-2.0, 3.0) for a in (xs, ys))
        got, want = both_boxes(lambda: blend_grid(prep, px, py, "ss", epsilon, ss_k))
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes(), "ss"
        for mode in blending.MODES:
            for x, y in zip(rng.choice(xs, 3), rng.choice(ys, 3)):
                got, want = both_boxes(lambda: blend_pixel(prep, (x, y), mode, epsilon, ss_k))
                assert got[0].tobytes() == want[0].tobytes() and got[1] == want[1], mode


class AlphaCount:
    """Counts the splat-point alphas that the center and integrated bodies
    evaluate (_alpha_center, _alpha_integrated), done points of a dense
    rectangle included."""

    def __init__(self, mp):
        self.n = 0
        for name in ("_alpha_center", "_alpha_integrated"):
            mp.setattr(blending, name, self._wrap(getattr(blending, name)))

    def _wrap(self, alpha_of):
        def counted(*args):
            alpha = alpha_of(*args)
            self.n += alpha.size
            return alpha
        return counted


@pytest.mark.parametrize("scene, mode, ss_k, support, own", [
    (synth.two_plane_scene, "ss", 2, 620043, 484405),
    (synth.random_cloud, "center", 1, 23939, 16369),
], ids=["two_plane-ss", "random_cloud-center"])
def test_skip_boxes_evaluate_fewer_alphas(scene, mode, ss_k, support, own):
    # x1 frames (64 x 48): the skip box keeps a splat from the points where
    # its alpha cannot pass ALPHA_SKIP, and the frame stays the same
    cloud, cam = scene(0)
    counts = []

    def counted_render():
        with pytest.MonkeyPatch.context() as mp:
            count = AlphaCount(mp)
            fb = raster.render(cloud, cam, mode, ss_k=ss_k)
        counts.append(count.n)
        return fb

    got, want = both_boxes(counted_render)
    assert counts == [own, support]
    assert got.rgb.tobytes() == want.rgb.tobytes()
    assert got.residual.tobytes() == want.residual.tobytes()
