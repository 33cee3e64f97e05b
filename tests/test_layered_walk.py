"""The blend_grid schedule: runs of small splats blended in depth layers,
and large splats stepped dense or gathered.

blend_grid steps a large splat on its own and a run of consecutive small
splats one depth layer at a time; a large splat's rectangle is stepped dense,
on slice views, or gathered by index. Neither choice may change a pixel, so
every test compares frames bit for bit with blend_pixel, which steps splat by
splat, or with another schedule of the same frame. Each test also checks that
the frame it renders does reach the path it is about.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import Splat2D, stack_splats
from splatlab import blending, raster, synth
from splatlab.blending import SUPPORT_SIGMA, blend_pixel, prepare_splats
from splatlab.raster import render_projected
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


def assert_pixels_equal_blend_pixel(prep, width, height, mode, ss_k, **kw):
    fb = render_projected(prep, width, height, mode, ss_k=ss_k, **kw)
    for y in range(height):
        for x in range(width):
            rgb, res = blend_pixel(prep, (x + 0.5, y + 0.5), mode, ss_k=ss_k, **kw)
            assert fb.rgb[y, x].tobytes() == rgb.tobytes(), (mode, x, y)
            assert fb.residual[y, x] == res, (mode, x, y)
    return fb


@pytest.mark.parametrize("mode", MODES)
def test_zoom_frame_equals_blend_pixel(mode, monkeypatch):
    # two_plane_zoom at x1: 24x18 pixels under thousands of small splats, the
    # frame the layered walk is for.
    cloud, cam = synth.two_plane_zoom_scene(0)
    lowpass = raster.LOWPASS_CENTER if mode == "center" else 0.0
    prep = prepare_splats(project_cloud(cloud, cam, lowpass=lowpass), SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    assert_pixels_equal_blend_pixel(prep, cam.width, cam.height, mode, ss_k=2)
    assert log.layer > 0


def iso(mu, sigma, opacity, depth, color):
    return Splat2D(mu2d=np.asarray(mu, float), cov2d=sigma * sigma * np.eye(2), depth=depth,
                   opacity=opacity, color=np.asarray(color, float))


def interleaved_scene(rng, opacity=(0.2, 0.9)):
    """Groups of 9-14 small splats (3 sigma boxes of at most 5x5 points) in
    depth order between one or two large ones (boxes of 17x17 and more) on
    a 24x18 frame, so runs alternate with single-splat steps."""
    splats, depth = [], 1.0
    for _ in range(6):
        for _ in range(int(rng.integers(9, 15))):
            splats.append(iso(rng.uniform([6, 5], [18, 13]), rng.uniform(0.3, 0.8),
                              rng.uniform(*opacity), depth, rng.uniform(0, 1, 3)))
            depth += 1.0
        for _ in range(int(rng.integers(1, 3))):
            splats.append(iso(rng.uniform([3, 3], [21, 15]), rng.uniform(3.0, 5.0),
                              rng.uniform(0.1, 0.5), depth, rng.uniform(0, 1, 3)))
            depth += 1.0
    return stack_splats(splats)


@pytest.mark.parametrize("mode", MODES)
def test_runs_interleaved_with_large_splats(mode, monkeypatch):
    prep = prepare_splats(interleaved_scene(np.random.default_rng(21)), SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    assert_pixels_equal_blend_pixel(prep, 24, 18, mode, ss_k=2)
    assert log.layer >= 6 and log.single >= 6


@pytest.mark.parametrize("mode", ["center", "integrated", "gb"])
def test_points_terminate_inside_a_run(mode, monkeypatch):
    # Opaque small splats and a large epsilon end most points after one or
    # two splats, in the middle of a run; their later pairs must be skipped.
    prep = prepare_splats(interleaved_scene(np.random.default_rng(22), opacity=(0.95, 0.99)),
                          SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    assert_pixels_equal_blend_pixel(prep, 24, 18, mode, ss_k=1, epsilon=0.3)
    assert log.ended_in_layer > 0


@pytest.mark.parametrize("mode", MODES)
def test_run_pair_budget_changes_no_pixel(mode, monkeypatch):
    # A pair budget of a few pairs splits every run into many small ones.
    cloud, cam = synth.two_plane_zoom_scene(1)
    prep = prepare_splats(project_cloud(cloud, cam), SUPPORT_SIGMA)
    want = render_projected(prep, cam.width, cam.height, mode, ss_k=2, epsilon=0.05)
    log = StepLog(monkeypatch)
    monkeypatch.setattr(blending, "_RUN_PAIRS", 8)
    got = render_projected(prep, cam.width, cam.height, mode, ss_k=2, epsilon=0.05)
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
      4  sigma 12: every live gb window trips the guard (side/sigma < 0.1)
      5  sigma 10: gb windows that 0 and 3 resized stay in the guard, the
         rest trip; the trip branch is dense, the in-guard one gathered
    """
    return stack_splats([
        iso((24, 12), 4.0, 0.5, 1.0, (0.9, 0.2, 0.1)),
        iso((12, 12), 8.0, 0.99, 2.0, (0.1, 0.8, 0.2)),
        iso((12, 12), 3.0, 0.6, 3.0, (0.2, 0.3, 0.9)),
        iso((30, 12), 5.0, 0.5, 4.0, (0.7, 0.7, 0.1)),
        iso((36, 12), 12.0, 0.4, 5.0, (0.3, 0.1, 0.6)),
        iso((30, 12), 10.0, 0.4, 6.0, (0.5, 0.5, 0.5)),
    ])


DENSE_FORMS = {
    "center": {("step", "dense"): 5, ("step", "gathered"): 1},
    "integrated": {("step", "dense"): 5, ("step", "gathered"): 1},
    "gb": {("_moments", "dense"): 3, ("_moments", "gathered"): 2, ("_fallback", "dense"): 2},
    "ss": {("step", "dense"): 5, ("step", "gathered"): 1},
}


@pytest.mark.parametrize("mode", MODES)
def test_dense_rect_steps_equal_blend_pixel(mode, monkeypatch):
    # Dense steps must mask the done points out of every write; blend_pixel
    # (a 1 x 1 grid, so every rectangle is gathered) is the reference.
    prep = prepare_splats(dense_rect_scene(), SUPPORT_SIGMA)
    log = StepLog(monkeypatch)
    render_projected(prep, 48, 24, mode, ss_k=2, epsilon=0.5)
    assert {form for _, form in log.forms} == {"dense", "gathered"}
    assert dict(log.forms) == DENSE_FORMS[mode]
    assert_pixels_equal_blend_pixel(prep, 48, 24, mode, ss_k=2, epsilon=0.5)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_small=st.integers(0, 12), n_large=st.integers(0, 4),
       width=st.integers(1, 24), height=st.integers(1, 18))
def test_render_bounds_and_band_split_property(seed, n_small, n_large, width, height):
    # Random frames of small and large splats: the residual stays in [0, 1],
    # rgb finite and >= 0, in every mode, and bands of one pixel row, whose
    # edges cut the dense rectangles, change no byte.
    rng = np.random.default_rng(seed)
    sigmas = np.concatenate([rng.uniform(0.3, 1.0, n_small), rng.uniform(3.0, 8.0, n_large)])
    scene = stack_splats([
        iso(rng.uniform([-2, -2], [width + 2, height + 2]), sigma, rng.uniform(0.05, 1.0),
            float(depth), rng.uniform(0, 1, 3))
        for depth, sigma in zip(rng.permutation(sigmas.size), rng.permutation(sigmas))])
    prep = prepare_splats(scene, SUPPORT_SIGMA)
    for mode in MODES:
        fb = render_projected(prep, width, height, mode, ss_k=2)
        assert np.isfinite(fb.rgb).all() and (fb.rgb >= 0).all()
        assert ((fb.residual >= 0) & (fb.residual <= 1)).all()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(blending, "_BAND_POINTS", 1)
            rows = render_projected(prep, width, height, mode, ss_k=2)
        assert rows.rgb.tobytes() == fb.rgb.tobytes()
        assert rows.residual.tobytes() == fb.residual.tobytes()
