"""The blend_grid schedule: runs of small splats blended in depth layers.

blend_grid steps a large splat on its own and a run of consecutive small
splats one depth layer at a time. The schedule must not change a pixel, so
every test compares frames bit for bit with blend_pixel, which steps splat by
splat, or with another schedule of the same frame. Each test also checks that
the frame it renders does reach the layered path.
"""

import numpy as np
import pytest

from _reference import Splat2D, stack_splats
from splatlab import blending, raster, synth
from splatlab.blending import SUPPORT_SIGMA, blend_pixel, prepare_splats
from splatlab.raster import render_projected
from splatlab.scene import project_cloud

MODES = ["center", "integrated", "gb", "ss"]


class StepLog:
    """Counts blend_grid's steps by kind and the points layer steps end."""

    def __init__(self, monkeypatch):
        self.single = self.layer = self.ended_in_layer = 0
        steps = blending._steps

        def logged_steps(prep, xs, ys, done):
            for act, j in steps(prep, xs, ys, done):
                if isinstance(j, np.ndarray):
                    self.layer += 1
                else:
                    self.single += 1
                yield act, j

        monkeypatch.setattr(blending, "_steps", logged_steps)
        for cls in (blending._ScalarBlend, blending._WindowBlend):
            monkeypatch.setattr(cls, "step", self._wrap(cls.step))

    def _wrap(self, step):
        def logged_step(blend, prep, j, act, epsilon):
            ended = step(blend, prep, j, act, epsilon)
            if isinstance(j, np.ndarray):
                self.ended_in_layer += ended.size
            return ended
        return logged_step


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
    assert_pixels_equal_blend_pixel(prep, 24, 18, mode, ss_k=2, background=(0.1, 0.2, 0.3))
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
