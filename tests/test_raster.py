"""Full-frame rendering tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import Splat2D, stack_splats
from splatlab import blending, raster
from splatlab.blending import SUPPORT_SIGMA, blend_pixel, prepare_splats
from splatlab.raster import (
    Framebuffer,
    render,
    render_projected,
)
from splatlab.scene import Camera, SplatCloud, project_cloud


def iso_splat(mu, sig, o, color=(1.0, 0.0, 0.0), depth=1.0):
    return Splat2D(
        mu2d=np.asarray(mu, float),
        cov2d=sig * sig * np.eye(2),
        depth=depth,
        opacity=o,
        color=np.asarray(color, float),
    )


def random_scene(rng, n, width, height, sig_lo=-0.3, sig_hi=1.0):
    out = []
    for i in range(n):
        c, s = np.cos(th := rng.uniform(0, np.pi)), np.sin(th)
        r = np.array([[c, -s], [s, c]])
        d = np.diag(10.0 ** rng.uniform(sig_lo, sig_hi, 2)) ** 2
        cov = r @ d @ r.T
        out.append(
            Splat2D(
                mu2d=rng.uniform([-3, -3], [width + 3, height + 3]),
                cov2d=0.5 * (cov + cov.T),
                depth=float(rng.uniform(1, 20)),
                opacity=float(rng.uniform(0.05, 1.0)),
                color=rng.uniform(0, 1, 3),
            )
        )
    return stack_splats(out)


def make_camera(width=32, height=24, fx=30.0):
    w2c = np.hstack([np.eye(3), np.array([[0.0], [0.0], [0.0]])])
    return Camera(world_to_cam=w2c, fx=fx, fy=fx, cx=width / 2, cy=height / 2,
                  width=width, height=height, near=0.1)


def random_cloud(rng, n=40):
    rows = []
    for _ in range(n):
        q = rng.normal(size=4)
        rows.append((
            [rng.uniform(-2, 2), rng.uniform(-1.5, 1.5), rng.uniform(3, 10)],
            10.0 ** rng.uniform(-1.3, -0.3, 3),
            q / np.linalg.norm(q),
            rng.uniform(0.1, 1.0),
            rng.uniform(0, 0.8, (1, 3)),
        ))
    mu, scale, rot, opacity, sh = (np.array(col) for col in zip(*rows))
    return SplatCloud(mu=mu, scale=scale, rot=rot, opacity=opacity, sh=sh)


# --- rendering: structural properties ----------------------------------------


def test_zero_row_scene_renders_rgb_0_residual_1():
    # rgb is composited over black; residual 1 lets any background show through whole.
    prep = prepare_splats(stack_splats([]), SUPPORT_SIGMA)
    nothing = SplatCloud(mu=np.zeros((0, 3)), scale=np.ones((0, 3)), rot=np.zeros((0, 4)),
                         opacity=np.zeros(0), sh=np.zeros((0, 1, 3)))
    for mode in ("center", "integrated", "gb", "ss"):
        fb = render_projected(prep, 20, 12, mode, ss_k=2)
        fb3 = render(nothing, make_camera(20, 12), mode, ss_k=2)
        for got in (fb, fb3):
            assert got.rgb.shape == (12, 20, 3)
            assert np.all(got.rgb == 0.0) and np.all(got.residual == 1.0)
        assert fb3.stats.n_input == 0 and fb3.stats.n_drawn == 0


def test_flat_opaque_splat_fills_frame():
    sp = iso_splat((16.0, 12.0), 1e4, 1.0, color=(0.2, 0.9, 0.4))
    prep = prepare_splats(stack_splats([sp]), SUPPORT_SIGMA)
    fb = render_projected(prep, 32, 24, "gb")
    assert np.allclose(fb.rgb, [0.2, 0.9, 0.4], atol=1e-5)
    assert np.all(fb.residual < 1e-5)
    fbc = render_projected(prep, 32, 24, "center")
    assert np.allclose(fbc.rgb, 0.99 * np.array([0.2, 0.9, 0.4]), atol=1e-5)


def test_render_rejects_bad_dimensions():
    prep = prepare_splats(stack_splats([]), SUPPORT_SIGMA)
    with pytest.raises(ValueError, match="dimensions"):
        render_projected(prep, 0, 64)
    with pytest.raises(ValueError, match="dimensions"):
        render_projected(prep, 64, -1)


def test_render_projected_takes_prepared_splats_only():
    # A ProjectedCloud carries no truncation rule; the caller picks one in prepare_splats.
    projected = stack_splats([iso_splat((8.0, 8.0), 1.0, 0.5)])
    with pytest.raises(TypeError, match=r"not ProjectedCloud.*prepare_splats"):
        render_projected(projected, 16, 16, "gb")


@pytest.mark.parametrize("mode", ["center", "integrated", "gb", "ss"])
def test_pixel_equals_blend_pixel(mode):
    rng = np.random.default_rng(7)
    scene = random_scene(rng, 50, 32, 24)
    prep = prepare_splats(scene)
    k = 4
    fb = render_projected(prep, 32, 24, mode, ss_k=k)
    for _ in range(40):
        x = int(rng.integers(0, 32))
        y = int(rng.integers(0, 24))
        rgb, res = blend_pixel(prep, (x + 0.5, y + 0.5), mode, ss_k=k)
        assert np.array_equal(fb.rgb[y, x], rgb)
        assert fb.residual[y, x] == res


def test_matches_brute_force_no_binning():
    # The frame walk must equal a direct per-pixel blend over the full splat
    # list, at every pixel and in every mode.
    rng = np.random.default_rng(9)
    scene = random_scene(rng, 40, 19, 13)
    prep = prepare_splats(scene, 3.0)
    for mode in ("center", "integrated", "gb", "ss"):
        fb = render_projected(prep, 19, 13, mode, ss_k=3)
        for y in range(13):
            for x in range(19):
                rgb, res = blend_pixel(prep, (x + 0.5, y + 0.5), mode, ss_k=3)
                assert fb.rgb[y, x].tobytes() == rgb.tobytes(), (mode, x, y)
                assert fb.residual[y, x] == res, (mode, x, y)


def test_truncation_bound_3_to_5_sigma():
    rng = np.random.default_rng(10)
    scene = random_scene(rng, 120, 48, 32)
    proj3 = prepare_splats(scene, 3.0)
    proj5 = prepare_splats(scene, 5.0)
    diffs = []
    for mode in ("center", "gb"):
        a = render_projected(proj3, 48, 32, mode)
        b = render_projected(proj5, 48, 32, mode)
        diffs.append(np.abs(a.rgb - b.rgb).max())
    assert max(diffs) < 1e-2


def test_supersample_chunking_consistent(monkeypatch):
    # A band budget small enough to split the frame into many row bands must
    # agree with the one-band result.
    rng = np.random.default_rng(11)
    prep = prepare_splats(random_scene(rng, 20, 16, 16), SUPPORT_SIGMA)
    monkeypatch.setattr(blending, "_BAND_POINTS", 1 << 30)
    a = render_projected(prep, 16, 16, "ss", ss_k=8)
    monkeypatch.setattr(blending, "_BAND_POINTS", 3 * 16 * 8 * 8)  # three rows per band
    b = render_projected(prep, 16, 16, "ss", ss_k=8)
    assert a.rgb.tobytes() == b.rgb.tobytes()
    assert a.residual.tobytes() == b.residual.tobytes()


def test_offscreen_splat_not_drawn():
    # n_drawn counts splats whose support box holds a pixel center.
    on = iso_splat((8.0, 8.0), 1.0, 0.5)
    off = iso_splat((-50.0, 8.0), 1.0, 0.5)
    edge = iso_splat((-2.5, 8.0), 1.0, 0.5)  # box [-5.5, 0.5] reaches pixel center 0.5

    def n_drawn(splats, mode, **kw):
        prep = prepare_splats(stack_splats(splats), SUPPORT_SIGMA)
        return render_projected(prep, 16, 16, mode, **kw).stats.n_drawn

    assert n_drawn([on, off], "gb") == 1
    assert n_drawn([off], "center") == 0
    assert n_drawn([on, off, edge], "ss", ss_k=2) == 2


@pytest.mark.parametrize("mode", ["center", "integrated", "gb", "ss"])
def test_support_box_edges_on_pixel_centers(mode):
    # Support boxes are closed: a box edge exactly on a pixel center includes
    # that pixel, and the next pixel out is untouched.
    sp = iso_splat((8.5, 5.5), 1.0, 0.9)  # 3 sigma box [5.5, 11.5] x [2.5, 8.5]
    prep = prepare_splats(stack_splats([sp]), 3.0)
    assert prep.aabb.tolist() == [[5.5, 2.5, 11.5, 8.5]]
    fb = render_projected(prep, 16, 12, mode, ss_k=2)
    for y in range(12):
        for x in range(16):
            rgb, res = blend_pixel(prep, (x + 0.5, y + 0.5), mode, ss_k=2)
            assert fb.rgb[y, x].tobytes() == rgb.tobytes()
            assert fb.residual[y, x] == res
    if mode != "ss":
        touched = fb.residual < 1.0
        assert touched[5, 5:12].all() and touched[2:9, 8].all()  # the box's middle row and column
        assert not touched[:, :5].any() and not touched[:, 12:].any()
        assert not touched[:2].any() and not touched[9:].any()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    width=st.integers(1, 9),
    height=st.integers(1, 9),
    mode=st.sampled_from(["center", "integrated", "gb", "ss"]),
)
def test_render_equals_blend_pixel_property(seed, n, width, height, mode):
    rng = np.random.default_rng(seed)
    prep = prepare_splats(random_scene(rng, n, width, height, sig_lo=-0.7), 3.0)
    fb = render_projected(prep, width, height, mode, ss_k=3)
    for y in range(height):
        for x in range(width):
            rgb, res = blend_pixel(prep, (x + 0.5, y + 0.5), mode, ss_k=3)
            assert fb.rgb[y, x].tobytes() == rgb.tobytes()
            assert fb.residual[y, x] == res
    centers = np.stack(np.meshgrid(np.arange(width) + 0.5, np.arange(height) + 0.5), -1)
    centers = centers.reshape(-1, 2)
    drawn = [((centers >= box[:2]) & (centers <= box[2:])).all(1).any() for box in prep.aabb]
    assert fb.stats.n_drawn == sum(drawn)


# --- rendering: full 3D pipeline ---------------------------------------------


def test_render_full_pipeline():
    rng = np.random.default_rng(12)
    cloud = random_cloud(rng, 60)
    cam = make_camera()
    fb = render(cloud, cam, "gb")
    assert fb.rgb.shape == (24, 32, 3)
    assert np.all(fb.residual >= 0) and np.all(fb.residual <= 1)
    assert fb.stats.n_input == 60
    assert fb.stats.n_drawn <= 60
    assert fb.stats.wall_time > 0
    again = render(cloud, cam, "gb")
    assert np.array_equal(fb.rgb, again.rgb)


def test_render_lowpass_defaults():
    # render projects center with the LOWPASS_CENTER floor and gb with none;
    # the staged path renders any other floor.
    rng = np.random.default_rng(14)
    cloud = random_cloud(rng, 30)
    cam = make_camera()

    def staged(mode, lowpass):
        prep = prepare_splats(project_cloud(cloud, cam, lowpass=lowpass), SUPPORT_SIGMA)
        return render_projected(prep, cam.width, cam.height, mode)

    dflt = render(cloud, cam, "center")
    assert np.array_equal(dflt.rgb, staged("center", raster.LOWPASS_CENTER).rgb)
    assert not np.array_equal(dflt.rgb, staged("center", 0.0).rgb)
    assert np.array_equal(render(cloud, cam, "gb").rgb, staged("gb", 0.0).rgb)


def test_render_scaled_camera_shapes():
    rng = np.random.default_rng(15)
    cloud = random_cloud(rng, 20)
    cam = make_camera(width=32, height=24)
    fb = render(cloud, cam.scaled(0.5), "gb")
    assert fb.rgb.shape == (12, 16, 3)
    fb2 = render(cloud, cam.scaled(2.0), "gb")
    assert fb2.rgb.shape == (48, 64, 3)


def test_near_cull_counted():
    cam = make_camera()
    behind_and_front = SplatCloud(mu=[[0.0, 0.0, -5.0], [0.0, 0.0, 5.0]],
                                  scale=np.full((2, 3), 0.1), rot=[[1.0, 0, 0, 0]] * 2,
                                  opacity=[0.5, 0.5], sh=np.full((2, 1, 3), 0.3))
    fb = render(behind_and_front, cam, "gb")
    assert fb.stats.n_culled_near == 1
    assert fb.stats.n_drawn == 1


# --- framebuffer validation ---------------------------------------------------


def test_framebuffer_validation():
    ok_rgb = np.zeros((4, 5, 3))
    ok_res = np.ones((4, 5))
    Framebuffer(rgb=ok_rgb, residual=ok_res)
    with pytest.raises(ValueError, match="shape"):
        Framebuffer(rgb=np.zeros((4, 5)), residual=ok_res)
    with pytest.raises(ValueError, match="residual"):
        Framebuffer(rgb=ok_rgb, residual=np.ones((5, 4)))
    with pytest.raises(ValueError, match="finite"):
        Framebuffer(rgb=ok_rgb - 1, residual=ok_res)
    with pytest.raises(ValueError, match="transmittance"):
        Framebuffer(rgb=ok_rgb, residual=ok_res + 0.5)
