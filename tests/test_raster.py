"""Full-frame rendering tests."""

import errno
import os
import signal
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import Splat2D, assert_pixels_equal_blend_pixel, iso_splat, stack_splats
from splatlab import blending, raster
from splatlab.blending import SUPPORT_SIGMA, blend_pixel, prepare_splats
from splatlab.errorlab import SweepConfig, run_sweep
from splatlab.raster import (
    Framebuffer,
    render,
    render_projected,
)
from splatlab.scene import Camera, SplatCloud, project_cloud


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
    return Camera(fx=fx, fy=fx, cx=width / 2, cy=height / 2, width=width, height=height, near=0.1)


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
    # 4 float64 a pixel: 2**64 pixels overflow sys.maxsize bytes, and NumPy
    # integers may not wrap around to a small product
    for side in (2**32, np.int64(2**32)):
        with pytest.raises(ValueError, match=f"^image of width {2**32} and height {2**32}: "):
            render_projected(prep, side, side)


def test_a_frame_buffer_the_os_refuses_is_a_memory_error(monkeypatch):
    # The buffer is mapped before the grid is cut. Unchecked, a frame too large
    # for the memory first built its whole tile list, then failed in mmap with a
    # bare OSError that named no input. A stand-in refuses the map here: no
    # real oversized frame is mapped, cut or rendered.
    def refuse(*args):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    def cut(*args):
        raise AssertionError("the grid was cut before its buffer was mapped")

    monkeypatch.setattr(raster.mmap, "mmap", refuse)
    monkeypatch.setattr(raster, "tiles", cut)
    prep = prepare_splats(stack_splats([iso_splat((1.0, 1.0), 1.0, 0.5)]), SUPPORT_SIGMA)
    message = r"^frame of width 40 and height 30: the OS refused its 38400-byte buffer$"
    with pytest.raises(MemoryError, match=message) as info:
        render_projected(prep, 40, 30, "gb")
    assert isinstance(info.value.__cause__, OSError)
    assert info.value.__cause__.errno == errno.ENOMEM


@pytest.mark.parametrize("width, height, name", [
    (2.5, 3, "width"), (True, 3, "width"), (3, np.float64(2.0), "height"), (3, False, "height"),
])
def test_render_projected_rejects_non_integer_sizes(width, height, name):
    # Unchecked, width 2.5 rendered 3 columns and True rendered 1.
    prep = prepare_splats(stack_splats([iso_splat((1.0, 1.0), 1.0, 0.5)]), SUPPORT_SIGMA)
    with pytest.raises(ValueError, match=rf"^image dimensions must be integers >= 1: {name} is "):
        render_projected(prep, width, height)
    # a NumPy integer is an integer
    assert render_projected(prep, np.int64(3), 2).residual.shape == (2, 3)


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


def test_frame_equals_blend_pixel_at_every_pixel():
    # The frame walk must equal a direct per-pixel blend over the full splat
    # list, at every pixel and in every mode.
    rng = np.random.default_rng(9)
    scene = random_scene(rng, 40, 19, 13)
    prep = prepare_splats(scene, 3.0)
    for mode in ("center", "integrated", "gb", "ss"):
        fb = render_projected(prep, 19, 13, mode, ss_k=3)
        assert_pixels_equal_blend_pixel(prep, fb, mode, ss_k=3)


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
    # A tile budget small enough to split the frame into many tiles must
    # agree with the one-tile result.
    rng = np.random.default_rng(11)
    prep = prepare_splats(random_scene(rng, 20, 16, 16), SUPPORT_SIGMA)
    monkeypatch.setattr(blending, "_TILE_POINTS", 1 << 30)
    a = render_projected(prep, 16, 16, "ss", ss_k=8)
    monkeypatch.setattr(blending, "_TILE_POINTS", 3 * 16 * 8 * 8)  # tiles of 6 x 8 pixels
    b = render_projected(prep, 16, 16, "ss", ss_k=8)
    assert a.rgb.tobytes() == b.rgb.tobytes()
    assert a.residual.tobytes() == b.residual.tobytes()


@pytest.mark.parametrize("mode", ["center", "integrated", "gb", "ss"])
def test_tiles_bound_points_and_cover_frame_once(mode, monkeypatch):
    # A 64-point budget cuts frames whose sides are multiples of no tile side
    # into tiles: 19 x 13 both ways, 45 x 2 only across; ss at k=3 holds 9
    # sub-points per pixel. Every leaf (a call that walks the splats) holds
    # at most the budget, the leaves cover each blend point of the frame
    # exactly once, and the cut changes no byte of the one-tile render. The
    # log lives in this process, so the frame is held to one band (one CPU):
    # a forked band's calls would not reach it. It logs render_projected's
    # own calls, one per tile, and the calls blend_grid makes inside them.
    monkeypatch.setattr(raster, "_cpus", lambda: 1)
    k = 3
    calls = []
    real = blending.blend_grid

    def logged(prep, xs, ys, mode, *args, **kw):
        call = [xs, ys, mode, 0]
        calls.append(call)
        n = len(calls)
        out = real(prep, xs, ys, mode, *args, **kw)
        call[3] = len(calls) - n  # the calls made inside this one
        return out

    monkeypatch.setattr(blending, "blend_grid", logged)
    monkeypatch.setattr(raster, "blend_grid", logged)
    for width, height in ((19, 13), (45, 2)):
        prep = prepare_splats(random_scene(np.random.default_rng(12), 30, width, height),
                              SUPPORT_SIGMA)
        monkeypatch.setattr(blending, "_TILE_POINTS", 1 << 30)
        whole = render_projected(prep, width, height, mode, ss_k=k)
        calls.clear()
        monkeypatch.setattr(blending, "_TILE_POINTS", 64)
        tiled = render_projected(prep, width, height, mode, ss_k=k)
        assert tiled.rgb.tobytes() == whole.rgb.tobytes()
        assert tiled.residual.tobytes() == whole.residual.tobytes()

        sub = k if mode == "ss" else 1
        grid_x = blending.subsample_axis(np.arange(width) + 0.5, sub)
        grid_y = blending.subsample_axis(np.arange(height) + 0.5, sub)
        covered = np.zeros((grid_y.size, grid_x.size), dtype=int)
        leaves = [(xs, ys, m) for xs, ys, m, inner in calls if inner == 0]
        assert len(leaves) > 1
        for xs, ys, m in leaves:
            assert m != "ss" and 0 < np.size(xs) * np.size(ys) <= 64
            covered[np.ix_(grid_y.searchsorted(ys), grid_x.searchsorted(xs))] += 1
        assert (covered == 1).all()


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


@settings(max_examples=60)
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


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    width=st.integers(1, 16),
    height=st.integers(1, 12),
    epsilon=st.sampled_from([1e-4, 0.0]),
)
def test_white_splats_partition_unity_property(seed, n, width, height, epsilon):
    # Each step moves mass from the residual into rgb, epsilon termination,
    # the gb fallback and its over branch included; so with every splat white,
    # rgb[..., c] + residual == 1 in every mode, with no oracle.
    rng = np.random.default_rng(seed)
    cloud = random_scene(rng, n, width, height, sig_lo=-0.7)
    cloud.color[:] = 1.0
    prep = prepare_splats(cloud)
    xs, ys = np.arange(width) + 0.5, np.arange(height) + 0.5
    for mode in ("center", "integrated", "gb", "ss"):
        rgb, res = blending.blend_grid(prep, xs, ys, mode, epsilon, ss_k=2)
        assert np.abs(rgb + res[..., None] - 1.0).max(initial=0.0) <= 1e-12, mode


# --- rendering: bands of tiles in forked processes ----------------------------


@contextmanager
def deadline(seconds=60):
    """A TimeoutError in this process after seconds, so that a hung band
    fails the test; the render kills and reaps its children on the way out."""
    def expire(signum, frame):
        raise TimeoutError(f"no result after {seconds} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


BAND_W, BAND_H = 13, 7
# Under a budget of 25 pixels (times k * k blend points each) a BAND_W x
# BAND_H frame is 6 tiles, 3 columns (5, 5, 3) by 2 rows (4, 3), row-major;
# each tile by its first (row, column).
TILE_PX = 25
TILE_STARTS = [(0, 0), (0, 5), (0, 10), (4, 0), (4, 5), (4, 10)]


def split_every_frame(monkeypatch, cpus, k=1):
    """Force the CPU count and a tile budget of TILE_PX pixels of k * k blend
    points, so that a BAND_W x BAND_H frame in a mode of k * k points a pixel
    is dealt to min(cpus, 6) processes; returns the log of forks."""
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(raster, "_cpus", lambda: cpus)
    monkeypatch.setattr(blending, "_TILE_POINTS", TILE_PX * k * k)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def tile_of(xs, ys) -> int:
    """The index of the tile of a BAND_W x BAND_H frame whose pixels are ys x xs."""
    return TILE_STARTS.index((int(ys[0]), int(xs[0])))


@pytest.mark.parametrize("mode", ["center", "integrated", "gb", "ss"])
@pytest.mark.parametrize("cpus", [1, 2, 3, 8])  # 8: more CPUs than tiles
def test_band_split_is_byte_identical(mode, cpus, monkeypatch):
    rng = np.random.default_rng(31)
    prep = prepare_splats(random_scene(rng, 30, BAND_W, BAND_H), SUPPORT_SIGMA)
    xs, ys = np.arange(BAND_W) + 0.5, np.arange(BAND_H) + 0.5
    rgb, res = blending.blend_grid(prep, xs, ys, mode, ss_k=3)
    k = 3 if mode == "ss" else 1
    forks = split_every_frame(monkeypatch, cpus, k)
    cut = blending.tiles(BAND_W, BAND_H, k)
    assert [(rows.start, cols.start) for rows, cols in cut] == TILE_STARTS
    with deadline():
        fb = render_projected(prep, BAND_W, BAND_H, mode, ss_k=3)
    assert len(forks) == min(cpus, len(cut)) - 1
    assert fb.rgb.tobytes() == np.ascontiguousarray(rgb).tobytes()
    assert fb.residual.tobytes() == np.ascontiguousarray(res).tobytes()
    assert fb.stats.n_bands_redone == 0
    assert_no_child_left()


def failing_band(monkeypatch, tiles, fail):
    """blend_grid as render_projected calls it, but fail() in each of the
    tiles (indices into TILE_STARTS) of a band."""
    real = raster.blend_grid

    def blend(prep, xs, ys, mode, **kw):
        if tile_of(xs, ys) in tiles:
            fail()
        return real(prep, xs, ys, mode, **kw)

    monkeypatch.setattr(raster, "blend_grid", blend)


def boom():
    raise ValueError("boom")


def log_bands(monkeypatch):
    """Wrap raster.blend_grid (as patched so far) and os.waitpid to log, in
    this process only, each tile blended and the exit code of each child
    reaped."""
    log, pid = [], os.getpid()
    real_blend, real_waitpid = raster.blend_grid, os.waitpid

    def blend(prep, xs, ys, mode, **kw):
        if os.getpid() == pid:
            log.append(("blend", tile_of(xs, ys)))
        return real_blend(prep, xs, ys, mode, **kw)

    def waitpid(child, options):
        child, status = real_waitpid(child, options)
        log.append(("reaped", os.waitstatus_to_exitcode(status)))
        return child, status

    monkeypatch.setattr(raster, "blend_grid", blend)
    monkeypatch.setattr(os, "waitpid", waitpid)
    return log


def band_scene(seed):
    return prepare_splats(random_scene(np.random.default_rng(seed), 10, BAND_W, BAND_H),
                          SUPPORT_SIGMA)


def test_child_band_error_is_the_serial_error(monkeypatch):
    # 3 bands of the 6 tiles: tiles 0-1 in this process, 2-3 and 4-5 forked.
    # The child of tiles 4-5 raises at tile 4 and exits 1; this process
    # blends that band again and raises what blend_grid raised there, not a
    # wrapper.
    prep = band_scene(32)
    split_every_frame(monkeypatch, 3)
    failing_band(monkeypatch, (4, 5), boom)
    log = log_bands(monkeypatch)
    with deadline(), pytest.raises(ValueError, match="^boom$"):
        render_projected(prep, BAND_W, BAND_H, "gb")
    assert log == [("blend", 0), ("blend", 1), ("reaped", 0), ("reaped", 1), ("blend", 4)]
    assert_no_child_left()


@pytest.mark.parametrize("fails", ["child killed", "fork failed"])
def test_band_no_child_finished_is_redone_by_the_parent(fails, monkeypatch):
    # Tiles 4-5 of 6 in 3 bands: their child SIGKILLs itself, or their
    # os.fork (the second) raises EAGAIN. This process blends them instead,
    # to the bytes of one blend_grid call.
    prep = band_scene(36)
    xs, ys = np.arange(BAND_W) + 0.5, np.arange(BAND_H) + 0.5
    rgb, res = blending.blend_grid(prep, xs, ys, "ss", ss_k=3)
    forks = split_every_frame(monkeypatch, 3, k=3)
    if fails == "child killed":
        pid = os.getpid()

        def die_in_child():
            if os.getpid() != pid:
                os.kill(os.getpid(), signal.SIGKILL)

        failing_band(monkeypatch, (4, 5), die_in_child)
    else:
        counted_fork = os.fork

        def fork():
            if len(forks) == 1:
                forks.append(1)
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return counted_fork()

        monkeypatch.setattr(os, "fork", fork)
    with deadline():
        fb = render_projected(prep, BAND_W, BAND_H, "ss", ss_k=3)
    assert len(forks) == 2
    assert fb.rgb.tobytes() == np.ascontiguousarray(rgb).tobytes()
    assert fb.residual.tobytes() == np.ascontiguousarray(res).tobytes()
    assert fb.stats.n_bands_redone == 1
    assert_no_child_left()


def test_parent_band_failure_kills_the_children(monkeypatch):
    # The parent's own band (tiles 0-2) raises while the child's (tiles 3-5)
    # would sleep a minute: the parent's error comes at once, and no child
    # is left.
    prep = band_scene(33)
    split_every_frame(monkeypatch, 2)
    failing_band(monkeypatch, (3, 4, 5), lambda: time.sleep(60))
    failing_band(monkeypatch, (0, 1, 2), boom)
    t0 = time.perf_counter()
    with deadline(), pytest.raises(ValueError, match="^boom$"):
        render_projected(prep, BAND_W, BAND_H, "center")
    assert time.perf_counter() - t0 < 30
    assert_no_child_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_frames_tiles_do_not_depend_on_the_cpu_count(cpus, monkeypatch, tmp_path):
    # Every process appends each tile it blends to one file. On 1 CPU this
    # process blends the 6 tiles in order; on 2 and 3 it blends the first
    # 6 // cpus of them, in order, and each child one run of the rest.
    def blended(cpus):
        path = tmp_path / f"{cpus}.log"
        split_every_frame(monkeypatch, cpus)
        real = raster.blend_grid

        def blend(prep, xs, ys, mode, **kw):
            with open(path, "a") as f:
                f.write(f"{os.getpid()} {tile_of(xs, ys)}\n")
            return real(prep, xs, ys, mode, **kw)

        with monkeypatch.context() as mp:
            mp.setattr(raster, "blend_grid", blend)
            with deadline():
                render_projected(band_scene(37), BAND_W, BAND_H, "integrated")
        runs = {}
        for line in path.read_text().splitlines():
            pid, tile = map(int, line.split())
            runs.setdefault(pid, []).append(tile)
        return runs

    serial = blended(1)
    assert serial == {os.getpid(): list(range(6))}
    runs = blended(cpus)
    assert len(runs) == cpus
    assert runs.pop(os.getpid()) == list(range(6 // cpus))
    assert sorted(runs.values()) == [list(range(6))[6 * i // cpus:6 * (i + 1) // cpus]
                                     for i in range(1, cpus)]
    assert_no_child_left()


@pytest.mark.parametrize("width, height", [(200, 1), (192, 72)])
def test_a_grid_within_the_tile_budget_is_one_walk(width, height, monkeypatch):
    # Both grids hold at most _TILE_POINTS blend points (192 x 72 holds
    # 13 824) but are wider than a tile cut from a larger grid, 128 pixels:
    # they are one tile, which blend_grid walks once, and render_projected
    # blends in this process, however many CPUs.
    walks = []
    steps = blending._steps

    def counted_steps(ranges, live):
        walks.append(live.shape)
        return steps(ranges, live)

    monkeypatch.setattr(blending, "_steps", counted_steps)
    monkeypatch.setattr(raster, "_cpus", lambda: 64)
    prep = prepare_splats(random_scene(np.random.default_rng(38), 10, width, height),
                          SUPPORT_SIGMA)
    rgb, res = blending.blend_grid(prep, np.arange(width) + 0.5, np.arange(height) + 0.5,
                                   "center")
    fb = render_projected(prep, width, height, "center")
    assert walks == [(height, width)] * 2
    assert fb.rgb.tobytes() == rgb.tobytes() and fb.residual.tobytes() == res.tobytes()
    assert blending.tiles(width, height, 1) == [(slice(0, height), slice(0, width))]


@pytest.mark.parametrize("mode, k, width, height, over", [
    ("gb", 1, 128, 128, 0),
    ("gb", 1, 145, 113, 1),
    ("ss", 4, 32, 32, 0),
    ("ss", 4, 33, 32, 512),
])
def test_a_frame_forks_exactly_above_the_tile_budget(mode, k, width, height, over, monkeypatch):
    # On 2 CPUs a frame of _TILE_POINTS blend points (sub-points in ss) is
    # one tile and stays in this process; one of over more is two tiles, and
    # forks once.
    assert width * height * k * k == blending._TILE_POINTS + over
    forks = []
    real_fork = os.fork

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(raster, "_cpus", lambda: 2)
    prep = prepare_splats(random_scene(np.random.default_rng(39), 10, width, height),
                          SUPPORT_SIGMA)
    rgb, res = blending.blend_grid(prep, np.arange(width) + 0.5, np.arange(height) + 0.5,
                                   mode, ss_k=k)
    with deadline():
        fb = render_projected(prep, width, height, mode, ss_k=k)
    assert len(forks) == (1 if over else 0)
    assert len(blending.tiles(width, height, k)) == len(forks) + 1
    assert fb.rgb.tobytes() == rgb.tobytes() and fb.residual.tobytes() == res.tobytes()
    assert_no_child_left()


def test_no_fork_outside_the_split_rule(monkeypatch):
    # blend_pixel, run_sweep and blend_grid stay in this process, and so does
    # a frame of at most _TILE_POINTS blend points, one tile whatever its
    # width, however many CPUs.
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(raster, "_cpus", lambda: 64)
    prep = prepare_splats(random_scene(np.random.default_rng(34), 4, 100, 100), SUPPORT_SIGMA)
    blend_pixel(prep, (50.5, 50.5), "ss", ss_k=256)
    run_sweep(SweepConfig("mu_x", -1.0, 1.0, 1.0, modes=("center", "integrated", "gb", "ss")))
    blending.blend_grid(prep, np.arange(200) + 0.5, np.arange(200) + 0.5, "gb")
    most = blending._TILE_POINTS
    for mode, k, width in (("gb", 1, 128), ("center", 1, 200), ("ss", 4, 32)):
        height = most // (width * k * k)
        render_projected(prep, width, height, mode, ss_k=k)


@pytest.mark.parametrize("no_split", ["one CPU", "no os.fork"])
def test_one_process_blends_every_tile_in_order(no_split, monkeypatch):
    calls = []
    real = raster.blend_grid

    def logged(prep, xs, ys, mode, **kw):
        calls.append((xs.tolist(), ys.tolist(), mode, kw))
        return real(prep, xs, ys, mode, **kw)

    split_every_frame(monkeypatch, 1 if no_split == "one CPU" else 4, k=3)
    if no_split == "no os.fork":
        monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(raster, "blend_grid", logged)
    render_projected(band_scene(35), BAND_W, BAND_H, "ss", ss_k=3)
    xs, ys = np.arange(BAND_W) + 0.5, np.arange(BAND_H) + 0.5
    assert calls == [(xs[cols].tolist(), ys[rows].tolist(), "ss", {"ss_k": 3})
                     for rows, cols in blending.tiles(BAND_W, BAND_H, 3)]
    assert len(calls) == len(TILE_STARTS)


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
    assert dflt.stats.n_drawn > 0 and dflt.residual.min() < 1.0
    assert np.array_equal(dflt.rgb, staged("center", raster.LOWPASS_CENTER).rgb)
    assert not np.array_equal(dflt.rgb, staged("center", 0.0).rgb)
    bare = render(cloud, cam, "gb")
    assert bare.stats.n_drawn > 0 and bare.residual.min() < 1.0
    assert np.array_equal(bare.rgb, staged("gb", 0.0).rgb)


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


@pytest.mark.parametrize("mu, scale", [([0.0, 0.0, 5.0], 1e200), ([1e308, 0.0, 5.0], 0.1),
                                       ([-1e308, 0.0, 5.0], 0.1)],
                         ids=["scale-1e200", "mu-1e308", "mu-minus-1e308"])
@pytest.mark.parametrize("mode", ["center", "gb"])
def test_overflow_culled_as_nonfinite(mu, scale, mode):
    # Finite input whose projection overflows (the covariance, or the screen
    # position): a counted cull. A numpy RuntimeWarning used to escape first,
    # an error under the suite.
    cam = make_camera()
    cloud = SplatCloud(mu=[mu, [0.0, 0.0, 5.0]], scale=[[scale] * 3, [0.1] * 3],
                       rot=[[1.0, 0, 0, 0]] * 2, opacity=[0.5, 0.5], sh=np.full((2, 1, 3), 0.3))
    fb = render(cloud, cam, mode)
    assert fb.stats.n_culled_nonfinite == 1 and fb.stats.n_culled_near == 0
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
    with pytest.raises(ValueError, match="transmittance"):
        Framebuffer(rgb=np.zeros((2, 2, 3)), residual=np.full((2, 2), np.nan))
