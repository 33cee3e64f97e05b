"""Scene model tests: covariance build, projection, color, PLY I/O.

Projection and color behaviours run on project_cloud, the code the renderer
runs; the one-splat versions in _reference.py are its oracle. Color is the
view-independent DC term of a splat's spherical harmonics (scene's module
docstring says why), so a cloud's sh is (n, 1, 3), and a PLY that declares
SH beyond DC (f_rest_*) is rejected at ingest.
"""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _reference import build_covariance, eval_sh, project_cloud_einsum, project_splat
from splatlab.scene import (
    Camera,
    PlyParseError,
    ProjectedCloud,
    SplatCloud,
    load_ply,
    project_cloud,
    save_ply,
)

IDENTITY_Q = np.array([1.0, 0.0, 0.0, 0.0])


def make_camera(**kw):
    base = dict(
        world_to_cam=np.hstack([np.eye(3), np.zeros((3, 1))]),
        fx=100.0,
        fy=100.0,
        cx=32.0,
        cy=24.0,
        width=64,
        height=48,
        near=0.01,
    )
    base.update(kw)
    return Camera(**base)


def splat_cloud(rows) -> SplatCloud:
    """A SplatCloud from per-splat (mu, scale, rot, opacity, sh) rows."""
    mu, scale, rot, opacity, sh = (np.array(col, dtype=float) for col in zip(*rows))
    return SplatCloud(mu=mu, scale=scale, rot=rot, opacity=opacity, sh=sh)


def one_splat(mu, scale=(0.1, 0.1, 0.1), rot=IDENTITY_Q, opacity=1.0, sh=np.zeros((1, 3))):
    return splat_cloud([(mu, scale, rot, opacity, sh)])


def random_splat(rng):
    """One (mu, scale, rot, opacity, sh) row."""
    q = rng.normal(size=4)
    return (
        rng.uniform(-2.0, 2.0, 3),
        np.exp(rng.uniform(-2.0, 0.5, 3)),
        q / np.linalg.norm(q),
        rng.uniform(0.1, 1.0),
        rng.uniform(-0.5, 0.5, (1, 3)),
    )


def random_pose(rng):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    w, x, y, z = q
    r = np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )
    t = rng.uniform(-1.0, 1.0, 3)
    return np.hstack([r, t[:, None]])


def test_build_covariance_identity():
    assert np.allclose(build_covariance([1, 1, 1], IDENTITY_Q), np.eye(3))
    assert np.allclose(build_covariance([2, 1, 1], IDENTITY_Q), np.diag([4.0, 1.0, 1.0]))


def test_build_covariance_eigenvalues_randomized():
    rng = np.random.default_rng(11)
    for _ in range(300):
        scale = np.exp(rng.uniform(-3.0, 3.0, 3))
        q = rng.normal(size=4)
        cov = build_covariance(scale, q)
        assert np.allclose(cov, cov.T, atol=0.0)
        got = np.sort(np.linalg.eigvalsh(cov))
        want = np.sort(scale**2)
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12 * want.max())


def project_one(cloud, cam, lowpass=0.0):
    """project_cloud on a one-splat cloud: (mu2d, cov2d, depth), or None if culled."""
    pc = project_cloud(cloud, cam, lowpass=lowpass)
    if len(pc) == 0:
        return None
    cov = np.array([[pc.cxx[0], pc.cxy[0]], [pc.cxy[0], pc.cyy[0]]])
    return pc.mu2d[0], cov, pc.depth[0]


def test_on_axis_projection():
    cam = make_camera()
    mu2d, cov2d, depth = project_one(one_splat([0.0, 0.0, 2.0], opacity=0.8), cam)
    assert np.allclose(mu2d, [cam.cx, cam.cy], atol=1e-12)
    want = (cam.fx / 2.0) ** 2 * 0.1**2
    assert np.allclose(cov2d, want * np.eye(2), rtol=1e-12)
    assert depth == pytest.approx(2.0)
    # Doubling depth quarters the screen covariance for on-axis isotropic splats.
    _, cov4, _ = project_one(one_splat([0.0, 0.0, 4.0], opacity=0.8), cam)
    assert np.allclose(cov4 * 4.0, cov2d, rtol=1e-12)


def test_behind_camera_culled():
    cam = make_camera()
    behind = one_splat([0.0, 0.0, -1.0])
    inside_near = one_splat([0.0, 0.0, 0.005])  # in front but inside near plane
    for s in (behind, inside_near):
        pc = project_cloud(s, cam)
        assert len(pc) == 0
        assert pc.n_culled_near == 1 and pc.n_culled_nonfinite == 0


def test_overflowing_depth_culled_as_nonfinite():
    # A finite position whose camera depth overflows: turned 45 degrees about
    # y, (-1.5e308, 0, 1.5e308) lands at depth inf with a finite screen x.
    # ProjectedCloud rejects an infinite depth, so project_cloud must cull it.
    c, s = np.cos(np.pi / 4), np.sin(np.pi / 4)
    w2c = np.array([[c, 0.0, s, 0.0], [0.0, 1.0, 0.0, 0.0], [-s, 0.0, c, 0.0]])
    cloud = SplatCloud(mu=[[-1.5e308, 0.0, 1.5e308], [0.0, 0.0, 2.0]], scale=np.full((2, 3), 0.1),
                       rot=np.tile(IDENTITY_Q, (2, 1)), opacity=[0.5, 0.5], sh=np.zeros((2, 1, 3)))
    cam = make_camera(world_to_cam=w2c)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow is culled and counted, not warned about
        pc = project_cloud(cloud, cam)
    assert pc.n_culled_nonfinite == 1 and len(pc) == 1
    # the survivor is the second splat, at depth 2 cos 45 degrees
    assert np.allclose(pc.mu2d, [_project_point(cloud.mu[1], cam)], rtol=1e-12, atol=1e-12)
    assert pc.depth[0] == pytest.approx(2.0 * c, rel=1e-12)


def _project_point(mu, cam):
    p = cam.rotation @ mu + cam.translation
    return np.array(
        [cam.fx * p[0] / p[2] + cam.cx, cam.fy * p[1] / p[2] + cam.cy]
    )


def test_projection_matches_finite_difference_jacobian():
    # cov2d should equal J_fd Sigma J_fd^T where J_fd is the numerical Jacobian
    # of the full world->pixel map (extrinsics included).
    rng = np.random.default_rng(5)
    cam = make_camera(world_to_cam=random_pose(rng))
    for _ in range(50):
        mu = rng.uniform(-1.5, 1.5, 3)
        if (cam.rotation @ mu + cam.translation)[2] < 0.5:
            continue
        s = one_splat(mu, scale=np.exp(rng.uniform(-3.0, -1.0, 3)), rot=rng.normal(size=4))
        p = project_one(s, cam)
        assert p is not None
        mu2d, cov2d, _ = p

        eps = 1e-5
        jfd = np.zeros((2, 3))
        for k in range(3):
            d = np.zeros(3)
            d[k] = eps
            jfd[:, k] = (_project_point(mu + d, cam) - _project_point(mu - d, cam)) / (2 * eps)
        ref = jfd @ build_covariance(s.scale[0], s.rot[0]) @ jfd.T
        assert np.allclose(cov2d, ref, rtol=1e-5, atol=1e-8)
        assert np.allclose(mu2d, _project_point(mu, cam), atol=1e-12)


def test_projection_scale_consistency():
    # Scaling intrinsics and resolution by k scales mu2d by k and cov2d by k^2.
    rng = np.random.default_rng(17)
    cam = make_camera(world_to_cam=random_pose(rng))
    for k in (0.5, 2.0, 8.0):
        cam_k = cam.scaled(k)
        for _ in range(20):
            s = one_splat(*random_splat(rng))
            a, b = project_one(s, cam), project_one(s, cam_k)
            if a is None:
                assert b is None
                continue
            assert np.allclose(b[0], a[0] * k, rtol=1e-12, atol=1e-9)
            assert np.allclose(b[1], a[1] * k * k, rtol=1e-12, atol=1e-12)


def test_lowpass_floor_added_to_diagonal():
    cam = make_camera()
    s = one_splat([0.1, -0.2, 3.0], scale=[0.05] * 3)
    _, bare, _ = project_one(s, cam, lowpass=0.0)
    _, floored, _ = project_one(s, cam, lowpass=0.3)
    assert np.allclose(floored - bare, 0.3 * np.eye(2), atol=1e-12)


def test_project_cloud_matches_scalar_path():
    rng = np.random.default_rng(23)
    cam = make_camera(world_to_cam=random_pose(rng))
    rows = [random_splat(rng) for _ in range(200)]
    # Push one behind the camera, 3 units back from its origin, to exercise culling.
    origin = -cam.rotation.T @ cam.translation
    rows[7] = (origin - 3.0 * cam.rotation[2], [0.1] * 3, IDENTITY_Q, 0.5, np.zeros((1, 3)))
    cloud = splat_cloud(rows)
    pc = project_cloud(cloud, cam, lowpass=0.3)

    # Survivor order is the input order (stable for depth ties downstream):
    # row j is the j-th input the scalar path keeps.
    kept = [ref for ref in (project_splat(cloud, i, cam, lowpass=0.3) for i in range(len(cloud)))
            if ref is not None]
    assert len(pc) == len(kept)
    assert pc.n_culled_near >= 1
    for j, ref in enumerate(kept):
        assert np.allclose(pc.mu2d[j], ref.mu2d, rtol=1e-12, atol=1e-12)
        cov = np.array([[pc.cxx[j], pc.cxy[j]], [pc.cxy[j], pc.cyy[j]]])
        assert np.allclose(cov, ref.cov2d, rtol=1e-9, atol=1e-12)
        assert pc.depth[j] == pytest.approx(ref.depth, rel=1e-12)
        assert np.allclose(pc.color[j], ref.color, rtol=1e-12, atol=1e-12)


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 24), identity=st.booleans(),
       log10_scale=st.sampled_from([(-200.0, -150.0), (-6.0, 3.0), (150.0, 160.0)]),
       lowpass=st.sampled_from([0.0, 0.3]))
def test_project_cloud_bits_equal_einsum_form_property(seed, n, identity, log10_scale, lowpass):
    # The ordered sum reproduces the einsum form bit for bit, signs of zero
    # included. Scales span an underflowing range (products that round to
    # +-0), an ordinary one and an overflowing one (culled as non-finite);
    # about half of the splats lie behind the near plane.
    rng = np.random.default_rng(seed)
    w2c = np.hstack([np.eye(3), np.zeros((3, 1))]) if identity else random_pose(rng)
    cam = make_camera(world_to_cam=w2c, fx=rng.uniform(10.0, 500.0), fy=rng.uniform(10.0, 500.0))
    cloud = SplatCloud(mu=rng.uniform(-2.0, 2.0, (n, 3)),
                       scale=10.0 ** rng.uniform(*log10_scale, (n, 3)),
                       rot=rng.normal(size=(n, 4)),
                       opacity=rng.uniform(0.0, 1.0, n),
                       sh=rng.uniform(-1.0, 1.0, (n, 1, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # overflow is culled and counted, not warned about
        got = project_cloud(cloud, cam, lowpass=lowpass)
    with np.errstate(over="ignore", invalid="ignore"):
        want = project_cloud_einsum(cloud, cam, lowpass=lowpass)
    assert (got.n_culled_near, got.n_culled_nonfinite) == (want.n_culled_near,
                                                           want.n_culled_nonfinite)
    for name in ("mu2d", "cxx", "cxy", "cyy", "depth", "opacity", "color"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b)), name


@pytest.mark.parametrize("lowpass", [np.nan, np.inf, -np.inf, -1.0])
def test_project_cloud_rejects_bad_lowpass(lowpass):
    # Unchecked, nan and +-inf culled every splat as non-finite (an empty
    # frame), and -1 shrank every covariance.
    with pytest.raises(ValueError, match=rf"^lowpass must be finite and >= 0, not {lowpass!r}$"):
        project_cloud(one_splat([0.0, 0.0, 2.0]), make_camera(), lowpass=lowpass)


def projected_fields(m=4):
    rng = np.random.default_rng(m)
    return dict(mu2d=rng.uniform(0, 8, (m, 2)), cxx=np.ones(m), cxy=np.zeros(m), cyy=np.ones(m),
                depth=rng.uniform(1, 5, m), opacity=rng.uniform(0, 1, m),
                color=rng.uniform(0, 1, (m, 3)))


def test_projected_cloud_defaults():
    pc = ProjectedCloud(**projected_fields())
    assert len(pc) == 4
    assert pc.n_culled_near == 0 and pc.n_culled_nonfinite == 0
    assert len(ProjectedCloud(**projected_fields(0))) == 0


@pytest.mark.parametrize("field, shape", [
    ("mu2d", (4, 3)),
    ("mu2d", (4,)),
    ("color", (4,)),
    ("color", (3, 3)),
    ("cxx", (3,)),
    ("cxy", (4, 1)),
    ("cyy", (5,)),
    ("depth", (4, 2)),
    ("opacity", ()),
])
def test_projected_cloud_rejects_bad_shapes(field, shape):
    fields = projected_fields()
    fields[field] = np.zeros(shape)
    with pytest.raises(ValueError, match=rf"^{field} must have shape"):
        ProjectedCloud(**fields)


@pytest.mark.parametrize("field, bad, row", [
    ("opacity", np.nan, (2,)),
    ("mu2d", np.nan, (2, 1)),
    ("cxx", np.nan, (2,)),
])
def test_projected_cloud_rejects_nonfinite(field, bad, row):
    # Unchecked, these rendered to a late Framebuffer error (opacity), a splat
    # silently never drawn (mu2d) and a miscounted degenerate cull (cxx).
    fields = projected_fields()
    fields[field][row] = bad
    fields[field][3] = np.inf  # a later bad row: the error names the first
    with pytest.raises(ValueError, match=rf"^{field}\[2\] is not finite"):
        ProjectedCloud(**fields)


@pytest.mark.parametrize("bad", [-0.25, 1.5])
def test_projected_cloud_rejects_opacity_outside_unit_interval(bad):
    # Unchecked, an opacity of 1.7 blended to rgb 1.566 with residual 0.
    fields = projected_fields()
    fields["opacity"][2] = bad
    fields["opacity"][3] = 2.0  # a later bad row: the error names the first
    with pytest.raises(ValueError, match=rf"^opacity\[2\] is {bad}, outside \[0, 1\]$"):
        ProjectedCloud(**fields)
    fields["opacity"][2:] = [0.0, 1.0]  # the ends are in range
    ProjectedCloud(**fields)


def test_projected_cloud_rejects_negative_color():
    # Unchecked, color (-0.2, 0.3, 0.1) blended to rgb (-0.092, 0.138, 0.046)
    # in blend_pixel, and a frame failed late in Framebuffer, naming no splat.
    fields = projected_fields()
    fields["color"][2] = (-0.2, 0.3, 0.1)
    fields["color"][3, 1] = -1.0  # a later bad row: the error names the first
    with pytest.raises(ValueError, match=r"^color\[2\] is \[-0\.2, 0\.3, 0\.1\], below 0$"):
        ProjectedCloud(**fields)
    fields["color"][2:] = [[0.0, 0.0, 0.0], [1.5, 2.0, 0.0]]  # linear light may exceed 1
    ProjectedCloud(**fields)


def test_project_cloud_color_is_the_clamped_dc_term():
    # color = max(SH_C0 * dc + 0.5, 0) per channel: 0.5 for a zero DC term,
    # 0 for a dark one, and the same bits from any pose, since it reads no
    # view direction.
    dc = np.array([[0.0, 0.0, 0.0], [0.3, -0.1, 0.9], [-10.0, -10.0, -10.0]])
    cloud = SplatCloud(mu=[[0.0, 0.0, 2.0], [0.2, -0.1, 3.0], [-0.3, 0.2, 2.5]],
                       scale=np.full((3, 3), 0.1), rot=np.tile(IDENTITY_Q, (3, 1)),
                       opacity=np.full(3, 0.5), sh=dc[:, None, :])
    pc = project_cloud(cloud, make_camera())
    assert np.array_equal(pc.color, eval_sh(dc))
    assert np.array_equal(pc.color[0], [0.5] * 3) and np.array_equal(pc.color[2], [0.0] * 3)
    turned = make_camera(world_to_cam=np.hstack([random_pose(np.random.default_rng(3))[:, :3],
                                                 [[0.0], [0.0], [4.0]]]))
    other = project_cloud(cloud, turned)
    assert len(other) == 3 and np.array_equal(other.color, pc.color)


def test_camera_validation():
    with pytest.raises(ValueError):
        make_camera(fx=-1.0)
    with pytest.raises(ValueError):
        make_camera(cx=100.0)  # outside image
    with pytest.raises(ValueError):
        make_camera(world_to_cam=np.hstack([2.0 * np.eye(3), np.zeros((3, 1))]))
    with pytest.raises(ValueError):
        make_camera(near=0.0)
    with pytest.raises(ValueError):
        make_camera(world_to_cam=np.eye(4))  # 3x4 only


@pytest.mark.parametrize("field, bad", [
    ("t", np.nan), ("t", np.inf), ("r", np.nan), ("r", -np.inf),
    ("fx", np.inf), ("fy", np.nan), ("near", np.inf), ("near", np.nan),
])
def test_camera_rejects_non_finite_input(field, bad):
    # Unchecked, a NaN or inf translation and near = inf culled every splat as
    # n_culled_near without a word, fx = inf failed in project_cloud with a
    # numpy RuntimeWarning, and a NaN rotation read "not orthonormal".
    if field in ("t", "r"):  # an entry of the translation or of the rotation block
        col = 3 if field == "t" else 2
        w2c = np.hstack([np.eye(3), np.zeros((3, 1))])
        w2c[1, col] = bad
        match = rf"^world_to_cam\[1, {col}\] is not finite \(nan or inf\)$"
        with pytest.raises(ValueError, match=match):
            make_camera(world_to_cam=w2c)
    else:
        with pytest.raises(ValueError, match=rf"^{field} must be finite, not {bad!r}$"):
            make_camera(**{field: bad})


@pytest.mark.parametrize("field, value", [
    ("width", 64.5), ("width", True), ("width", 0), ("height", -48), ("height", 48.0),
])
def test_camera_rejects_non_integer_sizes(field, value):
    # Unchecked, width 64.5 rendered 65 columns and width True rendered 1.
    with pytest.raises(ValueError, match=rf"^image dimensions must be integers >= 1: {field} is "):
        make_camera(**{field: value})
    assert make_camera(width=np.int64(64)).width == 64


@pytest.mark.parametrize("k", [0.0, -2.0])
def test_camera_scaled_rejects_factor_not_positive(k):
    with pytest.raises(ValueError, match="scale factor must be > 0"):
        make_camera().scaled(k)


@pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
def test_camera_scaled_rejects_non_finite_factor(k):
    # Unchecked, nan failed in int() ("cannot convert float NaN to integer")
    # and inf raised OverflowError.
    with pytest.raises(ValueError, match=rf"^scale factor must be finite, not {k!r}$"):
        make_camera().scaled(k)


@pytest.mark.parametrize("k", [1e307, np.float64(1e307)], ids=["float", "float64"])
def test_camera_scaled_names_a_factor_too_large(k):
    # 64 * 1e307 overflows: unchecked, int() raised a bare OverflowError
    with pytest.raises(ValueError, match=rf"^scale factor {re.escape(repr(k))} makes the image"):
        make_camera().scaled(k)


def test_camera_scaled_names_a_frame_too_large():
    # 64 * 1e306 pixels is a finite width, but its frame buffer exceeds
    # sys.maxsize bytes: unchecked, render failed in NumPy with "Maximum
    # allowed size exceeded", which names no input.
    with pytest.raises(ValueError, match=r"^image of width \d+ and height \d+: its frame buffer "
                                         r"would exceed sys.maxsize bytes$"):
        make_camera().scaled(1e306)


def make_cloud(rng, n=50):
    q = rng.normal(size=(n, 4))
    return SplatCloud(
        mu=rng.uniform(-2, 2, (n, 3)),
        scale=np.exp(rng.uniform(-2, 1, (n, 3))),
        rot=q,
        opacity=rng.uniform(0.02, 0.98, n),
        sh=rng.uniform(-0.5, 0.5, (n, 1, 3)),
    )


def test_ply_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    cloud = make_cloud(rng, n=64)
    path = tmp_path / "cloud.ply"
    save_ply(path, cloud)
    back = load_ply(path)
    assert len(back) == 64
    # float32 storage plus activation round trip; 1e-6 relative is the contract.
    assert np.allclose(back.mu, cloud.mu, rtol=1e-6, atol=1e-6)
    assert np.allclose(back.scale, cloud.scale, rtol=1e-5, atol=1e-7)
    assert np.allclose(back.opacity, cloud.opacity, rtol=1e-5, atol=1e-6)
    assert np.allclose(back.sh, cloud.sh, rtol=1e-5, atol=1e-6)
    # Quaternions may flip sign only as a unit; loader normalizes.
    for i in range(64):
        assert (
            np.allclose(back.rot[i], cloud.rot[i], atol=1e-6)
            or np.allclose(back.rot[i], -cloud.rot[i], atol=1e-6)
        )


@pytest.fixture(scope="module")
def roundtrip_path(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip") / "cloud.ply"


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 12))
def test_ply_roundtrip_property(roundtrip_path, seed, n):
    # Any cloud, the empty one included, loads back as saved within the float32
    # tolerance of the activations: positions to 1e3, scales e^-10 to e^5,
    # opacity anywhere in [0, 1] (0 and 1 in about 1 row of 7 each).
    rng = np.random.default_rng(seed)
    cloud = SplatCloud(mu=rng.uniform(-1e3, 1e3, (n, 3)),
                       scale=np.exp(rng.uniform(-10, 5, (n, 3))),
                       rot=rng.normal(size=(n, 4)),
                       opacity=np.clip(rng.uniform(-0.2, 1.2, n), 0, 1),
                       sh=rng.uniform(-3, 3, (n, 1, 3)))
    save_ply(roundtrip_path, cloud)
    back = load_ply(roundtrip_path)
    for name in ("mu", "scale", "rot", "opacity", "sh"):
        got, want = getattr(back, name), getattr(cloud, name)
        assert got.shape == want.shape, name
        assert np.allclose(got, want, rtol=1e-5, atol=1e-6), name


def test_ply_activation_fixtures(tmp_path):
    # opacity_raw = 0 -> 0.5 and scale_raw = 0 -> 1 by construction of the format.
    path = tmp_path / "one.ply"
    names = ["x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2", "opacity",
             "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3"]
    header = ["ply", "format binary_little_endian 1.0", "element vertex 1"]
    header += [f"property float {n}" for n in names]
    header.append("end_header")
    row = np.zeros(len(names), dtype="<f4")
    row[names.index("z")] = 5.0
    row[names.index("rot_0")] = 1.0
    path.write_bytes(("\n".join(header) + "\n").encode() + row.tobytes())

    cloud = load_ply(path)
    assert len(cloud) == 1
    assert cloud.opacity[0] == pytest.approx(0.5)
    assert np.allclose(cloud.scale[0], 1.0)
    assert np.allclose(cloud.rot[0], [1.0, 0.0, 0.0, 0.0])
    assert cloud.sh.shape == (1, 1, 3)


def test_ply_rejects_bad_files(tmp_path):
    p = tmp_path / "bad.ply"

    p.write_bytes(b"not a ply at all")
    with pytest.raises(PlyParseError, match="not a PLY"):
        load_ply(p)

    p.write_bytes(b"ply\nformat ascii 1.0\nelement vertex 0\nend_header\n")
    with pytest.raises(PlyParseError, match="binary_little_endian"):
        load_ply(p)

    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    )
    p.write_bytes(header.encode() + b"\x00" * 12)
    with pytest.raises(PlyParseError, match="missing vertex properties"):
        load_ply(p)


def test_ply_header_bit_flips_raise_only_parse_errors(tmp_path):
    # Every single-bit corruption of a header save_ply wrote either loads or
    # raises PlyParseError; no IndexError, KeyError or bare ValueError escapes.
    one = SplatCloud(mu=[[0.1, -0.2, 3.0]], scale=[[0.1, 0.2, 0.3]], rot=[IDENTITY_Q],
                     opacity=[0.5], sh=np.full((1, 1, 3), 0.1))
    path = tmp_path / "one.ply"
    save_ply(path, one)
    raw = path.read_bytes()
    body_at = raw.index(b"end_header\n") + len(b"end_header\n")
    assert body_at == 411 and len(load_ply(path)) == 1
    escaped = []
    for i in range(body_at):
        for bit in range(8):
            flipped = bytearray(raw)
            flipped[i] ^= 1 << bit
            path.write_bytes(flipped)
            try:
                load_ply(path)
            except PlyParseError:
                pass
            except Exception as e:  # noqa: BLE001 - any other type is the failure
                escaped.append((i, bit, type(e).__name__))
    assert escaped == []


PAYLOAD_BYTES = 3 * 17 * 4  # 3 degree-0 splats of 17 float32 properties


@pytest.fixture(scope="module")
def payload_ply(tmp_path_factory):
    """Path and bytes of a saved file whose vertex payload is PAYLOAD_BYTES long."""
    path = tmp_path_factory.mktemp("payload") / "cloud.ply"
    save_ply(path, make_cloud(np.random.default_rng(5), n=3))
    return path, path.read_bytes()


@settings(max_examples=150)
@given(edit=st.integers(0, 9 * PAYLOAD_BYTES - 1))
def test_ply_payload_corruption_raises_only_parse_errors(payload_ply, edit):
    # Nine edits per payload byte: flip one of its 8 bits, or cut the payload
    # there. The result either loads or raises PlyParseError; a flipped float
    # can make a field NaN, inf or out of range.
    path, saved = payload_ply
    raw = bytearray(saved)
    body_at = len(raw) - PAYLOAD_BYTES
    assert raw[:body_at].endswith(b"end_header\n")
    byte, bit = divmod(edit, 9)
    if bit == 8:
        del raw[body_at + byte:]
    else:
        raw[body_at + byte] ^= 1 << bit
    path.write_bytes(raw)
    try:
        assert isinstance(load_ply(path), SplatCloud)
    except PlyParseError:
        pass


@pytest.mark.parametrize("old, new, match", [
    ("element vertex 1\n", "element vertex x\n", "vertex count 'x'"),
    ("element vertex 1\n", "element vertex -1\n", "vertex count '-1'"),
    ("element vertex 1\n", "element vertex\n", "malformed header line"),
    ("format binary_little_endian 1.0\n", "format\n", "malformed header line"),
    ("property float x\n", "property float\n", "malformed header line"),
    ("element vertex 1\n", "elemenu vertex 1\n", "malformed header line"),
    # unchecked, the stride counted both columns and x read the second
    ("property float x\n", "property float x\nproperty float x\n",
     r": property 'x' is declared twice$"),
], ids=["count-x", "count-negative", "count-missing", "format-missing", "property-name-missing",
        "unknown-keyword", "property-twice"])
def test_ply_rejects_malformed_header_lines(tmp_path, old, new, match):
    path = tmp_path / "bad.ply"
    save_ply(path, make_cloud(np.random.default_rng(4), n=1))
    raw = path.read_bytes()
    assert old.encode() in raw
    path.write_bytes(raw.replace(old.encode(), new.encode(), 1))
    with pytest.raises(PlyParseError, match=match):
        load_ply(path)


DC_LAYOUT = ["x", "y", "z", "nx", "ny", "nz", "f_dc_0", "f_dc_1", "f_dc_2", "opacity",
             "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3"]


def test_save_ply_writes_the_dc_header(tmp_path):
    # The header save_ply writes, line by line and in order: the trained-splat
    # layout with the DC color term alone, every property a float32.
    path = tmp_path / "cloud.ply"
    save_ply(path, make_cloud(np.random.default_rng(13), n=2))
    raw = path.read_bytes()
    body_at = raw.index(b"end_header\n") + len(b"end_header\n")
    want = ["ply", "format binary_little_endian 1.0", "element vertex 2"]
    want += [f"property float {name}" for name in DC_LAYOUT] + ["end_header", ""]
    assert raw[:body_at].decode("ascii").split("\n") == want
    assert len(raw) - body_at == 2 * len(DC_LAYOUT) * 4


@pytest.mark.parametrize("rest, first", [
    ([f"f_rest_{j}" for j in range(45)], "f_rest_0"),  # degree 3, as trained files hold it
    (["f_rest_7", "f_rest_2"], "f_rest_7"),
], ids=["trained-layout", "first-declared"])
def test_ply_rejects_view_dependent_color(tmp_path, rest, first):
    # A complete, well-formed file whose only fault is SH beyond DC. Read as
    # DC alone, its splats would take colors the file does not hold.
    names = DC_LAYOUT[:9] + rest + DC_LAYOUT[9:]
    header = ["ply", "format binary_little_endian 1.0", "element vertex 2"]
    header += [f"property float {name}" for name in names] + ["end_header"]
    rows = np.zeros((2, len(names)), dtype="<f4")
    rows[:, names.index("z")] = 5.0
    rows[:, names.index("rot_0")] = 1.0
    path = tmp_path / "trained.ply"
    path.write_bytes(("\n".join(header) + "\n").encode() + rows.tobytes())
    message = rf"^{re.escape(str(path))}: property '{first}' holds SH color beyond the DC term"
    with pytest.raises(PlyParseError, match=message):
        load_ply(path)


def test_ply_truncation_reports_offset(tmp_path):
    rng = np.random.default_rng(2)
    cloud = make_cloud(rng, n=8)
    path = tmp_path / "cloud.ply"
    save_ply(path, cloud)
    raw = path.read_bytes()
    path.write_bytes(raw[:-20])
    with pytest.raises(PlyParseError, match="truncated"):
        load_ply(path)


def test_splat_validation():
    with pytest.raises(ValueError, match="scale"):
        one_splat([0, 0, 0], scale=[0.0, 1, 1])
    with pytest.raises(ValueError, match="opacity"):
        one_splat([0, 0, 0], opacity=1.5)
    with pytest.raises(ValueError, match=r"^sh must have shape \(1, 1, 3\), got \(1, 2, 3\)$"):
        one_splat([0, 0, 0], sh=np.zeros((2, 3)))
    # Unnormalized quaternions are normalized on ingest.
    s = one_splat([0, 0, 0], rot=[2.0, 0, 0, 0])
    assert np.array_equal(s.rot, [[1.0, 0.0, 0.0, 0.0]])
    # A zero quaternion has no rotation; the error names the first such row.
    cloud = make_cloud(np.random.default_rng(8), n=4)
    rot = cloud.rot.copy()
    rot[2:] = 0.0
    with pytest.raises(ValueError, match=r"^rot\[2\] is a zero quaternion$"):
        SplatCloud(mu=cloud.mu, scale=cloud.scale, rot=rot, opacity=cloud.opacity, sh=cloud.sh)
    assert len(make_cloud(np.random.default_rng(8), n=5)) == 5


@pytest.mark.parametrize("field, value", [
    ("mu", np.zeros((2, 2))),
    ("scale", np.ones((2, 2))),
    ("opacity", np.full(3, 0.5)),
    ("rot", np.tile(IDENTITY_Q, (3, 1))),
])
def test_splat_cloud_rejects_bad_shapes(field, value):
    # Unchecked, mu and scale failed later in project_cloud with numpy errors,
    # and the extra opacity or rot row was silently ignored.
    fields = dict(mu=np.zeros((2, 3)), scale=np.ones((2, 3)), rot=np.tile(IDENTITY_Q, (2, 1)),
                  opacity=np.full(2, 0.5), sh=np.zeros((2, 1, 3)))
    fields[field] = value
    with pytest.raises(ValueError, match=rf"^{field} must have shape"):
        SplatCloud(**fields)


@pytest.mark.parametrize("sh", [np.zeros((2, 3)), np.zeros((3, 1, 3)), np.zeros((2, 1, 2)),
                                np.zeros((2, 4, 3))], ids=["2d", "rows", "channels", "bands"])
def test_splat_cloud_rejects_bad_sh_shape(sh):
    # sh is the DC term alone (scene's module docstring): one band of 3 channels.
    match = rf"^sh must have shape \(2, 1, 3\), got {re.escape(str(sh.shape))}$"
    with pytest.raises(ValueError, match=match):
        SplatCloud(mu=np.zeros((2, 3)), scale=np.ones((2, 3)), rot=np.tile(IDENTITY_Q, (2, 1)),
                   opacity=np.full(2, 0.5), sh=sh)


def test_ply_skips_comment_and_obj_info_lines(tmp_path):
    cloud = make_cloud(np.random.default_rng(10), n=3)
    path = tmp_path / "cloud.ply"
    save_ply(path, cloud)
    want = load_ply(path)
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"format binary_little_endian 1.0\n",
                                 b"comment made by hand\nformat binary_little_endian 1.0\n"
                                 b"obj_info scanned 2026\ncomment\n", 1))
    got = load_ply(path)
    for name in CLOUD_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_ply_reads_only_the_vertex_element(tmp_path):
    # An element after vertex ends the header read: its properties (here a
    # list type load_ply does not read) are not vertex properties, and its
    # payload sits after the vertex data.
    cloud = make_cloud(np.random.default_rng(11), n=3)
    path = tmp_path / "cloud.ply"
    save_ply(path, cloud)
    want = load_ply(path)
    raw = path.read_bytes()
    body_at = raw.index(b"end_header\n")
    path.write_bytes(raw[:body_at] + b"element face 1\nproperty list uchar int vertex_indices\n"
                     + raw[body_at:] + bytes([3]) + np.arange(3, dtype="<i4").tobytes())
    got = load_ply(path)
    for name in CLOUD_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_ply_rejects_missing_format_line(tmp_path):
    path = tmp_path / "cloud.ply"
    save_ply(path, make_cloud(np.random.default_rng(12), n=1))
    raw = path.read_bytes()
    path.write_bytes(raw.replace(b"format binary_little_endian 1.0\n", b"", 1))
    with pytest.raises(PlyParseError, match=r"cloud\.ply: missing format line$"):
        load_ply(path)


def test_ply_rejects_element_before_vertex(tmp_path):
    # A two-entry "camera" element with one float ahead of the vertex element:
    # its 8 payload bytes come first, so reading vertices at the start of the
    # body would load mu[0] = (0, 0, -2.74) instead of the saved position.
    one = SplatCloud(mu=[[-2.74, 0.45, 4.73]], scale=[[0.1, 0.2, 0.3]], rot=[IDENTITY_Q],
                     opacity=[0.5], sh=np.zeros((1, 1, 3)))
    path = tmp_path / "cam_first.ply"
    save_ply(path, one)
    raw = path.read_bytes()
    body_at = raw.index(b"end_header\n") + len(b"end_header\n")
    header = raw[:body_at].replace(
        b"element vertex", b"element camera 2\nproperty float f\nelement vertex")
    path.write_bytes(header + np.zeros(2, dtype="<f4").tobytes() + raw[body_at:])
    with pytest.raises(PlyParseError, match="'camera' precedes vertex"):
        load_ply(path)


CLOUD_FIELDS = ("mu", "scale", "rot", "opacity", "sh")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("field", CLOUD_FIELDS)
def test_splat_cloud_rejects_nonfinite(field, bad):
    rng = np.random.default_rng(6)
    cloud = make_cloud(rng, n=6)
    arrays = {name: getattr(cloud, name).copy() for name in CLOUD_FIELDS}
    rows = arrays[field].reshape(6, -1)  # a view: one row per splat
    rows[3, -1] = bad
    rows[5, 0] = bad
    with pytest.raises(ValueError, match=rf"^{field}\[3\] is not finite"):
        SplatCloud(**arrays)


def test_load_ply_rejects_nonfinite(tmp_path):
    rng = np.random.default_rng(9)
    path = tmp_path / "cloud.ply"
    save_ply(path, make_cloud(rng, n=4))
    raw = bytearray(path.read_bytes())
    body_at = raw.index(b"end_header\n") + len(b"end_header\n")
    data = np.frombuffer(raw, dtype="<f4", offset=body_at).reshape(4, -1).copy()
    data[2, 0] = np.nan  # x of the third vertex
    path.write_bytes(bytes(raw[:body_at]) + data.tobytes())
    with pytest.raises(PlyParseError, match=r"cloud\.ply: mu\[2\] is not finite"):
        load_ply(path)


def test_load_ply_rejects_zero_quaternion(tmp_path):
    path = tmp_path / "cloud.ply"
    save_ply(path, make_cloud(np.random.default_rng(9), n=4))
    raw = path.read_bytes()
    body_at = raw.index(b"end_header\n") + len(b"end_header\n")
    props = [line.split()[2] for line in raw[:body_at].decode().splitlines()
             if line.startswith("property")]
    data = np.frombuffer(raw, dtype="<f4", offset=body_at).reshape(4, -1).copy()
    data[2, [props.index(f"rot_{i}") for i in range(4)]] = 0.0
    path.write_bytes(raw[:body_at] + data.tobytes())
    with pytest.raises(PlyParseError, match=r"cloud\.ply: rot\[2\] is a zero quaternion"):
        load_ply(path)


@pytest.mark.parametrize("log_scale", [1000.0, -1000.0])
def test_load_ply_rejects_log_scale_beyond_exp(tmp_path, log_scale):
    # exp(1000) overflows to inf and exp(-1000) underflows to 0 though the file
    # holds a finite value; the error quotes that value, and numpy warns of nothing.
    path = tmp_path / "cloud.ply"
    save_ply(path, make_cloud(np.random.default_rng(9), n=4))
    raw = path.read_bytes()
    body_at = raw.index(b"end_header\n") + len(b"end_header\n")
    props = [line.split()[2] for line in raw[:body_at].decode().splitlines()
             if line.startswith("property")]
    data = np.frombuffer(raw, dtype="<f4", offset=body_at).reshape(4, -1).copy()
    data[1, props.index("scale_0")] = log_scale
    path.write_bytes(raw[:body_at] + data.tobytes())
    message = re.escape(f"cloud.ply: scale_0 of vertex 1 is {log_scale}")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PlyParseError, match=message):
            load_ply(path)
