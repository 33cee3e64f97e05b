"""Closed-form moment and screen-frame tests.

Expected moment values were frozen from an independent arbitrary-precision
quadrature (mpmath, 40 digits) of x^k exp(-x^2 / 2 sigma^2) over [a, b], and
expected frames from mpmath's eigenvectors (50 digits) of the stored
covariances. The frame tests run on screen_frame, the solve prepare_splats
makes; the one-matrix eigen2x2 in _reference.py is the oracle for its
eigenvalues and eigenvectors, as gaussian_i0_cases there is gaussian_i0's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import moment_quad
from _reference import DegenerateSplatError, eigen2x2, gaussian_i0_cases
from splatlab.blending import prepare_splats
from splatlab.errorlab import true_residual_transmittance
from splatlab.scene import ProjectedCloud
from splatlab.splatmath import gaussian_i0, gaussian_moments_012, has_frame, screen_frame

# (k, sigma, a, b, expected) from the quadrature oracle.
MOMENT_CASES = [
    (0, 1.0, -0.5, 0.5, 0.95985043791976843),
    (0, 1.0, -3.0, 1.0, 2.1055548366336963),
    (0, 2.5, 0.75, 4.0, 2.0509814463771362),
    (0, 1.0, 8.0, 10.0, 1.559363547983297e-15),
    (0, 1.0, -10.0, -8.0, 1.559363547983297e-15),
    (0, 0.05, -0.5, 0.5, 0.12533141373155004),
    (1, 1.0, -0.5, 0.5, 0.0),
    (1, 1.0, -1.0, 2.0, 0.47119537647602073),
    (1, 2.5, 0.75, 4.0, 4.2372511336244111),
    (1, 1.0, 8.0, 10.0, 1.2664165356219191e-14),
    (2, 1.0, -0.5, 0.5, 0.07735353533517303),
    (2, 1.0, -1.0, 2.0, 1.1747111790288982),
    (2, 2.5, 0.75, 4.0, 10.348939724619904),
    (2, 1.0, 8.0, 10.0, 1.0287268601198685e-13),
    (2, 0.05, -0.5, 0.5, 0.00031332853432887515),
]


def moment(k, sigma, a, b):
    """The k-th moment from the function the kernels run for it: gaussian_i0
    (integrated, the truth) for k = 0, gaussian_moments_012 (gb) otherwise."""
    return gaussian_i0(sigma, a, b) if k == 0 else gaussian_moments_012(sigma, a, b)[k]


@pytest.mark.parametrize("k,sigma,a,b,expected", MOMENT_CASES)
def test_moment_matches_quadrature(k, sigma, a, b, expected):
    got = moment(k, sigma, a, b)
    if expected == 0.0:
        assert abs(got) < 1e-15
    else:
        assert got == pytest.approx(expected, rel=1e-12)


def test_moment_far_tail_relative_accuracy():
    # The erfc branch must hold relative (not just absolute) accuracy even
    # when both bounds sit 8..10 sigma out and the value is ~1e-15.
    got = moment(0, 1.0, 8.0, 10.0)
    assert got == pytest.approx(1.559363547983297e-15, rel=1e-11)
    got_neg = moment(0, 1.0, -10.0, -8.0)
    assert got_neg == pytest.approx(got, rel=1e-13)


def test_moment_additivity_randomized():
    # I_k(a, c) == I_k(a, b) + I_k(b, c) for random splits and sigmas.
    rng = np.random.default_rng(42)
    for _ in range(500):
        sigma = float(rng.uniform(0.05, 50.0))
        pts = np.sort(rng.uniform(-8.0 * sigma, 8.0 * sigma, size=3))
        a, b, c = (float(p) for p in pts)
        for k in (0, 1, 2):
            whole = moment(k, sigma, a, c)
            split = moment(k, sigma, a, b) + moment(k, sigma, b, c)
            assert split == pytest.approx(whole, rel=1e-10, abs=1e-13 * sigma ** (k + 1))


def test_moment_basic_properties():
    # Zero-width interval integrates to zero; even/odd symmetry in the bounds.
    for k in (0, 1, 2):
        assert moment(k, 2.0, 1.3, 1.3) == 0.0
    assert moment(0, 1.5, -2.0, 2.0) > 0.0
    assert moment(2, 1.5, -2.0, 2.0) > 0.0
    a, b = 0.4, 1.9
    assert moment(1, 1.2, -b, -a) == pytest.approx(
        -moment(1, 1.2, a, b), rel=1e-13
    )
    assert moment(2, 1.2, -b, -a) == pytest.approx(
        moment(2, 1.2, a, b), rel=1e-13
    )


def test_moment_broadcasts():
    sig = np.array([0.5, 1.0, 2.0])
    got = moment(0, sig, -1.0, 1.0)
    want = np.array([moment(0, float(s), -1.0, 1.0) for s in sig])
    assert np.allclose(got, want, rtol=1e-14)


def test_moment_batched_mixed_cases_match_quadrature():
    # One call whose array holds far-right, far-left and straddling intervals,
    # so the mixed-sign elements are scattered into the erfc result.
    sigma = np.array([1.0, 1.0, 1.0, 2.5, 0.05, 3.0, 1.0, 1.0])
    a = np.array([8.0, -10.0, -3.0, 0.75, -0.5, -12.0, -0.25, 0.0])
    b = np.array([10.0, -8.0, 1.0, 4.0, 0.5, -9.0, 30.0, 0.5])
    got = moment(0, sigma, a, b)
    assert got.shape == a.shape
    for g, s, lo, hi in zip(got, sigma, a, b):
        assert g == pytest.approx(moment_quad(0, s, lo, hi), rel=1e-9)


def _assert_bit_equal(got, want):
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_gaussian_i0_equals_cases_on_signed_zeros():
    # Every pair of bounds from {-1, -0.0, +0.0, 1} with a <= b: each case,
    # the a == b intervals and the zero bounds whose sign picks the case.
    vals = [-1.0, -0.0, 0.0, 1.0]
    a, b = (np.array(v) for v in zip(*[(x, y) for x in vals for y in vals if x <= y]))
    for sigma in (1.0, np.linspace(0.5, 3.0, a.size)):
        _assert_bit_equal(gaussian_i0(sigma, a, b), gaussian_i0_cases(sigma, a, b))
    for x, y in zip(a.tolist(), b.tolist()):
        _assert_bit_equal(gaussian_i0(2.0, x, y), gaussian_i0_cases(2.0, x, y))


def _bounds(rng, size):
    """size bounds in sigma units, uniform on [-40, 40]; one in four is
    exactly +0.0 or -0.0 instead."""
    x = rng.uniform(-40.0, 40.0, size)
    pick = rng.integers(0, 8, size)
    x[pick == 0] = 0.0
    x[pick == 1] = -0.0
    return x


@st.composite
def _i0_inputs(draw):
    """(sigma, a, b) with a <= b in one of the forms gaussian_i0 is called with:
    flat arrays with a scalar or a per-element sigma, the (rows, cols) bounds
    _alpha_integrated passes on a _Rect, the (u, v) planes of a gb moment
    update, 0-d arrays and Python floats. The bounds come from a drawn seed (a
    few draws per example keep hypothesis's own cost low); every fourth pair
    of an array is cut to a == b."""
    form = draw(st.sampled_from(["flat", "per_element", "rect", "planes", "zero_d", "python"]))
    sigma = 10.0 ** draw(st.floats(-1.5, 1.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if form == "planes":
        # both axes in one call: bounds (2, n) against a sigma per plane, (2,
        # 1), or per point, (2, n), on a _Gather; (2, rows, cols) against (2,
        # 1, 1) on a _Rect
        rect = draw(st.booleans())
        points = (draw(st.integers(1, 6)), draw(st.integers(1, 6))) if rect else (
            draw(st.integers(1, 24)),)
        per_point = not rect and draw(st.booleans())
        sigma = 10.0 ** rng.uniform(-1.5, 1.5, (2,) + (points if per_point else (1,) * len(points)))
        x, y = _bounds(rng, (2,) + points), _bounds(rng, (2,) + points)
        a, b = np.minimum(x, y), np.maximum(x, y)
        b[..., 3::4] = a[..., 3::4]
        return sigma, sigma * a, sigma * b
    if form == "rect":
        # u = dx * a1x + dy * a1y over a separable grid, bounds u -+ 0.5
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        theta = draw(st.floats(0.0, 2.0 * np.pi))
        dx, dy = sigma * _bounds(rng, cols), sigma * _bounds(rng, rows)[:, None]
        u = dx * np.cos(theta) + dy * np.sin(theta)
        return np.float64(sigma), u - 0.5, u + 0.5
    n = 1 if form in ("zero_d", "python") else draw(st.integers(1, 24))
    x, y = _bounds(rng, n), _bounds(rng, n)
    a, b = np.minimum(x, y), np.maximum(x, y)
    b[3::4] = a[3::4]
    if form == "per_element":
        sigma = 10.0 ** rng.uniform(-1.5, 1.5, n)
    a, b = sigma * a, sigma * b
    if form == "zero_d":
        return np.asarray(sigma), np.asarray(a[0]), np.asarray(b[0])
    if form == "python":
        return float(sigma), float(a[0]), float(b[0])
    return sigma, a, b


@settings(max_examples=100)
@given(_i0_inputs())
def test_gaussian_i0_equals_cases_property(args):
    # Bounds up to 40 sigma out, mixing all three cases, equal bounds and
    # signed zeros: same values and sign bits as the case-by-case reference.
    _assert_bit_equal(gaussian_i0(*args), gaussian_i0_cases(*args))


def test_eigen_known_matrices():
    l1, l2, _, sigma, axes = screen_frame(4.0, 0.0, 1.0)
    assert l1 == 4.0 and l2 == 1.0
    assert np.allclose(axes[0], [1.0, 0.0]) and np.array_equal(sigma, [2.0, 1.0])

    # the major axis lies along y, so x pairs with the minor one
    l1, l2, _, sigma, axes = screen_frame(1.0, 0.0, 9.0)
    assert l1 == 9.0
    assert np.allclose(axes[1], [0.0, 1.0]) and np.array_equal(sigma, [1.0, 3.0])

    # Rotated anisotropic: eigenvalues 5 and 1 at 45 degrees; the major axis
    # pairs with x on the tie cxx == cyy.
    l1, l2, det, sigma, axes = screen_frame(3.0, 2.0, 3.0)
    assert l1 == pytest.approx(5.0, rel=1e-14)
    assert l2 == pytest.approx(1.0, rel=1e-14)
    assert det == 5.0 and sigma[0] == np.sqrt(l1)
    assert np.allclose(np.abs(axes[0]), [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-14)


def test_eigen_matches_numpy_randomized():
    # Random SPD matrices across 8 decades of conditioning, checked against
    # numpy.linalg.eigh and against exact reconstruction.
    rng = np.random.default_rng(7)
    n = 10_000
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    c, s = np.cos(theta), np.sin(theta)
    lam_big = 10.0 ** rng.uniform(-4.0, 4.0, n)
    lam_small = lam_big / 10.0 ** rng.uniform(0.0, 8.0, n)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    cov = rot @ (np.stack([lam_big, lam_small], -1)[:, :, None] * rot.swapaxes(1, 2))
    cov = 0.5 * (cov + cov.swapaxes(1, 2))

    l1, l2, _, sigma, axes = screen_frame(cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1])
    ref = np.linalg.eigvalsh(cov)
    assert np.all(np.abs(l1 - ref[:, 1]) <= 1e-9 * np.abs(ref[:, 1]))
    want2 = np.maximum(ref[:, 0], 0.0)
    assert np.all(np.abs(l2 - want2) <= np.maximum(1e-6 * want2, 1e-12 * lam_big))
    assert np.all(l1 >= l2) and np.all(l2 > 0.0)
    assert np.allclose(np.hypot(*axes), 1.0, rtol=1e-12, atol=0.0)
    a = axes.transpose(2, 0, 1)  # (n, k, c)
    recon = sum((sigma[k] ** 2)[:, None, None] * a[:, k, :, None] * a[:, k, None, :]
                for k in range(2))
    assert np.all(np.abs(recon - cov) <= 1e-9 * lam_big[:, None, None])


def test_eigen_sign_determinism():
    runs = [screen_frame(3.0, 2.0, 3.0) for _ in range(3)]
    for r in runs[1:]:
        for got, want in zip(r, runs[0]):
            assert np.array_equal(got, want)
    # axes[k] has a positive k-th component, which is its largest in
    # magnitude: for the solve and for the frame prepare_splats keeps. The
    # second matrix's major axis lies nearer y, so x pairs with the minor one.
    for cxx, cxy, cyy in ((2.0, -0.9, 1.0), (1.0, -0.9, 2.0)):
        sp = ProjectedCloud(mu2d=np.zeros((1, 2)), cxx=[cxx], cxy=[cxy], cyy=[cyy],
                            depth=[1.0], opacity=[0.5], color=np.zeros((1, 3)))
        for axes in (screen_frame(cxx, cxy, cyy)[4], prepare_splats(sp).axes[..., 0]):
            for k, v in enumerate(axes):
                assert v[k] > 0.0 and np.argmax(np.abs(v)) == k


def test_eigen_rejects_degenerate():
    # The reference solver refuses what screen_frame flags (see below).
    with pytest.raises(DegenerateSplatError):
        eigen2x2(np.array([[1.0, 2.0], [2.0, 1.0]]))  # det < 0
    with pytest.raises(DegenerateSplatError):
        eigen2x2(np.zeros((2, 2)))


def test_eigen_batch_matches_scalar():
    rng = np.random.default_rng(123)
    n = 4096
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    lam_big = 10.0 ** rng.uniform(-3.0, 3.0, n)
    lam_small = lam_big / 10.0 ** rng.uniform(0.0, 6.0, n)
    c, s = np.cos(theta), np.sin(theta)
    cxx = c * c * lam_big + s * s * lam_small
    cyy = s * s * lam_big + c * c * lam_small
    cxy = c * s * (lam_big - lam_small)

    l1, l2, _, _, axes = screen_frame(cxx, cxy, cyy)
    for i in rng.choice(n, size=200, replace=False):
        cov = np.array([[cxx[i], cxy[i]], [cxy[i], cyy[i]]])
        ref = eigen2x2(cov)
        assert l1[i] == pytest.approx(ref.lambda1, rel=1e-12)
        assert l2[i] == pytest.approx(ref.lambda2, rel=1e-12)
        # the lam1 eigenvector is the axis paired with x iff cxx >= cyy
        e1 = axes[0 if cxx[i] >= cyy[i] else 1, :, i]
        assert np.allclose(e1, ref.e1, atol=1e-10)


def test_eigen_batch_flags_degenerate():
    l1, l2, _, _, _ = screen_frame(
        np.array([1.0, 1.0, 0.0]),
        np.array([0.0, 2.0, 0.0]),
        np.array([1.0, 1.0, 0.0]),
    )
    assert l2[0] > 0.0
    assert l2[1] <= 0.0  # indefinite
    assert l2[2] <= 0.0  # zero matrix


@st.composite
def _covariances(draw):
    """One covariance (cxx, cxy, cyy) as Python floats: half of them sigma1,
    sigma2 log-uniform in [1e-170, 1e160] turned by theta (0 for an exactly
    axis-aligned one), which spans both ends of the drawable range; the rest
    raw triples with zero and negative entries."""
    if draw(st.booleans()):
        s1, s2 = (10.0 ** draw(st.floats(-170.0, 160.0)) for _ in range(2))
        theta = 0.0 if draw(st.booleans()) else draw(st.floats(0.0, math.pi))
        c, s = math.cos(theta), math.sin(theta)
        v1, v2 = s1 * s1, s2 * s2
        return c * c * v1 + s * s * v2, c * s * (v1 - v2), s * s * v1 + c * c * v2
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                      st.floats(allow_nan=False, allow_infinity=False))
    return draw(entry), draw(st.sampled_from([0.0]) | entry), draw(entry)


@settings(max_examples=200)
@given(_covariances())
def test_has_frame_is_screen_frames_rule_property(cov):
    # has_frame is screen_frame's lam2 > 0 on one covariance in Python floats:
    # the same bits when cxy = 0, and elsewhere apart only where math.hypot
    # and np.hypot round lam1 apart. The truth takes exactly the splats that
    # prepare_splats keeps.
    cxx, cxy, cyy = cov
    lam1, lam2 = screen_frame(cxx, cxy, cyy)[:2]
    drawn = has_frame(cxx, cxy, cyy)
    if drawn != (lam2 > 0.0):
        assert cxy != 0.0
        assert 0.5 * (cxx + cyy) + math.hypot(0.5 * (cxx - cyy), cxy) != lam1
    if not all(math.isfinite(c) for c in cov):
        return  # a ProjectedCloud takes finite covariances only
    cloud = ProjectedCloud(mu2d=[[3.0, -2.0]], cxx=[cxx], cxy=[cxy], cyy=[cyy], depth=[1.0],
                           opacity=[0.5], color=np.zeros((1, 3)))
    try:
        true_residual_transmittance(cloud)
    except ValueError as err:
        assert not drawn and str(err).startswith("covariance of splat 0, ")
    else:
        assert drawn and prepare_splats(cloud).n_culled_degenerate == 0


# (cxx, cxy, cyy, e0x, e0y): stored covariances of eigenvalues 1 and 1 - a
# turned by 0.3, 0.9, 1.2 and 2.6 rad, for a = 1e-11, 1e-10, 1e-8, 1e-6 and
# 1e-3, with the unit eigenvector of each stored matrix that lies within 45
# degrees of screen x (mpmath, 50 digits), its x component positive
FRAME_CASES = [
    (0.9999999999991266, 2.823212600568815e-12, 0.9999999999908733, 0.955335906023262, 0.2955220916661105),
    (0.999999999993864, 4.869238557273547e-12, 0.999999999996136, 0.7833250712443541, -0.6216122849172364),
    (0.999999999991313, 3.3773161821961254e-12, 0.9999999999986869, 0.9320397289670386, -0.3623561005793186),
    (0.9999999999973426, -4.4172736440875964e-12, 0.9999999999926574, 0.8568881627595476, -0.515502353556768),
    (0.9999999999912668, 2.8232126005688148e-11, 0.9999999999087332, 0.9553364617947288, 0.29552029501462107),
    (0.9999999999386397, 4.869238557273547e-11, 0.99999999996136, 0.7833270874819254, -0.621609744145862),
    (0.9999999999131302, 3.377316182196126e-11, 0.9999999999868696, 0.9320391854960792, -0.362357498473269),
    (0.9999999999734259, -4.417273644087596e-11, 0.9999999999265743, 0.8568886683808462, -0.5155015130923479),
    (0.999999999126678, 2.8232123811611387e-09, 0.9999999908733219, 0.9553364884505396, 0.29552020884364566),
    (0.9999999938639894, 4.869238178857725e-09, 0.9999999961360104, 0.7833269113655388, -0.6216099660804396),
    (0.9999999913130313, 3.3773159197259543e-09, 0.9999999986869685, 0.9320390865317948, -0.36235775302451806),
    (0.9999999973425834, -4.4172733007965015e-09, 0.9999999926574166, 0.8568887550431795, -0.5155013690384825),
    (0.9999999126678074, 2.82321236705636e-07, 0.9999990873321924, 0.9553364891280197, 0.2955202066535368),
    (0.9999993863989525, 4.869238154530994e-07, 0.9999996136010473, 0.7833269096592722, -0.6216099682306055),
    (0.9999991313031422, 3.377315902852872e-07, 0.9999998686968578, 0.9320390859636287, -0.3623577544859273),
    (0.9999997342583358, -4.417273278727788e-07, 0.9999992657416643, 0.856888753402019, -0.515501371766491),
    (0.9999126678074548, 0.0002823212366975179, 0.9990873321925451, 0.9553364891256092, 0.29552020666132933),
    (0.9993863989526535, 0.000486923815439098, 0.9996136010473464, 0.7833269096274441, -0.6216099682707139),
    (0.9991313031422293, 0.0003377315902755758, 0.9998686968577706, 0.9320390859672291, -0.36235775447666674),
    (0.9997342583356502, -0.000441727327860077, 0.9992657416643498, 0.8568887533689601, -0.5155013718214427),
]


def _one_depth_cloud(cxx, cxy, cyy) -> ProjectedCloud:
    n = len(cxx)
    return ProjectedCloud(mu2d=np.zeros((n, 2)), cxx=cxx, cxy=cxy, cyy=cyy, depth=np.ones(n),
                          opacity=np.full(n, 0.5), color=np.zeros((n, 3)))


def test_frame_matches_50_digit_eigenvectors():
    # Near-isotropic splats, where an eigenvector through lam1 - cyy would
    # lose about eps / a to cancellation: both axes prepare_splats keeps are
    # within 4e-16 of the exact frame.
    cxx, cxy, cyy, ex, ey = np.array(FRAME_CASES).T
    axes = prepare_splats(_one_depth_cloud(cxx, cxy, cyy)).axes
    assert np.abs(axes[0] - (ex, ey)).max() <= 4e-16
    assert np.abs(axes[1] - (-ey, ex)).max() <= 4e-16


def test_frame_pairs_the_major_axis_with_x_iff_cxx_ge_cyy():
    # Stored covariances within 2 ulps of 45 degrees: the lam1 eigenvector
    # lies within 45 degrees of screen x exactly when cxx >= cyy, and the
    # frame pairs it with x then, whichever way its rounding leans.
    rows = []
    for base in (1.0, 0.7, 3.0):
        near = [base]
        for toward in (np.inf, -np.inf):
            near += [np.nextafter(base, toward), np.nextafter(np.nextafter(base, toward), toward)]
        for f in (0.5, -0.5, 0.3, 0.99, -2.0 / 3.0):
            rows += [(cxx, f * base, cyy) for cxx in near for cyy in near]
    cxx, cxy, cyy = np.array(rows).T
    prep = prepare_splats(_one_depth_cloud(cxx, cxy, cyy))
    assert len(prep) == len(rows)
    major_on_x = prep.sigma[0] > prep.sigma[1]
    assert np.array_equal(major_on_x, cxx >= cyy)
    # axes[0] is the eigenvector of sigma[0]^2 (eigenvalues up to 6 here):
    # C a = sigma^2 a to rounding
    a = prep.axes[0]
    ca = np.array((cxx * a[0] + cxy * a[1], cxy * a[0] + cyy * a[1]))
    assert np.abs(ca - prep.sigma[0] ** 2 * a).max() <= 1e-14
