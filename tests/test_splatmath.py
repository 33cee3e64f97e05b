"""Closed-form moment and eigen-solver tests.

Expected moment values were frozen from an independent arbitrary-precision
quadrature (mpmath, 40 digits) of x^k exp(-x^2 / 2 sigma^2) over [a, b]. The
eigen tests run on eigen2x2_batch, the solver prepare_splats uses; the
one-matrix eigen2x2 in _reference.py is its step-by-step oracle, as
gaussian_i0_cases there is gaussian_i0's.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import moment_quad
from _reference import DegenerateSplatError, eigen2x2, gaussian_i0_cases
from splatlab.blending import prepare_splats
from splatlab.scene import ProjectedCloud
from splatlab.splatmath import eigen2x2_batch, gaussian_i0, gaussian_moments_012

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
    l1, l2, ex, ey = eigen2x2_batch(4.0, 0.0, 1.0)
    assert l1 == 4.0 and l2 == 1.0
    assert np.allclose([ex, ey], [1.0, 0.0])

    l1, l2, ex, ey = eigen2x2_batch(1.0, 0.0, 9.0)
    assert l1 == 9.0
    assert np.allclose([ex, ey], [0.0, 1.0])

    # Rotated anisotropic: eigenvalues 5 and 1 at 45 degrees.
    l1, l2, ex, ey = eigen2x2_batch(3.0, 2.0, 3.0)
    assert l1 == pytest.approx(5.0, rel=1e-14)
    assert l2 == pytest.approx(1.0, rel=1e-14)
    assert np.allclose(np.abs([ex, ey]), [np.sqrt(0.5), np.sqrt(0.5)], rtol=1e-14)


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

    l1, l2, ex, ey = eigen2x2_batch(cov[:, 0, 0], cov[:, 0, 1], cov[:, 1, 1])
    ref = np.linalg.eigvalsh(cov)
    assert np.all(np.abs(l1 - ref[:, 1]) <= 1e-9 * np.abs(ref[:, 1]))
    want2 = np.maximum(ref[:, 0], 0.0)
    assert np.all(np.abs(l2 - want2) <= np.maximum(1e-6 * want2, 1e-12 * lam_big))
    assert np.all(l1 >= l2) and np.all(l2 > 0.0)
    assert np.allclose(np.hypot(ex, ey), 1.0, rtol=1e-12, atol=0.0)
    e1 = np.stack([ex, ey], -1)
    e2 = np.stack([-ey, ex], -1)
    recon = (l1[:, None, None] * e1[:, :, None] * e1[:, None, :]
             + l2[:, None, None] * e2[:, :, None] * e2[:, None, :])
    assert np.all(np.abs(recon - cov) <= 1e-9 * lam_big[:, None, None])


def test_eigen_sign_determinism():
    runs = [eigen2x2_batch(3.0, 2.0, 3.0) for _ in range(3)]
    for r in runs[1:]:
        assert np.array_equal(r, runs[0])
    # Largest-magnitude component of each eigenvector is positive, for the
    # solver's e1 and for both axes prepare_splats pairs with the window.
    # The second matrix's major axis lies nearer y, so its raw perpendicular
    # (-e1y, e1x) has a negative leading component and must be flipped.
    for cxx, cxy, cyy in ((2.0, -0.9, 1.0), (1.0, -0.9, 2.0)):
        _, _, ex, ey = eigen2x2_batch(cxx, cxy, cyy)
        assert max((ex, ey), key=abs) > 0.0
        sp = ProjectedCloud(mu2d=np.zeros((1, 2)), cxx=[cxx], cxy=[cxy], cyy=[cyy],
                            depth=[1.0], opacity=[0.5], color=np.zeros((1, 3)))
        prep = prepare_splats(sp)
        for v in prep.axes[..., 0]:
            assert v[np.argmax(np.abs(v))] > 0.0


def test_eigen_rejects_degenerate():
    # The reference solver refuses what eigen2x2_batch flags (see below).
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

    l1, l2, e1x, e1y = eigen2x2_batch(cxx, cxy, cyy)
    for i in rng.choice(n, size=200, replace=False):
        cov = np.array([[cxx[i], cxy[i]], [cxy[i], cyy[i]]])
        ref = eigen2x2(cov)
        assert l1[i] == pytest.approx(ref.lambda1, rel=1e-12)
        assert l2[i] == pytest.approx(ref.lambda2, rel=1e-12)
        assert np.allclose([e1x[i], e1y[i]], ref.e1, atol=1e-10)


def test_eigen_batch_flags_degenerate():
    l1, l2, _, _ = eigen2x2_batch(
        np.array([1.0, 1.0, 0.0]),
        np.array([0.0, 2.0, 0.0]),
        np.array([1.0, 1.0, 0.0]),
    )
    assert l2[0] > 0.0
    assert l2[1] <= 0.0  # indefinite
    assert l2[2] <= 0.0  # zero matrix
