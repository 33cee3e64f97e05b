"""Window state machine and blending kernel tests.

The quadrature oracles in _oracles.py integrate Gaussians numerically and are
independent of the package's erf closed forms. The scalar window operations in
_reference.py are checked against them here and then serve as the
step-by-step oracle for the vectorized kernels; the window-update behaviours
run on the shipped kernel, blending._WindowBlend.step.
"""

import re
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from _oracles import (
    alpha_integral_dblquad,
    window_moments_dblquad,
    window_moments_numeric,
)
from _reference import (
    GaussianMoments,
    Splat2D,
    SplatFrame,
    TransmittanceWindow,
    compute_moments,
    eigen2x2,
    init_window,
    integrated_weight,
    paired_axes,
    scalar_alpha_center,
    scalar_alpha_integrated,
    stack_splats,
    to_splat_frame,
    update_window,
)
from splatlab import blending, synth
from splatlab.blending import (
    GUARD_LO,
    MIN_SIDE,
    MODES,
    PreparedSplats,
    _Gather,
    _Rect,
    _WindowBlend,
    _alpha_center,
    blend_grid,
    blend_pixel,
    check_mode,
    pixel_blocks,
    prepare_splats,
    subsample_axis,
)
from splatlab.errorlab import true_residual_transmittance
from splatlab.scene import ProjectedCloud, project_cloud
from splatlab.splatmath import eigen2x2_batch

PX = (0.5, 0.5)


def iso_splat(mu, sig, o, color=(1.0, 0.0, 0.0), depth=1.0):
    return Splat2D(
        mu2d=np.asarray(mu, float),
        cov2d=sig * sig * np.eye(2),
        depth=depth,
        opacity=o,
        color=np.asarray(color, float),
    )


def rot_splat(mu, sig1, sig2, theta, o, color=(1.0, 0.0, 0.0), depth=1.0):
    c, s = np.cos(theta), np.sin(theta)
    r = np.array([[c, -s], [s, c]])
    cov = r @ np.diag([sig1 * sig1, sig2 * sig2]) @ r.T
    return Splat2D(
        mu2d=np.asarray(mu, float),
        cov2d=0.5 * (cov + cov.T),
        depth=depth,
        opacity=o,
        color=np.asarray(color, float),
    )


def random_splat(rng, lo=-1.0, hi=2.0, sig_lo=-1.5, sig_hi=2.0):
    return rot_splat(
        rng.uniform(lo, hi, 2),
        10.0 ** rng.uniform(sig_lo, sig_hi),
        10.0 ** rng.uniform(sig_lo, sig_hi),
        rng.uniform(0, 2 * np.pi),
        float(rng.uniform(0.0, 1.0)),
        color=rng.uniform(0, 1, 3),
        depth=float(rng.uniform(1, 10)),
    )


# --- window initialization --------------------------------------------------


def test_init_window():
    w = init_window(PX)
    assert np.allclose(w.center, PX)
    assert np.array_equal(w.sides, [1.0, 1.0])
    assert w.value == 1.0
    assert w.mass == 1.0
    w2 = init_window((7.5, 3.5))
    assert np.array_equal(w2.sides, w.sides) and w2.value == w.value


# --- splat frame ------------------------------------------------------------


def test_frame_centered_axis_aligned():
    sp = rot_splat(PX, 2.0, 1.0, 0.0, 0.5)
    fr = to_splat_frame(init_window(PX), sp, eigen2x2(sp.cov2d))
    assert fr.u == 0.0 and fr.v == 0.0
    assert (fr.u1, fr.u2, fr.v1, fr.v2) == (-0.5, 0.5, -0.5, 0.5)
    assert fr.sigma1 == pytest.approx(2.0) and fr.sigma2 == pytest.approx(1.0)


def test_frame_translation_invariance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        sp = random_splat(rng)
        win = TransmittanceWindow(
            center=rng.uniform(-2, 2, 2), sides=10.0 ** rng.uniform(-1, 1, 2),
            value=float(rng.uniform(0.1, 1)),
        )
        shift = rng.uniform(-5, 5, 2)
        sp2 = sp._replace(mu2d=sp.mu2d + shift)
        win2 = TransmittanceWindow(center=win.center + shift, sides=win.sides, value=win.value)
        a = to_splat_frame(win, sp, eigen2x2(sp.cov2d))
        b = to_splat_frame(win2, sp2, eigen2x2(sp2.cov2d))
        for f in ("u", "v", "u1", "u2", "v1", "v2", "sigma1", "sigma2"):
            assert getattr(a, f) == pytest.approx(getattr(b, f), rel=1e-9, abs=1e-9)


def test_frame_bounds_midpoint_invariant():
    rng = np.random.default_rng(9)
    for _ in range(100):
        sp = random_splat(rng)
        win = TransmittanceWindow(center=rng.uniform(-3, 3, 2),
                                  sides=10.0 ** rng.uniform(-1, 1, 2),
                                  value=0.7)
        fr = to_splat_frame(win, sp, eigen2x2(sp.cov2d))
        assert fr.u1 <= fr.u2 and fr.v1 <= fr.v2
        assert 0.5 * (fr.u1 + fr.u2) == pytest.approx(fr.u, abs=1e-9)
        assert 0.5 * (fr.v1 + fr.v2) == pytest.approx(fr.v, abs=1e-9)


def test_axis_pairing_stays_within_45_degrees():
    # For a 90-degree-rotated anisotropic splat, axes must swap: whichever
    # eigenvector pairs with the window's x side has to lie within 45 degrees
    # of the screen x axis. Checked exhaustively against both pairings.
    for theta in np.linspace(0.0, np.pi, 37):
        sp = rot_splat(PX, 3.0, 0.5, theta, 0.5)
        eig = eigen2x2(sp.cov2d)
        a1, s1, a2, s2 = paired_axes(eig)
        assert abs(a1[0]) >= abs(a1[1]) - 1e-12  # within 45 deg of screen x
        assert abs(a2[1]) >= abs(a2[0]) - 1e-12
        assert {round(s1, 12), round(s2, 12)} == {
            round(eig.sigma1, 12), round(eig.sigma2, 12)
        }


def test_axis_pairing_90_degree_swap():
    flat = rot_splat(PX, 3.0, 0.5, 0.0, 0.5)  # major axis along x
    tall = rot_splat(PX, 3.0, 0.5, np.pi / 2, 0.5)  # major axis along y
    fa = to_splat_frame(init_window(PX), flat, eigen2x2(flat.cov2d))
    ta = to_splat_frame(init_window(PX), tall, eigen2x2(tall.cov2d))
    assert fa.sigma1 == pytest.approx(3.0) and fa.sigma2 == pytest.approx(0.5)
    # Rotated 90 degrees: the sigma paired with the window x side swaps.
    assert ta.sigma1 == pytest.approx(0.5) and ta.sigma2 == pytest.approx(3.0)


# --- integrated weight ------------------------------------------------------


def test_integrated_weight_zero_opacity():
    sp = iso_splat(PX, 1.0, 0.0)
    fr = to_splat_frame(init_window(PX), sp, eigen2x2(sp.cov2d))
    assert integrated_weight(fr, 1.0, 0.0) == 0.0


def test_integrated_weight_flat_limit():
    sp = iso_splat(PX, 1e6, 0.7)
    fr = to_splat_frame(init_window(PX), sp, eigen2x2(sp.cov2d))
    assert integrated_weight(fr, 1.0, 0.7) == pytest.approx(0.7, abs=1e-6)


def test_integrated_weight_matches_quadrature():
    sp = iso_splat(PX, 1.0, 1.0)
    fr = to_splat_frame(init_window(PX), sp, eigen2x2(sp.cov2d))
    want = alpha_integral_dblquad(1.0, 1.0, 1.0, 0.0, 0.0)
    assert integrated_weight(fr, 1.0, 1.0) == pytest.approx(want, rel=1e-9)


def test_integrated_weight_bounds():
    rng = np.random.default_rng(21)
    for _ in range(300):
        sp = random_splat(rng)
        win = TransmittanceWindow(center=rng.uniform(-2, 2, 2),
                                  sides=10.0 ** rng.uniform(-1, 1.5, 2),
                                  value=float(rng.uniform(0.01, 1)))
        fr = to_splat_frame(win, sp, eigen2x2(sp.cov2d))
        w = integrated_weight(fr, win.value, sp.opacity)
        assert 0.0 <= w <= win.value * (fr.u2 - fr.u1) * (fr.v2 - fr.v1) * (1 + 1e-12)


# --- moments ----------------------------------------------------------------


def test_moments_zero_opacity_is_uniform_box():
    win = TransmittanceWindow(center=[1.0, -2.0], sides=[2.0, 0.5], value=0.6)
    sp = iso_splat([0.0, 0.0], 1.5, 0.0)
    fr = to_splat_frame(win, sp, eigen2x2(sp.cov2d))
    mom = compute_moments(fr, win.value, 0.0)
    area = 2.0 * 0.5
    assert mom.m0 == pytest.approx(0.6 * area, rel=1e-12)
    assert np.allclose(mom.m1 / mom.m0, [fr.u, fr.v], atol=1e-12)
    var = mom.m2 / mom.m0 - (mom.m1 / mom.m0) ** 2
    assert np.allclose(var, [2.0**2 / 12, 0.5**2 / 12], rtol=1e-9)


def test_moments_symmetry_keeps_center():
    sp = iso_splat(PX, 0.8, 0.9)
    fr = to_splat_frame(init_window(PX), sp, eigen2x2(sp.cov2d))
    mom = compute_moments(fr, 1.0, 0.9)
    assert np.allclose(mom.m1 / mom.m0, [0.0, 0.0], atol=1e-14)


def test_moments_match_quadrature_randomized():
    # Spot version of the acceptance run: closed form vs the GL oracle, with a
    # dblquad cross-check of the oracle itself on a few cases.
    rng = np.random.default_rng(13)
    n = 2000
    sigma1 = 10.0 ** rng.uniform(-2, 1.5, n)
    sigma2 = 10.0 ** rng.uniform(-2, 1.5, n)
    l1 = sigma1 * 10.0 ** rng.uniform(-1, 3, n)
    l2 = sigma2 * 10.0 ** rng.uniform(-1, 3, n)
    u = rng.normal(0, np.maximum(l1, sigma1))
    v = rng.normal(0, np.maximum(l2, sigma2))
    t = rng.uniform(0.05, 1.0, n)
    o = rng.uniform(0.0, 1.0, n)
    m0o, m1uo, m1vo, m2uo, m2vo = window_moments_numeric(t, o, sigma1, sigma2, u, v, l1, l2)

    checked = 0
    for i in range(n):
        fr = SplatFrame(u=u[i], v=v[i], u1=u[i] - l1[i] / 2, u2=u[i] + l1[i] / 2,
                        v1=v[i] - l2[i] / 2, v2=v[i] + l2[i] / 2,
                        sigma1=sigma1[i], sigma2=sigma2[i])
        mom = compute_moments(fr, t[i], o[i])
        if m0o[i] <= 1e-3 * t[i] * l1[i] * l2[i]:
            continue  # nearly consumed; mean/variance ill-conditioned both ways
        checked += 1
        mean_c = mom.m1 / mom.m0
        mean_o = np.array([m1uo[i], m1vo[i]]) / m0o[i]
        var_c = np.maximum(mom.m2 / mom.m0 - mean_c**2, 0.0)
        var_o = np.array([m2uo[i], m2vo[i]]) / m0o[i] - mean_o**2
        sides = np.array([l1[i], l2[i]])
        assert mom.m0 == pytest.approx(m0o[i], rel=1e-8)
        assert np.all(np.abs(mean_c - mean_o) <= 1e-8 * np.maximum(np.abs(mean_o), sides))
        assert np.all(np.abs(var_c - var_o) <= 1e-8 * np.maximum(np.abs(var_o), sides**2 / 12))
    assert checked > n * 0.9

    for i in range(0, n, 400):  # oracle self-check against gold dblquad
        if l1[i] > 30 * sigma1[i] or l2[i] > 30 * sigma2[i]:
            continue
        gold = window_moments_dblquad(t[i], o[i], sigma1[i], sigma2[i], u[i], v[i], l1[i], l2[i])
        fast = (m0o[i], m1uo[i], m1vo[i], m2uo[i], m2vo[i])
        for g, f in zip(gold, fast):
            assert f == pytest.approx(g, rel=1e-9, abs=1e-10 * t[i] * l1[i] * l2[i])


def test_moments_m0_clamped():
    mom = GaussianMoments(m0=0.0, m1=np.zeros(2), m2=np.zeros(2))
    assert mom.m0 == 0.0
    # An opaque splat flooding the window leaves m0 tiny but never negative.
    sp = iso_splat(PX, 5.0, 1.0)
    fr = to_splat_frame(init_window(PX), sp, eigen2x2(sp.cov2d))
    got = compute_moments(fr, 1.0, 1.0)
    assert got.m0 >= 0.0


# --- window update: the shipped kernel, _WindowBlend.step --------------------


def window_step(splat, center=PX, sides=(1.0, 1.0), value=1.0):
    """One _WindowBlend.step of splat on a single window whose center, sides
    and value are set directly; returns (weight, center, sides, value) after."""
    prep = prepare_splats(stack_splats([splat]))
    prep.color = np.array([[1.0], [0.0], [0.0]])  # the red channel accumulates the weight
    blend = _WindowBlend(np.zeros((2, 1)))  # the state is axis-first: (2, p) planes
    blend.wc[:, 0] = center
    blend.ws[:, 0] = sides
    blend.wv[0] = value
    blend.step(prep, _Gather(np.array([0]), 0), 0.0)
    return blend.rgb[0, 0], blend.wc[:, 0], blend.ws[:, 0], blend.wv[0]


def test_update_noop_splat():
    w, c, s, v = window_step(iso_splat(PX, 1.0, 0.0))
    assert w == 0.0
    assert np.array_equal(c, PX) and np.array_equal(s, [1.0, 1.0])
    assert v == 1.0


def test_update_flat_splat_scales_value_only():
    # sigma = 1e5 with a unit window trips the guard (ratio 1e-5 < 0.1); the
    # fallback must keep geometry and halve the value for o = 0.5.
    w, c, s, v = window_step(iso_splat(PX, 1e5, 0.5))
    assert np.allclose(c, PX, atol=1e-6)
    assert np.allclose(s, [1.0, 1.0], atol=1e-6)
    assert v == pytest.approx(0.5, abs=1e-6)
    assert w == pytest.approx(0.5, abs=1e-6)


def test_update_flat_splat_in_guard():
    # Same behavior without the guard: sigma = 8 keeps ratio 0.125 in range
    # and the splat is still nearly constant over the window.
    w, c, s, v = window_step(iso_splat(PX, 8.0, 0.5))
    assert np.allclose(c, PX, atol=1e-3)
    assert np.allclose(s, [1.0, 1.0], atol=2e-3)
    assert v == pytest.approx(0.5, abs=2e-3)


def test_update_left_overlap_narrows_toward_right():
    # Splat over the window's left half: the surviving transmittance sits on
    # the right, so the new center moves right and the x side narrows.
    sp = iso_splat((0.0, 0.5), 0.5, 0.9)
    w, c, s, v = window_step(sp)
    assert c[0] > PX[0]
    assert s[0] < 1.0
    assert w > 0.0
    # Exact values against the quadrature oracle, in the prepared splat frame.
    prep = prepare_splats(stack_splats([sp]))
    d = np.array(PX) - prep.mu[:, 0]
    a1, a2 = prep.axes[..., 0]
    u = np.array([d @ a1])
    vv = np.array([d @ a2])
    m0o, m1uo, m1vo, m2uo, m2vo = window_moments_numeric(
        np.array([1.0]), np.array([0.9]), prep.sigma[0], prep.sigma[1], u, vv,
        np.array([1.0]), np.array([1.0]))
    mean = np.array([m1uo[0], m1vo[0]]) / m0o[0]
    var = np.array([m2uo[0], m2vo[0]]) / m0o[0] - mean**2
    want_center = prep.mu[:, 0] + a1 * mean[0] + a2 * mean[1]
    assert np.allclose(c, want_center, atol=1e-8)
    assert np.allclose(s, np.sqrt(12 * var), rtol=1e-8)
    assert v == pytest.approx(m0o[0] / (s[0] * s[1]), rel=1e-8)


def test_update_hole_enlarges_window():
    _, _, s, _ = window_step(iso_splat(PX, 0.15, 1.0))
    assert s[0] > 1.0 and s[1] > 1.0


def test_update_mass_conservation_randomized():
    # The reference update_window must conserve mass like the kernel it checks.
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(5000):
        win = TransmittanceWindow(
            center=rng.uniform(-5, 5, 2),
            sides=10.0 ** rng.uniform(-2, 2, 2),
            value=float(rng.uniform(0.01, 1.0)),
        )
        sp = random_splat(rng, sig_lo=-3, sig_hi=3)
        sp = sp._replace(mu2d=win.center + rng.normal(0, max(win.sides.max(), 1), 2))
        mass_prev = win.mass
        w, nxt = update_window(win, sp, eigen2x2(sp.cov2d))
        assert 0.0 <= w <= mass_prev * (1 + 1e-9) + 1e-300
        worst = max(worst, abs(nxt.mass - (mass_prev - w)))
        assert 0.0 <= nxt.value <= 1.0
        assert np.all(nxt.sides >= 1e-6)
    assert worst <= 1e-9


@settings(max_examples=400)
@given(
    log_sides=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    value=st.floats(0.01, 1.0),
    offset=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    log_sigmas=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    theta=st.floats(0.0, 2.0 * np.pi),
    opacity=st.floats(0.0, 1.0),
)
def test_window_step_conserves_mass_property(log_sides, value, offset, log_sigmas, theta,
                                             opacity):
    # One step of the shipped kernel on windows of sides 1e-2..1e2 and splats
    # of sigma 1e-3..1e3, the window center offset from the splat mean by up
    # to 3 of the larger of window side and splat sigma, per axis.
    sides = 10.0 ** np.array(log_sides)
    sig1, sig2 = 10.0 ** np.array(log_sigmas)
    sp = rot_splat((0.0, 0.0), sig1, sig2, theta, opacity)
    center = np.array(offset) * np.maximum(sides, max(sig1, sig2))
    mass_before = value * sides[0] * sides[1]
    w, _, s, v = window_step(sp, center, sides, value)
    assert w >= 0.0
    assert abs((mass_before - w) - v * s[0] * s[1]) <= 1e-9
    assert 0.0 <= v <= 1.0
    assert np.all(s >= MIN_SIDE)


def test_update_guard_fallback_freezes_geometry():
    sp = iso_splat((0.3, -0.2), 50.0, 0.6)  # ratio 0.02 -> fallback
    w, c, s, v = window_step(sp, center=(0.0, 0.0), value=0.8)
    assert np.array_equal(c, [0.0, 0.0])
    assert np.array_equal(s, [1.0, 1.0])
    d2 = (0.3**2 + 0.2**2) / 50.0**2
    alpha = 0.6 * np.exp(-0.5 * d2)
    assert v == pytest.approx(0.8 * (1 - alpha), rel=1e-12)
    assert w == pytest.approx(0.8 * alpha, rel=1e-12)
    assert v * s[0] * s[1] == pytest.approx(0.8 - w, abs=1e-12)


def test_update_guard_uses_paired_sigma_per_axis():
    # The guard trips only where side / sigma < GUARD_LO on both axes, each
    # side against the sigma paired with it. On sides (1, 0.05), a splat of
    # sigma 1 along x and 20 along y trips on y alone and takes the moment
    # path (the geometry changes); one of 20 along x and 1 along y trips on
    # both and falls back (the geometry stays). Pairing the other way round
    # would send each down the other branch, pairing by principal order the
    # two with the major axis along y.
    for sig1, sig2, theta, moved in ((1.0, 20.0, 0.0, True), (20.0, 1.0, np.pi / 2, True),
                                     (20.0, 1.0, 0.0, False), (1.0, 20.0, np.pi / 2, False)):
        _, _, s, _ = window_step(rot_splat(PX, sig1, sig2, theta, 0.9), sides=(1.0, 0.05))
        assert (not np.array_equal(s, [1.0, 0.05])) == moved, (sig1, sig2, theta)
    # No upper bound: side / sigma of 5e6 takes the moment path too.
    _, _, s2, _ = window_step(rot_splat(PX, 1.0, 2e-7, 0.0, 0.9))
    assert not np.array_equal(s2, [1.0, 1.0])


@pytest.mark.parametrize("form", ["gathered", "dense", "per-point"])
def test_fallback_scales_by_center_alpha(form):
    # Guard-tripped windows under rotated anisotropic splats: the step scales
    # each value by exactly 1 - _alpha_center at the window center, the
    # renderer's one center Gaussian, and keeps the geometry. A separate
    # frame-form exponent differs from it in the last bits.
    rng = np.random.default_rng(7)
    prep = prepare_splats(stack_splats([
        rot_splat((0.3, -0.2), 30.0, 5.0, 0.3, 0.9),
        rot_splat((-4.0, 6.0), 200.0, 40.0, 1.1, 0.6),
        rot_splat((2.0, 1.0), 15.0, 12.0, 2.5, 1.0),
    ]))
    side = 17
    pts = rng.uniform(-12.0, 12.0, (side * side, 2)).T  # axis-first, (2, p)
    blend = _WindowBlend(pts)
    blend.ws[:] = rng.uniform(0.01, 0.4, (pts.shape[1], 2)).T  # side / sigma < GUARD_LO
    blend.wv[:] = rng.uniform(0.05, 1.0, pts.shape[1])
    wc, ws, wv = blend.wc.copy(), blend.ws.copy(), blend.wv.copy()
    act = np.arange(pts.shape[1])
    for j in (0, 1, 2):
        js = rng.integers(0, 3, act.size) if form == "per-point" else j
        if form == "dense":
            index = act.reshape(side, side)
            sel = _Rect((slice(None), slice(None)), np.ones(index.shape, dtype=bool), index, j)
        else:
            sel = _Gather(act, js)
        blend.step(prep, sel, 0.0)
        d = wc - prep.mu[:, js].reshape(2, -1)
        wv = wv * (1.0 - _alpha_center(prep, js, d[0], d[1]))
        assert blend.wv.tobytes() == wv.tobytes()
        assert blend.wc.tobytes() == wc.tobytes() and blend.ws.tobytes() == ws.tobytes()


@settings(max_examples=100)
@given(log_sigmas=st.tuples(st.floats(-9.0, 6.0), st.floats(-9.0, 6.0)),
       mu=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
       opacity=st.floats(0.0, 1.0, exclude_min=True))
def test_gb_axis_aligned_splat_equals_truth_property(log_sigmas, mu, opacity):
    # One axis-aligned splat of sigma 1e-9..1e6 px per axis over the pixel at
    # the origin: gb's first step removes the exact integrated alpha, so the
    # residual is the closed-form truth, for needles thin on one axis and wide
    # on the other too. Only a splat wider than 10 px on both axes may take
    # the center sample, which is exact only in the limit.
    sx, sy = 10.0 ** np.array(log_sigmas)
    assume(not (sx > 10.0 and sy > 10.0))
    splats = ProjectedCloud(mu2d=[mu], cxx=[sx * sx], cxy=[0.0], cyy=[sy * sy], depth=[1.0],
                            opacity=[opacity], color=[[1.0, 0.0, 0.0]])
    _, res = blend_pixel(splats, (0.0, 0.0), "gb")
    assert abs(res - true_residual_transmittance(splats)) <= 1e-12


def test_near_isotropic_splat_takes_the_screen_axes():
    # Within ISO_TOL of isotropic the solve takes the screen axes, so a cxy of
    # +-1e-15 on sigma 1, which could otherwise turn the frame about 45
    # degrees and move gb's residual by 2e-7, moves it by roundoff at most.
    res = []
    for cxy in (0.0, 1e-15, -1e-15):
        assert eigen2x2_batch(1.0, cxy, 1.0)[2:] == (1.0, 0.0)
        splats = ProjectedCloud(mu2d=[[0.3, -0.1]], cxx=[1.0], cxy=[cxy], cyy=[1.0], depth=[1.0],
                                opacity=[0.9], color=[[1.0, 0.0, 0.0]])
        res.append(blend_pixel(splats, (0.0, 0.0), "gb")[1])
    assert max(res) - min(res) <= 1e-15


def test_update_min_side_clamp():
    # An opaque splat eating nearly all the box forces tiny variances; sides
    # must stay >= MIN_SIDE and value within [0, 1].
    w, _, s, v = window_step(iso_splat(PX, 3.0, 1.0))
    assert np.all(s >= MIN_SIDE)
    assert 0.0 <= v <= 1.0
    assert v * s[0] * s[1] == pytest.approx(1.0 - w, abs=1e-9)


# --- one step over windows that take different branches --------------------

MIXED_EPSILON = 1e-3
# Window sides of each point of MIXED_ACT, against splat sigmas of 0.5 to 2:
# points 0, 1, 2, 4, 5 and 6 are in the guard, 2 with one side below
# GUARD_LO and 4 with both 1e7 sigmas wide; 7 is below GUARD_LO on both
# axes. Point 5 lies 1e4 px away (zero integrated weight, a no-op); the
# masses of 6 and 7 drop below MIXED_EPSILON. Point 3 is not live.
MIXED_SIDES = [(1.0, 1.0), (0.8, 1.3), (0.03, 1.0), (1.0, 1.0), (1e7, 1e7), (1.0, 1.0),
               (1.0, 1.0), (0.04, 0.04)]
MIXED_VALUES = [1.0, 0.7, 0.9, 1.0, 0.6, 1.0, 1.2e-3, 1.0]
MIXED_ACT = np.array([0, 1, 2, 4, 5, 6, 7])
MIXED_IN_GUARD = 6


def mixed_prep():
    return prepare_splats(stack_splats([
        iso_splat((0.0, 0.0), 1.0, 0.9, color=(1.0, 0.2, 0.1), depth=1.0),
        rot_splat((0.3, -0.2), 2.0, 0.7, 0.4, 0.6, color=(0.1, 0.8, 0.3), depth=2.0),
        iso_splat((-0.4, 0.1), 0.5, 0.5, color=(0.2, 0.3, 0.9), depth=3.0),
    ]))


def mixed_windows(prep, j):
    """A _WindowBlend over the MIXED_* windows; the points that must lose
    their mass sit on the mean of their splat."""
    js = np.broadcast_to(j, MIXED_ACT.shape)
    centers = np.array([(0.2, 0.1), (-0.3, 0.4), (0.1, -0.1), (0.0, 0.0), (0.5, 0.5),
                        (1e4, -1e4), tuple(prep.mu[:, js[5]]), tuple(prep.mu[:, js[6]])])
    blend = _WindowBlend(centers.T)
    blend.ws[:] = np.transpose(MIXED_SIDES)
    blend.wv[:] = MIXED_VALUES
    return blend


def window_state(blend, i):
    return blend.rgb[:, i], blend.wc[:, i], blend.ws[:, i], blend.wv[i]  # axis-first state


@pytest.mark.parametrize("j", [0, np.array([0, 1, 2, 0, 1, 2, 0])], ids=["one-splat", "per-point"])
def test_window_step_mixed_branches_equal_solo_steps(j):
    # One step whose points take both branches, the no-op and epsilon
    # terminations must leave each point as stepping it alone does.
    prep = mixed_prep()
    js = np.broadcast_to(j, MIXED_ACT.shape)
    r = np.array(MIXED_SIDES)[MIXED_ACT] / prep.sigma[:, js].T
    assert np.count_nonzero((r >= GUARD_LO).any(axis=1)) == MIXED_IN_GUARD
    assert ((r < GUARD_LO).any(axis=1) & (r >= GUARD_LO).any(axis=1)).any()

    blend = mixed_windows(prep, j)
    before = [tuple(a.copy() for a in window_state(blend, i)) for i in range(8)]
    ended = blend.step(prep, _Gather(MIXED_ACT, j), MIXED_EPSILON)
    solo_ended = set()
    for i, ji in zip(MIXED_ACT.tolist(), js.tolist()):
        solo = mixed_windows(prep, j)
        if solo.step(prep, _Gather(np.array([i]), ji), MIXED_EPSILON).size:
            solo_ended.add(i)
        for got, want in zip(window_state(blend, i), window_state(solo, i)):
            assert np.array_equal(got, want)
    assert sorted(ended.tolist()) == sorted(solo_ended) == [6, 7]
    for i in (3, 5):  # not live; a no-op
        for got, want in zip(window_state(blend, i), before[i]):
            assert np.array_equal(got, want)


def test_window_step_runs_moments_on_in_guard_points_only(monkeypatch):
    # Guard-tripped points never reach the moment update: a step computes
    # the moments of the u and v axes of its in-guard points, and no more,
    # in one call over both axes.
    sizes = []
    real = blending.gaussian_moments_012

    def counted(sigma, a, b):
        sizes.append(np.size(a))
        return real(sigma, a, b)

    monkeypatch.setattr(blending, "gaussian_moments_012", counted)
    prep = mixed_prep()
    blend = _WindowBlend(np.zeros((2, 5)))
    blend.ws[:] = 0.01  # side / sigma <= 0.02 for every splat
    blend.step(prep, _Gather(np.arange(5), 0), MIXED_EPSILON)
    blend.step(prep, _Gather(np.arange(5), np.array([0, 1, 2, 1, 0])), MIXED_EPSILON)
    assert sizes == []
    for j in (0, np.array([0, 1, 2, 0, 1, 2, 0])):
        sizes.clear()
        mixed_windows(prep, j).step(prep, _Gather(MIXED_ACT, j), MIXED_EPSILON)
        assert sum(sizes) == 2 * MIXED_IN_GUARD
        assert len(sizes) == 1


# --- scalar alphas ----------------------------------------------------------


def test_scalar_alpha_center_cases():
    sp = iso_splat(PX, 1.0, 0.8)
    assert scalar_alpha_center(PX, sp) == pytest.approx(0.8)
    sp1 = iso_splat(PX, 1.0, 1.0)
    assert scalar_alpha_center(PX, sp1) == 0.99  # clamp at the mean
    assert scalar_alpha_center(PX, iso_splat(PX, 1.0, 0.0)) == 0.0


def test_scalar_alpha_center_mahalanobis_oracle():
    rng = np.random.default_rng(33)
    for _ in range(200):
        sp = random_splat(rng)
        p = rng.uniform(-2, 3, 2)
        d = p - sp.mu2d
        q = d @ np.linalg.inv(sp.cov2d) @ d
        # err in exp(-q/2) is ~q/2 times the err in q; allow the headroom
        want = min(sp.opacity * np.exp(-0.5 * q), 0.99)
        assert scalar_alpha_center(p, sp) == pytest.approx(want, rel=1e-8, abs=1e-300)


def test_scalar_alpha_integrated_cases():
    sp = iso_splat(PX, 1e6, 0.7)
    assert scalar_alpha_integrated(PX, sp, eigen2x2(sp.cov2d)) == pytest.approx(0.7, abs=1e-6)
    sp0 = iso_splat(PX, 1.0, 0.0)
    assert scalar_alpha_integrated(PX, sp0, eigen2x2(sp0.cov2d)) == 0.0
    sp1 = iso_splat(PX, 1.0, 1.0)
    want = alpha_integral_dblquad(1.0, 1.0, 1.0, 0.0, 0.0)
    assert scalar_alpha_integrated(PX, sp1, eigen2x2(sp1.cov2d)) == pytest.approx(want, rel=1e-9)


def test_scalar_alpha_integrated_equals_fresh_gb_weight():
    rng = np.random.default_rng(41)
    for _ in range(200):
        sp = random_splat(rng, sig_lo=-1, sig_hi=1)
        eig = eigen2x2(sp.cov2d)
        w, _ = update_window(init_window(PX), sp, eig)
        assert w == scalar_alpha_integrated(PX, sp, eig)


# --- blend_pixel ------------------------------------------------------------


@pytest.mark.parametrize("mode", ["center", "integrated", "gb", "ss"])
def test_blend_empty_list(mode):
    rgb, res = blend_pixel(stack_splats([]), PX, mode)
    assert np.array_equal(rgb, np.zeros(3))
    assert res == 1.0


@pytest.mark.parametrize("mode", ["center", "integrated", "gb", "ss"])
def test_blend_grid_empty_axis(mode):
    # No tile division by zero: a grid with no columns or no rows gives
    # empty arrays of the grid's shape.
    prep = prepare_splats(stack_splats([iso_splat(PX, 1.0, 0.5)]))
    for xs, ys in (([], [0.5, 1.5]), ([0.5, 1.5], []), ([], [])):
        rgb, res = blend_grid(prep, xs, ys, mode, ss_k=2)
        assert rgb.shape == (len(ys), len(xs), 3) and res.shape == (len(ys), len(xs))


def test_blend_pixel_ss_bands_of_sub_rows(monkeypatch):
    # A pixel whose k * k sub-points exceed the tile budget is blended in
    # tiles of its sub-point grid; the split changes no byte.
    prep = prepare_splats(stack_splats([
        iso_splat((0.3, 0.7), 0.4, 0.8, color=(0.9, 0.2, 0.1), depth=1.0),
        iso_splat((0.6, 0.2), 0.6, 0.6, color=(0.1, 0.3, 0.8), depth=2.0),
    ]))
    want_rgb, want_res = blend_pixel(prep, PX, "ss", ss_k=4)
    calls = []
    real = blending.blend_grid

    def logged(prep, xs, ys, mode, *args):
        calls.append((mode, np.size(ys), np.size(xs)))
        return real(prep, xs, ys, mode, *args)

    monkeypatch.setattr(blending, "blend_grid", logged)
    monkeypatch.setattr(blending, "_TILE_POINTS", 4)  # tiles of 2 x 2 sub-points
    rgb, res = blend_pixel(prep, PX, "ss", ss_k=4)
    assert calls == [("ss", 1, 1), ("center", 4, 4)] + [("center", 2, 2)] * 4
    assert rgb.tobytes() == want_rgb.tobytes() and res == want_res


@pytest.mark.parametrize("ss_k", [0, -2, 2.0, 1.5, True, "4"])
def test_blend_grid_rejects_bad_ss_k(ss_k):
    # Unchecked, 2.0 and True failed deep inside, with a TypeError from the
    # reshape in pixel_blocks.
    prep = prepare_splats(stack_splats([iso_splat(PX, 1.0, 0.5)]))
    with pytest.raises(ValueError, match=rf"^ss_k must be an integer >= 1, not {ss_k!r}$"):
        blend_grid(prep, [0.5], [0.5], "ss", ss_k=ss_k)
    # a NumPy integer is an integer
    want = blend_grid(prep, [0.5], [0.5], "ss", ss_k=2)
    got = blend_grid(prep, [0.5], [0.5], "ss", ss_k=np.int64(2))
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def cloud_at_3_sigma():
    cloud, cam = synth.random_cloud(0, n=20)
    return prepare_splats(project_cloud(cloud, cam), 3.0)


def test_blend_grid_rejects_descending_axes():
    # Unchecked, support_rects' searchsorted ran on any order: at y = 20.5
    # the ascending xs gave residuals [1, 1, 0.9429] and the reversed ones
    # [1, 1, 1], with no warning.
    prep = cloud_at_3_sigma()
    _, res = blend_grid(prep, [10.5, 20.5, 40.5], [20.5], "center")
    assert res[0, 2] < 1.0
    with pytest.raises(ValueError,
                       match=r"^xs must be finite and non-decreasing, not \[40.5 20.5 10.5\]$"):
        blend_grid(prep, [40.5, 20.5, 10.5], [20.5], "center")
    with pytest.raises(ValueError, match=r"^ys must be finite and non-decreasing"):
        blend_grid(prep, [20.5], [30.5, 20.5], "gb")
    # equal coordinates are non-decreasing, and so is an empty axis
    _, res = blend_grid(prep, [40.5, 40.5], [20.5], "center")
    assert res[0, 0] == res[0, 1] < 1.0
    assert blend_grid(prep, [], [20.5], "center")[1].shape == (1, 0)


def test_blend_grid_ss_names_the_pixel_axis():
    # ss pixel centers closer than (k - 1) / k interleave their sub-points;
    # the message used to show those, [0.25 0.75 0.35 0.85], not the caller's.
    prep = cloud_at_3_sigma()
    with pytest.raises(ValueError, match=r"^xs must be finite and non-decreasing, pixel centers "
                                         r"at least \(k - 1\) / k = 0.5 apart, not \[0.5 0.6\]$"):
        blend_grid(prep, [0.5, 0.6], [20.5], "ss", ss_k=2)
    # exactly (k - 1) / k apart is allowed
    _, res = blend_grid(prep, [0.5, 1.0], [20.5], "ss", ss_k=2)
    assert res.shape == (1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_blend_grid_rejects_nonfinite_axes(bad):
    # Unchecked, blend_pixel((nan, 3.0), "gb") returned the background:
    # residual 1.0 at a point that is no point.
    prep = cloud_at_3_sigma()
    with pytest.raises(ValueError, match=r"^xs must be finite and non-decreasing"):
        blend_pixel(prep, (bad, 3.0), "gb")
    with pytest.raises(ValueError, match=r"^ys must be finite and non-decreasing"):
        blend_pixel(prep, (3.0, bad), "center")
    with pytest.raises(ValueError, match=r"^xs must be finite and non-decreasing"):
        blend_grid(prep, [10.5, bad, 40.5], [20.5], "integrated")


@pytest.mark.parametrize("pixel", [(0.0, 0.0, 1.0), (1.0,), ()])
def test_blend_pixel_names_a_pixel_of_the_wrong_size(pixel):
    # Unchecked, numpy said "cannot reshape array of size 3 into shape (2,)".
    match = rf"^pixel must hold 2 coordinates \(x, y\), not {re.escape(repr(pixel))}$"
    with pytest.raises(ValueError, match=match):
        blend_pixel(stack_splats([]), pixel, "gb")


@pytest.mark.parametrize("support_sigma", [0.0, -3.0, np.nan, -np.inf])
def test_prepare_splats_rejects_support_sigma_not_positive(support_sigma):
    # Unchecked, a NaN support_sigma gave NaN boxes, and the frame drew nothing.
    projected = stack_splats([iso_splat(PX, 1.0, 0.5)])
    with pytest.raises(ValueError, match=rf"^support_sigma must be > 0, not {support_sigma!r}$"):
        prepare_splats(projected, support_sigma)


def test_check_mode_rejects_an_unknown_mode():
    for mode in MODES:
        assert check_mode(mode) is None
    with pytest.raises(ValueError, match="unknown blend mode"):
        check_mode("bilinear")


def test_blend_single_splat_equivalence():
    # GB weight is exactly the integrated alpha on a fresh window; the
    # supersample oracle agrees to its box-reinterpretation/discretization
    # error, which is far below 1e-4 for these footprints.
    rng = np.random.default_rng(11)
    for i in range(60):
        if i % 2 == 0:
            sig = 10.0 ** rng.uniform(np.log10(0.7), np.log10(5.0))
            sp = iso_splat(np.array(PX) + rng.uniform(-0.5, 0.5, 2), sig,
                           float(rng.uniform(0.3, 0.95)), color=rng.uniform(0, 1, 3))
        else:
            sp = rot_splat(np.array(PX) + rng.uniform(-0.5, 0.5, 2),
                           10.0 ** rng.uniform(np.log10(2), np.log10(6)),
                           10.0 ** rng.uniform(np.log10(2), np.log10(6)),
                           rng.uniform(0, 2 * np.pi), float(rng.uniform(0.3, 0.95)),
                           color=rng.uniform(0, 1, 3))
        cg, rg = blend_pixel(stack_splats([sp]), PX, "gb")
        ci, ri = blend_pixel(stack_splats([sp]), PX, "integrated")
        cs, rs = blend_pixel(stack_splats([sp]), PX, "ss", ss_k=64)
        assert np.allclose(cg, ci, atol=1e-12)
        assert rg == pytest.approx(ri, abs=1e-12)
        assert np.allclose(cg, cs, atol=1e-4)


def test_blend_two_overlapping_plus_background_splat():
    # Two nearly opaque overlapping splats in front, one broad splat behind:
    # scalar blending overestimates coverage (dilation) and starves the
    # background splat's contribution; GB keeps the error strictly smallest
    # vs the supersample oracle.
    front_a = iso_splat((0.15, 0.5), 0.3, 0.95, color=(1, 0, 0), depth=1.0)
    front_b = iso_splat((0.85, 0.5), 0.3, 0.95, color=(0, 1, 0), depth=1.2)
    back = iso_splat(PX, 6.0, 0.9, color=(0, 0, 1), depth=5.0)
    splats = [front_a, front_b, back]
    ref, _ = blend_pixel(stack_splats(splats), PX, "ss", ss_k=64)
    errs = {}
    for mode in ("center", "integrated", "gb"):
        got, _ = blend_pixel(stack_splats(splats), PX, mode)
        errs[mode] = float(np.linalg.norm(got - ref))
    assert errs["gb"] < errs["center"]
    assert errs["gb"] < errs["integrated"]
    # The background splat keeps visible weight under GB.
    got_gb, _ = blend_pixel(stack_splats(splats), PX, "gb")
    assert got_gb[2] > 0.1


def test_blend_monotone_depletion():
    rng = np.random.default_rng(6)
    for mode in ("center", "integrated", "gb", "ss"):
        splats = []
        prev = 1.0
        for i in range(10):
            splats.append(
                iso_splat(np.array(PX) + rng.uniform(-1, 1, 2),
                          10.0 ** rng.uniform(-0.5, 0.5), float(rng.uniform(0.2, 0.9)),
                          color=rng.uniform(0, 1, 3), depth=float(i + 1))
            )
            _, res = blend_pixel(stack_splats(splats), PX, mode, ss_k=8)
            assert res <= prev + 1e-12
            prev = res


def test_blend_color_commutation():
    # Weights depend only on geometry; permuting colors permutes contributions.
    rng = np.random.default_rng(14)
    splats = [random_splat(rng, lo=-0.5, hi=1.5, sig_lo=-0.5, sig_hi=0.7) for _ in range(5)]
    for mode in ("center", "integrated", "gb"):
        base, res0 = blend_pixel(stack_splats(splats), PX, mode)
        unit_weights = []
        for j in range(5):
            probe = [
                s._replace(color=np.array([1.0, 0, 0]) if i == j else np.zeros(3))
                for i, s in enumerate(splats)
            ]
            c, res = blend_pixel(stack_splats(probe), PX, mode)
            unit_weights.append(c[0])
            assert res == pytest.approx(res0, abs=1e-15)
        recon = sum(w * s.color for w, s in zip(unit_weights, splats))
        assert np.allclose(recon, base, atol=1e-12)


def test_blend_epsilon_termination():
    # Scalar modes freeze the point instead of letting T cross epsilon: the
    # splat that would push T below it is not composited. GB composites the
    # splat that drops the mass below epsilon, then terminates.
    splats = [iso_splat(PX, 2.0, 0.9, depth=float(i + 1)) for i in range(20)]
    _, res_loose = blend_pixel(stack_splats(splats), PX, "center", epsilon=0.5)
    assert res_loose == 1.0  # alpha 0.9 would leave T = 0.1 < 0.5, so frozen
    _, res_tight = blend_pixel(stack_splats(splats), PX, "center", epsilon=1e-6)
    assert res_tight < 0.01
    rgb_gb, res_gb = blend_pixel(stack_splats(splats), PX, "gb", epsilon=0.5)
    sp = splats[0]
    w1 = scalar_alpha_integrated(PX, sp, eigen2x2(sp.cov2d))
    assert res_gb == pytest.approx(1.0 - w1, abs=1e-12)  # one splat, then stop
    assert rgb_gb[0] == pytest.approx(w1, abs=1e-12)


def test_blend_depth_tie_stable_order():
    # Equal depths: input order decides. An opaque red in front of green at
    # the same depth must keep red dominant.
    red = iso_splat(PX, 2.0, 0.95, color=(1, 0, 0), depth=3.0)
    green = iso_splat(PX, 2.0, 0.95, color=(0, 1, 0), depth=3.0)
    a, _ = blend_pixel(stack_splats([red, green]), PX, "center")
    b, _ = blend_pixel(stack_splats([green, red]), PX, "center")
    assert a[0] > a[1]
    assert b[1] > b[0]


def test_supersample_convergence():
    rng = np.random.default_rng(5)
    splats = [
        iso_splat(rng.uniform(-1, 2, 2), 10.0 ** rng.uniform(-0.7, 0.7),
                  float(rng.uniform(0.2, 1.0)), color=rng.uniform(0, 1, 3),
                  depth=float(i + 1))
        for i in range(12)
    ]
    deltas = []
    prev = None
    for k in (8, 16, 32, 64):
        c, _ = blend_pixel(stack_splats(splats), PX, "ss", ss_k=k)
        if prev is not None:
            deltas.append(np.abs(c - prev).max())
        prev = c
    assert deltas[0] < 1e-3
    assert deltas[-1] < deltas[0]  # shrinking toward the limit


def test_subsample_grid_layout():
    sub = subsample_axis([0.5], 2)
    assert np.allclose(sub, [0.25, 0.75])
    grid = np.stack(np.meshgrid(sub, sub), axis=-1)  # (y, x, 2) sub-point coordinates
    g = pixel_blocks(grid, 2)
    assert g.shape == (1, 2, 2, 2)
    # y-outer, x-inner, half-texel offsets at +-0.25 around the center
    assert np.allclose(g[0, 0, 0], [0.25, 0.25])
    assert np.allclose(g[0, 0, 1], [0.75, 0.25])
    assert np.allclose(g[0, 1, 0], [0.25, 0.75])
    assert np.allclose(g[0, 1, 1], [0.75, 0.75])


def test_support_cutoff_is_opt_in():
    # Bare pixel blending sees the full Gaussian tails; a finite support box
    # (the rasterizer's preparation) makes distant splats contribute nothing.
    far = iso_splat((4.0, 0.5), 1.0, 0.9)
    _, res_full = blend_pixel(stack_splats([far]), PX, "gb")
    assert res_full < 1.0  # untruncated tail still absorbs a little
    prep3 = prepare_splats(stack_splats([far]), support_sigma=3.0)
    rgb, res = blend_pixel(prep3, PX, "gb")
    assert res == 1.0 and np.allclose(rgb, 0.0)
    rgb, res = blend_pixel(prep3, PX, "center")
    assert res == 1.0
    near = iso_splat((3.0, 0.5), 1.0, 0.9)  # 3 sigma box reaches the center
    prep3 = prepare_splats(stack_splats([near]), support_sigma=3.0)
    _, res2 = blend_pixel(prep3, PX, "gb")
    assert res2 < 1.0


def test_prepare_splats_culls_degenerate():
    good = iso_splat(PX, 1.0, 0.5)
    bad = Splat2D(mu2d=np.zeros(2), cov2d=np.array([[1.0, 2.0], [2.0, 1.0]]),
                  depth=1.0, opacity=0.5, color=np.zeros(3))
    prep = prepare_splats(stack_splats([bad, good]))
    assert len(prep) == 1
    assert prep.n_culled_degenerate == 1


def test_prepare_splats_sorts_stably():
    rng = np.random.default_rng(3)
    splats = [iso_splat(rng.uniform(0, 1, 2), 1.0, 0.5, depth=d)
              for d in (3.0, 1.0, 3.0, 2.0, 1.0)]
    prep = prepare_splats(stack_splats(splats))
    # Ties keep input order: the two depth-1 splats stay as input 1 then 4,
    # and the two depth-3 ones as 0 then 2.
    assert np.array_equal(prep.mu.T, [splats[i].mu2d for i in (1, 4, 3, 0, 2)])


@pytest.mark.parametrize("m", [0, 1, 3])
def test_prepared_splats_are_splat_last(m):
    # Every per-splat array ends in the splat axis, as the blend state ends in
    # its point axis, so no step body transposes splat data.
    rng = np.random.default_rng(m)
    prep = prepare_splats(stack_splats([
        rot_splat(rng.uniform(-2, 2, 2), 1.5, 0.5, rng.uniform(0, np.pi), 0.8, depth=float(d))
        for d in range(m)]), support_sigma=3.0)
    arrays = {f.name: getattr(prep, f.name) for f in fields(prep)
              if isinstance(getattr(prep, f.name), np.ndarray)}
    assert {name: a.shape for name, a in arrays.items()} == {
        "mu": (2, m), "color": (3, m), "opacity": (m,), "sigma": (2, m), "axes": (2, 2, m),
        # aabb alone keeps one (x1, y1, x2, y2) row per splat: perfbench's
        # _work_counts unpacks aabb.T into those four rows
        "aabb": (m, 4), "reach": (2, m), "inv": (3, m)}
    assert prep.mu.flags.c_contiguous and len(prep) == m


@pytest.mark.parametrize("cov", [(1e153, 0.0, 1e153), (1e155, 0.0, 1e155), (1e200, 0.0, 1e200),
                                 (1e308, 0.0, 1e308), (1e300, 0.0, 1e-10)],
                         ids=["1e153", "1e155", "1e200", "1e308", "1e300x1e-10"])
def test_prepare_splats_culls_a_covariance_its_solve_overflows(cov):
    # Entries past about 1e154 overflow the eigen-solve (its squared norms
    # reach 2 lam1^2), which leaves a NaN box or a zero axis: such a splat is
    # counted as culled, with no numpy warning, and 1e153 is still drawn.
    cxx, cxy, cyy = cov
    splats = ProjectedCloud(mu2d=[PX], cxx=[cxx], cxy=[cxy], cyy=[cyy], depth=[1.0],
                            opacity=[0.5], color=[[1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prep = prepare_splats(splats)
        if cxx > 1e154:
            assert len(prep) == 0 and prep.n_culled_degenerate == 1
            return
        assert len(prep) == 1 and prep.n_culled_degenerate == 0
        for mode in MODES:
            assert blend_pixel(prep, PX, mode)[1] == pytest.approx(0.5, abs=1e-12), mode


def test_vectorized_matches_scalar_ops_gb():
    # The vectorized GB kernel must replay the scalar update_window chain.
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        splats = [random_splat(rng, sig_lo=-1.5, sig_hi=2.0) for _ in range(n)]
        prep = prepare_splats(stack_splats(splats))
        depths = np.sort([s.depth for s in splats])  # none is culled
        px = np.array(PX)
        rgb_vec, res_vec = blend_grid(prep, px[:1], px[1:], "gb", 1e-4)

        win = init_window(px)
        rgb = np.zeros(3)
        for j in range(len(prep)):
            sp = prep_to_splat(prep, j, depths[j])
            w, nxt = update_window(win, sp, eigen2x2(sp.cov2d))
            if w == 0.0 and nxt is win:
                continue
            rgb += prep.color[:, j] * w
            win = nxt
            if win.mass < 1e-4:
                break
        assert np.allclose(rgb, rgb_vec[0, 0], rtol=1e-10, atol=1e-12)
        assert res_vec[0, 0] == pytest.approx(win.mass, rel=1e-10, abs=1e-12)


def test_vectorized_center_matches_scalar_alpha_chain():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 10))
        splats = [random_splat(rng, sig_lo=-1, sig_hi=1.2) for _ in range(n)]
        prep = prepare_splats(stack_splats(splats))
        depths = np.sort([s.depth for s in splats])  # none is culled
        px = np.array(PX)
        rgb_vec, res_vec = blend_grid(prep, px[:1], px[1:], "center", 1e-4)

        t = 1.0
        rgb = np.zeros(3)
        for j in range(len(prep)):
            sp = prep_to_splat(prep, j, depths[j])
            alpha = scalar_alpha_center(px, sp)
            if alpha < 1.0 / 255.0:
                continue
            tn = t * (1 - alpha)
            if tn < 1e-4:
                break
            rgb += prep.color[:, j] * alpha * t
            t = tn
        assert np.allclose(rgb, rgb_vec[0, 0], rtol=1e-10, atol=1e-14)
        assert res_vec[0, 0] == pytest.approx(t, rel=1e-12)


def prep_to_splat(prep: PreparedSplats, j: int, depth: float) -> Splat2D:
    (s1, s2), (a1, a2) = prep.sigma[:, j], prep.axes[..., j]
    cov = (s1**2) * np.outer(a1, a1) + (s2**2) * np.outer(a2, a2)
    return Splat2D(mu2d=prep.mu[:, j], cov2d=cov, depth=float(depth),
                   opacity=float(prep.opacity[j]), color=prep.color[:, j])
