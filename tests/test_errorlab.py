"""Transmittance-error sweep and metric tests."""

import csv
import math
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from _oracles import residual_one_splat_gl, residual_transmittance_gl
from splatlab.blending import blend_pixel
from splatlab.errorlab import (
    PSNR_CAP,
    SweepConfig,
    iso_cloud,
    paper_mu_sweep,
    paper_sigma_sweep,
    psnr,
    run_sweep,
    transmittance_error,
    true_residual_transmittance,
    two_splat_config,
)
from splatlab.raster import Framebuffer
from splatlab.scene import ProjectedCloud

RED = (1.0, 0.0, 0.0)


# --- true residual transmittance ---------------------------------------------


@pytest.fixture
def quad_calls(monkeypatch):
    """A list that grows by one each time the truth runs its quadrature: by
    one per outermost scipy.integrate.quad call, not per nested one."""
    calls = []
    real = scipy.integrate.quad
    depth = [0]

    def counted(*args, **kwargs):
        if not depth[0]:
            calls.append(args)
        depth[0] += 1
        try:
            return real(*args, **kwargs)
        finally:
            depth[0] -= 1

    # the truth imports scipy.integrate when it runs the quadrature, and so
    # reads this attribute at call time
    monkeypatch.setattr(scipy.integrate, "quad", counted)
    return calls


def test_true_residual_trivials():
    empty = iso_cloud(np.zeros((0, 2)), [], [], np.zeros((0, 3)), [])
    assert true_residual_transmittance(empty) == 1.0
    # A Python float, so that sweep CSVs hold plain reprs.
    assert type(true_residual_transmittance(two_splat_config(0.5, 1.0))) is float
    far = iso_cloud([[30.0, 0.0]], [1.0], [1.0], [RED], [1.0])
    assert true_residual_transmittance(far) == pytest.approx(1.0, abs=1e-12)


def test_true_residual_closed_matches_quadrature(quad_calls):
    rng = np.random.default_rng(3)
    for _ in range(25):
        rows = [(rng.uniform(-1.5, 1.5, 2), 10.0 ** rng.uniform(-0.8, 0.6), rng.uniform(0.2, 1.0))
                for _ in range(2)]
        mu, sigma, opacity = zip(*rows)
        splats = iso_cloud(mu, sigma, opacity, [RED] * 2, [0.0, 1.0])
        c = true_residual_transmittance(splats)
        assert not quad_calls  # the closed form, not the quadrature
        q = true_residual_transmittance(splats, "quad")
        assert len(quad_calls) == 1
        quad_calls.clear()
        assert c == pytest.approx(q, abs=1e-9)
    # axis-aligned anisotropic pairs, sigma >= 0.05 px, where the quadrature is reliable
    for _ in range(10):
        sx, sy = 10.0 ** rng.uniform(np.log10(0.05), 0.6, (2, 2))
        splats = ProjectedCloud(mu2d=rng.uniform(-1.5, 1.5, (2, 2)), cxx=sx * sx, cxy=[0.0, 0.0],
                                cyy=sy * sy, depth=[0.0, 1.0], opacity=rng.uniform(0.2, 1.0, 2),
                                color=[RED] * 2)
        c = true_residual_transmittance(splats)
        assert not quad_calls
        assert c == pytest.approx(true_residual_transmittance(splats, "quad"), abs=1e-9)
        quad_calls.clear()


def test_true_residual_sweep_grid_self_check(quad_calls):
    for mu_x in np.arange(-3.0, 3.01, 0.5):
        splats = two_splat_config(float(mu_x), 1.0)
        c = true_residual_transmittance(splats)
        assert not quad_calls  # the closed form, not the quadrature
        q = true_residual_transmittance(splats, "quad")
        assert len(quad_calls) == 1
        quad_calls.clear()
        assert c == pytest.approx(q, abs=1e-9)


def test_true_residual_quad_path_many_splats():
    rng = np.random.default_rng(5)
    mus = rng.uniform(-0.8, 0.8, (3, 2))
    sigmas = 10.0 ** rng.uniform(-0.5, 0.3, 3)
    ops = rng.uniform(0.3, 1.0, 3)
    splats = iso_cloud(mus, sigmas, ops, [RED] * 3, [0.0, 1.0, 2.0])
    got = true_residual_transmittance(splats)
    want = residual_transmittance_gl(mus, sigmas, ops)
    assert got == pytest.approx(want, rel=1e-8)


def splat(mu, sx, sy, theta=0.0, opacity=0.9):
    """One splat of sigmas (sx, sy) turned by theta, red."""
    c, s = math.cos(theta), math.sin(theta)
    return ProjectedCloud(mu2d=[mu], cxx=[c * c * sx * sx + s * s * sy * sy],
                          cxy=[c * s * (sx * sx - sy * sy)],
                          cyy=[s * s * sx * sx + c * c * sy * sy], depth=[1.0], opacity=[opacity],
                          color=[RED])


def test_truth_quadrature_finds_thin_splats():
    # The truth's quadrature was scipy's dblquad, whose adaptive rule never
    # sampled a thin splat: sigma (1, 1e-3) px at (0, 0.3) read 1.0 against the
    # exact 0.997835, and sigma_y = 0.003 px at 19 heights was off by up to
    # 6.5e-3. Breaks at each splat's center and conditional mean find them.
    needle = splat((0.0, 0.3), 1.0, 1e-3)
    assert true_residual_transmittance(needle) == pytest.approx(0.997834610577604, abs=1e-15)
    assert abs(true_residual_transmittance(needle, "quad") - 0.997834610577604) <= 1e-14
    for y in np.linspace(-0.45, 0.45, 19):
        thin = splat((0.0, float(y)), 1.0, 0.003)
        assert abs(true_residual_transmittance(thin, "quad")
                   - true_residual_transmittance(thin)) <= 1e-14, y
    # Rotated, where only the quadrature applies: 30 degrees, and 1 rad with
    # sigma 1e-4 px, which breaks at the centers alone missed by 1.8e-4.
    for sy, theta in ((1e-3, math.pi / 6), (1e-4, 1.0)):
        tilted = splat((0.1, 0.3), 1.0, sy, theta)
        want = residual_one_splat_gl(tilted.mu2d[0], tilted.cxx[0], tilted.cxy[0], tilted.cyy[0],
                                     0.9)
        assert abs(true_residual_transmittance(tilted) - want) <= 1e-12, (sy, theta)


def test_true_residual_closed_form_rejections():
    three = iso_cloud(np.zeros((3, 2)), [1.0] * 3, [0.5] * 3, [RED] * 3, [0.0, 1.0, 2.0])
    # sigma 2 and 1 along the diagonals: not axis-aligned
    rotated = ProjectedCloud(mu2d=np.zeros((1, 2)), cxx=[2.5], cxy=[1.5], cyy=[2.5], depth=[1.0],
                             opacity=[0.5], color=np.zeros((1, 3)))
    # auto falls back to quadrature instead of raising
    got = true_residual_transmittance(rotated)
    assert got == true_residual_transmittance(rotated, "quad")
    assert 0.0 < got < 1.0
    for method in ("fast", "closed"):
        with pytest.raises(ValueError, match="method"):
            true_residual_transmittance(three, method)


@pytest.mark.parametrize("method", ["auto", "quad"])
@pytest.mark.parametrize("cov", [(1.0, 2.0, 1.0), (-1.0, 0.0, -1.0), (0.0, 0.0, 0.0),
                                 (1.0, 1.0, 1.0)],
                         ids=["indefinite", "negative", "zero", "singular"])
def test_truth_rejects_covariance_not_positive_definite(cov, method):
    # Unchecked, the indefinite and negative covariances read 0.484 and 0.453
    # with no error; the zero and singular ones failed inside the closed form
    # or np.linalg.inv, naming no splat. The renderer culls all four.
    cxx, cxy, cyy = cov
    splats = ProjectedCloud(mu2d=[[0.1, 0.0]] * 2, cxx=[1.0, cxx], cxy=[0.0, cxy], cyy=[1.0, cyy],
                            depth=[1.0, 2.0], opacity=[0.5, 0.5], color=np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"^covariance of splat 1 is not positive definite$"):
        true_residual_transmittance(splats, method)


_IMPORT_GUARD = textwrap.dedent("""
    import sys

    from splatlab import errorlab, raster, synth
    from splatlab.blending import blend_pixel

    pair = errorlab.two_splat_config(0.5, 1.0)
    closed = errorlab.true_residual_transmittance(pair)
    blend_pixel(pair, (0.0, 0.0), "gb")
    assert "scipy.integrate" not in sys.modules, "loaded by import, render or closed form"
    # every render calls scipy.special; it stays a module-level import, so that
    # no first render pays for loading it
    assert "scipy.special" in sys.modules, "scipy.special is no longer imported up front"

    far = errorlab.iso_cloud([[0.5, -0.1], [0.5, 0.1], [60.0, 0.0]], [1.0] * 3, [1.0] * 3,
                             [[1.0, 0.0, 0.0]] * 3, [1.0, 2.0, 3.0])
    quad = errorlab.true_residual_transmittance(far, "quad")
    assert "scipy.integrate" in sys.modules
    assert abs(quad - closed) <= 1e-9, (quad, closed)
""")


def test_scipy_integrate_loads_only_with_the_quadrature():
    # One interpreter start, since this process has scipy.integrate loaded
    # already (the oracles import it).
    src = Path(__file__).resolve().parents[1] / "src"
    run = subprocess.run([sys.executable, "-W", "error", "-c", _IMPORT_GUARD],
                         env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr


# --- transmittance_error ------------------------------------------------------


@pytest.mark.parametrize("mode", ["center", "integrated", "gb", "ss"])
def test_error_far_config_near_zero(mode):
    splats = two_splat_config(3.0, 0.3)
    t_true = true_residual_transmittance(splats)
    assert abs(transmittance_error(mode, splats, ss_k=64, true_value=t_true)) < 1e-3


def test_error_scalar_negative_on_overlap():
    # Negative delta T is the dilation signature of scalar blending.
    for mu_x in (0.0, 0.25, 0.5):
        splats = two_splat_config(mu_x, 1.0)
        t_true = true_residual_transmittance(splats)
        assert transmittance_error("center", splats, true_value=t_true) < 0.0
        assert transmittance_error("integrated", splats, true_value=t_true) < 0.0


def test_error_gb_flat_limit_exact():
    # A huge uniform splat is represented exactly by the uniform window model.
    splats = iso_cloud(np.zeros((2, 2)), [1e5, 1e5], [0.5, 0.5], [RED] * 2, [1.0, 2.0])
    t_true = true_residual_transmittance(splats)
    assert abs(transmittance_error("gb", splats, true_value=t_true)) <= 1e-6


def test_error_ss_tracks_truth():
    # The supersample oracle carries the scalar clamps (alpha <= 0.99, skip
    # below 1/255), which bound its accuracy near 1e-3 when o = 1.
    configs = [two_splat_config(float(mu_x), 1.0) for mu_x in np.arange(-3.0, 3.01, 0.5)]
    configs += [two_splat_config(0.5, float(sigma))
                for sigma in 10.0 ** np.arange(np.log10(0.05), np.log10(5.0) + 0.025, 0.25)]
    worst = max(abs(transmittance_error("ss", splats, ss_k=256,
                                        true_value=true_residual_transmittance(splats)))
                for splats in configs)
    assert worst < 2e-3


def test_error_ss_converges_in_k():
    splats = two_splat_config(0.3, 0.8)
    t_true = true_residual_transmittance(splats)
    errs = [abs(transmittance_error("ss", splats, ss_k=k, true_value=t_true))
            for k in (4, 16, 64, 256)]
    assert errs[-1] < errs[0]
    assert errs[-1] < 1.5e-3


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_error_rejects_a_non_finite_true_value(bad):
    # Unchecked, NaN gave a NaN delta T and +inf gave -inf, both silently.
    with pytest.raises(ValueError, match=rf"^true_value must be finite, not {bad!r}$"):
        transmittance_error("gb", two_splat_config(0.5, 1.0), true_value=bad)


# --- SweepConfig ---------------------------------------------------------------


def test_sweep_config_grids():
    assert len(paper_mu_sweep().values()) == 121
    vals = paper_sigma_sweep().values()
    assert len(vals) == 41
    assert vals[0] == pytest.approx(0.05) and vals[-1] == pytest.approx(5.0)
    assert np.all(np.diff(np.log10(vals)) > 0)


def test_sweep_config_validation():
    with pytest.raises(ValueError, match="sweep variable"):
        SweepConfig(sweep_var="mu_y", start=0, stop=1, step=0.1)
    with pytest.raises(ValueError, match="step"):
        SweepConfig(sweep_var="mu_x", start=0, stop=1, step=0.0)
    with pytest.raises(ValueError, match="range"):
        SweepConfig(sweep_var="mu_x", start=1, stop=0, step=0.1)
    with pytest.raises(ValueError, match="spacing"):
        SweepConfig(sweep_var="sigma", start=0.1, stop=1, step=0.1, spacing="geometric")
    with pytest.raises(ValueError, match="mode"):
        SweepConfig(sweep_var="mu_x", start=0, stop=1, step=0.1, modes=())
    # unchecked, this constructed and .values() then failed in log10
    with pytest.raises(ValueError, match="start > 0"):
        paper_sigma_sweep(start=0.0)


@pytest.mark.parametrize("modes, match", [
    (("bogus",), r"^modes \('bogus',\): unknown blend mode 'bogus'; use one of "),
    (("gb", "bilinear"), r"^modes \('gb', 'bilinear'\): unknown blend mode 'bilinear'"),
    ("gb", r"^modes must be a non-empty tuple of mode names, not 'gb'$"),
    ((), r"^modes must be a non-empty tuple of mode names, not \(\)$"),
], ids=["unknown", "one-unknown", "string", "empty"])
def test_sweep_config_rejects_bad_modes(modes, match):
    # Unchecked, the config was built, and run_sweep took its first truth and
    # prepared its splats before it failed with "unknown blend mode 'g'".
    with pytest.raises(ValueError, match=match):
        paper_mu_sweep(modes=modes)


@pytest.mark.parametrize("overrides, match", [
    (dict(start=-np.inf), r"^start must be finite, not -inf$"),
    (dict(stop=np.inf), r"^stop must be finite, not inf$"),
    (dict(step=np.nan), r"^step must be finite, not nan$"),
    (dict(sigma=-1.0), r"^sigma must be > 0, not -1.0$"),
    (dict(sigma=0.0), r"^sigma must be > 0, not 0.0$"),
    (dict(sweep_var="sigma", start=0.0, stop=1.0, step=0.1), r"^a sigma sweep needs start > 0"),
    (dict(sweep_var="sigma", start=0.05, stop=5.0, step=1.0, mu_x=np.nan),
     r"^mu_x must be finite, not nan$"),
    (dict(offset_y=np.inf), r"^offset_y must be finite, not inf$"),
    (dict(opacity=-0.5), r"^opacity must be in \[0, 1\], not -0.5$"),
    (dict(opacity=np.nan), r"^opacity must be in \[0, 1\], not nan$"),
], ids=["start", "stop", "step", "sigma-negative", "sigma-zero", "sigma-sweep-start",
        "mu_x-sigma-sweep", "offset_y", "opacity-negative", "opacity-nan"])
def test_sweep_config_rejects_what_the_truth_cannot_take(overrides, match):
    # Unchecked, sigma -1 ran as sigma +1 (iso_cloud squares it), sigma 0
    # failed inside the truth, and stop=inf failed in values() with
    # "Maximum allowed size exceeded". mu_x, offset_y and opacity failed only
    # in run_sweep, with a ProjectedCloud message that names no config field.
    with pytest.raises(ValueError, match=match):
        paper_mu_sweep(**overrides)
    # a fixed sigma is not read by a sigma sweep, nor a fixed mu_x by a mu_x one
    assert paper_sigma_sweep(sigma=-1.0).sigma == -1.0
    assert np.isnan(paper_mu_sweep(mu_x=np.nan).mu_x)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan])
def test_iso_cloud_rejects_sigma_not_positive(bad):
    with pytest.raises(ValueError, match=rf"^sigma\[1\] is {bad}, must be > 0$"):
        iso_cloud(np.zeros((3, 2)), [1.0, bad, bad], [0.5] * 3, [RED] * 3, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("bad", [1e-170, 1e-100, 1e100, 1e200])
def test_sigma_needs_a_finite_positive_determinant(bad):
    # Unchecked, sigma 1e-170 squared to 0 and the truth said "covariance of
    # splat 0 is not positive definite"; 1e200 overflowed with a numpy
    # RuntimeWarning. 1e-100 and 1e100 square to finite values, but their
    # sigma^4, the determinant that the truth and prepare_splats take, under-
    # or overflows and failed the same two ways.
    shown = re.escape(repr(bad))
    with pytest.raises(ValueError,
                       match=rf"^sigma\[1\] is {shown}, its sigma\^4 is not a finite value > 0$"):
        iso_cloud(np.zeros((2, 2)), [1.0, bad], [0.5] * 2, [RED] * 2, [0.0, 1.0])
    match = rf"^sigma {shown}: its sigma\^4 is not a finite value > 0$"
    with pytest.raises(ValueError, match=match):
        paper_mu_sweep(sigma=bad, step=1.0)
    # a sigma sweep checks every value it will run, not only start
    lo, hi = sorted([bad, 1.0])
    with pytest.raises(ValueError, match=match):
        SweepConfig(sweep_var="sigma", start=lo, stop=hi, step=hi - lo)
    with pytest.raises(ValueError, match=r"^sigma 1e\+78: its sigma\^4 is not a finite value > 0$"):
        paper_sigma_sweep(start=1e70, stop=1e80, step=1.0)
    # this grid's last value, 10^308.4, overflows to inf; no warning escapes
    with pytest.raises(ValueError, match=r"^sigma 1e\+300: "):
        paper_sigma_sweep(start=1e300, stop=1.7e308, step=0.4)


def test_sigma_near_the_determinant_limits_runs_clean():
    # The extremes that pass run through every mode and the truth with no
    # numpy warning (the suite turns warnings into errors). Only that: at
    # 1.1e77 the closed form's value is off, since gaussian_i0's erfc
    # difference cancels when sigma far exceeds the interval.
    run_sweep(paper_mu_sweep(sigma=1.3e-81, step=3.0, modes=("center", "integrated", "gb", "ss"),
                             ss_k=4))
    run_sweep(paper_mu_sweep(sigma=1.1e77, step=3.0, modes=("center", "integrated", "gb", "ss"),
                             ss_k=4))


@pytest.mark.parametrize("ss_k", [0, 2.5, True])
def test_sweep_config_rejects_bad_ss_k(ss_k):
    # Unchecked, SweepConfig(ss_k=0) constructed and failed only in run_sweep.
    with pytest.raises(ValueError, match="ss_k"):
        paper_mu_sweep(ss_k=ss_k)


def test_sweep_rejects_opacity_outside_unit_interval():
    # Unchecked, the sweep ran to the end on splats that cover more than all.
    with pytest.raises(ValueError, match=r"^opacity must be in \[0, 1\], not 1.5$"):
        run_sweep(paper_mu_sweep(opacity=1.5, step=1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-3])
def test_epsilon_must_be_finite_and_not_negative(bad):
    # Unchecked, tn < nan was always false, so no point ever ended: a NaN
    # sweep ran as epsilon 0 and returned a full summary, and blend_pixel
    # gave residual 1.0.
    match = rf"^epsilon must be finite and >= 0, not {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=match):
        blend_pixel(two_splat_config(0.5, 1.0), (0.0, 0.0), "gb", epsilon=bad)
    with pytest.raises(ValueError, match=match):
        paper_sigma_sweep(step=1.0, epsilon=bad)


def test_sweep_degenerate_single_point():
    cfg = SweepConfig(sweep_var="mu_x", start=0.5, stop=0.5, step=0.1,
                      modes=("center", "gb"))
    rows, summary = run_sweep(cfg)
    assert len(rows) == 2
    assert {r.mode for r in rows} == {"center", "gb"}
    assert set(summary) == {"center", "gb"}


def test_sweep_csv_roundtrip(tmp_path):
    path = tmp_path / "sweep.csv"
    cfg = SweepConfig(sweep_var="mu_x", start=-1.0, stop=1.0, step=0.5,
                      modes=("gb",))
    rows, _ = run_sweep(cfg, csv_path=path)
    with open(path, newline="", encoding="utf-8") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["sweep_var", "value", "mode", "delta_t"]
    assert len(got) == 1 + len(rows)
    for line, row in zip(got[1:], rows):
        assert line[0] == "mu_x" and line[2] == "gb"
        assert float(line[1]) == row.value
        assert float(line[3]) == row.delta_t


def test_paper_sweeps_mode_ordering():
    # The headline result: GB's mean |delta T| beats both scalar modes by 3x
    # or more on both paper sweeps, and the supersample oracle beats GB.
    for factory in (paper_mu_sweep, paper_sigma_sweep):
        cfg = factory(modes=("center", "integrated", "gb", "ss"))
        _, summary = run_sweep(cfg)
        assert summary["gb"] * 3.0 <= summary["center"]
        assert summary["gb"] * 3.0 <= summary["integrated"]
        assert summary["ss"] < summary["gb"]


def test_sweep_continuity_no_seams():
    # Window-machinery modes must not show fallback seams: no neighbor jump
    # above 10x the median jump. The ss oracle's median delta is ~0 in the
    # tails (the ratio degenerates), so it gets an absolute bound instead.
    for factory in (paper_mu_sweep, paper_sigma_sweep):
        cfg = factory(modes=("center", "integrated", "gb"))
        rows, _ = run_sweep(cfg)
        for mode in cfg.modes:
            dts = np.array([r.delta_t for r in rows if r.mode == mode])
            dd = np.abs(np.diff(dts))
            assert dd.max() <= 10.0 * np.median(dd), (factory.__name__, mode)
    cfg = paper_mu_sweep(modes=("ss",), ss_k=64)
    rows, _ = run_sweep(cfg)
    dd = np.abs(np.diff([r.delta_t for r in rows]))
    assert dd.max() < 1e-3


# --- psnr -----------------------------------------------------------------------


def test_psnr_identical_capped():
    img = np.random.default_rng(0).uniform(0, 1, (8, 8, 3))
    assert psnr(img, img) == PSNR_CAP


def test_psnr_extremes():
    a = np.zeros((4, 4, 3))
    b = np.ones((4, 4, 3))
    assert psnr(a, b) == pytest.approx(0.0, abs=1e-12)


def test_psnr_known_noise_variance():
    v = 1e-4
    a = np.full((16, 16, 3), 0.5)
    noise = np.empty(16 * 16 * 3)
    noise[::2], noise[1::2] = np.sqrt(v), -np.sqrt(v)
    b = a + noise.reshape(16, 16, 3)
    assert psnr(a, b) == pytest.approx(-10.0 * np.log10(v), abs=0.1)


def test_psnr_accepts_framebuffers():
    rgb = np.full((4, 4, 3), 0.25)
    fa = Framebuffer(rgb=rgb, residual=np.ones((4, 4)))
    fb = Framebuffer(rgb=rgb + 0.1, residual=np.ones((4, 4)))
    assert psnr(fa, fb) == pytest.approx(-10.0 * np.log10(0.01), abs=1e-6)


def test_psnr_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        psnr(np.zeros((4, 4, 3)), np.zeros((4, 5, 3)))


@pytest.mark.parametrize("shape", [(0,), (0, 4, 3)])
def test_psnr_rejects_empty_inputs(shape):
    # Unchecked, the mean of no values read nan with two RuntimeWarnings.
    with pytest.raises(ValueError, match=rf"^a and b are empty \(shape {re.escape(str(shape))}\)"):
        psnr(np.zeros(shape), np.zeros(shape))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name", ["a", "b"])
def test_psnr_rejects_non_finite(name, bad):
    # A NaN used to read nan dB, an infinity to fail in math.log10(0) with
    # "math domain error"; either is named as the argument that holds it.
    img = np.zeros((2, 2, 3))
    args = {"a": img, "b": img.copy()}
    args[name][1, 0, 2] = bad
    with pytest.raises(ValueError, match=rf"^{name} is not finite \(nan or inf\)$"):
        psnr(**args)


def test_psnr_overflowing_mse_is_minus_inf():
    # Finite inputs whose squared difference overflows: -inf dB, silently
    # (the suite turns a NumPy overflow warning into an error).
    assert psnr([1e200], [0.0]) == -math.inf
    assert psnr([1.7e308], [-1.7e308]) == -math.inf
