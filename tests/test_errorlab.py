"""Transmittance-error sweep and metric tests."""

import csv

import numpy as np
import pytest

from _oracles import residual_transmittance_gl
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


def test_true_residual_trivials():
    empty = iso_cloud(np.zeros((0, 2)), [], [], np.zeros((0, 3)), [])
    assert true_residual_transmittance(empty) == 1.0
    # A Python float, so that sweep CSVs hold plain reprs.
    assert type(true_residual_transmittance(two_splat_config(0.5, 1.0))) is float
    far = iso_cloud([[30.0, 0.0]], [1.0], [1.0], [RED], [1.0])
    assert true_residual_transmittance(far) == pytest.approx(1.0, abs=1e-12)


def test_true_residual_closed_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(25):
        rows = [(rng.uniform(-1.5, 1.5, 2), 10.0 ** rng.uniform(-0.8, 0.6), rng.uniform(0.2, 1.0))
                for _ in range(2)]
        mu, sigma, opacity = zip(*rows)
        splats = iso_cloud(mu, sigma, opacity, [RED] * 2, [0.0, 1.0])
        c = true_residual_transmittance(splats, "closed")
        q = true_residual_transmittance(splats, "quad")
        assert c == pytest.approx(q, abs=1e-9)


def test_true_residual_sweep_grid_self_check():
    for mu_x in np.arange(-3.0, 3.01, 0.5):
        splats = two_splat_config(float(mu_x), 1.0)
        c = true_residual_transmittance(splats, "closed")
        q = true_residual_transmittance(splats, "quad")
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


def test_true_residual_closed_form_rejections():
    three = iso_cloud(np.zeros((3, 2)), [1.0] * 3, [0.5] * 3, [RED] * 3, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="at most two"):
        true_residual_transmittance(three, "closed")
    aniso = ProjectedCloud(mu2d=np.zeros((1, 2)), cxx=[1.0], cxy=[0.0], cyy=[4.0], depth=[1.0],
                           opacity=[0.5], color=np.zeros((1, 3)))
    with pytest.raises(ValueError, match="isotropic"):
        true_residual_transmittance(aniso, "closed")
    # auto falls back to quadrature instead of raising
    got = true_residual_transmittance(aniso)
    assert got == true_residual_transmittance(aniso, "quad")
    assert 0.0 < got < 1.0
    with pytest.raises(ValueError, match="method"):
        true_residual_transmittance(three, "fast")


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
