"""Smoke tests of the benchmark's own code, on shrunk workloads.

Run with the repository's tests: PYTHONPATH=src python -m pytest -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import splatbench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@pytest.mark.parametrize("workload", splatbench.WORKLOADS)
def test_end_to_end_small(workload, tmp_path):
    result, report = splatbench.run(workload, seed=3, seconds=0, trace=False, small=True,
                                    workroot=str(tmp_path))
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [name for name, _ in splatbench.END_TO_END]
    for name, unit in splatbench.END_TO_END:
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workload", ["hires", "sweeps"])  # zoom runs the same code as hires
def test_traced_small_reproduces_render(workload, tmp_path):
    # correctness includes the staged project/prepare/bin/render_projected
    # images hashing equal to render()'s in every mode
    result, report = splatbench.run(workload, seed=4, seconds=0, trace=True, small=True,
                                    workroot=str(tmp_path))
    assert report["problems"] == []
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _ in splatbench.PER_LAYER]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    absent = set(report["absent"])
    if workload == "sweeps":
        assert m["errorlab.points"] > 0 and m["blending.blend_pixel_us.gb"] > 0
    else:
        assert len(report["hashes"]) == len(report["frames"]) * len(splatbench.RENDER_MODES)
        for name in ("raster.bin_splats_s", "raster.splat_tile_pairs"):
            assert (m[name] > 0) == ("bin_splats" not in absent)
        staged = not absent & {"project_cloud", "prepare_splats", "render_projected"}
        assert (m["blending.splat_px_pairs"] > 0) == (staged and "PreparedSplats.aabb" not in absent)
        assert all((m[f"raster.ns_per_splat_px.{mode}"] > 0) == staged
                   for mode in splatbench.RENDER_MODES)
    assert (m["scene.load_ply_mb_per_s"] > 0) == (workload != "sweeps")


def test_same_seed_same_outputs(tmp_path):
    runs = [splatbench.run("hires", seed=5, seconds=0, trace=False, small=True,
                           workroot=str(tmp_path)) for _ in range(2)]
    (r1, rep1), (r2, rep2) = runs
    assert rep1["hashes"] == rep2["hashes"]
    for name in ("psnr_db.gb", "dt_abs_mean.center"):
        assert r1["metrics"][name] == r2["metrics"][name]


def test_failure_is_counted_not_raised():
    ledger = splatbench.Ledger()
    with ledger.operation("boom"):
        raise RuntimeError("bad")
    with ledger.operation("fine"):
        pass
    ledger.verify("check", lambda: ["wrong"])
    assert (ledger.attempted, ledger.failed) == (2, 2)


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(splatbench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(splatbench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(splatbench.PER_LAYER)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "zoom", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
