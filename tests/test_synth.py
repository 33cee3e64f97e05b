"""Synthetic scene tests: determinism per seed, splat counts, placement."""

import numpy as np
import pytest

from splatlab import synth

FIELDS = ("mu", "scale", "rot", "opacity", "sh")


@pytest.mark.parametrize("make, count", [
    (synth.two_plane_zoom_scene, 7405),
    (synth.two_plane_scene, 584),
    (synth.random_cloud, 400),
])
def test_synth_scenes(make, count):
    clouds = []
    for seed in range(4):
        cloud, cam = make(seed)
        again, _ = make(seed)
        assert len(cloud) == count
        for name in FIELDS:
            assert np.array_equal(getattr(cloud, name), getattr(again, name)), (seed, name)
        z = (cloud.mu @ cam.rotation.T + cam.translation)[:, 2]
        assert np.all(z > cam.near)
        clouds.append(cloud)
    for a, b in zip(clouds, clouds[1:]):
        assert not np.array_equal(a.mu, b.mu)
        assert not np.array_equal(a.sh, b.sh)
