"""Synthetic scene tests: determinism per seed, splat counts, placement, and
the two-plane scenes' bytes."""

import hashlib

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


# Per field, the first 16 hex digits of a sha256 over seeds 0-3, each seed's
# shape, then its little-endian float64 bytes. The two-plane scenes draw PCG64
# uniforms and use basic IEEE arithmetic only, so their bytes do not depend on
# the platform. random_cloud is left out: its 10.0 ** and np.linalg.norm may
# round differently in other NumPy builds.
PINNED = {
    "two_plane_scene": {"mu": "03d88c6b5b9b60ce", "scale": "71c3fdacbe439ea9",
                        "rot": "ba2bcef261943edd", "opacity": "4bcd55c63cb120be",
                        "sh": "c24b3641b35abe84"},
    "two_plane_zoom_scene": {"mu": "d5b0229b943e051f", "scale": "4c769459bb2a05f5",
                             "rot": "b4c2c1ff097283a8", "opacity": "11d8c1a42a1ab658",
                             "sh": "ebbd3c3484dc6597"},
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_two_plane_scenes_are_pinned_byte_for_byte(name):
    clouds = [getattr(synth, name)(seed)[0] for seed in range(4)]
    for field in FIELDS:
        h = hashlib.sha256()
        for cloud in clouds:
            arr = getattr(cloud, field)
            h.update(repr(arr.shape).encode())
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert h.hexdigest()[:16] == PINNED[name][field], field
