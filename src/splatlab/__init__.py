"""splatlab: CPU reference renderer for Gaussian splats with window-tracked transmittance.

Each operation has one implementation in the package, the vectorized one the
renderer runs. The scalar one-splat-at-a-time versions that the tests compare
it against live in tests/_reference.py.
"""

from splatlab.splatmath import gaussian_moment_k

__all__ = [
    "gaussian_moment_k",
]

__version__ = "0.1.0"
