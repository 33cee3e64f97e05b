"""splatlab: CPU reference renderer for Gaussian splats with window-tracked transmittance.

The package exports nothing at the top level: its modules (scene, blending,
raster, splatmath, errorlab, synth) are the API. Each operation has one
implementation in the package, the vectorized one the renderer runs. The
scalar one-splat-at-a-time versions that the tests compare it against live in
tests/_reference.py.
"""

__version__ = "0.1.0"
