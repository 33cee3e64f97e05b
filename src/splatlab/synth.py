"""Deterministic synthetic scenes for demos and image-level tests."""

import numpy as np

from .scene import SH_C0, Camera, SplatCloud

# Layer layout for the two-plane scene, in base-camera pixel units.
FRONT_EDGE_PX = 27.0  # screen x where the front plane starts
CLUSTER_SIZE = 3  # splats per _clusters group
CLUSTER_OFFSET = 0.12  # largest offset of a member from its group center, per axis


def sh_dc(rgb) -> np.ndarray:
    """DC-only SH rows (n, 1, 3) producing the given linear colors (n, 3)."""
    return ((np.asarray(rgb, dtype=float) - 0.5) / SH_C0)[:, None, :]


def default_camera(width: int = 64, height: int = 48, fx: float = 48.0) -> Camera:
    return Camera(fx=fx, fy=fx, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


def _grid(x_range, y_range, spacing):
    """Cell centers of a screen-space grid, rows (y) outer and columns (x) inner."""
    ys = np.arange(y_range[0] + spacing / 2.0, y_range[1], spacing)
    xs = np.arange(x_range[0] + spacing / 2.0, x_range[1], spacing)
    py, px = np.meshgrid(ys, xs, indexing="ij")
    return px.ravel(), py.ravel()


def _stripes(coord, period, a, b) -> np.ndarray:
    """Color a where floor(coord / period) is even, b where odd; (n, 3)."""
    even = np.floor(coord / period) % 2 == 0
    return np.where(even[:, None], a, b)


def _plane(cam, rng, *, z, x_range, y_range, spacing, sigma, opacity, color, jitter=0.2):
    """Grid of thin splats on the plane at depth z, laid out in screen pixels.

    x_range/y_range/spacing/sigma are base-camera pixel units. color is one
    linear rgb triple for every splat, or a function of the jittered screen
    positions (px, py) giving base colors that each get a uniform tint of
    +-0.03. Each splat draws its x and y jitter, then its tint. Returns the
    rows (mu, scale, opacity, rgb).
    """
    upx = z / cam.fx  # world units per pixel at this depth
    px, py = _grid(x_range, y_range, spacing)
    sw = sigma * upx
    # One row of draws per splat, bounds per column; row-major order keeps
    # the stream a splat-by-splat loop of rng.uniform calls would draw.
    lo = np.array([-jitter] * 2 + [-0.03] * (3 if callable(color) else 0))
    u = rng.uniform(lo, -lo, (px.size, lo.size))
    px = px + u[:, 0] * spacing
    py = py + u[:, 1] * spacing
    if callable(color):
        rgb = np.clip(color(px, py) + u[:, 2:], 0.0, 1.0)
    else:
        rgb = np.tile(color, (px.size, 1))
    n = px.size
    mu = np.stack([(px - cam.cx) * upx, (py - cam.cy) * upx, np.full(n, z)], axis=1)
    return mu, np.tile([sw, sw, max(sw * 0.05, 1e-5)], (n, 1)), np.full(n, opacity), rgb


def _clusters(cam, rng, *, z, x_range, y_range, spacing, sigma, opacity, color):
    """Sparse groups of overlapping sub-pixel splats.

    Each group sits well inside one pixel at coarse scales and becomes a few
    overlapping near-pixel splats when zoomed in, which is where scalar
    compositing misses the intra-pixel covariance. Each group draws its center
    jitter, its tint of color, then each member's offset. Returns the rows
    (mu, scale, opacity, rgb), group-major.
    """
    upx = z / cam.fx
    sw = sigma * upx
    px, py = _grid(x_range, y_range, spacing)
    lo = np.array([-0.3, -0.3] + [-0.05] * 3 + [-CLUSTER_OFFSET] * (2 * CLUSTER_SIZE))
    u = rng.uniform(lo, -lo, (px.size, lo.size))
    cx = px + u[:, 0] * spacing
    cy = py + u[:, 1] * spacing
    tint = np.clip(np.asarray(color) + u[:, 2:5], 0.0, 1.0)
    off = u[:, 5:].reshape(px.size, CLUSTER_SIZE, 2)
    mu = np.stack([
        (cx[:, None] + off[..., 0] - cam.cx) * upx,
        (cy[:, None] + off[..., 1] - cam.cy) * upx,
        np.broadcast_to(z + np.arange(CLUSTER_SIZE) * 1e-3, off.shape[:2]),
    ], axis=2).reshape(-1, 3)
    n = mu.shape[0]
    return (mu, np.tile([sw, sw, max(sw * 0.05, 1e-6)], (n, 1)), np.full(n, opacity),
            np.repeat(tint, CLUSTER_SIZE, axis=0))


def _cloud(*parts) -> SplatCloud:
    """One SplatCloud from (mu, scale, opacity, rgb) row blocks, in order."""
    mu, scale, opacity, rgb = (np.concatenate(cols) for cols in zip(*parts))
    rot = np.tile([1.0, 0.0, 0.0, 0.0], (mu.shape[0], 1))
    return SplatCloud(mu=mu, scale=scale, rot=rot, opacity=opacity, sh=sh_dc(rgb))


def _two_planes(cam, seed, *, edge, period, backdrop, back, front, clusters):
    """The occlusion fixture's six layers on cam, drawn from PCG64(seed) in order.

    Per plane, a one-color backdrop (spacing = sigma = backdrop) saturates
    opacity so far splat tails never carry visible mass, and a texture layer
    (the _plane keywords back, front) carries stripes that alias when zoomed
    out: along y on the back wall, along x on the front plane right of screen
    x edge, periods (back, front). Then cluster groups on the front plane and
    on the back wall left of edge, spaced (front, back)."""
    rng = np.random.default_rng(seed)
    full, right, rows = (-8, cam.width + 8), (edge, cam.width + 8), (-8, cam.height + 8)

    def back_color(px, py):
        return _stripes(py, period[0], (0.10, 0.52, 0.48), (0.22, 0.76, 0.26))

    def front_color(px, py):
        return _stripes(px, period[1], (0.82, 0.16, 0.12), (0.96, 0.66, 0.14))

    return _cloud(
        _plane(cam, rng, z=4.0, x_range=full, y_range=rows, spacing=backdrop, sigma=backdrop,
               opacity=1.0, color=(0.14, 0.58, 0.40), jitter=0.0),
        _plane(cam, rng, z=3.95, x_range=full, y_range=rows, color=back_color, **back),
        _plane(cam, rng, z=2.05, x_range=right, y_range=rows, spacing=backdrop, sigma=backdrop,
               opacity=1.0, color=(0.85, 0.38, 0.12), jitter=0.0),
        _plane(cam, rng, z=2.0, x_range=right, y_range=rows, color=front_color, **front),
        _clusters(cam, rng, z=1.9, x_range=right, y_range=rows, spacing=clusters[0], sigma=0.07,
                  opacity=0.92, color=(0.95, 0.90, 0.75)),
        _clusters(cam, rng, z=3.9, x_range=(-8, edge), y_range=rows, spacing=clusters[1],
                  sigma=0.07, opacity=0.92, color=(0.90, 0.86, 0.70)),
    ), cam


def two_plane_scene(seed: int = 0):
    """Occlusion fixture: opaque striped front plane over a contrasting back wall.

    The front plane covers the right part of the frame. Its stripes alias when
    zoomed out; the sub-pixel cluster layer riding on it carries intra-pixel
    overlap structure that shows up when zoomed in. Those two regimes are what
    the multi-scale comparisons exercise.
    """
    return _two_planes(default_camera(), seed, edge=FRONT_EDGE_PX, period=(8.0, 6.0),
                       backdrop=12.0, back=dict(spacing=5.6, sigma=4.0, opacity=0.95),
                       front=dict(spacing=4.9, sigma=3.5, opacity=0.95), clusters=(7.0, 8.0))


def two_plane_zoom_scene(seed: int = 0):
    """Zoom-in variant of the occlusion fixture.

    All texture detail is sub-pixel at the base scale, the way trained splats
    are sub-pixel relative to their training resolution. Rendering this scene
    above x1 is where intra-pixel overlap structure dominates the error.
    """
    return _two_planes(default_camera(width=24, height=18, fx=18.0), seed, edge=10.0,
                       period=(2.0, 2.0), backdrop=10.0,
                       back=dict(spacing=0.55, sigma=0.25, opacity=0.9),
                       front=dict(spacing=0.55, sigma=0.25, opacity=0.9), clusters=(3.0, 3.5))


def random_cloud(seed: int = 0, n: int = 400):
    """Unstructured anisotropic splats filling the view frustum."""
    cam = default_camera()
    rng = np.random.default_rng(seed)
    z = rng.uniform(2.5, 6.0, n)
    half_x = 0.9 * z * (cam.width / 2.0) / cam.fx
    half_y = 0.9 * z * (cam.height / 2.0) / cam.fy
    mu = np.stack([rng.uniform(-1, 1, n) * half_x, rng.uniform(-1, 1, n) * half_y, z], axis=1)
    sigma = 10.0 ** rng.uniform(np.log10(0.02), np.log10(0.12), n)
    scale = sigma[:, None] * 10.0 ** rng.uniform(-0.3, 0.3, (n, 3))
    rot = rng.normal(size=(n, 4))
    rot /= np.linalg.norm(rot, axis=1, keepdims=True)
    opacity = rng.uniform(0.25, 0.95, n)
    return SplatCloud(mu=mu, scale=scale, rot=rot, opacity=opacity,
                      sh=sh_dc(rng.uniform(0.1, 0.9, (n, 3)))), cam

