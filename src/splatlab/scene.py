"""Scene representation: 3D splats, cameras, projection to screen, SH color, PLY I/O.

Conventions used throughout:
  - pixel (i, j) covers [i, i+1] x [j, j+1]; its center is (i + 0.5, j + 0.5)
  - quaternions are stored (w, x, y, z) and normalized on ingest
  - in-memory splats are always post-activation (opacity in [0,1], scale > 0)
  - camera-space z points into the scene; splats with z <= near are culled
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.special

VALID_SH_BANDS = (1, 4, 9, 16)

# Real spherical harmonic constants, degree 0..3, in the ordering trained
# splat files use (band-major, with the usual sign conventions).
SH_C0 = 0.28209479177387814
SH_C1 = 0.4886025119029199
SH_C2 = (
    1.0925484305920792,
    -1.0925484305920792,
    0.31539156525252005,
    -1.0925484305920792,
    0.5462742152960396,
)
SH_C3 = (
    -0.5900435899266435,
    2.890611442640554,
    -0.4570457994644658,
    0.3731763325901154,
    -0.4570457994644658,
    1.445305721320277,
    -0.5900435899266435,
)


class PlyParseError(ValueError):
    """Malformed splat PLY; the message names the file and what is malformed."""


@dataclass(frozen=True)
class Camera:
    """Pinhole camera with a rigid world-to-camera transform."""

    world_to_cam: np.ndarray  # (3, 4), rows [R | t]
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float = 0.01

    def __post_init__(self):
        w2c = np.asarray(self.world_to_cam, dtype=float)
        if w2c.shape != (3, 4):
            raise ValueError(f"world_to_cam must be 3x4, got {w2c.shape}")
        r = w2c[:, :3]
        if not np.allclose(r @ r.T, np.eye(3), atol=1e-6):
            raise ValueError("rotation block of world_to_cam is not orthonormal")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be > 0")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")
        if not self.near > 0:
            raise ValueError("near must be > 0")
        object.__setattr__(self, "world_to_cam", w2c)

    @property
    def rotation(self) -> np.ndarray:
        return self.world_to_cam[:, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.world_to_cam[:, 3]

    @property
    def center(self) -> np.ndarray:
        """Camera origin in world coordinates."""
        return -self.rotation.T @ self.translation

    def scaled(self, k: float) -> "Camera":
        """Zoom protocol: multiply intrinsics and resolution by k, pose unchanged."""
        if k <= 0:
            raise ValueError("scale factor must be > 0")
        return Camera(
            world_to_cam=self.world_to_cam,
            fx=self.fx * k,
            fy=self.fy * k,
            cx=self.cx * k,
            cy=self.cy * k,
            width=max(1, int(round(self.width * k))),
            height=max(1, int(round(self.height * k))),
            near=self.near,
        )


# ---------------------------------------------------------------------------
# Structure-of-arrays scene containers


def _check_shape(name: str, arr: np.ndarray, shape: tuple) -> None:
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")


def _check_finite(name: str, arr: np.ndarray) -> None:
    """ValueError naming the field and the first row holding NaN or +-inf."""
    bad = ~np.isfinite(arr)
    if bad.any():
        raise ValueError(f"{name}[{np.argwhere(bad)[0][0]}] is not finite (nan or inf)")


@dataclass
class SplatCloud:
    """A scene's splats, one contiguous array per attribute, row i for splat i.

    Ingest validates every field's shape and every row: values finite,
    scale > 0, opacity in [0, 1], SH bands in VALID_SH_BANDS; quaternions are
    nonzero, and normalized.
    """

    mu: np.ndarray  # (n, 3)
    scale: np.ndarray  # (n, 3)
    rot: np.ndarray  # (n, 4) unit
    opacity: np.ndarray  # (n,)
    sh: np.ndarray  # (n, bands, 3)

    def __post_init__(self):
        self.mu = np.ascontiguousarray(self.mu, dtype=float)
        self.scale = np.ascontiguousarray(self.scale, dtype=float)
        self.rot = np.ascontiguousarray(self.rot, dtype=float)
        self.opacity = np.ascontiguousarray(self.opacity, dtype=float)
        self.sh = np.ascontiguousarray(self.sh, dtype=float)
        n = self.mu.shape[0] if self.mu.ndim else 0
        for name, shape in (("mu", (n, 3)), ("scale", (n, 3)), ("rot", (n, 4)), ("opacity", (n,))):
            _check_shape(name, getattr(self, name), shape)
        if self.sh.ndim != 3 or self.sh.shape[0] != n or self.sh.shape[2] != 3:
            raise ValueError("sh must be (n, bands, 3)")
        # NaN passes every comparison below, so reject non-finite values first.
        for name in ("mu", "scale", "rot", "opacity", "sh"):
            _check_finite(name, getattr(self, name))
        norm = np.linalg.norm(self.rot, axis=1, keepdims=True)
        if not norm.all():
            raise ValueError(f"rot[{np.flatnonzero(norm == 0.0)[0]}] is a zero quaternion")
        self.rot = self.rot / norm
        if self.sh.shape[1] not in VALID_SH_BANDS:
            raise ValueError(f"unsupported SH band count {self.sh.shape[1]}")
        if np.any(self.scale <= 0.0):
            raise ValueError("scale components must be > 0")
        if np.any(self.opacity < 0.0) or np.any(self.opacity > 1.0):
            raise ValueError("opacity must be in [0, 1]")

    def __len__(self) -> int:
        return self.mu.shape[0]


def eval_sh_batch(sh, dirs) -> np.ndarray:
    """Real SH color (degree <= 3) per splat toward a unit direction.

    sh (n, bands, 3), dirs (n, 3) unit -> linear rgb (n, 3), with the
    trained-file DC convention (+0.5) applied and clamped at 0.
    """
    sh = np.asarray(sh, dtype=float)
    dirs = np.asarray(dirs, dtype=float)
    bands = sh.shape[1]
    if bands not in VALID_SH_BANDS:
        raise ValueError(f"unsupported SH band count {bands}")
    x, y, z = dirs[:, 0:1], dirs[:, 1:2], dirs[:, 2:3]

    rgb = SH_C0 * sh[:, 0]
    if bands > 1:
        rgb = rgb - SH_C1 * y * sh[:, 1] + SH_C1 * z * sh[:, 2] - SH_C1 * x * sh[:, 3]
    if bands > 4:
        xx, yy, zz = x * x, y * y, z * z
        rgb = (
            rgb
            + SH_C2[0] * (x * y) * sh[:, 4]
            + SH_C2[1] * (y * z) * sh[:, 5]
            + SH_C2[2] * (2.0 * zz - xx - yy) * sh[:, 6]
            + SH_C2[3] * (x * z) * sh[:, 7]
            + SH_C2[4] * (xx - yy) * sh[:, 8]
        )
    if bands > 9:
        xx, yy, zz = x * x, y * y, z * z
        rgb = (
            rgb
            + SH_C3[0] * y * (3.0 * xx - yy) * sh[:, 9]
            + SH_C3[1] * (x * y * z) * sh[:, 10]
            + SH_C3[2] * y * (4.0 * zz - xx - yy) * sh[:, 11]
            + SH_C3[3] * z * (2.0 * zz - 3.0 * xx - 3.0 * yy) * sh[:, 12]
            + SH_C3[4] * x * (4.0 * zz - xx - yy) * sh[:, 13]
            + SH_C3[5] * z * (xx - yy) * sh[:, 14]
            + SH_C3[6] * x * (xx - yy) * sh[:, 15]
        )
    return np.maximum(rgb + 0.5, 0.0)


@dataclass
class ProjectedCloud:
    """Screen-space splats, one array per attribute, row i for splat i.

    Ingest checks every field's shape and rejects NaN and +-inf. project_cloud
    keeps the input order of the splats that survive its near-plane and
    finiteness culls and counts what it dropped; source_index maps each row
    back to its input splat (row i itself when omitted).
    """

    mu2d: np.ndarray  # (m, 2)
    cxx: np.ndarray  # (m,) cov2d unique entries
    cxy: np.ndarray
    cyy: np.ndarray
    depth: np.ndarray  # (m,)
    opacity: np.ndarray  # (m,)
    color: np.ndarray  # (m, 3)
    n_culled_near: int = 0
    n_culled_nonfinite: int = 0
    source_index: np.ndarray | None = None

    def __post_init__(self):
        self.mu2d = np.asarray(self.mu2d, dtype=float)
        m = self.mu2d.shape[0] if self.mu2d.ndim else 0
        for name, shape in (("mu2d", (m, 2)), ("cxx", (m,)), ("cxy", (m,)), ("cyy", (m,)),
                            ("depth", (m,)), ("opacity", (m,)), ("color", (m, 3))):
            arr = np.asarray(getattr(self, name), dtype=float)
            _check_shape(name, arr, shape)
            _check_finite(name, arr)
            setattr(self, name, arr)
        if self.source_index is None:
            self.source_index = np.arange(m)

    def __len__(self) -> int:
        return self.mu2d.shape[0]


def rotmats_from_quats(q) -> np.ndarray:
    """(n, 4) unit quaternions -> (n, 3, 3) rotation matrices."""
    w, x, y, z = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    m = np.empty((q.shape[0], 3, 3))
    m[:, 0, 0] = 1 - 2 * (y * y + z * z)
    m[:, 0, 1] = 2 * (x * y - w * z)
    m[:, 0, 2] = 2 * (x * z + w * y)
    m[:, 1, 0] = 2 * (x * y + w * z)
    m[:, 1, 1] = 1 - 2 * (x * x + z * z)
    m[:, 1, 2] = 2 * (y * z - w * x)
    m[:, 2, 0] = 2 * (x * z - w * y)
    m[:, 2, 1] = 2 * (y * z + w * x)
    m[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return m


def project_cloud(cloud: SplatCloud, cam: Camera, lowpass: float = 0.0) -> ProjectedCloud:
    """Project every splat in one vectorized pass; order of survivors is stable."""
    n = len(cloud)
    r, t = cam.rotation, cam.translation
    p = cloud.mu @ r.T + t  # (n, 3) camera space
    z = p[:, 2]
    front = z > cam.near
    n_culled_near = int(n - np.count_nonzero(front))

    idx = np.flatnonzero(front)
    p = p[idx]
    z = z[idx]
    x, y = p[:, 0], p[:, 1]
    mu2d = np.stack([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy], axis=1)

    # cov2d = (J R) Sigma (J R)^T with J the perspective Jacobian at the mean.
    rot = rotmats_from_quats(cloud.rot[idx])
    m = rot * cloud.scale[idx][:, None, :]  # (n, 3, 3) = R diag(s)
    zz = z * z
    jac = np.zeros((idx.size, 2, 3))
    jac[:, 0, 0] = cam.fx / z
    jac[:, 0, 2] = -cam.fx * x / zz
    jac[:, 1, 1] = cam.fy / z
    jac[:, 1, 2] = -cam.fy * y / zz
    a = np.einsum("nij,jk,nkl->nil", jac, r, m)  # (n, 2, 3)
    cxx = np.einsum("nk,nk->n", a[:, 0], a[:, 0]) + lowpass
    cyy = np.einsum("nk,nk->n", a[:, 1], a[:, 1]) + lowpass
    cxy = np.einsum("nk,nk->n", a[:, 0], a[:, 1])

    finite = (
        np.isfinite(z)
        & np.isfinite(mu2d).all(axis=1)
        & np.isfinite(cxx)
        & np.isfinite(cxy)
        & np.isfinite(cyy)
    )
    n_culled_nonfinite = int(idx.size - np.count_nonzero(finite))
    if n_culled_nonfinite:
        keep = np.flatnonzero(finite)
        idx, mu2d, z = idx[keep], mu2d[keep], z[keep]
        cxx, cxy, cyy = cxx[keep], cxy[keep], cyy[keep]

    view = cloud.mu[idx] - cam.center
    norm = np.linalg.norm(view, axis=1, keepdims=True)
    dirs = np.divide(view, norm, out=np.tile(np.array([0.0, 0.0, 1.0]), (idx.size, 1)), where=norm > 0)
    color = eval_sh_batch(cloud.sh[idx], dirs)

    return ProjectedCloud(
        mu2d=mu2d,
        cxx=cxx,
        cxy=cxy,
        cyy=cyy,
        depth=z,
        opacity=cloud.opacity[idx].copy(),
        color=color,
        n_culled_near=n_culled_near,
        n_culled_nonfinite=n_culled_nonfinite,
        source_index=idx,
    )


# ---------------------------------------------------------------------------
# PLY ingestion (binary little-endian, de-facto trained-splat layout)

def load_ply(path) -> SplatCloud:
    """Read a trained-splat PLY.

    Expects binary little-endian with float32 vertex properties x, y, z,
    f_dc_0..2, opacity (logit), scale_0..2 (log), rot_0..3 (unnormalized), and
    optionally nx, ny, nz (ignored) and f_rest_0..N (N in {9, 24, 45},
    channel-major). Activations are applied here so in-memory splats are
    always post-activation.
    """
    with open(path, "rb") as f:
        raw = f.read()

    end_marker = b"end_header\n"
    header_end = raw.find(end_marker)
    if not raw.startswith(b"ply\n") or header_end < 0:
        raise PlyParseError(f"{path}: not a PLY file (no header found, offset 0)")
    body_at = header_end + len(end_marker)
    header = raw[:header_end].decode("ascii", errors="replace")

    n_vertex = None
    props = []
    fmt_seen = False
    for line in header.splitlines()[1:]:
        tok = line.split()
        if not tok or tok[0] in ("comment", "obj_info"):
            continue
        if tok[0] not in ("format", "element", "property") or len(tok) < 3:
            raise PlyParseError(f"{path}: malformed header line {line!r}")
        if tok[0] == "format":
            fmt_seen = True
            if tok[1] != "binary_little_endian":
                raise PlyParseError(f"{path}: encoding {tok[1]!r} unsupported, need binary_little_endian")
        elif tok[0] == "element":
            if tok[1] == "vertex":
                if not tok[2].isdecimal():
                    raise PlyParseError(f"{path}: vertex count {tok[2]!r} is not a whole number")
                n_vertex = int(tok[2])
            elif n_vertex is None:
                # Its payload would sit before the vertex data, which is read from body_at.
                raise PlyParseError(f"{path}: element {tok[1]!r} precedes vertex; "
                                    "vertex must be the first element")
            else:
                break  # only leading vertex element is read
        elif n_vertex is not None:
            if tok[1] not in ("float", "float32"):
                raise PlyParseError(f"{path}: property {tok[2]!r} has type {tok[1]!r}, need float")
            props.append(tok[2])
    if not fmt_seen:
        raise PlyParseError(f"{path}: missing format line")
    if n_vertex is None:
        raise PlyParseError(f"{path}: missing vertex element")

    n_rest = sum(1 for p in props if p.startswith("f_rest_"))
    # f_rest holds the 3 color channels of every SH coefficient but the DC one.
    allowed = [3 * (b - 1) for b in VALID_SH_BANDS]
    if n_rest not in allowed:
        raise PlyParseError(f"{path}: f_rest count {n_rest} not in {allowed}")
    bands = n_rest // 3 + 1
    required = (
        ["x", "y", "z", "f_dc_0", "f_dc_1", "f_dc_2", "opacity"]
        + [f"scale_{i}" for i in range(3)]
        + [f"rot_{i}" for i in range(4)]
        + [f"f_rest_{j}" for j in range(n_rest)]
    )
    missing = [p for p in required if p not in props]
    if missing:
        raise PlyParseError(f"{path}: missing vertex properties {missing}")

    stride = 4 * len(props)
    need = n_vertex * stride
    if len(raw) - body_at < need:
        raise PlyParseError(
            f"{path}: truncated payload, need {need} bytes at offset {body_at}, "
            f"have {len(raw) - body_at}"
        )
    data = np.frombuffer(raw, dtype="<f4", count=n_vertex * len(props), offset=body_at)
    data = data.reshape(n_vertex, len(props)).astype(float)
    col = {name: i for i, name in enumerate(props)}

    mu = data[:, [col["x"], col["y"], col["z"]]]
    opacity = scipy.special.expit(data[:, col["opacity"]])
    log_scale = data[:, [col[f"scale_{i}"] for i in range(3)]]
    with np.errstate(over="ignore"):
        scale = np.exp(log_scale)
    # exp overflows to inf above a log-scale of about 709.8 and underflows to 0
    # below about -745.1; name the value the file holds, not its exp.
    bad = np.argwhere(~((scale > 0.0) & (scale < np.inf)))
    if bad.size:
        v, i = bad[0]
        raise PlyParseError(f"{path}: scale_{i} of vertex {v} is {log_scale[v, i]}, "
                            "whose exp is not a finite positive scale")
    rot = data[:, [col[f"rot_{i}"] for i in range(4)]]

    sh = np.zeros((n_vertex, bands, 3))
    sh[:, 0, :] = data[:, [col[f"f_dc_{c}"] for c in range(3)]]
    if n_rest:
        per_channel = n_rest // 3
        rest = data[:, [col[f"f_rest_{j}"] for j in range(n_rest)]]
        # File layout is channel-major; memory layout is band-major.
        sh[:, 1:, :] = rest.reshape(n_vertex, 3, per_channel).transpose(0, 2, 1)

    try:
        return SplatCloud(mu=mu, scale=scale, rot=rot, opacity=opacity, sh=sh)
    except ValueError as e:
        raise PlyParseError(f"{path}: {e}") from e


def save_ply(path, cloud: SplatCloud) -> None:
    """Write splats in the same trained-splat layout load_ply reads."""
    n = len(cloud)
    bands = cloud.sh.shape[1]
    n_rest = 3 * (bands - 1)

    names = ["x", "y", "z", "nx", "ny", "nz", "f_dc_0", "f_dc_1", "f_dc_2"]
    names += [f"f_rest_{j}" for j in range(n_rest)]
    names += ["opacity", "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3"]

    out = np.zeros((n, len(names)), dtype="<f4")
    col = {name: i for i, name in enumerate(names)}
    out[:, [col["x"], col["y"], col["z"]]] = cloud.mu
    out[:, [col["f_dc_0"], col["f_dc_1"], col["f_dc_2"]]] = cloud.sh[:, 0, :]
    if n_rest:
        rest = cloud.sh[:, 1:, :].transpose(0, 2, 1).reshape(n, n_rest)
        out[:, col["f_rest_0"] : col["f_rest_0"] + n_rest] = rest
    # Inverse activations; opacity clamped clear of 0/1 so the logit is finite.
    p = np.clip(cloud.opacity, 1e-10, 1.0 - 1e-10)
    out[:, col["opacity"]] = scipy.special.logit(p)
    out[:, col["scale_0"] : col["scale_0"] + 3] = np.log(cloud.scale)
    out[:, col["rot_0"] : col["rot_0"] + 4] = cloud.rot

    header_lines = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header_lines += [f"property float {name}" for name in names]
    header_lines.append("end_header")
    with open(path, "wb") as f:
        f.write(("\n".join(header_lines) + "\n").encode("ascii"))
        f.write(out.tobytes())
