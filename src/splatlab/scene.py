"""Scene representation: 3D splats, cameras, projection to screen, PLY I/O.

Conventions used throughout:
  - pixel (i, j) covers [i, i+1] x [j, j+1]; its center is (i + 0.5, j + 0.5)
  - quaternions are stored (w, x, y, z) and normalized on ingest
  - in-memory splats are always post-activation (opacity in [0,1], scale > 0)
  - the camera sits at the origin looking down +z, so splats are stored in
    camera space and a splat's depth is its z; splats with z <= near are
    culled. A posed scene is the same scene with its splats moved into
    camera space: under pose (R, t), each mean mu becomes R mu + t and
    each splat rotation Q becomes R Q.
  - a splat's color is the view-independent DC term of its spherical
    harmonics: what this lab measures is how alpha and transmittance combine
    in a pixel, and a zoom (Camera.scaled) scales only the intrinsics, so
    every sampling rate of a view sees the same colors. SH beyond DC is
    neither stored nor read, and load_ply rejects a file that holds it.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np
import scipy.special

# The degree-0 real spherical harmonic, Y_00 = 1 / (2 sqrt(pi)): a splat's
# color is SH_C0 * sh + 0.5 (the trained-file DC convention), clamped at 0.
SH_C0 = 0.28209479177387814


def is_count(value) -> bool:
    """True for an integer >= 1 that is not a bool; NumPy integers count."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= 1


def check_image_size(width, height) -> None:
    """ValueError naming width or height unless both are integers >= 1, and
    naming both if the frame buffer, 4 float64 (rgb and the residual) per
    pixel, would exceed sys.maxsize bytes."""
    for name, value in (("width", width), ("height", height)):
        if not is_count(value):
            raise ValueError(f"image dimensions must be integers >= 1: {name} is {value!r}")
    if 32 * int(width) * int(height) > sys.maxsize:
        raise ValueError(f"image of width {width} and height {height}: its frame buffer "
                         "would exceed sys.maxsize bytes")


class PlyParseError(ValueError):
    """Malformed splat PLY; the message names the file and what is malformed."""


@dataclass(frozen=True)
class Camera:
    """Pinhole camera at the origin looking down +z (module docstring): a
    camera-space point (x, y, z) lands at pixel (fx x / z + cx, fy y / z + cy)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    near: float = 0.01

    def __post_init__(self):
        check_image_size(self.width, self.height)
        for name in ("fx", "fy", "near"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, not {getattr(self, name)!r}")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be > 0")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError(f"principal point (cx {self.cx!r}, cy {self.cy!r}) must lie inside "
                             f"the image of width {self.width} and height {self.height}")
        if not self.near > 0:
            raise ValueError("near must be > 0")

    def scaled(self, k: float) -> "Camera":
        """Zoom protocol: multiply intrinsics and resolution by k, the image
        size rounded half to even; the camera stays at the origin."""
        if not math.isfinite(k):
            raise ValueError(f"scale factor must be finite, not {k!r}")
        if k <= 0:
            raise ValueError("scale factor must be > 0")
        width, height = float(self.width) * float(k), float(self.height) * float(k)
        if not (math.isfinite(width) and math.isfinite(height)):
            raise ValueError(f"scale factor {k!r} makes the image size infinite")
        width, height = max(1, int(round(width))), max(1, int(round(height)))
        cx, cy = self.cx * k, self.cy * k
        if not (0 < cx < width and 0 < cy < height):
            raise ValueError(f"scale factor {k!r} puts the principal point at ({cx!r}, {cy!r}), "
                             f"outside the image of width {width} and height {height} "
                             "that the scaled size rounds to")
        return Camera(fx=self.fx * k, fy=self.fy * k, cx=cx, cy=cy, width=width, height=height,
                      near=self.near)


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


def _check_unit(name: str, arr: np.ndarray) -> None:
    """ValueError naming the field and the first row outside [0, 1]."""
    bad = (arr < 0.0) | (arr > 1.0)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise ValueError(f"{name}[{i}] is {arr[i]}, outside [0, 1]")


@dataclass
class SplatCloud:
    """A scene's splats, one contiguous array per attribute, row i for splat i.

    Ingest validates every field's shape and every row: values finite,
    scale > 0, opacity in [0, 1]; quaternions are nonzero, and normalized.
    sh holds each splat's DC coefficient per channel, the one SH band the
    module docstring says color reads.
    """

    mu: np.ndarray  # (n, 3)
    scale: np.ndarray  # (n, 3)
    rot: np.ndarray  # (n, 4) unit
    opacity: np.ndarray  # (n,)
    sh: np.ndarray  # (n, 1, 3) DC term

    def __post_init__(self):
        self.mu = np.ascontiguousarray(self.mu, dtype=float)
        self.scale = np.ascontiguousarray(self.scale, dtype=float)
        self.rot = np.ascontiguousarray(self.rot, dtype=float)
        self.opacity = np.ascontiguousarray(self.opacity, dtype=float)
        self.sh = np.ascontiguousarray(self.sh, dtype=float)
        n = self.mu.shape[0] if self.mu.ndim else 0
        for name, shape in (("mu", (n, 3)), ("scale", (n, 3)), ("rot", (n, 4)), ("opacity", (n,)),
                            ("sh", (n, 1, 3))):
            _check_shape(name, getattr(self, name), shape)
        # NaN passes every comparison below, so reject non-finite values first.
        for name in ("mu", "scale", "rot", "opacity", "sh"):
            _check_finite(name, getattr(self, name))
        norm = np.linalg.norm(self.rot, axis=1, keepdims=True)
        if not norm.all():
            raise ValueError(f"rot[{np.flatnonzero(norm == 0.0)[0]}] is a zero quaternion")
        self.rot = self.rot / norm
        if np.any(self.scale <= 0.0):
            raise ValueError("scale components must be > 0")
        _check_unit("opacity", self.opacity)

    def __len__(self) -> int:
        return self.mu.shape[0]


@dataclass
class ProjectedCloud:
    """Screen-space splats, one array per attribute, row i for splat i.

    Ingest checks every field's shape and rejects NaN, +-inf, opacity outside
    [0, 1] and color below 0. project_cloud keeps the input order of the
    splats that survive its near-plane and finiteness culls, counting the rest.
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

    def __post_init__(self):
        self.mu2d = np.asarray(self.mu2d, dtype=float)
        m = self.mu2d.shape[0] if self.mu2d.ndim else 0
        for name, shape in (("mu2d", (m, 2)), ("cxx", (m,)), ("cxy", (m,)), ("cyy", (m,)),
                            ("depth", (m,)), ("opacity", (m,)), ("color", (m, 3))):
            arr = np.asarray(getattr(self, name), dtype=float)
            _check_shape(name, arr, shape)
            _check_finite(name, arr)
            setattr(self, name, arr)
        _check_unit("opacity", self.opacity)
        if (neg := np.flatnonzero((self.color < 0.0).any(axis=1))).size:
            raise ValueError(f"color[{neg[0]}] is {self.color[neg[0]].tolist()}, below 0")

    def __len__(self) -> int:
        return self.mu2d.shape[0]


def rotmats_from_quats(q) -> np.ndarray:
    """(n, 4) unit quaternions -> (3, 3, n) rotation matrices, entry-major:
    [i, j] holds the (n,) entries R_ij."""
    w, x, y, z = q.T
    m = np.empty((3, 3, q.shape[0]))
    m[0, 0] = 1 - 2 * (y * y + z * z)
    m[0, 1] = 2 * (x * y - w * z)
    m[0, 2] = 2 * (x * z + w * y)
    m[1, 0] = 2 * (x * y + w * z)
    m[1, 1] = 1 - 2 * (x * x + z * z)
    m[1, 2] = 2 * (y * z - w * x)
    m[2, 0] = 2 * (x * z - w * y)
    m[2, 1] = 2 * (y * z + w * x)
    m[2, 2] = 1 - 2 * (x * x + y * y)
    return m


def project_cloud(cloud: SplatCloud, cam: Camera, lowpass: float = 0.0) -> ProjectedCloud:
    """Project every splat in one vectorized pass; order of survivors is stable.

    TypeError unless cloud is a SplatCloud and cam a Camera. lowpass (px^2,
    finite and >= 0) is added to the diagonal of every screen covariance.
    The splats sit in camera space (module docstring), so the covariance is
    A A^T with A = J M: J the perspective Jacobian at the mean, M = R_splat
    diag(s). Each row of A is summed from +0 term by term over j, as J_ij M_j,
    and each entry of A A^T as (p0 + p2) + p1 over its products p. These are
    the orders that np.einsum takes over J and M and then over each pair of
    rows of A, kept so that every bit equals that einsum form
    (project_cloud_einsum in tests/_reference.py). J's two structural zeros
    are skipped: a +-0 term changes no bit of a sum that starts at +0, since
    a round-to-nearest sum is -0 only when both addends are. Color is the DC
    term (module docstring).
    """
    if not isinstance(cloud, SplatCloud):
        raise TypeError(f"project_cloud takes a SplatCloud, not {type(cloud).__name__}")
    if not isinstance(cam, Camera):
        raise TypeError(f"project_cloud takes a Camera, not {type(cam).__name__}")
    if not (math.isfinite(lowpass) and lowpass >= 0.0):
        raise ValueError(f"lowpass must be finite and >= 0, not {lowpass!r}")
    idx = np.flatnonzero(cloud.mu[:, 2] > cam.near)
    n_culled_near = len(cloud) - idx.size
    # finite input whose products overflow gives inf or nan here, and is
    # culled below and counted, not warned about (errstate changes no bit)
    with np.errstate(over="ignore", invalid="ignore"):
        x, y, z = cloud.mu[idx].T
        mu2d = np.stack([cam.fx * x / z + cam.cx, cam.fy * y / z + cam.cy], axis=1)

        m = rotmats_from_quats(cloud.rot[idx])
        m *= cloud.scale[idx].T  # R diag(s)
        zz = z * z
        # J's nonzero entries, row by row, as (column j, J_ij)
        jac = (((0, cam.fx / z), (2, -cam.fx * x / zz)), ((1, cam.fy / z), (2, -cam.fy * y / zz)))
        rows = []
        for terms in jac:
            a = np.zeros((3, idx.size))
            for j, j_ij in terms:
                a += j_ij * m[j]
            rows.append(a)
        (a0, a1, a2), (b0, b1, b2) = rows
        cxx = (a0 * a0 + a2 * a2) + a1 * a1 + lowpass
        cyy = (b0 * b0 + b2 * b2) + b1 * b1 + lowpass
        cxy = (a0 * b0 + a2 * b2) + a1 * b1 + 0.0  # a sum of -0 products reads +0

    finite = np.isfinite(mu2d).all(axis=1) & np.isfinite(cxx) & np.isfinite(cxy) & np.isfinite(cyy)
    n_culled_nonfinite = int(idx.size - np.count_nonzero(finite))
    if n_culled_nonfinite:
        keep = np.flatnonzero(finite)
        idx, mu2d, z = idx[keep], mu2d[keep], z[keep]
        cxx, cxy, cyy = cxx[keep], cxy[keep], cyy[keep]

    color = np.maximum(SH_C0 * cloud.sh[idx, 0] + 0.5, 0.0)

    return ProjectedCloud(
        mu2d=mu2d,
        cxx=cxx,
        cxy=cxy,
        cyy=cyy,
        depth=z,
        opacity=cloud.opacity[idx],
        color=color,
        n_culled_near=n_culled_near,
        n_culled_nonfinite=n_culled_nonfinite,
    )


# ---------------------------------------------------------------------------
# PLY ingestion (binary little-endian, de-facto trained-splat layout)

# The vertex properties save_ply writes, in order, all float32; load_ply
# requires each but the normals, in any order.
PLY_PROPERTIES = ("x", "y", "z", "nx", "ny", "nz", "f_dc_0", "f_dc_1", "f_dc_2", "opacity",
                  "scale_0", "scale_1", "scale_2", "rot_0", "rot_1", "rot_2", "rot_3")


def load_ply(path) -> SplatCloud:
    """Read a splat PLY in the trained-splat layout, color DC term only.

    Expects binary little-endian with float32 vertex properties x, y, z,
    f_dc_0..2, opacity (logit), scale_0..2 (log), rot_0..3 (unnormalized), and
    optionally nx, ny, nz (ignored). Color is the DC term (module docstring),
    so a file that declares any f_rest_* property (SH beyond DC) is a
    PlyParseError naming the first one: read as DC alone, its splats would
    take colors the file does not hold. Activations are applied here so
    in-memory splats are always post-activation.
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
            if tok[2] in props:  # the stride counts both columns, and col would keep the last
                raise PlyParseError(f"{path}: property {tok[2]!r} is declared twice")
            if tok[2].startswith("f_rest_"):
                raise PlyParseError(f"{path}: property {tok[2]!r} holds SH color beyond the DC "
                                    "term, which splatlab does not read")
            props.append(tok[2])
    if not fmt_seen:
        raise PlyParseError(f"{path}: missing format line")
    if n_vertex is None:
        raise PlyParseError(f"{path}: missing vertex element")

    missing = [p for p in PLY_PROPERTIES if p not in props and p not in ("nx", "ny", "nz")]
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

    sh = data[:, None, [col[f"f_dc_{c}"] for c in range(3)]]

    try:
        return SplatCloud(mu=mu, scale=scale, rot=rot, opacity=opacity, sh=sh)
    except ValueError as e:
        raise PlyParseError(f"{path}: {e}") from e


def save_ply(path, cloud: SplatCloud) -> None:
    """Write splats in the trained-splat layout load_ply reads, PLY_PROPERTIES:
    x, y, z, nx, ny, nz (0), f_dc_0..2, opacity (logit), scale_0..2 (log),
    rot_0..3, and no f_rest_* (color is the DC term). Anything but a
    SplatCloud is a TypeError, raised before the file is opened."""
    if not isinstance(cloud, SplatCloud):
        raise TypeError(f"save_ply takes a SplatCloud, not {type(cloud).__name__}")
    n = len(cloud)
    out = np.zeros((n, len(PLY_PROPERTIES)), dtype="<f4")
    col = {name: i for i, name in enumerate(PLY_PROPERTIES)}
    out[:, [col["x"], col["y"], col["z"]]] = cloud.mu
    out[:, [col["f_dc_0"], col["f_dc_1"], col["f_dc_2"]]] = cloud.sh[:, 0, :]
    # Inverse activations; opacity clamped clear of 0/1 so the logit is finite.
    p = np.clip(cloud.opacity, 1e-10, 1.0 - 1e-10)
    out[:, col["opacity"]] = scipy.special.logit(p)
    out[:, col["scale_0"] : col["scale_0"] + 3] = np.log(cloud.scale)
    out[:, col["rot_0"] : col["rot_0"] + 4] = cloud.rot

    header_lines = ["ply", "format binary_little_endian 1.0", f"element vertex {n}"]
    header_lines += [f"property float {name}" for name in PLY_PROPERTIES]
    header_lines.append("end_header")
    with open(path, "wb") as f:
        f.write(("\n".join(header_lines) + "\n").encode("ascii"))
        f.write(out.tobytes())
