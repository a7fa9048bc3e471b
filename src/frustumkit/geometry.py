"""Camera, point-cloud, frustum, and convex-clipping primitives.

Conventions used throughout the package:

* The world frame is gravity aligned with +z up; units are meters.
* The camera frame is +x right, +y down, +z forward, so depth is camera z.
* Pixel coordinates (u, v) are continuous, u along columns and v along rows.
* Point clouds are float64 numpy arrays of shape (N, 3) in the world frame.

Boundary handling is deterministic: frustum membership uses half-open tests
widened by ``BOUNDARY_TOL`` so points constructed exactly on a frustum face
(e.g. on an edge ray) classify as inside on every platform.

A frame's cloud is projected once (``project_cloud``); the subfrustums of any
rect are then row and column bands over that projection (``tile_points``).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .errors import GeometryError

#: Absolute tolerance applied to frustum boundary planes.
BOUNDARY_TOL = 1e-9

#: Near / far depth limits in meters of every candidate-center frustum.
NEAR_DEFAULT = 0.1
FAR_DEFAULT = 10.0

CenterMode = Literal["average", "median"]


# ---------------------------------------------------------------------------
# basic containers


def as_point_cloud(points: object) -> np.ndarray:
    """Coerce input to a float64 (N, 3) array, validating shape and finiteness."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim == 1 and arr.size == 3:
        arr = arr.reshape(1, 3)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise GeometryError(f"point cloud must have shape (N, 3), got {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise GeometryError("point cloud contains non-finite coordinates")
    return arr


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point, image size in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self) -> None:
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise GeometryError("focal lengths must be finite and positive")
        if self.width <= 0 or self.height <= 0:
            raise GeometryError("image dimensions must be positive")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise GeometryError("principal point must lie inside the image")


@dataclass(frozen=True)
class Rect2:
    """Axis-aligned pixel-space rectangle with strictly positive area."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self) -> None:
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise GeometryError(
                f"degenerate rect: ({self.u_min}, {self.v_min}, {self.u_max}, {self.v_max})"
            )

    @property
    def width(self) -> float:
        return self.u_max - self.u_min

    @property
    def height(self) -> float:
        return self.v_max - self.v_min

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass
class RigidTransform:
    """Rigid camera-to-world transform: p_world = rotation @ p_camera + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if self.rotation.shape != (3, 3):
            raise GeometryError("rotation must be a 3x3 matrix")
        if not (np.all(np.isfinite(self.rotation)) and np.all(np.isfinite(self.translation))):
            raise GeometryError("rotation and translation must be finite")
        # an orthonormal matrix has no entry above 1; bounding the entries
        # first keeps R @ R.T from overflowing
        if np.abs(self.rotation).max() > 2.0 or not np.allclose(
            self.rotation @ self.rotation.T, np.eye(3), atol=1e-6
        ):
            raise GeometryError("rotation must be orthonormal")
        if np.linalg.det(self.rotation) < 0:
            raise GeometryError("rotation must be proper (det +1)")

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def apply(self, points: np.ndarray) -> np.ndarray:
        out = np.asarray(points, dtype=np.float64) @ self.rotation.T
        # the translation goes in column by column: the same adds as
        # broadcasting it, without an inner loop of length 3 per point
        for c in range(3):
            out[..., c] += self.translation[c]
        return out

    def inverse(self) -> "RigidTransform":
        # the transpose of a checked rotation passes the same checks, so the
        # inverse skips them (they cost more than the projection they precede)
        inv = object.__new__(RigidTransform)
        inv.rotation = self.rotation.T
        inv.translation = -inv.rotation @ self.translation
        return inv


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle to the canonical [-pi, pi) interval."""
    wrapped = (yaw + np.pi) % (2.0 * np.pi) - np.pi
    # The modulo can land exactly on +pi for inputs like -pi - eps.
    if wrapped >= np.pi:
        wrapped -= 2.0 * np.pi
    return float(wrapped)


@dataclass
class OrientedBox3:
    """Gravity-aligned 3D box: center, width/depth/height, yaw about world +z.

    Width spans the box's local x axis, depth its local y axis; yaw rotates
    local axes into the world. Dimensions must be finite and strictly positive;
    yaw must be finite and is normalized to [-pi, pi) at construction.
    """

    center: np.ndarray
    width: float
    depth: float
    height: float
    yaw: float

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(self.center)):
            raise GeometryError("box center must be finite")
        if not all(0 < d < math.inf for d in (self.width, self.depth, self.height)):
            raise GeometryError("box dimensions must be finite and strictly positive")
        if not math.isfinite(self.yaw):
            raise GeometryError("box yaw must be finite")
        self.yaw = normalize_yaw(float(self.yaw))

    @property
    def volume(self) -> float:
        return self.width * self.depth * self.height

    @property
    def z_interval(self) -> tuple[float, float]:
        hz = 0.5 * self.height
        return (float(self.center[2]) - hz, float(self.center[2]) + hz)


@dataclass
class Aabb3:
    """Axis-aligned crop box with a square footprint: center, side, height."""

    center: np.ndarray
    side: float
    height: float

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=np.float64).reshape(3)
        if not np.all(np.isfinite(self.center)):
            raise GeometryError("crop center must be finite")
        if self.side <= 0 or self.height <= 0:
            raise GeometryError("crop dimensions must be strictly positive")

    @property
    def min_corner(self) -> np.ndarray:
        return self.center - np.array([0.5 * self.side, 0.5 * self.side, 0.5 * self.height])

    @property
    def max_corner(self) -> np.ndarray:
        return self.center + np.array([0.5 * self.side, 0.5 * self.side, 0.5 * self.height])


# ---------------------------------------------------------------------------
# projection


def unproject_grid(us: np.ndarray, vs: np.ndarray, depth: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Lift pixels plus metric depth to camera-frame points; no bounds checks."""
    x = (us - k.cx) * depth / k.fx
    y = (vs - k.cy) * depth / k.fy
    return np.stack([x, y, depth], axis=-1)


def pixel_centers(width: int, height: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel centers of a width x height image: the u row (column + 0.5) and
    the v column (row + 0.5), which broadcast together to the full grid."""
    return np.arange(width) + 0.5, (np.arange(height) + 0.5)[:, None]


def unproject_depth_image(depth: np.ndarray, k: CameraIntrinsics) -> np.ndarray:
    """Camera-frame points (rows, cols, 3) of a depth image, each on the ray
    through its pixel center (see pixel_centers)."""
    rows, cols = depth.shape
    return unproject_grid(*pixel_centers(cols, rows), depth, k)


def project_points(points_cam: np.ndarray, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project camera-frame points, an (N, 3) array; returns (u, v, depth) arrays.

    The points are not validated here (project_cloud validates its cloud
    once, before the move into the camera frame). Points at or behind the
    camera plane, and points so close to it that the division overflows,
    yield non-finite pixel coordinates, which downstream containment tests
    treat as outside.
    """
    pts = np.asarray(points_cam, dtype=np.float64)
    z = pts[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = k.fx * pts[:, 0] / z + k.cx
        v = k.fy * pts[:, 1] / z + k.cy
    return u, v, z


# ---------------------------------------------------------------------------
# frustums


@dataclass(frozen=True, eq=False)
class CloudProjection:
    """A world-frame cloud projected once into one camera, kept to its in-depth points.

    ``index`` holds the ascending cloud indices of the points whose depth lies
    within (NEAR_DEFAULT, FAR_DEFAULT), both limits widened by BOUNDARY_TOL,
    and ``u``/``v`` their pixel coordinates. ``cloud``, ``k`` and ``pose`` are
    the objects it was made from, kept for identity checks; ``points`` is the
    validated float64 cloud.
    """

    cloud: object
    points: np.ndarray
    k: CameraIntrinsics
    pose: RigidTransform
    index: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def made_from(self, cloud: np.ndarray, k: CameraIntrinsics, pose: RigidTransform) -> bool:
        """Whether this is the projection of this very cloud, camera and pose (by identity)."""
        return self.cloud is cloud and self.k is k and self.pose is pose


def project_cloud(cloud: np.ndarray, k: CameraIntrinsics, pose: RigidTransform) -> CloudProjection:
    """Validate the cloud (see as_point_cloud), move it into the camera frame and project it once."""
    pts = as_point_cloud(cloud)
    cam = pose.inverse().apply(pts)
    u, v, z = project_points(cam, k)
    tol = BOUNDARY_TOL
    index = ((z > NEAR_DEFAULT - tol) & (z < FAR_DEFAULT + tol)).nonzero()[0]
    return CloudProjection(cloud, pts, k, pose, index, u[index], v[index])


def _band_limits(lo: float, hi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    # band j of [lo, hi] split n ways holds lower[j] <= x < upper[j]; the
    # endpoint-exact edges make the outer edges reproduce lo and hi bit for
    # bit and let neighbouring bands read one shared edge value. The few
    # edges are Python floats (cheaper than array ops at this size, same
    # IEEE results); the limits are returned as float64 arrays, which
    # searchsorted takes without a conversion per call.
    edges = [lo * (1.0 - j / n) + hi * (j / n) for j in range(n + 1)]
    lower = [e - BOUNDARY_TOL for e in edges[:-1]]
    upper = [e + BOUNDARY_TOL for e in edges[1:]]
    if lower != sorted(lower) or upper != sorted(upper):
        # only a side a few ulps wide rounds its edges out of order
        raise GeometryError(f"rect side [{lo!r}, {hi!r}] is too narrow to split into {n} bands")
    return np.array(lower), np.array(upper)


def _band_runs(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Both limit arrays rise with the band index, so the bands holding x are
    # one run: from the first band with x < upper to the last with lower <= x.
    # Returns (first band, run length) per point of x, which all lie in
    # [lower[0], upper[-1]).
    first = upper.searchsorted(x, side="right")
    return first, lower.searchsorted(x, side="right") - first


def tile_points(proj: CloudProjection, rect: Rect2, fr: int, fc: int) -> tuple[np.ndarray, np.ndarray]:
    """(tile, point) pairs of the projected points in the fr x fc subfrustums of a rect.

    Tile (i, j) is row band i and column band j, numbered i * fc + j
    (row-major). Membership: the point is in depth (see CloudProjection) and
    each pixel coordinate lies in its band, with both band limits widened by
    BOUNDARY_TOL, so exact boundary points land inside deterministically and
    a point on (or within the tolerance of) an edge shared by two tiles counts
    in both. Returns (tiles, points), two int arrays of one length, in
    point-major order: ascending cloud index, then ascending tile.
    """
    if fr < 1 or fc < 1:
        raise GeometryError("subdivision counts must be >= 1")
    u_lo, u_hi = _band_limits(rect.u_min, rect.u_max, fc)
    v_lo, v_hi = _band_limits(rect.v_min, rect.v_max, fr)
    u, v = proj.u, proj.v
    inside = ((u >= u_lo[0]) & (u < u_hi[-1]) & (v >= v_lo[0]) & (v < v_hi[-1])).nonzero()[0]
    point = proj.index[inside]
    if fr == fc == 1:
        # one band each way: every inside point is in tile 0, once
        return np.zeros(point.size, dtype=np.intp), point
    col, n_cols = _band_runs(u[inside], u_lo, u_hi)
    row, n_rows = _band_runs(v[inside], v_lo, v_hi)
    per_point = n_rows * n_cols
    if per_point.max(initial=1) == 1:
        return row * fc + col, point
    # points on shared edges: enumerate each point's rows x columns, row-major
    step = np.arange(per_point.sum()) - np.repeat(np.cumsum(per_point) - per_point, per_point)
    width = np.repeat(n_cols, per_point)
    tiles = (np.repeat(row, per_point) + step // width) * fc + np.repeat(col, per_point) + step % width
    return tiles, np.repeat(point, per_point)


# ---------------------------------------------------------------------------
# convex clipping


def oriented_box_footprint(box: OrientedBox3) -> list[tuple[float, float]]:
    """Counter-clockwise corners of the box footprint in the world xy plane."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    hw, hd = 0.5 * box.width, 0.5 * box.depth
    cx, cy = float(box.center[0]), float(box.center[1])
    corners = []
    for lx, ly in ((hw, hd), (-hw, hd), (-hw, -hd), (hw, -hd)):
        corners.append((cx + c * lx - s * ly, cy + s * lx + c * ly))
    return corners


def polygon_area(polygon: Sequence[tuple[float, float]]) -> float:
    """Absolute shoelace area of a simple polygon (0.0 below 3 vertices)."""
    n = len(polygon)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return abs(acc) * 0.5


def _clip_halfplane_axis(
    poly: list[tuple[float, float]], axis: int, bound: float, keep_le: bool
) -> list[tuple[float, float]]:
    # One Sutherland-Hodgman pass against an axis-aligned half plane.
    out: list[tuple[float, float]] = []
    n = len(poly)
    for i in range(n):
        cur = poly[i]
        nxt = poly[(i + 1) % n]
        if keep_le:
            cur_in = cur[axis] <= bound
            nxt_in = nxt[axis] <= bound
        else:
            cur_in = cur[axis] >= bound
            nxt_in = nxt[axis] >= bound
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            t = (bound - cur[axis]) / (nxt[axis] - cur[axis])
            if axis == 0:
                out.append((bound, cur[1] + t * (nxt[1] - cur[1])))
            else:
                out.append((cur[0] + t * (nxt[0] - cur[0]), bound))
    return out


def clip_polygon_to_aabb(
    polygon: Sequence[tuple[float, float]],
    x_min: float,
    y_min: float,
    x_max: float,
    y_max: float,
) -> list[tuple[float, float]]:
    """Clip a convex polygon to an axis-aligned rectangle (may return [])."""
    poly = list(polygon)
    for axis, bound, keep_le in ((0, x_min, False), (0, x_max, True), (1, y_min, False), (1, y_max, True)):
        poly = _clip_halfplane_axis(poly, axis, bound, keep_le)
        if not poly:
            return []
    return poly


def clip_convex_polygons(
    subject: Sequence[tuple[float, float]], clip: Sequence[tuple[float, float]]
) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of a convex subject by a CCW convex clip polygon."""
    poly = list(subject)
    m = len(clip)
    for i in range(m):
        ax, ay = clip[i]
        bx, by = clip[(i + 1) % m]
        ex, ey = bx - ax, by - ay
        out: list[tuple[float, float]] = []
        n = len(poly)
        for j in range(n):
            cur = poly[j]
            nxt = poly[(j + 1) % n]
            cur_side = ex * (cur[1] - ay) - ey * (cur[0] - ax)
            nxt_side = ex * (nxt[1] - ay) - ey * (nxt[0] - ax)
            if cur_side >= 0:
                out.append(cur)
            if (cur_side >= 0) != (nxt_side >= 0):
                t = cur_side / (cur_side - nxt_side)
                out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        poly = out
        if not poly:
            return []
    return poly


# ---------------------------------------------------------------------------
# point-cloud file formats

_CLOUD_COUNT = struct.Struct("<Q")


def write_cloud_binary(cloud: np.ndarray, path: str) -> None:
    """Write a cloud as a 64-bit LE count followed by float32 LE xyz triples."""
    pts = as_point_cloud(cloud)
    with open(path, "wb") as fh:
        fh.write(_CLOUD_COUNT.pack(pts.shape[0]))
        fh.write(pts.astype("<f4").tobytes())


def read_cloud_binary(path: str) -> np.ndarray:
    """Read the binary cloud format written by :func:`write_cloud_binary`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CLOUD_COUNT.size:
        raise GeometryError(f"{path}: truncated cloud file")
    (count,) = _CLOUD_COUNT.unpack_from(raw, 0)
    body = raw[_CLOUD_COUNT.size :]
    expected = count * 3 * 4
    if len(body) != expected:
        raise GeometryError(f"{path}: expected {expected} payload bytes, found {len(body)}")
    pts = np.frombuffer(body, dtype="<f4").reshape(count, 3).astype(np.float64)
    if not np.isfinite(pts).all():
        raise GeometryError(f"{path}: point cloud contains non-finite coordinates")
    return pts
