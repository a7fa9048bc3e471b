"""Camera, point-cloud, box and frustum primitives, and the cloud file format.

Conventions used throughout the package:

* The world frame is gravity aligned with +z up; units are meters.
* The camera frame is +x right, +y down, +z forward, so depth is camera z.
* Pixel coordinates (u, v) are continuous, u along columns and v along rows.
* Point clouds are numpy arrays of shape (N, 3) in the world frame. A cloud
  read from a file (``read_cloud_binary``) is the read-only float32 array the
  file holds; ``as_point_cloud`` makes the float64 working copy that every
  computation uses (``project_cloud``, ``voxelize``, ``write_cloud_binary``).

Boundary handling is deterministic: frustum membership uses half-open tests
widened by ``BOUNDARY_TOL`` so points constructed exactly on a frustum face
(e.g. on an edge ray) classify as inside on every platform.

A frame's cloud is projected once (``project_cloud``); a rect's points are
one rect test over it (``rect_points``), and its subfrustums are row and
column bands that partition those points (``tile_points``): the rect's
outer edges keep the ``BOUNDARY_TOL`` widening, and an inner band edge is
half-open toward the higher band.

Boxes give their footprint corners here, by one rule (``footprint_corners``)
for one box (``oriented_box_footprint``) or many at once; the polygon
clipping and areas that score footprints live in ``ioi``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .errors import GeometryError
from .outfile import open_output

#: Absolute tolerance applied to frustum boundary planes.
BOUNDARY_TOL = 1e-9

#: Near / far depth limits in meters of every candidate-center frustum.
NEAR_DEFAULT = 0.1
FAR_DEFAULT = 10.0

CenterMode = Literal["average", "median"]
CENTER_MODES = get_args(CenterMode)


# ---------------------------------------------------------------------------
# basic containers


def as_point_cloud(points: object) -> np.ndarray:
    """Coerce input to a float64 (N, 3) array, validating shape and finiteness."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[1] != 3:
        raise GeometryError(f"point cloud must have shape (N, 3), got {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
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
    """Axis-aligned pixel-space rectangle with finite edges and strictly positive area."""

    u_min: float
    v_min: float
    u_max: float
    v_max: float

    def __post_init__(self) -> None:
        if not (self.u_min < self.u_max and self.v_min < self.v_max):
            raise GeometryError(
                f"degenerate rect: ({self.u_min}, {self.v_min}, {self.u_max}, {self.v_max})"
            )
        # NaN already failed the comparisons above; an infinite edge would
        # make NaN band edges (inf * 0.0) when the rect is tiled
        if not (math.isfinite(self.u_min) and math.isfinite(self.u_max)
                and math.isfinite(self.v_min) and math.isfinite(self.v_max)):
            raise GeometryError(
                f"rect edges must be finite: ({self.u_min}, {self.v_min}, {self.u_max}, {self.v_max})"
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
        """Move points, an (..., 3) array, by this transform: ``p @ R.T + t``, bit for bit.

        The result is a view of a coordinate-major buffer: for (N, 3) points
        each column ``result[:, c]`` is one contiguous run, so per-coordinate
        work on it (``project_points``) streams through memory.
        """
        rotated = np.asarray(points, dtype=np.float64) @ self.rotation.T
        out = np.empty((3, *rotated.shape[:-1]))
        # the translation goes in coordinate by coordinate: the same adds as
        # broadcasting it, without an inner loop of length 3 per point.
        # out[c, ...] stays an array view when the points are one (3,) point
        for c in range(3):
            np.add(rotated[..., c], self.translation[c], out=out[c, ...])
        return out.transpose(*range(1, out.ndim), 0)

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
        x, y, z = self.center.tolist()
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise GeometryError("crop center must be finite")
        if not (0 < self.side < math.inf and 0 < self.height < math.inf):
            raise GeometryError("crop dimensions must be finite and strictly positive")

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
    the v column (row + 0.5), which broadcast together to the full grid.

    A depth image's camera-frame points are
    ``unproject_grid(*pixel_centers(width, height), depth, k)``.
    """
    return np.arange(width) + 0.5, (np.arange(height) + 0.5)[:, None]


def project_points(points_cam: np.ndarray, k: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project camera-frame points, an (N, 3) array; returns (u, v, depth) arrays.

    ``u = fx * x / z + cx`` and ``v = fy * y / z + cy``, each computed in
    place in one new array; depth is the points' own z column. On the
    column-major result of ``RigidTransform.apply`` every operand is
    contiguous. The points are not validated here (project_cloud validates
    its cloud once, before the move into the camera frame). Only z = 0, a
    division that overflows or a NaN coordinate gives non-finite pixel
    coordinates: a point behind the camera gets finite, mirrored ones, so
    callers must test depth themselves.
    """
    pts = np.asarray(points_cam, dtype=np.float64)
    z = pts[:, 2]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = k.fx * pts[:, 0]
        u /= z
        u += k.cx
        v = k.fy * pts[:, 1]
        v /= z
        v += k.cy
    return u, v, z


# ---------------------------------------------------------------------------
# frustums


@dataclass(frozen=True, eq=False)
class CloudProjection:
    """A world-frame cloud projected once into one camera.

    ``u`` and ``v`` hold the pixel coordinates of every cloud point, in cloud
    order; they are NaN for the points whose depth lies outside
    (NEAR_DEFAULT, FAR_DEFAULT), both limits widened by BOUNDARY_TOL, so
    those points fail every pixel comparison. ``cloud``, ``k`` and ``pose``
    are the objects it was made from, kept for identity checks; ``points`` is
    the validated float64 cloud.
    """

    cloud: object
    points: np.ndarray
    k: CameraIntrinsics
    pose: RigidTransform
    u: np.ndarray
    v: np.ndarray

    def made_from(self, cloud: np.ndarray, k: CameraIntrinsics, pose: RigidTransform) -> bool:
        """Whether this is the projection of this very cloud, camera and pose (by identity)."""
        return self.cloud is cloud and self.k is k and self.pose is pose


def project_cloud(cloud: np.ndarray, k: CameraIntrinsics, pose: RigidTransform) -> CloudProjection:
    """Validate the cloud (see as_point_cloud), move it into the camera frame and project it once.

    The camera-frame points are ``apply``'s column-major array, so the depth
    test (one boolean buffer, narrowed with ``&=``) and the projection each
    run over contiguous coordinates. Out-of-depth depths are set to NaN in
    that array first, which makes their ``u`` and ``v`` NaN.
    """
    pts = as_point_cloud(cloud)
    cam = pose.inverse().apply(pts)
    z = cam[:, 2]
    in_depth = z > NEAR_DEFAULT - BOUNDARY_TOL
    in_depth &= z < FAR_DEFAULT + BOUNDARY_TOL
    np.copyto(z, np.nan, where=~in_depth)
    u, v, _ = project_points(cam, k)
    return CloudProjection(cloud, pts, k, pose, u, v)


def _inner_edges(lo: float, hi: float, n: int) -> np.ndarray:
    # the n - 1 edges that neighbouring bands of [lo, hi] split n ways share.
    # The endpoint-exact formula gives lo and hi as the outer edges (a zero's
    # sign aside); the few edges are Python floats (cheaper than arrays here).
    edges = [lo * (1.0 - j / n) + hi * (j / n) for j in range(n + 1)]
    if edges != sorted(edges):
        # only a side a few ulps wide rounds its edges out of order
        raise GeometryError(f"rect side [{lo!r}, {hi!r}] is too narrow to split into {n} bands")
    return np.array(edges[1:-1])


def rect_points(proj: CloudProjection, rect: Rect2) -> np.ndarray:
    """Ascending cloud indices of the projected points inside a rect: its 1x1 subfrustum.

    A pixel coordinate (NaN out of depth, see CloudProjection) is inside when
    it lies in [min, max) of its side, both limits widened by BOUNDARY_TOL,
    so exact boundary points land inside deterministically.
    """
    u, v = proj.u, proj.v
    mask = u >= rect.u_min - BOUNDARY_TOL  # the four tests, narrowed in one boolean buffer
    mask &= u < rect.u_max + BOUNDARY_TOL
    mask &= v >= rect.v_min - BOUNDARY_TOL
    mask &= v < rect.v_max + BOUNDARY_TOL
    return mask.nonzero()[0]


def tile_points(proj: CloudProjection, rect: Rect2, fr: int, fc: int) -> tuple[np.ndarray, np.ndarray]:
    """(tile, point) pairs of the projected points in the fr x fc subfrustums of a rect.

    Tile (i, j) is row band i and column band j, numbered i * fc + j
    (row-major). The subfrustums partition the rect: each point of
    rect_points (whose outer edges are widened by BOUNDARY_TOL) lies in one
    tile, and a band is half-open toward the higher band, so a point on an
    edge shared by two bands lies in the higher one, as on a shared voxel
    face. Returns (tiles, points), two int arrays of one length, in
    ascending cloud index.
    """
    if fr < 1 or fc < 1:
        raise GeometryError("subdivision counts must be >= 1")
    point = rect_points(proj, rect)
    col = _inner_edges(rect.u_min, rect.u_max, fc).searchsorted(proj.u[point], side="right")
    row = _inner_edges(rect.v_min, rect.v_max, fr).searchsorted(proj.v[point], side="right")
    return row * fc + col, point


# ---------------------------------------------------------------------------
# box footprints


def footprint_corners(cx, cy, c, s, hw, hd) -> list[tuple]:
    """Counter-clockwise (x, y) footprint corners of a box centered at (cx, cy).

    ``c`` and ``s`` are the cosine and sine of its yaw, ``hw`` and ``hd``
    half its width and depth. The arguments are floats, or arrays of one
    shape standing for many boxes: each corner coordinate is then an array,
    with the same IEEE results per box as the float call.
    """
    # box-frame corner (lx, ly) goes to (cx + c * lx - s * ly, cy + s * lx + c * ly),
    # written out for (hw, hd), (-hw, hd), (-hw, -hd) and (hw, -hd)
    return [
        (cx + c * hw - s * hd, cy + s * hw + c * hd),
        (cx + c * -hw - s * hd, cy + s * -hw + c * hd),
        (cx + c * -hw - s * -hd, cy + s * -hw + c * -hd),
        (cx + c * hw - s * -hd, cy + s * hw + c * -hd),
    ]


def oriented_box_footprint(box: OrientedBox3) -> list[tuple[float, float]]:
    """Counter-clockwise corners of the box footprint in the world xy plane (see footprint_corners)."""
    # numpy's cos and sin, as Python floats: the corner arithmetic then runs
    # on floats, with the same IEEE results as on numpy arrays
    return footprint_corners(
        float(box.center[0]), float(box.center[1]), float(np.cos(box.yaw)), float(np.sin(box.yaw)),
        0.5 * box.width, 0.5 * box.depth,
    )


# ---------------------------------------------------------------------------
# point-cloud file formats

_CLOUD_COUNT = struct.Struct("<Q")


def write_cloud_binary(cloud: np.ndarray, path: str) -> None:
    """Write a cloud as a 64-bit LE count followed by float32 LE xyz triples."""
    pts = as_point_cloud(cloud)
    with open_output(path) as fh:
        fh.write(_CLOUD_COUNT.pack(pts.shape[0]))
        fh.write(pts.astype("<f4").tobytes())


def read_cloud_binary(path: str) -> np.ndarray:
    """Read the binary cloud format written by :func:`write_cloud_binary`.

    Returns the (N, 3) float32 points as a read-only array over the bytes read:
    a loaded cloud takes 12 bytes per point, and writing into it raises
    ValueError. Computations widen it through as_point_cloud.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CLOUD_COUNT.size:
        raise GeometryError(f"{path}: truncated cloud file")
    (count,) = _CLOUD_COUNT.unpack_from(raw, 0)
    expected = count * 3 * 4
    found = len(raw) - _CLOUD_COUNT.size
    if found != expected:
        raise GeometryError(f"{path}: expected {expected} payload bytes, found {found}")
    pts = np.frombuffer(raw, dtype="<f4", offset=_CLOUD_COUNT.size).reshape(count, 3)
    if not np.isfinite(pts).all():
        raise GeometryError(f"{path}: point cloud contains non-finite coordinates")
    return pts
