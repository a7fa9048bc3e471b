"""Range images and their normalized depth / height / slope encodings.

A range image stores metric depth per pixel (0 marks missing). The DHS
encoding turns it into three unit-interval channels a 2D detector can consume:

* d: depth scaled by a maximum range,
* h: world height of the unprojected pixel, scaled between floor and ceiling,
* s: elevation angle of the step to the right-hand neighbor, so horizontal
  surfaces sit at 0.5 and vertical rises approach 1.

Missing pixels (and pixels whose right neighbor is missing, for s) encode 0.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import CameraIntrinsics, RigidTransform, unproject_depth_image

D_MAX_DEFAULT = 10.0
H_MIN_DEFAULT = -0.5
H_MAX_DEFAULT = 2.5

_RANGE_MAGIC = b"FRNGIM01"
_RANGE_HEADER = struct.Struct("<8s2I")


@dataclass
class RangeImage:
    """Per-pixel metric depth with the camera that produced it."""

    depth: np.ndarray
    intrinsics: CameraIntrinsics
    pose: RigidTransform

    def __post_init__(self) -> None:
        self.depth = np.asarray(self.depth, dtype=np.float64)
        if self.depth.ndim != 2:
            raise GeometryError("depth must be a 2D array (rows, cols)")
        if self.depth.shape != (self.intrinsics.height, self.intrinsics.width):
            raise GeometryError(
                f"depth shape {self.depth.shape} does not match intrinsics "
                f"({self.intrinsics.height}, {self.intrinsics.width})"
            )
        if not np.all(np.isfinite(self.depth)):
            raise GeometryError("depth must be finite (use 0 for missing)")

    @property
    def width(self) -> int:
        return self.intrinsics.width

    @property
    def height(self) -> int:
        return self.intrinsics.height

    @property
    def missing_mask(self) -> np.ndarray:
        return self.depth <= 0.0


@dataclass
class DhsImage:
    """The three normalized channels; every value lies in [0, 1]."""

    d: np.ndarray
    h: np.ndarray
    s: np.ndarray

    def __post_init__(self) -> None:
        for name, ch in (("d", self.d), ("h", self.h), ("s", self.s)):
            arr = np.asarray(ch, dtype=np.float64)
            if arr.ndim != 2:
                raise GeometryError(f"channel {name} must be 2D")
            if not np.all((arr >= 0.0) & (arr <= 1.0)):
                raise GeometryError(f"channel {name} leaves [0, 1]")
        if not (self.d.shape == self.h.shape == self.s.shape):
            raise GeometryError("channels must share one shape")

    def to_uint8(self) -> np.ndarray:
        """(rows, cols, 3) bytes, scaled by 255 with round-half-up."""
        stacked = np.stack([self.d, self.h, self.s], axis=-1)
        return np.floor(stacked * 255.0 + 0.5).clip(0, 255).astype(np.uint8)

    def to_float32_planes(self) -> bytes:
        """Raw little-endian float32, planes d, h, s concatenated row-major."""
        return b"".join(np.ascontiguousarray(ch, dtype="<f4").tobytes() for ch in (self.d, self.h, self.s))


def world_points(img: RangeImage) -> np.ndarray:
    """Unproject every pixel center to the world frame; missing pixels give NaN."""
    depth = np.where(img.missing_mask, np.nan, img.depth)
    cam = unproject_depth_image(depth, img.intrinsics)
    return img.pose.apply(cam.reshape(-1, 3)).reshape(cam.shape)


def _unit_ramp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """clip((x - lo) / (hi - lo), 0, 1) with NaN as 0, dividing only inside
    (lo, hi) so that a tiny hi - lo cannot overflow."""
    out = (x >= hi).astype(np.float64)
    np.divide(x - lo, hi - lo, out=out, where=(x > lo) & (x < hi))
    return out


def depth_to_dhs(
    img: RangeImage,
    d_max: float = D_MAX_DEFAULT,
    h_min: float = H_MIN_DEFAULT,
    h_max: float = H_MAX_DEFAULT,
) -> DhsImage:
    """Encode a range image into clamped depth / height / slope channels.

    The slope at (u, v) is the elevation angle, against the world horizontal
    plane, of the vector from the unprojected pixel (u, v) to its right-hand
    neighbor (u+1, v), mapped linearly from [-pi/2, pi/2] to [0, 1]. The last
    column has no right-hand neighbor and copies its left neighbor's value.
    """
    if not (0 < d_max < math.inf):
        raise GeometryError(f"d_max must be finite and positive, got {d_max}")
    if not (-math.inf < h_min < h_max < math.inf):
        raise GeometryError(f"need finite h_min < h_max, got {h_min}, {h_max}")
    missing = img.missing_mask
    d = _unit_ramp(img.depth, 0.0, d_max)  # missing depths (<= 0) encode 0

    pts = world_points(img)
    h = _unit_ramp(pts[:, :, 2], h_min, h_max)
    h[missing] = 0.0

    rows, cols = img.depth.shape
    s = np.zeros((rows, cols), dtype=np.float64)
    if cols >= 2:
        delta = pts[:, 1:, :] - pts[:, :-1, :]
        with np.errstate(invalid="ignore"):
            elev = np.arctan2(delta[:, :, 2], np.hypot(delta[:, :, 0], delta[:, :, 1]))
            s_part = (elev + 0.5 * np.pi) / np.pi
        valid = ~missing[:, :-1] & ~missing[:, 1:]
        s[:, :-1] = np.where(valid, np.nan_to_num(s_part, nan=0.0), 0.0)
        s[:, -1] = s[:, -2]
    return DhsImage(d=d, h=h, s=s)


# ---------------------------------------------------------------------------
# range-image file format


def write_range_image(img: RangeImage, path: str) -> None:
    """Binary range image: magic, width, height (u32), row-major f32 depths.

    Camera intrinsics and pose live in the dataset manifest, not the file.
    """
    with open(path, "wb") as fh:
        fh.write(_RANGE_HEADER.pack(_RANGE_MAGIC, img.width, img.height))
        fh.write(img.depth.astype("<f4").tobytes(order="C"))


def read_range_image(path: str, intrinsics: CameraIntrinsics, pose: RigidTransform) -> RangeImage:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _RANGE_HEADER.size or raw[:8] != _RANGE_MAGIC:
        raise GeometryError(f"{path}: not a range image file")
    magic, width, height = _RANGE_HEADER.unpack_from(raw, 0)
    body = raw[_RANGE_HEADER.size :]
    if len(body) != width * height * 4:
        raise GeometryError(f"{path}: payload size mismatch")
    if (width, height) != (intrinsics.width, intrinsics.height):
        raise GeometryError(
            f"{path}: stored size {width}x{height} does not match intrinsics "
            f"{intrinsics.width}x{intrinsics.height}"
        )
    depth = np.frombuffer(body, dtype="<f4").reshape(height, width).astype(np.float64)
    return RangeImage(depth=depth, intrinsics=intrinsics, pose=pose)
