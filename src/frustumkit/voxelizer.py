"""Point-count voxelization of crop boxes, augmentation, and grid file writers.

Cells are half-open along every axis; the crop's maximum face belongs to the
last cell so the grid covers the crop exactly and a point on a shared interior
face lands in the higher-index cell on every platform.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass

import numpy as np

from .cropbox import ScaleSpec
from .errors import GeometryError
from .geometry import Aabb3, as_point_cloud

_MAGIC = b"FVGRID01"
_HEADER = struct.Struct("<8s3i3d3d")


@dataclass
class VoxelGrid:
    """Integer point counts on a regular grid anchored at the crop min corner.

    ``data`` has shape ``dims`` = (nx, ny, nz) in C order, so the serialized
    stream is x-major, then y, then z.
    """

    dims: tuple[int, int, int]
    cell: tuple[float, float, float]
    origin: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        self.dims = tuple(int(d) for d in self.dims)
        self.cell = tuple(float(c) for c in self.cell)
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(3)
        self.data = np.asarray(self.data)
        if any(d <= 0 for d in self.dims):
            raise GeometryError("grid dims must be positive")
        if any(c <= 0 for c in self.cell):
            raise GeometryError("cell sizes must be positive")
        if self.data.shape != self.dims:
            raise GeometryError(f"data shape {self.data.shape} does not match dims {self.dims}")
        if not np.issubdtype(self.data.dtype, np.integer):
            raise GeometryError("counts must be integers")
        if self.data.size and int(self.data.min()) < 0:
            raise GeometryError("counts must be non-negative")

    @property
    def total_points(self) -> int:
        return int(self.data.sum())


def voxelize(cloud: np.ndarray, crop: Aabb3, spec: ScaleSpec) -> VoxelGrid:
    """Count crop-contained points per grid cell.

    A point belongs to the crop when origin <= p <= max on all axes; interior
    cell faces are half-open toward the higher-index cell and the crop max
    face folds into the last cell. Points outside the crop are ignored.
    """
    pts = as_point_cloud(cloud)
    nx, ny, nz = spec.grid
    origin = crop.min_corner
    extent = np.array([crop.side, crop.side, crop.height])
    if abs(crop.side - spec.crop_side) > 1e-9 or abs(crop.height - spec.crop_height) > 1e-9:
        raise GeometryError(
            f"crop extent ({crop.side}, {crop.height}) does not match scale "
            f"spec ({spec.crop_side}, {spec.crop_height})"
        )
    cell = np.array([extent[0] / nx, extent[1] / ny, extent[2] / nz])
    rel = pts - origin
    rel = rel[np.all((rel >= 0.0) & (rel <= extent), axis=1)]
    idx = np.floor(rel / cell).astype(np.int64)
    # the crop max face (and float roundoff at it) folds into the last cell
    idx = np.minimum(idx, np.array([nx - 1, ny - 1, nz - 1]))
    flat = (idx[:, 0] * ny + idx[:, 1]) * nz + idx[:, 2]
    # already intp, with no copy; an empty crop gives the all-zero grid
    data = np.bincount(flat, minlength=nx * ny * nz).reshape(nx, ny, nz)
    return VoxelGrid(dims=(nx, ny, nz), cell=tuple(cell), origin=origin, data=data)


def rotate_about_vertical(cloud: np.ndarray, axis_xy: tuple[float, float], yaw: float) -> np.ndarray:
    """Rotate points by yaw about the vertical line through (x, y); z unchanged."""
    pts = as_point_cloud(cloud).copy()
    if yaw == 0.0:
        return pts
    ax, ay = float(axis_xy[0]), float(axis_xy[1])
    c, s = np.cos(yaw), np.sin(yaw)
    dx = pts[:, 0] - ax
    dy = pts[:, 1] - ay
    pts[:, 0] = ax + c * dx - s * dy
    pts[:, 1] = ay + s * dx + c * dy
    return pts


def augment(cloud: np.ndarray, crop: Aabb3, rng_seed: int, jitter_sigma: float = 0.01) -> np.ndarray:
    """Training-time cloud augmentation: random yaw about the crop axis + jitter.

    Draws one uniform yaw in [0, 2*pi) about the crop's vertical center axis,
    then adds iid Gaussian noise per coordinate (skipped when sigma is 0).
    Deterministic for a fixed seed; the input cloud is never mutated.
    """
    if jitter_sigma < 0:
        raise GeometryError("jitter_sigma must be non-negative")
    pts = as_point_cloud(cloud)
    rng = np.random.default_rng(rng_seed)
    yaw = rng.uniform(0.0, 2.0 * np.pi)
    out = rotate_about_vertical(pts, (float(crop.center[0]), float(crop.center[1])), yaw)
    if jitter_sigma > 0.0:
        out = out + rng.normal(0.0, jitter_sigma, size=out.shape)
    return out


# ---------------------------------------------------------------------------
# file formats


def write_voxel_grid(grid: VoxelGrid, path: str) -> None:
    """Binary grid format: magic, dims (i32), cell + origin (f64), u32 counts."""
    if grid.data.size and int(grid.data.max()) > 0xFFFFFFFF:
        raise GeometryError("cell count exceeds the 32-bit storage limit")
    header = _HEADER.pack(_MAGIC, *grid.dims, *grid.cell, *grid.origin.tolist())
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(grid.data.astype("<u4").tobytes(order="C"))


def write_sparse_csv(grid: VoxelGrid, path: str) -> None:
    """Nonzero cells as 'ix,iy,iz,count' rows in x-major traversal order."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ix", "iy", "iz", "count"])
        nonzero = np.argwhere(grid.data > 0)
        for ix, iy, iz in nonzero:
            writer.writerow([int(ix), int(iy), int(iz), int(grid.data[ix, iy, iz])])
