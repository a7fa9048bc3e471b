"""Point-count voxelization of crop boxes and the grid file writers.

A grid is stored as its occupied cells only: the sorted C-order flat indices
of the cells that hold points, and their counts. A crop grid is ~1e-4
occupied, so the dense array is never built on the voxel path; ``data``
densifies on request. FVGRID01 files are still written dense, every cell as
a u32 count, and the sparse CSV lists the occupied cells in x-major order.

Cells are half-open along every axis; the crop's maximum face belongs to the
last cell so the grid covers the crop exactly and a point on a shared interior
face lands in the higher-index cell on every platform.
"""

from __future__ import annotations

import csv
import math
import struct

import numpy as np

from .cropbox import ScaleSpec
from .errors import GeometryError
from .geometry import Aabb3, as_point_cloud

_MAGIC = b"FVGRID01"
_HEADER = struct.Struct("<8s3i3d3d")


class VoxelGrid:
    """Integer point counts on a regular grid anchored at the crop min corner.

    The grid has shape ``dims`` = (nx, ny, nz) in C order, so the serialized
    stream is x-major, then y, then z. ``cells`` holds the flat C-order
    indices of the occupied cells, strictly increasing, and ``counts`` their
    positive point counts (both int64, read-only). The constructor takes a
    dense integer array and keeps only its nonzero cells.
    """

    def __init__(self, dims, cell, origin, data) -> None:
        self._set_geometry(dims, cell, origin)
        data = np.asarray(data)
        if data.shape != self.dims:
            raise GeometryError(f"data shape {data.shape} does not match dims {self.dims}")
        if not np.issubdtype(data.dtype, np.integer):
            raise GeometryError("counts must be integers")
        if data.size and int(data.min()) < 0:
            raise GeometryError("counts must be non-negative")
        flat = data.reshape(-1)
        cells = np.flatnonzero(flat)
        self._set_cells(cells, flat[cells])

    @classmethod
    def _from_cells(cls, dims, cell, origin, cells: np.ndarray, counts: np.ndarray) -> VoxelGrid:
        grid = cls.__new__(cls)
        grid._set_geometry(dims, cell, origin)
        grid._set_cells(cells, counts)
        return grid

    def _set_geometry(self, dims, cell, origin) -> None:
        self.dims = tuple(int(d) for d in dims)
        self.cell = tuple(float(c) for c in cell)
        self.origin = np.asarray(origin, dtype=np.float64).reshape(3)
        if any(d <= 0 for d in self.dims):
            raise GeometryError("grid dims must be positive")
        if any(c <= 0 for c in self.cell):
            raise GeometryError("cell sizes must be positive")

    def _set_cells(self, cells: np.ndarray, counts: np.ndarray) -> None:
        cells, counts = np.asarray(cells), np.asarray(counts)
        if not (np.issubdtype(cells.dtype, np.integer) and np.issubdtype(counts.dtype, np.integer)):
            raise GeometryError("cells and counts must be integers")
        if cells.ndim != 1 or counts.shape != cells.shape:
            raise GeometryError("cells and counts must be 1D and of one length")
        cells, counts = cells.astype(np.int64), counts.astype(np.int64)
        if cells.size and (cells[0] < 0 or cells[-1] >= math.prod(self.dims)):
            raise GeometryError("cells must lie inside the grid")
        if np.any(cells[1:] <= cells[:-1]):
            raise GeometryError("cells must be strictly increasing")
        if np.any(counts <= 0):
            raise GeometryError("counts of occupied cells must be positive")
        cells.flags.writeable = counts.flags.writeable = False
        self.cells, self.counts = cells, counts

    @property
    def data(self) -> np.ndarray:
        """Dense int64 counts of shape ``dims``, built on each access (read-only)."""
        dense = np.zeros(self.dims, dtype=np.int64)
        dense.reshape(-1)[self.cells] = self.counts
        dense.flags.writeable = False
        return dense

    @property
    def total_points(self) -> int:
        return int(self.counts.sum())


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
    # sorted flat C order is x-major, the order both writers emit
    cells, counts = np.unique(flat, return_counts=True)
    return VoxelGrid._from_cells((nx, ny, nz), tuple(cell), origin, cells, counts)


# ---------------------------------------------------------------------------
# file formats


def write_voxel_grid(grid: VoxelGrid, path: str) -> None:
    """Binary grid format: magic, dims (i32), cell + origin (f64), u32 counts.

    The counts are written dense, one per cell in x-major order.
    """
    if grid.counts.size and int(grid.counts.max()) > 0xFFFFFFFF:
        raise GeometryError("cell count exceeds the 32-bit storage limit")
    header = _HEADER.pack(_MAGIC, *grid.dims, *grid.cell, *grid.origin.tolist())
    body = np.zeros(math.prod(grid.dims), dtype="<u4")
    body[grid.cells] = grid.counts
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body)


def write_sparse_csv(grid: VoxelGrid, path: str) -> None:
    """Nonzero cells as 'ix,iy,iz,count' rows in x-major traversal order."""
    ix, iy, iz = (a.tolist() for a in np.unravel_index(grid.cells, grid.dims))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ix", "iy", "iz", "count"])
        writer.writerows(zip(ix, iy, iz, grid.counts.tolist()))
