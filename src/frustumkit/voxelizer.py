"""Point-count voxelization of crop boxes and the grid file writers.

A grid is stored as its occupied cells only: the sorted C-order flat indices
of the cells that hold points, and their counts. A crop grid is ~1e-4
occupied, so the dense array is never built on the voxel path; ``data``
densifies on request. An FVGRID01 file holds every cell as a u32 count, but
only its 4 KiB file pages that hold the header or an occupied cell are built,
each written once: one ``os.pwrite`` per run of consecutive pages in a regular
file, whose other pages stay holes, and in order with the gaps written as
zeros anywhere else. The sparse CSV lists the occupied cells in x-major order.

Cells are half-open along every axis; the crop's maximum face belongs to the
last cell so the grid covers the crop exactly and a point on a shared interior
face lands in the higher-index cell on every platform.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

from .cropbox import ScaleSpec
from .csvio import write_csv
from .errors import GeometryError
from .geometry import Aabb3, as_point_cloud
from .outfile import open_output

_MAGIC = b"FVGRID01"
_HEADER = struct.Struct("<8s3i3d3d")
_PAGE = 4096  # bytes in one page of the grid file


class VoxelGrid:
    """Integer point counts on a regular grid anchored at the crop min corner.

    The grid has shape ``dims`` = (nx, ny, nz) in C order, so the serialized
    stream is x-major, then y, then z. ``cells`` holds the flat C-order
    indices of the occupied cells, strictly increasing, and ``counts`` their
    positive point counts (both int64, read-only).
    """

    def __init__(self, dims, cell, origin, cells, counts) -> None:
        self.dims = tuple(int(d) for d in dims)
        self.cell = tuple(float(c) for c in cell)
        self.origin = np.asarray(origin, dtype=np.float64).reshape(3)
        if any(d <= 0 for d in self.dims):
            raise GeometryError("grid dims must be positive")
        if not all(0 < c < math.inf for c in self.cell):
            raise GeometryError("cell sizes must be positive")
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
    rel = pts - origin
    rel = rel[np.all((rel >= 0.0) & (rel <= extent), axis=1)]
    idx = np.floor(rel / spec.cell_size).astype(np.int64)
    # the crop max face (and float roundoff at it) folds into the last cell
    idx = np.minimum(idx, np.array([nx - 1, ny - 1, nz - 1]))
    flat = (idx[:, 0] * ny + idx[:, 1]) * nz + idx[:, 2]
    # sorted flat C order is x-major, the order both writers emit
    cells, counts = np.unique(flat, return_counts=True)
    return VoxelGrid(spec.grid, spec.cell_size, origin, cells, counts)


# ---------------------------------------------------------------------------
# file formats


def write_voxel_grid(grid: VoxelGrid, path: str) -> None:
    """Binary grid format: magic, dims (i32), cell + origin (f64), u32 counts.

    The counts are one per cell in x-major order, so cell ``c`` sits at byte
    ``68 + 4 * c``. Only the 4 KiB file pages that hold the header (page 0)
    or an occupied cell are built, in one compact buffer. A regular file gets
    one ``os.pwrite`` per run of consecutive pages at its offset, then its
    full length from ``os.ftruncate``; any other output (a FIFO, a tty,
    ``/dev/null``), or a platform without ``os.pwrite``, gets the same runs
    in order with the pages between them written as zeros.
    """
    if max(grid.dims) > 0x7FFFFFFF:
        raise GeometryError("grid dims exceed the 32-bit storage limit")
    if grid.counts.size and int(grid.counts.max()) > 0xFFFFFFFF:
        raise GeometryError("cell count exceeds the 32-bit storage limit")
    header = _HEADER.pack(_MAGIC, *grid.dims, *grid.cell, *grid.origin.tolist())
    size = len(header) + 4 * math.prod(grid.dims)
    at = len(header) + 4 * grid.cells  # each count's byte offset in the file
    page_of = at // _PAGE
    pages = np.union1d(page_of, 0)
    buf = np.zeros(pages.size * _PAGE, dtype=np.uint8)
    buf[: len(header)] = np.frombuffer(header, dtype=np.uint8)
    buf.view("<u4")[(np.searchsorted(pages, page_of) * _PAGE + at % _PAGE) // 4] = grid.counts
    # runs of consecutive pages: each one's [start, end) bytes in the file,
    # and where it begins in ``buf``
    firsts = np.flatnonzero(np.diff(pages, prepend=-2) != 1)
    starts = pages[firsts] * _PAGE
    ends = (pages[np.append(firsts[1:], pages.size) - 1] + 1) * _PAGE
    ends[-1] = min(int(ends[-1]), size)  # the file may end inside its last page
    data = memoryview(buf)
    with open_output(path) as fh:
        fd = fh.fileno()
        positional = hasattr(os, "pwrite") and stat.S_ISREG(os.fstat(fd).st_mode)
        done = 0  # file bytes written or passed so far
        for start, end, buf_at in zip(starts.tolist(), ends.tolist(), (firsts * _PAGE).tolist()):
            run = data[buf_at : buf_at + end - start]
            if positional:
                while run:  # os.pwrite may write fewer bytes than asked
                    n = os.pwrite(fd, run, start)
                    run, start = run[n:], start + n
            else:
                _zeros(fh, start - done)
                fh.write(run)
            done = end
        if positional:
            # The last run may stop short of the file's end, so set its full
            # length. The holes read back as zeros only because open_output
            # always hands back an empty file (a new inode, or one opened
            # with O_TRUNC), so no earlier bytes lie under them.
            os.ftruncate(fd, size)
        else:
            _zeros(fh, size - done)


def _zeros(fh, nbytes: int) -> None:
    """Write ``nbytes`` zero bytes to a stream, at most 1 MiB at a time."""
    zeros = memoryview(bytes(min(nbytes, 1 << 20)))
    while nbytes > 0:
        nbytes -= fh.write(zeros[:nbytes])


def write_sparse_csv(grid: VoxelGrid, path: str) -> None:
    """Nonzero cells as 'ix,iy,iz,count' rows in x-major traversal order."""
    ix, iy, iz = (a.tolist() for a in np.unravel_index(grid.cells, grid.dims))
    write_csv(path, "ix,iy,iz,count", zip(ix, iy, iz, grid.counts.tolist()))
