"""Tests for voxel counting and grid serialization."""

from __future__ import annotations

import csv
import math
import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from frustumkit.cropbox import SCALE_SPECS, ScaleSpec
from frustumkit.errors import GeometryError
from frustumkit import voxelizer
from frustumkit.geometry import Aabb3
from frustumkit.voxelizer import (
    VoxelGrid,
    voxelize,
    write_sparse_csv,
    write_voxel_grid,
)

SPEC = ScaleSpec(crop_side=2.0, crop_height=1.5, grid=(8, 8, 6))
CROP = Aabb3(center=(0.0, 0.0, 0.75), side=2.0, height=1.5)


class TestVoxelize:
    def test_count_conservation_against_per_point_oracle(self):
        rng = np.random.default_rng(31)
        cloud = rng.uniform([-2, -2, -1], [3, 3, 3], size=(5000, 3))
        grid = voxelize(cloud, CROP, SPEC)
        lo = CROP.min_corner
        hi = CROP.max_corner
        expected = 0
        for p in cloud:
            if lo[0] <= p[0] <= hi[0] and lo[1] <= p[1] <= hi[1] and lo[2] <= p[2] <= hi[2]:
                expected += 1
        assert grid.total_points == expected

    def test_single_point_lands_in_its_cell(self):
        spec = ScaleSpec(crop_side=2.0, crop_height=2.0, grid=(2, 2, 2))
        crop = Aabb3(center=(1.0, 1.0, 1.0), side=2.0, height=2.0)  # spans [0,2]^3
        grid = voxelize(np.array([[0.5, 1.5, 0.25]]), crop, spec)
        assert grid.data[0, 1, 0] == 1
        assert grid.total_points == 1

    def test_interior_face_goes_to_higher_cell(self):
        spec = ScaleSpec(crop_side=2.0, crop_height=2.0, grid=(2, 2, 2))
        crop = Aabb3(center=(1.0, 1.0, 1.0), side=2.0, height=2.0)
        grid = voxelize(np.array([[1.0, 0.5, 0.5]]), crop, spec)  # exactly on x face
        assert grid.data[1, 0, 0] == 1

    def test_crop_extremes(self):
        spec = ScaleSpec(crop_side=2.0, crop_height=2.0, grid=(2, 2, 2))
        crop = Aabb3(center=(1.0, 1.0, 1.0), side=2.0, height=2.0)
        grid = voxelize(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]), crop, spec)
        assert grid.data[0, 0, 0] == 1  # min corner in first cell
        assert grid.data[1, 1, 1] == 1  # max corner folds into last cell
        assert grid.total_points == 2

    def test_points_outside_are_ignored(self):
        cloud = np.array([[5.0, 0.0, 0.5], [0.0, 0.0, 9.0], [-3.0, 0.0, 0.5]])
        grid = voxelize(cloud, CROP, SPEC)
        assert grid.total_points == 0

    def test_translation_equivariance(self):
        rng = np.random.default_rng(7)
        cloud = rng.uniform([-1, -1, 0], [1, 1, 1.5], size=(800, 3))
        shift = np.array([4.0, -2.0, 8.0])  # dyadic, exact in floats
        moved_crop = Aabb3(center=CROP.center + shift, side=CROP.side, height=CROP.height)
        a = voxelize(cloud, CROP, SPEC)
        b = voxelize(cloud + shift, moved_crop, SPEC)
        np.testing.assert_array_equal(a.data, b.data)

    def test_crop_extent_must_match_spec(self):
        with pytest.raises(GeometryError):
            voxelize(np.zeros((1, 3)), Aabb3(center=(0, 0, 0), side=1.0, height=1.0), SPEC)

    def test_empty_cloud(self):
        grid = voxelize(np.zeros((0, 3)), CROP, SPEC)
        assert grid.total_points == 0
        assert grid.dims == SPEC.grid
        assert grid.data.dtype == np.int64


class TestSerialization:
    def _grid(self):
        rng = np.random.default_rng(23)
        cloud = rng.uniform([-1, -1, 0], [1, 1, 1.5], size=(3000, 3))
        return voxelize(cloud, CROP, SPEC)

    def test_binary_round_trip(self, tmp_path):
        grid = self._grid()
        path = tmp_path / "grid.vox"
        write_voxel_grid(grid, str(path))
        raw = path.read_bytes()
        header = struct.Struct("<8s3i3d3d")
        magic, nx, ny, nz, *cell_origin = header.unpack_from(raw, 0)
        assert magic == b"FVGRID01"
        assert (nx, ny, nz) == grid.dims
        assert tuple(cell_origin[:3]) == grid.cell
        assert cell_origin[3:] == grid.origin.tolist()
        data = np.frombuffer(raw[header.size :], dtype="<u4").reshape(grid.dims)
        np.testing.assert_array_equal(data, grid.data)

    def test_sparse_round_trip(self, tmp_path):
        grid = self._grid()
        path = str(tmp_path / "grid.csv")
        write_sparse_csv(grid, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["ix", "iy", "iz", "count"]
        back = np.zeros(grid.dims, dtype=np.int64)
        for ix, iy, iz, count in rows[1:]:
            back[int(ix), int(iy), int(iz)] = int(count)
        np.testing.assert_array_equal(back, grid.data)
        assert len(rows) - 1 == np.count_nonzero(grid.data)

    def test_counts_over_u32_rejected_on_write(self, tmp_path):
        grid = VoxelGrid(dims=(1, 1, 1), cell=(1.0, 1.0, 1.0), origin=np.zeros(3), cells=[0], counts=[2**33])
        with pytest.raises(GeometryError):
            write_voxel_grid(grid, str(tmp_path / "big.vox"))

    @pytest.mark.parametrize("dims", [(2**31, 1, 1), (1, 2**31, 1), (1, 1, 2**32)])
    def test_dims_over_i32_rejected_before_the_file_opens(self, tmp_path, dims):
        grid = VoxelGrid(dims, cell=(1.0, 1.0, 1.0), origin=np.zeros(3), cells=[0], counts=[1])
        path = tmp_path / "big.vox"
        with pytest.raises(GeometryError, match="^grid dims exceed the 32-bit storage limit$"):
            write_voxel_grid(grid, str(path))
        assert not path.exists()


def dense_reference(cloud: np.ndarray, crop: Aabb3, spec: ScaleSpec) -> np.ndarray:
    """The dense int64 grid by the bincount formula: the oracle for the sparse grid."""
    nx, ny, nz = spec.grid
    extent = np.array([crop.side, crop.side, crop.height])
    cell = np.array([extent[0] / nx, extent[1] / ny, extent[2] / nz])
    rel = cloud - crop.min_corner
    rel = rel[np.all((rel >= 0.0) & (rel <= extent), axis=1)]
    idx = np.minimum(np.floor(rel / cell).astype(np.int64), np.array([nx - 1, ny - 1, nz - 1]))
    flat = (idx[:, 0] * ny + idx[:, 1]) * nz + idx[:, 2]
    return np.bincount(flat, minlength=nx * ny * nz).reshape(nx, ny, nz)


def face_cloud(seed: int, crop: Aabb3, spec: ScaleSpec) -> np.ndarray:
    """Random points, points on interior cell faces and on the crop max face, and points outside."""
    rng = np.random.default_rng(seed)
    lo, hi = crop.min_corner, crop.max_corner
    dims = np.array(spec.grid)
    cell = (hi - lo) / dims
    inside = rng.uniform(lo, hi, size=(400, 3))
    faces = lo + rng.integers(1, dims, size=(300, 3)) * cell  # every coordinate on an interior face
    on_max = rng.uniform(lo, hi, size=(200, 3))
    axes = rng.integers(0, 3, size=200)
    on_max[np.arange(200), axes] = hi[axes]
    on_max[:20] = hi  # the max corner itself
    outside = rng.uniform(lo - 1.0, hi + 1.0, size=(300, 3))
    # repeat a few points so cells hold counts above 1
    cloud = np.concatenate([inside, faces, on_max, outside, faces[:50], inside[:50]])
    return cloud[rng.permutation(len(cloud))]


ORACLE_CASES = [
    (SPEC, CROP),
    (SCALE_SPECS["small_short"], Aabb3(center=(0.3, -1.1, 0.75), side=1.6, height=1.5)),
    (SCALE_SPECS["medium_tall"], Aabb3(center=(2.0, 0.7, 1.5), side=2.8, height=3.0)),
]


class TestSparseGridAgainstDenseReference:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("spec, crop", ORACLE_CASES, ids=["unit2", "small_short", "medium_tall"])
    def test_data_equals_reference(self, seed, spec, crop):
        cloud = face_cloud(seed, crop, spec)
        ref = dense_reference(cloud, crop, spec)
        grid = voxelize(cloud, crop, spec)
        assert grid.data.dtype == np.int64
        np.testing.assert_array_equal(grid.data, ref)
        np.testing.assert_array_equal(grid.cells, np.flatnonzero(ref))
        assert grid.total_points == int(ref.sum())
        assert ref.max() > 1  # the repeated points share cells

    @pytest.mark.parametrize("spec, crop", ORACLE_CASES, ids=["unit2", "small_short", "medium_tall"])
    def test_grid_file_equals_dense_bytes(self, tmp_path, spec, crop):
        cloud = face_cloud(3, crop, spec)
        ref = dense_reference(cloud, crop, spec)
        grid = voxelize(cloud, crop, spec)
        path = tmp_path / "grid.vox"
        write_voxel_grid(grid, str(path))
        header = struct.pack("<8s3i3d3d", b"FVGRID01", *spec.grid, *grid.cell, *crop.min_corner.tolist())
        assert path.read_bytes() == header + ref.astype("<u4").tobytes()

    @pytest.mark.parametrize("spec, crop", ORACLE_CASES, ids=["unit2", "small_short", "medium_tall"])
    def test_sparse_rows_equal_argwhere_rows(self, tmp_path, spec, crop):
        cloud = face_cloud(4, crop, spec)
        ref = dense_reference(cloud, crop, spec)
        path = tmp_path / "grid.csv"
        write_sparse_csv(voxelize(cloud, crop, spec), str(path))
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        expected = [[str(int(v)) for v in (*ix, ref[tuple(ix)])] for ix in np.argwhere(ref)]
        assert rows == [["ix", "iy", "iz", "count"], *expected]

    def test_cells_and_data_are_read_only(self):
        grid = voxelize(face_cloud(6, CROP, SPEC), CROP, SPEC)
        for arr in (grid.cells, grid.counts, grid.data):
            with pytest.raises(ValueError):
                arr[0] = 7

    @pytest.mark.parametrize(
        "cells, counts",
        [
            ([5, 3], [1, 1]),
            ([3, 3], [1, 1]),
            ([-1, 3], [1, 1]),
            ([3, 8 * 8 * 6], [1, 1]),
            ([3, 5], [1, 0]),
            ([3, 5], [1, -2]),
            ([3, 5], [1]),
            ([3.0, 5.0], [1, 1]),
        ],
        ids=["unsorted", "duplicated", "negative", "past-end", "zero-count", "negative-count", "length", "float"],
    )
    def test_bad_cells_rejected(self, cells, counts):
        with pytest.raises(GeometryError):
            VoxelGrid(SPEC.grid, SPEC.cell_size, np.zeros(3), np.array(cells), np.array(counts))

    @pytest.mark.parametrize("dims", [(0, 8, 6), (8, -1, 6), (8, 8, 0)])
    def test_non_positive_dims_rejected(self, dims):
        with pytest.raises(GeometryError, match="grid dims must be positive"):
            VoxelGrid(dims, SPEC.cell_size, np.zeros(3), [], [])

    @pytest.mark.parametrize(
        "cell",
        [(0.0, 0.25, 0.25), (0.25, -0.25, 0.25), (0.25, 0.25, -0.0), (math.nan, 0.25, 0.25), (0.25, math.inf, 0.25)],
    )
    def test_non_positive_cell_sizes_rejected(self, cell):
        with pytest.raises(GeometryError, match="cell sizes must be positive"):
            VoxelGrid(SPEC.grid, cell, np.zeros(3), [], [])

    def test_no_dense_int64_grid_is_allocated(self, tmp_path):
        """voxelize and both writers on a 198x198x102 grid stay far below its 32 MB int64 form."""
        spec = SCALE_SPECS["small_short"]
        crop = Aabb3(center=(0.3, -1.1, 0.75), side=1.6, height=1.5)
        cloud = face_cloud(7, crop, spec)
        int64_grid_bytes = 8 * int(np.prod(spec.grid))  # 32.0 MB
        u32_file_bytes = 4 * int(np.prod(spec.grid))  # 16.0 MB, the dense FVGRID01 body
        tracemalloc.start()
        try:
            grid = voxelize(cloud, crop, spec)
            write_voxel_grid(grid, str(tmp_path / "grid.vox"))
            write_sparse_csv(grid, str(tmp_path / "grid.csv"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the paged body peaked at 4.2 MiB here; the dense body took 16 MB
        assert peak < 8 * 2**20 < u32_file_bytes < int64_grid_bytes


def dense_file_bytes(grid: VoxelGrid) -> bytes:
    """The FVGRID01 bytes from a zeroed dense body: the oracle for the paged writer."""
    body = np.zeros(math.prod(grid.dims), dtype="<u4")
    body[grid.cells] = grid.counts
    header = struct.pack("<8s3i3d3d", b"FVGRID01", *grid.dims, *grid.cell, *grid.origin.tolist())
    return header + body.tobytes()


def _grid(dims, cells) -> VoxelGrid:
    cells = np.asarray(cells, dtype=np.int64)
    return VoxelGrid(dims, (0.5, 0.25, 0.125), np.array([1.0, -2.0, 0.5]), cells, cells % 7 + 1)


FACE_SPEC = SCALE_SPECS["small_short"]  # 198x198x102: the last file page is partly filled
FACE_CROP = Aabb3(center=(0.3, -1.1, 0.75), side=1.6, height=1.5)
N_FACE = math.prod(FACE_SPEC.grid)

EDGE_GRIDS = {
    "no-cell": lambda: _grid((8, 8, 32), []),
    "first-cell": lambda: _grid((8, 8, 32), [0]),
    "last-cell-full-page": lambda: _grid((8, 8, 32), [8 * 8 * 32 - 1]),
    "last-cell-part-page": lambda: _grid(FACE_SPEC.grid, [N_FACE - 1]),
    "page-boundary": lambda: _grid((8, 8, 32), [1023, 1024]),  # 1024-cell boundary, inside file page 1
    "file-page-boundary": lambda: _grid((8, 8, 32), [1006, 1007]),  # bytes 4092 and 4096: pages 0 and 1
    "last-cell-full-file-page": lambda: _grid((3, 677, 1), [2030]),  # the file is two pages exactly
    "every-cell": lambda: _grid((4, 4, 6), np.arange(96)),
    "face-grid": lambda: voxelize(face_cloud(7, FACE_CROP, FACE_SPEC), FACE_CROP, FACE_SPEC),
}


class TestPagedBody:
    """The writer builds only the file pages with the header or an occupied cell; the bytes equal the dense body's."""

    @pytest.mark.parametrize("make", EDGE_GRIDS.values(), ids=EDGE_GRIDS.keys())
    def test_regular_file_equals_dense_bytes(self, tmp_path, make):
        grid = make()
        path = tmp_path / "grid.vox"
        write_voxel_grid(grid, str(path))
        assert os.path.getsize(path) == 68 + 4 * math.prod(grid.dims)
        assert path.read_bytes() == dense_file_bytes(grid)

    @pytest.mark.parametrize("make", EDGE_GRIDS.values(), ids=EDGE_GRIDS.keys())
    def test_fifo_receives_dense_bytes(self, tmp_path, make):
        grid = make()
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            write_voxel_grid(grid, str(fifo))
            reader.join(timeout=30)
            assert not reader.is_alive()
        finally:
            if reader.is_alive():  # release a reader still waiting for a writer
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        assert received == [dense_file_bytes(grid)]

    def test_dev_null_is_written(self):
        """/dev/null is seekable but cannot be truncated, so its gaps are written."""
        write_voxel_grid(EDGE_GRIDS["face-grid"](), "/dev/null")

    @pytest.mark.parametrize("route", ["replaced", "hard-linked", "symlinked"])
    def test_no_stale_bytes_under_the_gaps(self, tmp_path, route):
        """Writing over a larger file of 0xFF bytes leaves every gap zero, however the path reaches it."""
        grid = _grid((8, 8, 160), [5, 3000, 7000])  # file pages 0, 2 and 6 of 11: gaps between and after
        target = tmp_path / "old.vox"
        target.write_bytes(b"\xff" * (3 * (68 + 4 * 8 * 8 * 160)))
        path = target
        if route == "hard-linked":
            path = tmp_path / "other.vox"
            os.link(target, path)
        elif route == "symlinked":
            path = tmp_path / "link.vox"
            path.symlink_to(target)
        write_voxel_grid(grid, str(path))
        assert path.read_bytes() == dense_file_bytes(grid)

    @pytest.mark.parametrize("make", EDGE_GRIDS.values(), ids=EDGE_GRIDS.keys())
    def test_each_file_page_is_written_once_in_one_call_per_run(self, tmp_path, monkeypatch, make):
        grid = make()
        calls = []
        real_pwrite = os.pwrite

        def spy(fd, data, offset):
            n = real_pwrite(fd, data, offset)
            calls.append((offset, n))
            return n

        monkeypatch.setattr(voxelizer.os, "pwrite", spy)
        write_voxel_grid(grid, str(tmp_path / "grid.vox"))
        expected = sorted({0, *((68 + 4 * grid.cells) // 4096).tolist()})
        written = [p for offset, n in calls for p in range(offset // 4096, -(-(offset + n) // 4096))]
        assert all(offset % 4096 == 0 for offset, _ in calls)
        assert sorted(written) == expected
        n_runs = 1 + sum(b != a + 1 for a, b in zip(expected, expected[1:]))
        assert len(calls) == n_runs

    @pytest.mark.parametrize("make", EDGE_GRIDS.values(), ids=EDGE_GRIDS.keys())
    def test_short_pwrites_leave_no_hole(self, tmp_path, monkeypatch, make):
        """os.pwrite may write fewer bytes than asked; the writer carries on where it stopped."""
        grid = make()
        asked = []
        real_pwrite = os.pwrite

        def at_most_1000_bytes(fd, data, offset):
            asked.append(len(data))
            return real_pwrite(fd, memoryview(data)[:1000], offset)

        monkeypatch.setattr(voxelizer.os, "pwrite", at_most_1000_bytes)
        path = tmp_path / "grid.vox"
        write_voxel_grid(grid, str(path))
        assert path.read_bytes() == dense_file_bytes(grid)
        assert asked and (max(asked) > 1000) == (os.path.getsize(path) > 1000)

    def test_without_pwrite_the_gaps_are_written(self, tmp_path, monkeypatch):
        """A platform without os.pwrite gets the stream branch, zeros included."""
        monkeypatch.delattr(voxelizer.os, "pwrite")
        grid = EDGE_GRIDS["face-grid"]()
        path = tmp_path / "grid.vox"
        write_voxel_grid(grid, str(path))
        assert path.read_bytes() == dense_file_bytes(grid)
