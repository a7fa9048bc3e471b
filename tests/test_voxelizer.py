"""Tests for voxel counting and grid serialization."""

from __future__ import annotations

import csv
import struct
import tracemalloc

import numpy as np
import pytest

from frustumkit.cropbox import SCALE_SPECS, ScaleSpec
from frustumkit.errors import GeometryError
from frustumkit.geometry import Aabb3
from frustumkit.voxelizer import (
    VoxelGrid,
    voxelize,
    write_sparse_csv,
    write_voxel_grid,
)

SPEC = ScaleSpec("unit2", crop_side=2.0, crop_height=1.5, grid=(8, 8, 6))
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
        spec = ScaleSpec("d", crop_side=2.0, crop_height=2.0, grid=(2, 2, 2))
        crop = Aabb3(center=(1.0, 1.0, 1.0), side=2.0, height=2.0)  # spans [0,2]^3
        grid = voxelize(np.array([[0.5, 1.5, 0.25]]), crop, spec)
        assert grid.data[0, 1, 0] == 1
        assert grid.total_points == 1

    def test_interior_face_goes_to_higher_cell(self):
        spec = ScaleSpec("d", crop_side=2.0, crop_height=2.0, grid=(2, 2, 2))
        crop = Aabb3(center=(1.0, 1.0, 1.0), side=2.0, height=2.0)
        grid = voxelize(np.array([[1.0, 0.5, 0.5]]), crop, spec)  # exactly on x face
        assert grid.data[1, 0, 0] == 1

    def test_crop_extremes(self):
        spec = ScaleSpec("d", crop_side=2.0, crop_height=2.0, grid=(2, 2, 2))
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
        data = np.zeros((1, 1, 1), dtype=np.int64)
        data[0, 0, 0] = 2**33
        grid = VoxelGrid(dims=(1, 1, 1), cell=(1.0, 1.0, 1.0), origin=np.zeros(3), data=data)
        with pytest.raises(GeometryError):
            write_voxel_grid(grid, str(tmp_path / "big.vox"))

    def test_grid_validation(self):
        with pytest.raises(GeometryError):
            VoxelGrid(dims=(2, 2, 2), cell=(1, 1, 1), origin=np.zeros(3), data=np.zeros((2, 2, 1), dtype=np.int64))
        with pytest.raises(GeometryError):
            VoxelGrid(dims=(1, 1, 1), cell=(1, 1, 1), origin=np.zeros(3), data=np.zeros((1, 1, 1)))


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

    def test_dense_constructor_keeps_the_nonzero_cells(self):
        ref = dense_reference(face_cloud(5, CROP, SPEC), CROP, SPEC)
        grid = VoxelGrid(dims=SPEC.grid, cell=SPEC.cell_size, origin=CROP.min_corner, data=ref)
        np.testing.assert_array_equal(grid.cells, np.flatnonzero(ref))
        np.testing.assert_array_equal(grid.counts, ref[ref > 0])
        np.testing.assert_array_equal(grid.data, ref)

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
            VoxelGrid._from_cells(SPEC.grid, SPEC.cell_size, np.zeros(3), np.array(cells), np.array(counts))

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
        assert peak < u32_file_bytes + 2**20 < int64_grid_bytes
