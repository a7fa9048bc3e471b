"""Tests for camera / frustum / clipping primitives.

Derived expectations are computed by independent oracles inside the tests
(per-point projection loops, Monte Carlo areas) rather than asserted from
constants, so the implementation and the check never share code paths.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustumkit import geometry
from frustumkit.cropbox import candidate_centers
from frustumkit.errors import GeometryError, NoCandidatesError
from frustumkit.geometry import (
    BOUNDARY_TOL,
    FAR_DEFAULT,
    NEAR_DEFAULT,
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    clip_polygon_to_aabb,
    normalize_yaw,
    oriented_box_footprint,
    polygon_area,
    project_cloud,
    pixel_centers,
    project_points,
    read_cloud_binary,
    tile_points,
    unproject_depth_image,
    unproject_grid,
    write_cloud_binary,
)
from frustumkit.ioi import crop_scores

K = CameraIntrinsics(fx=520.0, fy=515.0, cx=320.0, cy=240.0, width=640, height=480)


def edges(lo: float, hi: float, n: int) -> list[float]:
    """The n + 1 endpoint-exact band edges that tile_points splits [lo, hi] into."""
    return [lo * (1.0 - j / n) + hi * (j / n) for j in range(n + 1)]


def tile_masks(cloud, rect, fr, fc, pose) -> list[np.ndarray]:
    """Per-tile boolean masks over the cloud, built from tile_points' (tile, point) pairs."""
    tiles, points = tile_points(project_cloud(cloud, K, pose), rect, fr, fc)
    masks = np.zeros((fr * fc, len(cloud)), dtype=bool)
    masks[tiles, points] = True
    return list(masks)


def make_pose(yaw: float = 0.3, position=(0.2, -0.1, 1.1)) -> RigidTransform:
    """A camera at `position` looking along the horizontal direction `yaw`."""
    c, s = math.cos(yaw), math.sin(yaw)
    z_cam = np.array([c, s, 0.0])
    y_cam = np.array([0.0, 0.0, -1.0])
    x_cam = np.cross(y_cam, z_cam)
    rot = np.column_stack([x_cam, y_cam, z_cam])
    return RigidTransform(rot, np.asarray(position, dtype=float))


class TestUnproject:
    def test_round_trip_against_forward_pinhole(self):
        rng = np.random.default_rng(7)
        u = rng.uniform(0, K.width, 200)
        v = rng.uniform(0, K.height, 200)
        depth = rng.uniform(0.05, 9.5, 200)
        p = unproject_grid(u, v, depth, K)
        assert p.shape == (200, 3)
        # independent forward model
        u2 = K.fx * p[:, 0] / p[:, 2] + K.cx
        v2 = K.fy * p[:, 1] / p[:, 2] + K.cy
        np.testing.assert_allclose(np.stack([u2, v2, p[:, 2]]), np.stack([u, v, depth]), rtol=0, atol=1e-9)

    def test_principal_point_maps_to_optical_axis(self):
        p = unproject_grid(K.cx, K.cy, 2.5, K)
        np.testing.assert_allclose(p, [0.0, 0.0, 2.5], atol=0)


    def test_depth_image_points_lie_on_the_pixel_center_rays(self):
        us, vs = pixel_centers(4, 3)
        assert us.tolist() == [0.5, 1.5, 2.5, 3.5] and vs.tolist() == [[0.5], [1.5], [2.5]]
        depth = np.arange(1.0, 13.0).reshape(3, 4)
        assert np.array_equal(unproject_depth_image(depth, K), unproject_grid(us, vs, depth, K))


class TestProject:
    def test_point_at_subnormal_depth_projects_outside_without_warning(self):
        # fx * x / 1e-310 overflows: the pixel coordinate is inf, which containment tests treat as outside
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, v, z = project_points(np.array([[0.5, 0.0, 1e-310]]), K)
        assert u.tolist() == [math.inf] and v.tolist() == [K.cy] and z.tolist() == [1e-310]


class TestNonFiniteConstructorValues:
    @pytest.mark.parametrize("field", ["width", "depth", "height", "yaw"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_box_rejects_non_finite_dimension_or_yaw(self, field, value):
        fields = {"width": 1.0, "depth": 1.0, "height": 1.0, "yaw": 0.0, field: value}
        with pytest.raises(GeometryError):
            OrientedBox3(center=(0.0, 0.0, 0.5), **fields)

    @pytest.mark.parametrize("field", ["fx", "fy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_intrinsics_reject_non_finite_focal_length(self, field, value):
        fields = {"fx": 520.0, "fy": 515.0, "cx": 320.0, "cy": 240.0, "width": 640, "height": 480, field: value}
        with pytest.raises(GeometryError):
            CameraIntrinsics(**fields)


class TestRect2:
    def test_degenerate_rect_is_an_error(self):
        with pytest.raises(GeometryError):
            Rect2(5.0, 0.0, 5.0, 9.0)
        with pytest.raises(GeometryError):
            Rect2(0.0, 9.0, 5.0, 9.0)


class TestRigidTransform:
    def test_inverse_round_trip(self):
        pose = make_pose(0.9, (1.0, 2.0, 0.5))
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(50, 3))
        back = pose.inverse().apply(pose.apply(pts))
        np.testing.assert_allclose(back, pts, atol=1e-12)

    @pytest.mark.parametrize(
        "pose", [make_pose(0.9, (1.0, -2.0, 0.5)), RigidTransform.identity()], ids=["pose", "identity"]
    )
    @pytest.mark.parametrize(
        "points",
        [
            np.array([0.3, -1.2, 4.5]),
            np.zeros((0, 3)),
            np.array([[0.3, -1.2, 4.5]]),
            np.random.default_rng(5).normal(scale=3.0, size=(2113, 3)),
            np.random.default_rng(6).normal(size=(40, 3))[::3],
            np.random.default_rng(7).normal(size=(9, 3)).astype(np.float32),
            [[0.1, 0.2, 0.3], [-4.0, 5.0, 6.5]],
        ],
        ids=["point", "empty", "one-row", "2113-rows", "row-slice", "float32", "list"],
    )
    def test_apply_is_exact(self, pose, points):
        """apply gives the bits of the plain expression p @ R.T + t."""
        got = pose.apply(points)
        assert np.array_equal(got, np.asarray(points, dtype=np.float64) @ pose.rotation.T + pose.translation)
        assert got.dtype == np.float64

    def test_rejects_non_orthonormal(self):
        with pytest.raises(GeometryError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_translation(self, value):
        with pytest.raises(GeometryError, match="must be finite"):
            RigidTransform(np.eye(3), [value, 0.0, 0.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_rejects_non_finite_rotation(self, value):
        rotation = np.eye(3)
        rotation[1, 2] = value
        with pytest.raises(GeometryError, match="must be finite"):
            RigidTransform(rotation, np.zeros(3))

    def test_huge_rotation_entry_rejected_as_non_orthonormal(self):
        rotation = np.eye(3)
        rotation[0, 1] = 1e200  # its square would overflow in R @ R.T
        with warnings.catch_warnings(), pytest.raises(GeometryError, match="orthonormal"):
            warnings.simplefilter("error")
            RigidTransform(rotation, np.zeros(3))


class TestFrustumMembership:
    def test_matches_per_point_oracle(self):
        """Vectorized per-tile membership agrees with a scalar per-point loop."""
        pose = make_pose()
        rect = Rect2(120.0, 90.0, 420.0, 360.0)
        rng = np.random.default_rng(11)
        cloud = rng.uniform(low=[-4, -4, -1], high=[6, 6, 3], size=(2000, 3))
        masks = tile_masks(cloud, rect, 3, 3, pose)
        assert len(masks) == 9

        inv = pose.inverse()
        u_edges = edges(rect.u_min, rect.u_max, 3)
        v_edges = edges(rect.v_min, rect.v_max, 3)
        tiles = [(u_edges[j], v_edges[i], u_edges[j + 1], v_edges[i + 1]) for i in range(3) for j in range(3)]
        for (u_min, v_min, u_max, v_max), mask in zip(tiles, masks):
            expected = []
            for i, p in enumerate(cloud):
                q = inv.apply(p)
                z = q[2]
                if not (NEAR_DEFAULT - 1e-9 < z < FAR_DEFAULT + 1e-9):
                    continue
                u = K.fx * q[0] / z + K.cx
                v = K.fy * q[1] / z + K.cy
                if u_min - 1e-9 <= u < u_max + 1e-9 and v_min - 1e-9 <= v < v_max + 1e-9:
                    expected.append(i)
            assert np.nonzero(mask)[0].tolist() == expected

    def test_corner_ray_point_is_inside(self):
        """A point built on the ray through a rect corner classifies inside."""
        pose = make_pose()
        rect = Rect2(100.0, 80.0, 300.0, 260.0)
        for corner in [(rect.u_min, rect.v_min), (rect.u_max, rect.v_max), (rect.u_min, rect.v_max)]:
            p_cam = unproject_grid(corner[0], corner[1], 3.0, K)
            p_world = pose.apply(p_cam)
            assert tile_masks(p_world.reshape(1, 3), rect, 1, 1, pose)[0].tolist() == [True]

    def test_point_within_tolerance_of_shared_edge_counts_in_both_tiles(self):
        pose = make_pose()
        rect = Rect2(100.0, 80.0, 300.0, 260.0)
        edge = 200.0  # the column edge of a 1x2 split
        offsets = [0.0, 0.5 * BOUNDARY_TOL, -0.5 * BOUNDARY_TOL, 3 * BOUNDARY_TOL, -3 * BOUNDARY_TOL]
        cloud = pose.apply(unproject_grid(edge + np.array(offsets), 170.0, np.full(len(offsets), 3.0), K))
        in_left, in_right = tile_masks(cloud, rect, 1, 2, pose)
        assert in_left.tolist() == [True, True, True, False, True]
        assert in_right.tolist() == [True, True, True, True, False]

    def test_membership_is_permutation_equivariant(self):
        pose = make_pose()
        rect = Rect2(200.0, 150.0, 440.0, 330.0)
        rng = np.random.default_rng(5)
        cloud = rng.uniform(low=[-2, -2, 0], high=[5, 5, 2], size=(500, 3))
        perm = rng.permutation(500)
        base = set(np.nonzero(tile_masks(cloud, rect, 1, 1, pose)[0])[0].tolist())
        shuffled = np.nonzero(tile_masks(cloud[perm], rect, 1, 1, pose)[0])[0]
        assert {perm[i] for i in shuffled} == base

    def test_depth_limits_respected(self):
        """Depth must lie within (NEAR_DEFAULT, FAR_DEFAULT), both limits widened by BOUNDARY_TOL."""
        rect = Rect2(0.0, 0.0, float(K.width), float(K.height))
        depths = [NEAR_DEFAULT - 2e-9, NEAR_DEFAULT - 5e-10, 1.5, FAR_DEFAULT + 5e-10, FAR_DEFAULT + 2e-9]
        cloud = np.array([[0.0, 0.0, z] for z in depths])
        projection = project_cloud(cloud, K, RigidTransform.identity())
        assert projection.index.tolist() == [1, 2, 3]
        mask = tile_masks(cloud, rect, 1, 1, RigidTransform.identity())[0]
        assert mask.tolist() == [False, True, True, True, False]


class TestTileBands:
    """Tile layout of tile_points: row-major bands that share their edges."""

    @given(
        u0=st.floats(-500, 500),
        v0=st.floats(-500, 500),
        w=st.floats(1.0, 400.0),
        h=st.floats(1.0, 400.0),
        fr=st.integers(1, 6),
        fc=st.integers(1, 6),
    )
    @settings(max_examples=150, deadline=None)
    def test_edge_points_land_on_both_sides(self, u0, v0, w, h, fr, fc):
        """Points on every outer and shared edge, and at band midpoints, land in exactly the adjacent tiles."""
        rect = Rect2(u0, v0, u0 + w, v0 + h)
        u_edges, v_edges = edges(rect.u_min, rect.u_max, fc), edges(rect.v_min, rect.v_max, fr)
        # (pixel coordinate, bands it belongs to): every edge, then every band midpoint
        us = [(e, {j - 1, j} & set(range(fc))) for j, e in enumerate(u_edges)]
        us += [(0.5 * (u_edges[j] + u_edges[j + 1]), {j}) for j in range(fc)]
        vs = [(e, {i - 1, i} & set(range(fr))) for i, e in enumerate(v_edges)]
        vs += [(0.5 * (v_edges[i] + v_edges[i + 1]), {i}) for i in range(fr)]
        pixels = np.array([(u, v) for u, _ in us for v, _ in vs])
        cloud = unproject_grid(pixels[:, 0], pixels[:, 1], np.full(len(pixels), 3.0), K)
        masks = tile_masks(cloud, rect, fr, fc, RigidTransform.identity())
        assert len(masks) == fr * fc
        inside = np.stack(masks, axis=1)
        for p, ((_, cols), (_, rows)) in enumerate((cu, rv) for cu in us for rv in vs):
            assert set(np.nonzero(inside[p])[0].tolist()) == {i * fc + j for i in rows for j in cols}

    def test_row_major_order(self):
        rect = Rect2(0.0, 0.0, 30.0, 20.0)
        # one point at the center of each tile of a 2x3 split, listed row by row
        us, vs = np.meshgrid([5.0, 15.0, 25.0], [5.0, 15.0])
        cloud = unproject_grid(us.ravel(), vs.ravel(), np.full(6, 2.0), K)
        masks = tile_masks(cloud, rect, 2, 3, RigidTransform.identity())
        assert [np.nonzero(m)[0].tolist() for m in masks] == [[0], [1], [2], [3], [4], [5]]

    @pytest.mark.parametrize("fr, fc", [(3, 3), (1, 1)])
    def test_pairs_are_point_major(self, fr, fc):
        """Pairs come by ascending point, then ascending tile; edge points bring several tiles."""
        rect = Rect2(0.0, 0.0, 30.0, 30.0)
        rng = np.random.default_rng(4)
        # random pixels plus pixels on the shared edges and the shared corners of a 3x3 split
        pixels = list(rng.uniform(-2.0, 32.0, size=(200, 2))) + [(10.0, 5.0), (20.0, 20.0), (5.0, 10.0)]
        us, vs = np.array(pixels).T
        cloud = unproject_grid(us, vs, np.full(len(pixels), 2.0), K)[rng.permutation(len(pixels))]
        tiles, points = tile_points(project_cloud(cloud, K, RigidTransform.identity()), rect, fr, fc)
        pairs = list(zip(points.tolist(), tiles.tolist()))
        assert pairs == sorted(set(pairs))
        assert np.issubdtype(tiles.dtype, np.integer)
        if (fr, fc) == (1, 1):
            assert points.size > 0 and np.all(tiles == 0)
        else:
            assert max(np.bincount(points)) == 4  # a shared corner is in four tiles

    @pytest.mark.parametrize("fr, fc, calls", [(1, 1, 0), (3, 3, 2)])
    def test_band_lookup_only_for_a_split(self, monkeypatch, fr, fc, calls):
        """A 1x1 split puts every inside point in tile 0 without looking up its bands."""
        counted = []
        band_runs = geometry._band_runs

        def counting(*args):
            counted.append(args)
            return band_runs(*args)

        monkeypatch.setattr(geometry, "_band_runs", counting)
        # two pixels inside the rect, one right of it
        cloud = unproject_grid(np.array([5.0, 15.0, 40.0]), np.array([5.0, 25.0, 5.0]), np.full(3, 2.0), K)
        projection = project_cloud(cloud, K, RigidTransform.identity())
        _, points = tile_points(projection, Rect2(0.0, 0.0, 30.0, 30.0), fr, fc)
        assert len(counted) == calls
        assert points.tolist() == [0, 1]

    @pytest.mark.parametrize("fr, fc", [(0, 3), (3, 0)])
    def test_counts_must_be_positive(self, fr, fc):
        with pytest.raises(GeometryError):
            tile_points(project_cloud(np.zeros((1, 3)), K, RigidTransform.identity()), Rect2(0, 0, 10, 10), fr, fc)

    def test_side_too_narrow_to_order_its_edges_rejected(self):
        """A side a few ulps wide rounds its band edges out of order; that is an error, not a wrong split."""
        lo, hi = 197.038194886327, 197.03819488632706
        assert sorted(edges(lo, hi, 5)) != edges(lo, hi, 5)
        projection = project_cloud(np.zeros((1, 3)), K, RigidTransform.identity())
        with pytest.raises(GeometryError, match="too narrow"):
            tile_points(projection, Rect2(lo, 0.0, hi, 10.0), 1, 5)
        tile_points(projection, Rect2(lo, 0.0, hi, 10.0), 1, 1)  # one band is fine


class TestFrustumCenter:
    """The 1x1 candidate center: the statistic of one whole-image frustum."""

    POSE = make_pose(0.0, (0, 0, 1.0))

    def _center(self, cloud, mode):
        rect = Rect2(0.0, 0.0, float(K.width), float(K.height))
        (center,) = candidate_centers(cloud, rect, K, pose=self.POSE, mode=mode)
        return center

    def test_average_of_known_points(self):
        pts_cam = np.array([[0.1, 0.0, 2.0], [-0.1, 0.1, 3.0], [0.0, -0.1, 4.0]])
        cloud = self.POSE.apply(pts_cam)
        c = self._center(cloud, "average")
        np.testing.assert_allclose(c, cloud.mean(axis=0), atol=1e-12)

    def test_median_even_count_takes_lower_middle(self):
        zs = [1.0, 2.0, 3.0, 4.0]
        cloud = self.POSE.apply(np.array([[0.0, 0.0, z] for z in zs]))
        c = self._center(cloud, "median")
        # per coordinate the lower of the two middle values
        expected = np.sort(cloud, axis=0)[1]
        np.testing.assert_allclose(c, expected, atol=0)

    def test_median_is_permutation_invariant(self):
        rng = np.random.default_rng(23)
        cloud = self.POSE.apply(rng.uniform([-0.5, -0.5, 0.5], [0.5, 0.5, 6.0], size=(101, 3)))
        c1 = self._center(cloud, "median")
        c2 = self._center(cloud[rng.permutation(101)], "median")
        np.testing.assert_allclose(c1, c2, atol=0)

    def test_empty_frustum_raises(self):
        cloud = np.array([[0.0, 0.0, 50.0]])  # far behind the far plane
        with pytest.raises(NoCandidatesError):
            self._center(cloud, "average")

    def test_unknown_mode_rejected(self):
        with pytest.raises(GeometryError):
            self._center(np.zeros((1, 3)), "centroid")


class TestClipping:
    def test_fully_inside_box_keeps_exact_area(self):
        box = OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=0.0)
        poly = clip_polygon_to_aabb(oriented_box_footprint(box), -1.5, -1.5, 1.5, 1.5)
        assert polygon_area(poly) == 1.0
        assert len(poly) == 4

    def test_disjoint_footprints_clip_to_nothing(self):
        box = OrientedBox3(center=(10.0, 10.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=0.4)
        assert clip_polygon_to_aabb(oriented_box_footprint(box), -1.0, -1.0, 1.0, 1.0) == []

    def test_area_matches_monte_carlo_oracle(self):
        """Clipped area (scored footprint IoI times box area) agrees with rejection sampling."""
        rng = np.random.default_rng(99)
        for trial in range(25):
            box = OrientedBox3(
                center=rng.uniform([-1, -1, 0], [1, 1, 1]),
                width=rng.uniform(0.3, 2.0),
                depth=rng.uniform(0.3, 2.0),
                height=1.0,
                yaw=rng.uniform(-np.pi, np.pi),
            )
            center = rng.uniform([-1, -1, 0], [1, 1, 1])
            side = rng.uniform(0.5, 3.0)
            xy, _ = crop_scores([box], [[center]], [side], [1.0])
            area = xy[0, 0] * box.width * box.depth

            n = 200_000
            x_min, y_min = center[0] - side / 2, center[1] - side / 2
            x_max, y_max = center[0] + side / 2, center[1] + side / 2
            xs = rng.uniform(x_min, x_max, n)
            ys = rng.uniform(y_min, y_max, n)
            # membership in the rotated box footprint, done in box-local coords
            c, s = np.cos(box.yaw), np.sin(box.yaw)
            dx, dy = xs - box.center[0], ys - box.center[1]
            lx = c * dx + s * dy
            ly = -s * dx + c * dy
            inside = (np.abs(lx) <= box.width / 2) & (np.abs(ly) <= box.depth / 2)
            p = inside.mean()
            crop_area = (x_max - x_min) * (y_max - y_min)
            est = crop_area * p
            sigma = crop_area * math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(est - area) <= 4.0 * sigma + 1e-9, f"trial {trial}"

    def test_growing_crop_never_shrinks_clipped_area(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            box = OrientedBox3(
                center=rng.uniform([-1, -1, 0], [1, 1, 1]),
                width=rng.uniform(0.2, 1.5),
                depth=rng.uniform(0.2, 1.5),
                height=1.0,
                yaw=rng.uniform(-np.pi, np.pi),
            )
            center = rng.uniform([-1, -1, 0], [1, 1, 1])
            xy, _ = crop_scores([box], [[center]], [0.5, 1.0, 2.0, 4.0, 8.0], [1.0])
            areas = xy[0] * box.width * box.depth
            assert all(a2 >= a1 - 1e-12 for a1, a2 in zip(areas, areas[1:]))

    def test_polygon_area_shoelace(self):
        assert polygon_area([(0, 0), (2, 0), (2, 1), (0, 1)]) == 2.0
        assert polygon_area([(0, 0), (1, 0)]) == 0.0

    def test_clip_to_aabb_half_overlap_exact(self):
        poly = clip_polygon_to_aabb([(0.5, -1.0), (2.5, -1.0), (2.5, 1.0), (0.5, 1.0)], -1.5, -1.5, 1.5, 1.5)
        assert polygon_area(poly) == 2.0

    def test_footprint_corners_are_ccw(self):
        box = OrientedBox3(center=(0, 0, 0.5), width=2.0, depth=1.0, height=1.0, yaw=0.7)
        quad = oriented_box_footprint(box)
        signed = 0.0
        for i in range(4):
            x1, y1 = quad[i]
            x2, y2 = quad[(i + 1) % 4]
            signed += x1 * y2 - x2 * y1
        assert signed > 0
        assert polygon_area(quad) == pytest.approx(2.0, rel=1e-12)


class TestYawNormalization:
    @given(st.floats(-50.0, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_wraps_into_canonical_interval(self, yaw):
        w = normalize_yaw(yaw)
        assert -math.pi <= w < math.pi
        # same heading up to 2*pi
        assert math.isclose(math.cos(w), math.cos(yaw), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(yaw), abs_tol=1e-9)


class TestCloudIO:
    def test_binary_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        cloud = rng.uniform(-5, 5, size=(137, 3))
        path = str(tmp_path / "pts.cloud")
        write_cloud_binary(cloud, path)
        back = read_cloud_binary(path)
        # storage is float32, so compare at that precision
        np.testing.assert_allclose(back, cloud.astype(np.float32), rtol=0, atol=0)

    def test_binary_rejects_truncated_payload(self, tmp_path):
        path = str(tmp_path / "bad.cloud")
        write_cloud_binary(np.zeros((4, 3)), path)
        with open(path, "r+b") as fh:
            fh.truncate(8 + 3 * 4 * 3 + 2)
        with pytest.raises(GeometryError):
            read_cloud_binary(path)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_binary_rejects_non_finite_point(self, tmp_path, value):
        path = tmp_path / "bad.cloud"
        write_cloud_binary(np.zeros((4, 3)), path)
        raw = bytearray(path.read_bytes())
        raw[8 + 12 + 4 : 8 + 12 + 8] = np.array(value, "<f4").tobytes()  # point 1, y
        path.write_bytes(raw)
        with pytest.raises(GeometryError) as exc:
            read_cloud_binary(path)
        assert str(exc.value) == f"{path}: point cloud contains non-finite coordinates"

    def test_empty_binary_cloud(self, tmp_path):
        path = str(tmp_path / "empty.cloud")
        write_cloud_binary(np.zeros((0, 3)), path)
        assert read_cloud_binary(path).shape == (0, 3)
