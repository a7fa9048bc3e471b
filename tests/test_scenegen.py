"""Renderer checks: surface fidelity, rect tightness, occlusion, determinism."""

import numpy as np
import pytest

from frustumkit.cropbox import assign_scale
from frustumkit.dhs import world_points
from frustumkit.errors import GeometryError
from frustumkit.geometry import OrientedBox3, RigidTransform, oriented_box_footprint, project_points
from frustumkit.scenegen import (
    CATEGORY_PRESETS,
    SceneObjectSpec,
    SceneSpec,
    SurfacePatch,
    box_face_patches,
    floor_patch,
    random_scene,
    ray_patch_depths,
    render,
    standard_camera,
)


def facing_box_scene(occlusion=True, **spec_kwargs):
    """One axis-aligned box straight ahead of the standard camera, no floor."""
    k, pose = standard_camera()
    box = OrientedBox3(np.array([3.0, 0.0, 0.5]), 0.8, 0.8, 1.0, 0.0)
    return SceneSpec(
        objects=(SceneObjectSpec("nightstand", box, density=200.0),),
        intrinsics=k,
        pose=pose,
        occlusion=occlusion,
        seed=11,
        **spec_kwargs,
    )


def point_in_box(p, box, tol=1e-9):
    rel = np.asarray(p) - np.asarray(box.center)
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    local_x = c * rel[0] + s * rel[1]
    local_y = -s * rel[0] + c * rel[1]
    return (
        abs(local_x) <= box.width / 2 + tol
        and abs(local_y) <= box.depth / 2 + tol
        and abs(rel[2]) <= box.height / 2 + tol
    )


def patch_distance(points, patch, tol=1e-6):
    """Distance from each point to the patch plane, inf outside its bounds."""
    n = patch.normal
    n_hat = n / np.linalg.norm(n)
    q = points - patch.origin
    dist = np.abs(q @ n_hat)
    g11 = float(patch.edge_u @ patch.edge_u)
    g12 = float(patch.edge_u @ patch.edge_v)
    g22 = float(patch.edge_v @ patch.edge_v)
    det = g11 * g22 - g12 * g12
    qu = q @ patch.edge_u
    qv = q @ patch.edge_v
    a = (qu * g22 - qv * g12) / det
    b = (qv * g11 - qu * g12) / det
    inside = (a >= -tol) & (a <= 1 + tol) & (b >= -tol) & (b <= 1 + tol)
    return np.where(inside, dist, np.inf)


def all_scene_patches(spec):
    patches = list(spec.background)
    for obj in spec.objects:
        patches.extend(box_face_patches(obj.box, obj.density))
    return patches


class TestSurfacePatch:
    def test_sample_contains_corners_and_counts(self):
        patch = SurfacePatch(np.zeros(3), np.array([2.0, 0, 0]), np.array([0, 1.0, 0]), density=50.0)
        pts = patch.sample(np.random.default_rng(0))
        assert len(pts) == 4 + round(50.0 * 2.0)
        for corner in patch.corners():
            assert any(np.array_equal(corner, p) for p in pts[:4])

    def test_degenerate_edges_rejected(self):
        with pytest.raises(GeometryError):
            SurfacePatch(np.zeros(3), np.array([1.0, 0, 0]), np.array([2.0, 0, 0]))

    def test_ray_hit_depth_known_case(self):
        # unit square in the x=2 plane, ray along +x from origin
        patch = SurfacePatch(np.array([2.0, -0.5, -0.5]), np.array([0, 1.0, 0]), np.array([0, 0, 1.0]))
        t = ray_patch_depths(np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), patch)
        assert t[0] == pytest.approx(2.0)
        assert np.isinf(t[1])


class TestFacingBox:
    def test_rect_equals_projected_corner_extent_without_occlusion(self):
        spec = facing_box_scene(occlusion=False)
        scene = render(spec)
        (obj,) = scene.objects
        box = spec.objects[0].box
        corners2d = oriented_box_footprint(box)
        z0, z1 = box.z_interval
        corners = np.array([[x, y, z] for x, y in corners2d for z in (z0, z1)])
        u, v, _ = project_points(spec.pose.inverse().apply(corners), spec.intrinsics)
        assert obj.rect is not None
        assert obj.rect.u_min == pytest.approx(u.min(), abs=1e-12)
        assert obj.rect.u_max == pytest.approx(u.max(), abs=1e-12)
        assert obj.rect.v_min == pytest.approx(v.min(), abs=1e-12)
        assert obj.rect.v_max == pytest.approx(v.max(), abs=1e-12)

    def test_all_object_points_lie_on_the_box(self):
        spec = facing_box_scene()
        scene = render(spec)
        box = spec.objects[0].box
        own = scene.cloud[scene.point_labels == 0]
        assert len(own) > 50
        assert all(point_in_box(p, box) for p in own)

    def test_back_faces_are_never_sampled(self):
        spec = facing_box_scene(occlusion=False)
        scene = render(spec)
        # the camera sits dead ahead at z = 1.2, so only the near face
        # (x = 2.6) and the top face (z = 1.0) point toward it; a sample
        # anywhere else would mean a culled face leaked through
        on_near = np.isclose(scene.cloud[:, 0], 2.6, atol=1e-9)
        on_top = np.isclose(scene.cloud[:, 2], 1.0, atol=1e-9)
        assert len(scene.cloud) > 50
        assert np.all(on_near | on_top)
        assert on_near.any() and on_top.any()

    def test_rect_contains_every_visible_point_projection(self):
        for occlusion in (False, True):
            spec = facing_box_scene(occlusion=occlusion, background=(floor_patch(),))
            scene = render(spec)
            for oi, obj in enumerate(scene.objects):
                own = scene.cloud[scene.point_labels == oi]
                if obj.rect is None or not len(own):
                    continue
                u, v, _ = project_points(spec.pose.inverse().apply(own), spec.intrinsics)
                assert np.all(u >= obj.rect.u_min - 1e-9) and np.all(u <= obj.rect.u_max + 1e-9)
                assert np.all(v >= obj.rect.v_min - 1e-9) and np.all(v <= obj.rect.v_max + 1e-9)


class TestRangeImage:
    def test_unprojected_pixels_land_on_surfaces(self):
        spec = random_scene(seed=3, n_objects=3)
        scene = render(spec)
        pts = world_points(scene.range_image)
        valid = ~scene.range_image.missing_mask
        pts = pts[valid]
        best = np.full(len(pts), np.inf)
        for patch in all_scene_patches(spec):
            best = np.minimum(best, patch_distance(pts, patch))
        assert len(pts) > 1000
        assert best.max() < 1e-6

    def test_sky_pixels_are_missing(self):
        spec = facing_box_scene()  # no floor, box subtends a small angle
        scene = render(spec)
        assert scene.range_image.missing_mask[0, 0]
        assert scene.range_image.missing_mask.any()
        assert (~scene.range_image.missing_mask).any()

    def test_floor_depths_match_analytic_ray(self):
        k, pose = standard_camera()
        spec = SceneSpec(
            objects=(SceneObjectSpec("table", OrientedBox3(np.array([30.0, 0.0, 0.1]), 0.2, 0.2, 0.2, 0.0)),),
            intrinsics=k,
            pose=pose,
            background=(
                SurfacePatch(
                    origin=np.array([0.1, -20.0, 0.0]),
                    edge_u=np.array([49.9, 0.0, 0.0]),
                    edge_v=np.array([0.0, 40.0, 0.0]),
                    density=30.0,
                ),
            ),
            occlusion=True,
            seed=0,
        )
        scene = render(spec)
        depth = scene.range_image.depth
        v = 100  # a row well below the horizon
        u = 80
        # camera at height 1.2: ray through (u+.5, v+.5) hits z=0 at
        # depth = h * fy / (v + .5 - cy)
        expected = 1.2 * k.fy / (v + 0.5 - k.cy)
        assert depth[v, u] == pytest.approx(expected, rel=1e-12)


class TestOcclusion:
    def two_box_spec(self, near_dims, occlusion):
        k, pose = standard_camera()
        near = OrientedBox3(np.array([2.5, 0.0, near_dims[2] / 2]), *near_dims, 0.0)
        far = OrientedBox3(np.array([5.0, 0.0, 0.5]), 0.8, 0.8, 1.0, 0.0)
        return SceneSpec(
            objects=(
                SceneObjectSpec("nightstand", near, density=150.0),
                SceneObjectSpec("nightstand", far, density=150.0),
            ),
            intrinsics=k,
            pose=pose,
            occlusion=occlusion,
            seed=5,
        )

    def test_partial_occlusion_shrinks_far_rect(self):
        hidden = render(self.two_box_spec((1.2, 1.2, 1.0), occlusion=True))
        free = render(self.two_box_spec((1.2, 1.2, 1.0), occlusion=False))
        far_hidden, far_free = hidden.objects[1], free.objects[1]
        assert far_hidden.n_points < far_free.n_points
        assert far_hidden.rect is not None
        assert far_hidden.rect.area < far_free.rect.area - 1e-9

    def test_total_occlusion_removes_far_object(self):
        scene = render(self.two_box_spec((2.4, 2.4, 2.4), occlusion=True))
        far = scene.objects[1]
        assert far.n_points == 0
        assert far.rect is None
        assert not far.visible
        assert not far.behind_camera

    def test_occluded_points_fail_a_brute_force_ray_check(self):
        spec = self.two_box_spec((1.2, 1.2, 1.0), occlusion=True)
        scene = render(spec)
        camera = spec.pose.translation
        patches = [
            p
            for obj in spec.objects
            for p in box_face_patches(obj.box, 150.0)
        ]
        # every surviving point: no patch hit strictly between camera and point
        rng = np.random.default_rng(0)
        idx = rng.choice(len(scene.cloud), size=min(200, len(scene.cloud)), replace=False)
        for p in scene.cloud[idx]:
            d = p - camera
            nearest = min(float(ray_patch_depths(camera, d[None, :], patch)[0]) for patch in patches)
            assert nearest >= 1.0 - 1e-6


class TestBehindCamera:
    def test_object_behind_camera_is_flagged_and_empty(self):
        k, pose = standard_camera()
        behind = OrientedBox3(np.array([-3.0, 0.0, 0.5]), 0.8, 0.8, 1.0, 0.0)
        spec = SceneSpec(
            objects=(SceneObjectSpec("lamp", behind),), intrinsics=k, pose=pose, seed=1
        )
        scene = render(spec)
        (obj,) = scene.objects
        assert obj.behind_camera
        assert obj.rect is None and not obj.visible and obj.n_points == 0
        assert len(scene.cloud) == 0


class TestDeterminismAndPresets:
    def test_fixed_seed_renders_bitwise_identical(self):
        spec = random_scene(seed=77, n_objects=4)
        a, b = render(spec), render(spec)
        np.testing.assert_array_equal(a.cloud, b.cloud)
        np.testing.assert_array_equal(a.point_labels, b.point_labels)
        np.testing.assert_array_equal(a.range_image.depth, b.range_image.depth)
        assert a.objects == b.objects

    def test_different_seeds_differ(self):
        a = render(random_scene(seed=1, n_objects=3))
        b = render(random_scene(seed=2, n_objects=3))
        assert a.cloud.shape != b.cloud.shape or not np.array_equal(a.cloud, b.cloud)

    def test_presets_cover_all_four_scale_classes(self):
        classes = {assign_scale(w, d, h) for w, d, h in CATEGORY_PRESETS.values()}
        assert classes == {"small_short", "medium_short", "large_short", "medium_tall"}
