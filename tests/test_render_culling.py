"""Culled ray casting in `render` against the unculled renderer, bit for bit.

`unculled_render` is the renderer before culling: every visible patch is
tested against every pixel ray and every sample ray. Each scene below is
built to reach one case of the cull, and a precondition checks that it does.
"""

import numpy as np
import pytest

from frustumkit import scenegen
from frustumkit.geometry import OrientedBox3, oriented_box_footprint, pixel_centers, project_points, unproject_grid
from frustumkit.scenegen import (
    _RAY_TOL,
    RenderedObject,
    SceneObjectSpec,
    SceneSpec,
    SurfacePatch,
    _extent_rect,
    _front_facing,
    box_face_patches,
    floor_patch,
    random_scene,
    ray_patch_depths,
    render,
    standard_camera,
)


def unculled_render(spec):
    """(cloud, point labels, depth image, objects) with every patch tested against every ray."""
    rng = np.random.default_rng(spec.seed)
    camera_pos = np.asarray(spec.pose.translation, dtype=np.float64)
    world_to_cam = spec.pose.inverse()
    patches, owners = [], []
    for patch in spec.background:
        if _front_facing(patch, camera_pos):
            patches.append(patch)
            owners.append(-1)
    for oi, obj in enumerate(spec.objects):
        for patch in box_face_patches(obj.box, obj.density):
            if _front_facing(patch, camera_pos):
                patches.append(patch)
                owners.append(oi)
    blocks = [patch.sample(rng) for patch in patches]
    samples = np.vstack(blocks) if blocks else np.zeros((0, 3))
    labels = np.array([o for b, o in zip(blocks, owners) for _ in range(len(b))], dtype=np.int64)

    keep = world_to_cam.apply(samples)[:, 2] > _RAY_TOL
    if spec.occlusion:
        dirs = samples - camera_pos
        nearest = np.full(len(samples), np.inf)
        for patch in patches:
            nearest = np.minimum(nearest, ray_patch_depths(camera_pos, dirs, patch))
        keep &= ~(nearest < 1.0 - 1e-6)
    cloud, cloud_labels = samples[keep], labels[keep]

    k = spec.intrinsics
    rays = unproject_grid(*pixel_centers(k.width, k.height), np.ones((k.height, k.width)), k)
    dirs = rays.reshape(-1, 3) @ spec.pose.rotation.T
    depth = np.full(dirs.shape[0], np.inf)
    for patch in patches:
        depth = np.minimum(depth, ray_patch_depths(camera_pos, dirs, patch))
    depth = np.where(np.isfinite(depth), depth, 0.0).reshape(k.height, k.width)

    objects = []
    for oi, obj in enumerate(spec.objects):
        z0, z1 = obj.box.z_interval
        corners = np.array([[x, y, z] for x, y in oriented_box_footprint(obj.box) for z in (z0, z1)])
        corner_cam = world_to_cam.apply(corners)
        behind = bool(np.all(corner_cam[:, 2] <= _RAY_TOL))
        all_front = bool(np.all(corner_cam[:, 2] > _RAY_TOL))
        own = cloud_labels == oi
        n_points = int(own.sum())
        rect = None
        if not behind:
            if spec.occlusion or not all_front:
                if n_points:
                    u, v, _ = project_points(world_to_cam.apply(cloud[own]), k)
                    rect = _extent_rect(u, v)
            else:
                u, v, _ = project_points(corner_cam, k)
                rect = _extent_rect(u, v)
        objects.append(RenderedObject(obj.category, obj.box, rect, n_points))
    return cloud, cloud_labels, depth, objects


def assert_renders_equal_the_reference(spec):
    scene = render(spec)
    cloud, labels, depth, objects = unculled_render(spec)
    assert np.array_equal(scene.cloud, cloud)
    assert np.array_equal(scene.point_labels, labels)
    assert np.array_equal(scene.range_image.depth, depth)
    assert [o.rect for o in scene.objects] == [o.rect for o in objects]
    assert [o.n_points for o in scene.objects] == [o.n_points for o in objects]
    return scene


def box(x, y, z, w, d, h, yaw=0.0, category="nightstand"):
    """A box spec with its center at (x, y, z)."""
    return SceneObjectSpec(category, OrientedBox3(np.array([x, y, z]), w, d, h, yaw), density=150.0)


def spec_of(objects, background=(), occlusion=True, seed=7):
    k, pose = standard_camera()
    return SceneSpec(tuple(objects), k, pose, tuple(background), occlusion, seed)


def visible_patch_boxes(spec):
    """(patch, widened pixel box or None, pixel indices in the box or None) per front-facing patch."""
    camera = spec.pose.translation
    world_to_cam = spec.pose.inverse()
    k = spec.intrinsics
    center_u, center_v = np.arange(k.width) + 0.5, (np.arange(k.height) + 0.5)[:, None]
    patches = list(spec.background) + [p for o in spec.objects for p in box_face_patches(o.box, o.density)]
    out = []
    for patch in patches:
        if _front_facing(patch, camera):
            pbox = scenegen._pixel_box(*project_points(world_to_cam.apply(patch.corners()), k))
            pixels = None if pbox is None else np.flatnonzero(scenegen._in_box(center_u, center_v, pbox))
            out.append((patch, pbox, pixels))
    return out


def off_image_corner_patch():
    """A 0.075 m square at depth 3 facing the camera, projected to u, v in [-4, -1]:
    just off the top-left image corner, so its box widened by 2 px holds only pixel (0, 0)."""
    return SurfacePatch(
        origin=np.array([3.0, 2.025, 2.725]),
        edge_u=np.array([0.0, 0.0, 0.075]),
        edge_v=np.array([0.0, 0.075, 0.0]),
        density=2000.0,
    )


# The standard camera sits at (0, 0, 1.2) looking along +x; at depth x the
# image spans |y| <= 2x/3 and z within 1.2 -/+ x/2.
def border_scene(occlusion):
    return spec_of(
        [
            box(3.0, 2.1, 0.5, 0.8, 0.8, 1.0),  # across the left border
            box(4.0, -2.7, 0.5, 0.6, 0.9, 1.0, yaw=0.4),  # across the right border
            box(3.0, 0.0, 1.5, 0.45, 0.3, 3.0, category="shelf"),  # through the top border
            box(3.0, 3.5, 0.5, 0.8, 0.8, 1.0),  # entirely off the left side
            box(2.5, -4.0, 0.4, 0.5, 0.5, 0.8),  # entirely off the right side
        ],
        background=(floor_patch(),),
        occlusion=occlusion,
    )


def edge_on_scene(occlusion):
    return spec_of(
        [
            # faces in the planes y = 0 and z = 1.2, which hold the camera
            box(3.0, 0.3, 0.6, 0.8, 0.6, 1.2),
            # faces 1e-7 m off those planes: seen at a grazing angle
            box(4.0, -0.5 - 1e-7, 0.6 - 5e-8, 0.8, 1.0, 1.2 - 1e-7),
            box(5.0, 0.0, 0.5, 0.6, 0.6, 1.0, yaw=np.pi / 4),
        ],
        background=(floor_patch(),),
        occlusion=occlusion,
    )


def floor_under_camera_scene(occlusion):
    floor = SurfacePatch(np.array([-5.0, -6.0, 0.0]), np.array([14.0, 0.0, 0.0]), np.array([0.0, 12.0, 0.0]), 30.0)
    return spec_of(
        [box(3.0, 0.4, 0.5, 0.8, 0.8, 1.0), box(5.0, -0.8, 0.6, 1.2, 0.8, 1.2, yaw=0.3)],
        background=(floor,),
        occlusion=occlusion,
    )


def behind_camera_scene(occlusion):
    return spec_of(
        [
            box(-3.0, 0.0, 0.5, 0.8, 0.8, 1.0),  # entirely behind the camera
            box(0.1, 0.9, 0.5, 1.0, 0.6, 1.0),  # across the camera plane
            box(3.0, 0.0, 0.5, 0.8, 0.8, 1.0),
        ],
        background=(floor_patch(),),
        occlusion=occlusion,
    )


def one_ray_scene(occlusion):
    return spec_of([box(3.0, 0.0, 0.5, 0.8, 0.8, 1.0)], background=(off_image_corner_patch(),), occlusion=occlusion)


SCENES = {
    "border": border_scene,
    "edge-on": edge_on_scene,
    "floor-under-camera": floor_under_camera_scene,
    "behind-camera": behind_camera_scene,
    "one-ray-box": one_ray_scene,
}


class TestSceneCases:
    """Each built scene reaches the case it is named for."""

    def test_border_scene_has_patches_across_and_off_the_image(self):
        k, _ = standard_camera()
        boxes = [(b, p) for _, b, p in visible_patch_boxes(border_scene(True))]
        inside = [(b[0] >= 0 and b[1] <= k.width and b[2] >= 0 and b[3] <= k.height) for b, _ in boxes]
        assert all(b is not None for b, _ in boxes)
        assert sum(len(p) == 0 for _, p in boxes) >= 2  # off the image: no pixel ray in the box
        assert sum(len(p) > 0 and not ok for (_, p), ok in zip(boxes, inside)) >= 3  # across a border

    def test_edge_on_scene_has_grazing_faces(self):
        spec = edge_on_scene(True)
        all_patches = [p for o in spec.objects for p in box_face_patches(o.box, o.density)]
        camera = spec.pose.translation
        # the faces whose plane holds the camera are not sampled
        in_plane = [p for p in all_patches if float(np.dot(p.normal, camera - p.origin)) == 0.0]
        assert len(in_plane) == 2 and not any(_front_facing(p, camera) for p in in_plane)
        # the grazing faces project to less than 0.01 px across one axis
        widths = [min(b[1] - b[0], b[3] - b[2]) - 4.0 for _, b, _ in visible_patch_boxes(spec)]
        assert sum(w < 0.01 for w in widths) >= 2

    def test_floor_under_camera_takes_the_near_plane_fallback(self):
        (_, floor_box, _), *rest = visible_patch_boxes(floor_under_camera_scene(True))
        assert floor_box is None
        assert rest and all(b is not None for _, b, _ in rest)

    def test_behind_camera_scene_has_patches_behind_and_across_the_camera_plane(self):
        spec = behind_camera_scene(True)
        world_to_cam = spec.pose.inverse()
        z = [world_to_cam.apply(p.corners())[:, 2] for p, b, _ in visible_patch_boxes(spec) if b is None]
        assert any(np.all(zc <= 0) for zc in z)
        assert any(np.any(zc <= 0) and np.any(zc > 0) for zc in z)

    def test_one_ray_scene_has_a_box_with_exactly_one_pixel_ray(self):
        (_, corner_box, pixels), *_ = visible_patch_boxes(one_ray_scene(True))
        assert corner_box is not None
        assert pixels.tolist() == [0]


@pytest.mark.parametrize("occlusion", [True, False], ids=["occlusion", "no-occlusion"])
@pytest.mark.parametrize("name", list(SCENES))
def test_built_scene_equals_the_unculled_reference(name, occlusion):
    scene = assert_renders_equal_the_reference(SCENES[name](occlusion))
    assert len(scene.cloud) > 0


@pytest.mark.parametrize("occlusion", [True, False], ids=["occlusion", "no-occlusion"])
@pytest.mark.parametrize(
    "seed, kwargs",
    [
        (0, {}),
        (1, {}),
        (2, {"with_floor": False}),
        (42, {"n_objects": 10, "density": 240.0}),
        (43, {"n_objects": 10, "density": 240.0}),
    ],
)
def test_random_scene_equals_the_unculled_reference(seed, kwargs, occlusion):
    assert_renders_equal_the_reference(random_scene(seed, occlusion=occlusion, **kwargs))


def ray_counts(monkeypatch, spec):
    """The number of rays passed to each ray_patch_depths call while rendering spec."""
    counts = []

    def counting(origin, dirs, patch):
        counts.append(len(dirs))
        return ray_patch_depths(origin, dirs, patch)

    monkeypatch.setattr(scenegen, "ray_patch_depths", counting)
    render(spec)
    return counts


def test_a_box_with_one_pixel_ray_tests_every_pixel_ray(monkeypatch):
    k, _ = standard_camera()
    counts = ray_counts(monkeypatch, one_ray_scene(occlusion=False))
    assert 1 not in counts
    assert counts.count(k.width * k.height) == 1


@pytest.mark.parametrize("occlusion", [True, False], ids=["occlusion", "no-occlusion"])
def test_patches_in_front_of_the_camera_are_tested_against_their_box_only(monkeypatch, occlusion):
    k, _ = standard_camera()
    spec = random_scene(5, n_objects=6, occlusion=occlusion)
    boxes = visible_patch_boxes(spec)
    assert all(b is not None and len(p) > 1 for _, b, p in boxes)
    counts = ray_counts(monkeypatch, spec)
    assert 1 not in counts
    assert max(counts) < k.width * k.height
    # unculled, each patch would test every pixel ray (plus every sample with occlusion)
    assert sum(counts) < 0.1 * len(boxes) * k.width * k.height


@pytest.mark.parametrize("occlusion", [True, False], ids=["occlusion", "no-occlusion"])
@pytest.mark.parametrize("name", ["random", "floor-under-camera", "one-ray-box"])
def test_each_front_facing_patch_is_cast_once_per_render(monkeypatch, name, occlusion):
    # pixel rays and sample rays reach ray_patch_depths in one call per patch,
    # culled or not
    spec = random_scene(5, n_objects=6, occlusion=occlusion) if name == "random" else SCENES[name](occlusion)
    assert len(ray_counts(monkeypatch, spec)) == len(visible_patch_boxes(spec))


@pytest.mark.parametrize("occlusion", [True, False], ids=["occlusion", "no-occlusion"])
@pytest.mark.parametrize("name", ["random", "behind-camera", "floor-under-camera"])
def test_render_projects_the_samples_once(monkeypatch, name, occlusion):
    # the in-front test, the patch boxes, the ray cull and the rects all read
    # one projection of the samples; without occlusion, each object's 8 box
    # corners are projected for its exact extent
    spec = random_scene(5, n_objects=6, occlusion=occlusion) if name == "random" else SCENES[name](occlusion)
    calls = []

    def counting(points_cam, k):
        calls.append(len(points_cam))
        return project_points(points_cam, k)

    monkeypatch.setattr(scenegen, "project_points", counting)
    render(spec)
    assert calls[1:] == ([] if occlusion else [8] * len(spec.objects))
