"""Synthetic scene rendering: surface-sampled clouds, z-buffered range images,
and exact 2D/3D ground truth for every object.

Objects are hollow boxes: only faces whose outward normal points toward the
camera are sampled (a depth sensor never sees back faces). Each face is a
parallelogram patch; the range image keeps, per pixel, the nearest patch hit
of the ray through the pixel center, so unprojecting any valid pixel lands
back on a generated surface to float precision. Point visibility uses the
same ray test: a sample survives occlusion if no patch intersects the
camera-to-sample ray strictly in front of it.

The samples are projected once, and the in-front test, the patch boxes, the
ray cull and the object rects all read that projection. Pixel and sample rays
are cast together, in one pass over the patches. Each patch is tested only
against the rays, of pixels and of in-front samples, that pass through the
box of its sampled corners widened by 2 px. A patch with a corner at or
behind the near plane, and a box that holds exactly one ray, test every ray
(see render). The culled test gives the same bits as testing every ray.

Everything is deterministic in the scene seed: patch corners are always
sampled, interior samples are drawn once from a seeded generator, and the
patch order is fixed (background first, then objects in listing order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dhs import RangeImage
from .errors import GeometryError
from .geometry import (
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    oriented_box_footprint,
    pixel_centers,
    project_points,
    unproject_grid,
)

#: relative slack for "strictly nearer" in occlusion tests and for the
#: parallelogram parameter range in ray hits
_RAY_TOL = 1e-9

#: pixels added on each side of a patch's projected box before selecting the
#: rays to test against it. On a face seen at a grazing angle the hit test is
#: ill-conditioned (dirs @ normal is near 0), and a hit it accepts can
#: project just outside the corners' box: with no margin, the grazing-face
#: scene of tests/test_render_culling.py keeps samples the full test drops.
_CULL_MARGIN_PX = 2.0

DEFAULT_DENSITY = 120.0  # surface samples per square meter

#: Largest patch density accepted, in samples per square meter. A patch draws
#: density * area points at once, so an unbounded density ends in numpy's
#: allocation errors instead of a usage error.
MAX_DENSITY = 10_000.0


@dataclass(frozen=True)
class SurfacePatch:
    """A parallelogram: origin + a * edge_u + b * edge_v, (a, b) in [0, 1]^2."""

    origin: np.ndarray
    edge_u: np.ndarray
    edge_v: np.ndarray
    density: float = DEFAULT_DENSITY
    normal: np.ndarray = field(init=False, repr=False, compare=False)  # edge_u x edge_v

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64).reshape(3))
        object.__setattr__(self, "edge_u", np.asarray(self.edge_u, dtype=np.float64).reshape(3))
        object.__setattr__(self, "edge_v", np.asarray(self.edge_v, dtype=np.float64).reshape(3))
        # np.cross's formula on Python floats: the same bits at a tenth of the cost
        (ux, uy, uz), (vx, vy, vz) = self.edge_u.tolist(), self.edge_v.tolist()
        object.__setattr__(self, "normal", np.array([uy * vz - uz * vy, uz * vx - ux * vz, ux * vy - uy * vx]))
        if not (0 < self.density < math.inf):
            raise GeometryError(f"patch density must be finite and positive, got {self.density}")
        if self.density > MAX_DENSITY:
            raise GeometryError(f"patch density must be at most {MAX_DENSITY:g} samples per m^2, got {self.density}")
        if np.linalg.norm(self.normal) == 0.0:
            raise GeometryError("patch edges must be linearly independent")

    @property
    def area(self) -> float:
        return float(np.linalg.norm(self.normal))

    def corners(self) -> np.ndarray:
        o, u, v = self.origin, self.edge_u, self.edge_v
        return np.array([o, o + u, o + u + v, o + v])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """The 4 corners first, in corners() order (render relies on it), then round(density * area) interior points."""
        n_interior = int(round(self.density * self.area))
        pts = [self.corners()]
        if n_interior > 0:
            ab = rng.random((n_interior, 2))
            pts.append(self.origin + ab[:, :1] * self.edge_u + ab[:, 1:] * self.edge_v)
        return np.vstack(pts)


def box_face_patches(box: OrientedBox3, density: float = DEFAULT_DENSITY) -> list[SurfacePatch]:
    """The six faces of a gravity-aligned box, outward normals guaranteed."""
    corners = oriented_box_footprint(box)  # CCW in the xy plane
    z0, z1 = box.z_interval
    h = z1 - z0
    patches = []
    for i in range(4):
        a, b = corners[i], corners[(i + 1) % 4]
        patches.append(
            SurfacePatch(
                origin=np.array([a[0], a[1], z0]),
                edge_u=np.array([b[0] - a[0], b[1] - a[1], 0.0]),
                edge_v=np.array([0.0, 0.0, h]),
                density=density,
            )
        )
    top_o = np.array([corners[0][0], corners[0][1], z1])
    eu = np.array([corners[1][0] - corners[0][0], corners[1][1] - corners[0][1], 0.0])
    ev = np.array([corners[3][0] - corners[0][0], corners[3][1] - corners[0][1], 0.0])
    patches.append(SurfacePatch(origin=top_o, edge_u=eu, edge_v=ev, density=density))
    # bottom: swap edges so the normal points down (outward)
    bot_o = np.array([corners[0][0], corners[0][1], z0])
    patches.append(SurfacePatch(origin=bot_o, edge_u=ev, edge_v=eu, density=density))
    return patches


def _front_facing(patch: SurfacePatch, camera_pos: np.ndarray) -> bool:
    center = patch.origin + 0.5 * patch.edge_u + 0.5 * patch.edge_v
    return float(np.dot(patch.normal, camera_pos - center)) > 0.0


def ray_patch_depths(
    origin: np.ndarray, dirs: np.ndarray, patch: SurfacePatch
) -> np.ndarray:
    """Ray parameter t of each ray's hit with the patch; +inf where it misses.

    Rays are origin + t * dirs[i]; only t > _RAY_TOL counts as a hit.
    """
    n = patch.normal
    denom = dirs @ n
    rel = patch.origin - origin
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel @ n) / denom
        p = origin + t[:, None] * dirs
        q = p - patch.origin
        g11 = float(patch.edge_u @ patch.edge_u)
        g12 = float(patch.edge_u @ patch.edge_v)
        g22 = float(patch.edge_v @ patch.edge_v)
        det = g11 * g22 - g12 * g12
        qu = q @ patch.edge_u
        qv = q @ patch.edge_v
        a = (qu * g22 - qv * g12) / det
        b = (qv * g11 - qu * g12) / det
    ok = (
        np.isfinite(t)
        & (t > _RAY_TOL)
        & (a >= -_RAY_TOL)
        & (a <= 1.0 + _RAY_TOL)
        & (b >= -_RAY_TOL)
        & (b <= 1.0 + _RAY_TOL)
    )
    return np.where(ok, t, np.inf)


@dataclass(frozen=True)
class SceneObjectSpec:
    category: str
    box: OrientedBox3
    density: float = DEFAULT_DENSITY


@dataclass(frozen=True)
class SceneSpec:
    objects: tuple[SceneObjectSpec, ...]
    intrinsics: CameraIntrinsics
    pose: RigidTransform
    background: tuple[SurfacePatch, ...] = ()
    occlusion: bool = True
    seed: int = 0


@dataclass(frozen=True)
class RenderedObject:
    category: str
    box: OrientedBox3
    rect: Rect2 | None  # None when unobservable or its projection has zero area
    n_points: int  # this object's samples present in the cloud


@dataclass(frozen=True)
class Scene:
    cloud: np.ndarray
    point_labels: np.ndarray  # object index per cloud point, -1 = background
    range_image: RangeImage
    objects: tuple[RenderedObject, ...]


def _extent_rect(u: np.ndarray, v: np.ndarray) -> Rect2 | None:
    """Bounding rect of projected points, or None for a degenerate extent.

    An object seen exactly edge-on can put every projection on one image
    column or row; a zero-area rect cannot seed a frustum, so it is treated
    the same as an unobservable object.
    """
    u_min, u_max = float(u.min()), float(u.max())
    v_min, v_max = float(v.min()), float(v.max())
    if u_max - u_min <= 0.0 or v_max - v_min <= 0.0:
        return None
    return Rect2(u_min, v_min, u_max, v_max)


def _pixel_box(u: np.ndarray, v: np.ndarray, z: np.ndarray) -> tuple[float, float, float, float] | None:
    """(u_min, u_max, v_min, v_max) of a patch's corners projected to (u, v),
    widened by _CULL_MARGIN_PX; None when a corner's depth z is at or behind the near plane.

    A patch in front of the camera projects inside the hull of its corners'
    projections, so every ray that hits it passes through this box.
    """
    if np.any(z <= _RAY_TOL):
        return None
    m = _CULL_MARGIN_PX
    return float(u.min()) - m, float(u.max()) + m, float(v.min()) - m, float(v.max()) + m


def _in_box(u: np.ndarray, v: np.ndarray, box: tuple[float, float, float, float]) -> np.ndarray:
    """Mask of the pixel coordinates (u, v), broadcast together, that lie inside the box."""
    u_min, u_max, v_min, v_max = box
    return ((u >= u_min) & (u <= u_max)) & ((v >= v_min) & (v <= v_max))


def render(spec: SceneSpec) -> Scene:
    rng = np.random.default_rng(spec.seed)
    camera_pos = np.asarray(spec.pose.translation, dtype=np.float64)
    world_to_cam = spec.pose.inverse()

    # visible-face patch list, with provenance (-1 = background)
    faces = [(p, -1) for p in spec.background]
    faces += [(p, oi) for oi, obj in enumerate(spec.objects) for p in box_face_patches(obj.box, obj.density)]
    visible = [(p, owner) for p, owner in faces if _front_facing(p, camera_pos)]
    patches = [p for p, _ in visible]

    # surface samples (corners always present; interiors seeded)
    blocks = [patch.sample(rng) for patch in patches]
    sizes = [len(b) for b in blocks]
    samples = np.vstack(blocks) if blocks else np.zeros((0, 3))
    labels = np.repeat(np.array([owner for _, owner in visible], dtype=np.int64), sizes)

    # the one projection of the samples, and the in-front test
    k = spec.intrinsics
    u, v, z = project_points(world_to_cam.apply(samples), k)
    keep = z > _RAY_TOL

    # One ray set, cast in one pass: the pixel rays, then, with occlusion, the
    # ray to each sample. A pixel ray has camera-frame z = 1, so the t of its
    # hit IS the pinhole depth the range image stores; a sample sits at t = 1.
    center_u, center_v = pixel_centers(k.width, k.height)
    dirs = unproject_grid(center_u, center_v, np.ones((k.height, k.width)), k).reshape(-1, 3) @ spec.pose.rotation.T
    n_pixels = len(dirs)
    if spec.occlusion:
        dirs = np.vstack([dirs, samples - camera_pos])
    nearest = np.full(len(dirs), np.inf)
    for patch, start in zip(patches, np.cumsum([0, *sizes])):
        # a patch can only cut the pixel rays in its projected box and the
        # rays of the in-front samples that project there; the box bounds its
        # first four samples, which are its corners (SurfacePatch.sample)
        box = _pixel_box(u[start : start + 4], v[start : start + 4], z[start : start + 4])
        if box is not None:
            rows = np.flatnonzero(_in_box(center_u, center_v, box))
            if spec.occlusion:
                rows = np.concatenate([rows, n_pixels + np.flatnonzero(keep & _in_box(u, v, box))])
        # Two cases test every ray. A corner at or behind the near plane
        # (box None) leaves the projection unbounded by the corners. A single
        # row: numpy multiplies a one-row matrix by a vector with another
        # kernel, whose last bits can differ from the same row's inside a
        # larger product, while any subset of two or more rows matches the
        # full product bit for bit.
        if box is None or len(rows) == 1:
            np.minimum(nearest, ray_patch_depths(camera_pos, dirs, patch), out=nearest)
        else:
            nearest[rows] = np.minimum(nearest[rows], ray_patch_depths(camera_pos, dirs[rows], patch))

    # occlusion: a sample dies if any patch cuts its camera ray strictly earlier
    if spec.occlusion:
        keep &= ~(nearest[n_pixels:] < 1.0 - 1e-6)
    cloud = samples[keep]
    cloud_labels = labels[keep]

    depth = nearest[:n_pixels]
    depth = np.where(np.isfinite(depth), depth, 0.0).reshape(k.height, k.width)
    range_image = RangeImage(depth=depth, intrinsics=k, pose=spec.pose)

    # per-object ground truth rects
    cloud_u, cloud_v = u[keep], v[keep]
    objects: list[RenderedObject] = []
    for oi, obj in enumerate(spec.objects):
        own = cloud_labels == oi
        n_points = int(own.sum())
        # bounds of this object's surviving sample projections; an object
        # behind the camera keeps no samples
        rect = _extent_rect(cloud_u[own], cloud_v[own]) if n_points else None
        if not spec.occlusion:
            z0, z1 = obj.box.z_interval
            corners = np.array([[x, y, z] for x, y in oriented_box_footprint(obj.box) for z in (z0, z1)])
            box_u, box_v, box_z = project_points(world_to_cam.apply(corners), k)
            if np.all(box_z > _RAY_TOL):
                # unoccluded and fully in front: the exact projected extent
                rect = _extent_rect(box_u, box_v)
        objects.append(
            RenderedObject(
                category=obj.category,
                box=obj.box,
                rect=rect,
                n_points=n_points,
            )
        )

    return Scene(
        cloud=cloud,
        point_labels=cloud_labels,
        range_image=range_image,
        objects=tuple(objects),
    )


# --- ready-made cameras, categories, and random scenes ----------------------


def standard_camera() -> tuple[CameraIntrinsics, RigidTransform]:
    """A 160x120 camera (f = 120 px) at (0, 0, 1.2) looking along world +x, image y down."""
    k = CameraIntrinsics(fx=120.0, fy=120.0, cx=80.0, cy=60.0, width=160, height=120)
    rotation = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    pose = RigidTransform(rotation=rotation, translation=np.array([0.0, 0.0, 1.2]))
    return k, pose


def floor_patch() -> SurfacePatch:
    """The floor in front of the standard camera: x in [0.5, 9], y in [-4, 4], 30 samples/m^2."""
    return SurfacePatch(
        origin=np.array([0.5, -4.0, 0.0]),
        edge_u=np.array([8.5, 0.0, 0.0]),
        edge_v=np.array([0.0, 8.0, 0.0]),
        density=30.0,
    )


#: (width, depth, height) presets chosen to land in all four scale classes
CATEGORY_PRESETS: dict[str, tuple[float, float, float]] = {
    "lamp": (0.25, 0.25, 0.45),  # small footprint, short
    "nightstand": (0.50, 0.45, 0.50),  # medium footprint, short
    "table": (1.20, 0.80, 0.50),  # large footprint, short
    "shelf": (0.45, 0.30, 1.80),  # medium footprint, tall
}


def random_scene(
    seed: int,
    n_objects: int = 3,
    occlusion: bool = True,
    density: float = DEFAULT_DENSITY,
    with_floor: bool = True,
) -> SceneSpec:
    """A seeded scene: preset-sized boxes on the floor in front of the camera."""
    if n_objects < 1:
        raise GeometryError("n_objects must be >= 1")
    categories = sorted(CATEGORY_PRESETS)
    k, pose = standard_camera()
    rng = np.random.default_rng(seed)
    objects = []
    for _ in range(n_objects):
        category = categories[int(rng.integers(len(categories)))]
        w, d, h = CATEGORY_PRESETS[category]
        scale = rng.uniform(0.9, 1.1, size=3)
        w, d, h = w * scale[0], d * scale[1], h * scale[2]
        center = np.array(
            [rng.uniform(2.2, 5.5), rng.uniform(-1.2, 1.2), h / 2.0]
        )
        yaw = rng.uniform(-math.pi, math.pi)
        objects.append(SceneObjectSpec(category, OrientedBox3(center, w, d, h, yaw), density))
    background = (floor_patch(),) if with_floor else ()
    return SceneSpec(
        objects=tuple(objects),
        intrinsics=k,
        pose=pose,
        background=background,
        occlusion=occlusion,
        seed=seed,
    )
