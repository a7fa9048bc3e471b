"""Synthetic scene rendering: surface-sampled clouds, z-buffered range images,
and exact 2D/3D ground truth for every object.

Objects are hollow boxes: only faces whose outward normal points toward the
camera are sampled (a depth sensor never sees back faces). Each face is a
parallelogram patch; the range image is produced by casting a ray through
every pixel center and keeping the nearest patch hit, so unprojecting any
valid pixel lands back on a generated surface to float precision. Point
visibility uses the same ray test: a sample survives occlusion if no patch
intersects the camera-to-sample ray strictly in front of it.

Everything is deterministic in the scene seed: patch corners are always
sampled, interior samples are drawn once from a seeded generator, and the
patch order is fixed (background first, then objects in listing order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dhs import RangeImage
from .errors import GeometryError
from .geometry import (
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    oriented_box_footprint,
    project_points,
    unproject_depth_image,
)

#: relative slack for "strictly nearer" in occlusion tests and for the
#: parallelogram parameter range in ray hits
_RAY_TOL = 1e-9

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

    def __post_init__(self) -> None:
        object.__setattr__(self, "origin", np.asarray(self.origin, dtype=np.float64).reshape(3))
        object.__setattr__(self, "edge_u", np.asarray(self.edge_u, dtype=np.float64).reshape(3))
        object.__setattr__(self, "edge_v", np.asarray(self.edge_v, dtype=np.float64).reshape(3))
        if not (0 < self.density < math.inf):
            raise GeometryError(f"patch density must be finite and positive, got {self.density}")
        if self.density > MAX_DENSITY:
            raise GeometryError(f"patch density must be at most {MAX_DENSITY:g} samples per m^2, got {self.density}")
        if np.linalg.norm(self.normal) == 0.0:
            raise GeometryError("patch edges must be linearly independent")

    @property
    def normal(self) -> np.ndarray:
        return np.cross(self.edge_u, self.edge_v)

    @property
    def area(self) -> float:
        return float(np.linalg.norm(self.normal))

    def corners(self) -> np.ndarray:
        o, u, v = self.origin, self.edge_u, self.edge_v
        return np.array([o, o + u, o + u + v, o + v])

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """The 4 corners plus round(density * area) uniform interior points."""
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


def _pixel_rays(k: CameraIntrinsics, pose: RigidTransform) -> np.ndarray:
    """World-frame ray directions through all pixel centers, camera z = 1.

    With the camera-frame z component fixed at 1, the ray parameter t of a
    hit IS the pinhole depth of the hit point, which is exactly what the
    range image stores.
    """
    dirs_cam = unproject_depth_image(np.ones((k.height, k.width)), k).reshape(-1, 3)
    return dirs_cam @ pose.rotation.T


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


def render(spec: SceneSpec) -> Scene:
    rng = np.random.default_rng(spec.seed)
    camera_pos = np.asarray(spec.pose.translation, dtype=np.float64)
    world_to_cam = spec.pose.inverse()

    # visible-face patch list, with provenance (-1 = background)
    patches: list[SurfacePatch] = []
    owners: list[int] = []
    for patch in spec.background:
        if _front_facing(patch, camera_pos):
            patches.append(patch)
            owners.append(-1)
    for oi, obj in enumerate(spec.objects):
        for patch in box_face_patches(obj.box, obj.density):
            if _front_facing(patch, camera_pos):
                patches.append(patch)
                owners.append(oi)

    # surface samples (corners always present; interiors seeded)
    sample_blocks: list[np.ndarray] = []
    sample_owner: list[np.ndarray] = []
    for patch, owner in zip(patches, owners):
        pts = patch.sample(rng)
        sample_blocks.append(pts)
        sample_owner.append(np.full(len(pts), owner, dtype=np.int64))
    samples = np.vstack(sample_blocks) if sample_blocks else np.zeros((0, 3))
    labels = np.concatenate(sample_owner) if sample_owner else np.zeros(0, dtype=np.int64)

    # in-front test in camera coordinates
    keep = world_to_cam.apply(samples)[:, 2] > _RAY_TOL

    # occlusion: a sample dies if any patch cuts its camera ray strictly earlier
    if spec.occlusion:
        dirs = samples - camera_pos  # sample itself sits at t = 1
        nearest = np.full(len(samples), np.inf)
        for patch in patches:
            nearest = np.minimum(nearest, ray_patch_depths(camera_pos, dirs, patch))
        keep &= ~(nearest < 1.0 - 1e-6)

    cloud = samples[keep]
    cloud_labels = labels[keep]

    # range image by per-pixel ray casting
    k = spec.intrinsics
    dirs = _pixel_rays(k, spec.pose)
    depth = np.full(dirs.shape[0], np.inf)
    for patch in patches:
        depth = np.minimum(depth, ray_patch_depths(camera_pos, dirs, patch))
    depth = np.where(np.isfinite(depth), depth, 0.0).reshape(k.height, k.width)
    range_image = RangeImage(depth=depth, intrinsics=k, pose=spec.pose)

    # per-object ground truth rects
    objects: list[RenderedObject] = []
    for oi, obj in enumerate(spec.objects):
        corners2d = oriented_box_footprint(obj.box)
        z0, z1 = obj.box.z_interval
        corners = np.array([[x, y, z] for x, y in corners2d for z in (z0, z1)])
        corner_cam = world_to_cam.apply(corners)
        behind = bool(np.all(corner_cam[:, 2] <= _RAY_TOL))
        all_front = bool(np.all(corner_cam[:, 2] > _RAY_TOL))
        own = cloud_labels == oi
        n_points = int(own.sum())

        rect = None
        if not behind:
            if spec.occlusion or not all_front:
                # bounds of this object's surviving sample projections
                if n_points:
                    u, v, _ = project_points(world_to_cam.apply(cloud[own]), k)
                    rect = _extent_rect(u, v)
            else:
                # unoccluded and fully in front: exact projected extent
                u, v, _ = project_points(corner_cam, k)
                rect = _extent_rect(u, v)
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
