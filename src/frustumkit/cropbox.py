"""Crop-box sizing: scale classes, candidate centers, recall curves, size search.

Objects are binned by average physical size into four scale classes, each with
a fixed crop extent and voxel grid. Candidate crop centers come from point
statistics of subdivided frustums; recall curves sweep crop side and height
against per-axis intersection-over-itself thresholds to pick minimal sizes.
Dataset passes walk the samples frame by frame (split_frames), and
score_samples scores each object's candidates for recall curves and the
stale-proposal sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .csvio import csv_header, csv_line
from .errors import (
    GeometryError,
    InfeasibleSizeError,
    NoCandidatesError,
    UnsupportedScaleError,
)
from .geometry import (
    Aabb3,
    CENTER_MODES,
    CameraIntrinsics,
    CenterMode,
    CloudProjection,
    OrientedBox3,
    Rect2,
    RigidTransform,
    project_cloud,
    rect_points,
    tile_points,
)
from .ioi import IoiBreakdown, RecallReport, crop_scores, ioi, validate_threshold


@dataclass(frozen=True)
class ScaleSpec:
    """One scale class: crop extent in meters and its voxel grid dimensions."""

    crop_side: float
    crop_height: float
    grid: tuple[int, int, int]

    @property
    def cell_size(self) -> tuple[float, float, float]:
        """Cell edge lengths in meters (x, y, z)."""
        return (
            self.crop_side / self.grid[0],
            self.crop_side / self.grid[1],
            self.crop_height / self.grid[2],
        )


#: The four supported scale classes. Grid dims keep cells near isotropic and
#: even-sized for strided convolutions; tall objects trade footprint for height.
SCALE_SPECS: dict[str, ScaleSpec] = {
    "small_short": ScaleSpec(crop_side=1.6, crop_height=1.5, grid=(198, 198, 102)),
    "medium_short": ScaleSpec(crop_side=3.2, crop_height=1.7, grid=(198, 198, 102)),
    "large_short": ScaleSpec(crop_side=4.8, crop_height=2.2, grid=(198, 198, 102)),
    "medium_tall": ScaleSpec(crop_side=2.8, crop_height=3.0, grid=(134, 134, 134)),
}

#: Class boundaries in meters on (max of average width/depth, average height).
FOOTPRINT_SMALL_MAX = 0.3
FOOTPRINT_MEDIUM_MAX = 0.55
HEIGHT_SHORT_MAX = 0.55

#: Defaults: the IoI a crop needs on each axis to count as positive, and the
#: footprint and vertical recall targets of select_min_size.
THRESHOLD_DEFAULT = 0.90
TARGET_XY_DEFAULT = 0.90
TARGET_Z_DEFAULT = 0.95


def get_scale_spec(name: str) -> ScaleSpec:
    try:
        return SCALE_SPECS[name]
    except KeyError:
        raise UnsupportedScaleError(f"unknown scale class: {name!r}") from None


def assign_scale(avg_width: float, avg_depth: float, avg_height: float) -> str:
    """Map average object dimensions to a scale-class name.

    Footprint class comes from max(width, depth): small <= 0.3 m,
    medium <= 0.55 m, large above. Height class: short when height <= 0.55 m,
    tall otherwise. Small-tall and large-tall have no supported scale.
    """
    if min(avg_width, avg_depth, avg_height) <= 0:
        raise GeometryError("average dimensions must be positive")
    footprint = max(avg_width, avg_depth)
    tall = avg_height > HEIGHT_SHORT_MAX
    if footprint <= FOOTPRINT_SMALL_MAX:
        size = "small"
    elif footprint <= FOOTPRINT_MEDIUM_MAX:
        size = "medium"
    else:
        size = "large"
    if not tall:
        return f"{size}_short"
    if size == "medium":
        return "medium_tall"
    raise UnsupportedScaleError(
        f"no scale class for footprint {footprint:.3f} m ({size}) with height {avg_height:.3f} m (tall)"
    )


def own_scale_spec(box: OrientedBox3) -> ScaleSpec:
    """The scale class of the box's own dimensions (assign_scale)."""
    return get_scale_spec(assign_scale(box.width, box.depth, box.height))


# ---------------------------------------------------------------------------
# candidate centers


def candidate_centers(
    cloud: np.ndarray,
    rect: Rect2,
    k: CameraIntrinsics,
    pose: RigidTransform,
    fr: int = 1,
    fc: int = 1,
    mode: CenterMode = "average",
    projection: CloudProjection | None = None,
) -> np.ndarray:
    """Crop-center candidates from the subfrustums of a 2D proposal, an (n, 3) float64 array.

    The rect is tiled fr x fc (row-major) over one projection of the cloud,
    with depth bounded by NEAR_DEFAULT and FAR_DEFAULT (see rect_points);
    each non-empty subfrustum contributes one row, in tile order: the average
    of its points or their per-coordinate median (for even counts the lower
    of the two middle values). Empty subfrustums are dropped; if every one is
    empty there is nothing to anchor a crop to and NoCandidatesError is
    raised.

    Both statistics follow point order: an average adds the points in
    ascending cloud index starting from 0.0, and a median is the value a
    stable sort puts in the middle, so of equal values (0.0 and -0.0) point
    order decides. A 1x1 split is the rect itself: its one row comes
    straight from rect_points, with no band lookup and no tile bins.

    ``projection`` is a project_cloud of this very cloud, camera and pose (by
    identity), so that the objects of one frame share one projection;
    without it the cloud is projected here.
    """
    if mode not in CENTER_MODES:
        raise GeometryError(f"unknown center mode: {mode!r}")
    if projection is None:
        projection = project_cloud(cloud, k, pose)
    elif not projection.made_from(cloud, k, pose):
        raise GeometryError("projection was made from another cloud, camera or pose")
    if fr == fc == 1:
        point = rect_points(projection, rect)
    else:
        tiles, point = tile_points(projection, rect, fr, fc)
    if point.size == 0:
        raise NoCandidatesError(f"all {fr}x{fc} subfrustums of the rect are empty")
    inside = projection.points.take(point, axis=0)  # take gathers rows faster than indexing
    if fr == fc == 1:
        # the axis-0 sum adds the points in point order from 0.0, as the tile bins below do
        if mode == "average":
            return inside.sum(axis=0, keepdims=True) / point.size
        columns = inside.T.copy()  # each coordinate contiguous for its sort
        columns.sort(axis=1, kind="stable")
        return columns[:, [(point.size - 1) // 2]].T
    n_tiles = fr * fc
    counts = np.bincount(tiles, minlength=n_tiles)
    full = counts.nonzero()[0]
    if mode == "average":
        # bin (tile, coordinate) adds the tile's points in point order, as x[mask].mean(axis=0) does
        bins = (3 * tiles[:, None] + np.arange(3)).ravel()
        sums = np.bincount(bins, weights=inside.ravel(), minlength=3 * n_tiles).reshape(n_tiles, 3)
        centers = sums.take(full, axis=0) / counts.take(full)[:, None]
    else:
        # per coordinate, sorted by (tile, value), each tile's lower middle sits at
        # start + (count - 1) // 2. A complex number tile + value * 1j sorts as
        # that pair (real part first), so one stable sort orders all three
        # coordinates and keeps equal values (0.0 and -0.0) in point order.
        middle = (np.cumsum(counts) - counts + (counts - 1) // 2)[full]
        keyed = np.empty(inside.shape, dtype=np.complex128)
        keyed.real = tiles[:, None]
        keyed.imag = inside
        keyed.sort(axis=0, kind="stable")
        centers = keyed.imag[middle]
    return centers


def best_cropbox(
    gt: OrientedBox3, candidates: np.ndarray | Sequence[np.ndarray], spec: ScaleSpec
) -> tuple[Aabb3, IoiBreakdown]:
    """Choose the candidate center whose crop maximizes volume IoI.

    The candidates are an (n, 3) array, as candidate_centers returns them, or
    any sequence of centers. Ties keep the earliest candidate so the choice
    is deterministic under candidate ordering. The crop z-center is the
    candidate's z (candidates are point statistics, already at object height).
    """
    if len(candidates) == 0:
        raise NoCandidatesError("no candidate centers supplied")
    crops = [Aabb3(center=c, side=spec.crop_side, height=spec.crop_height) for c in candidates]
    scores = [ioi(gt, crop) for crop in crops]
    best = max(range(len(crops)), key=lambda i: scores[i].ioi_3d)  # max keeps the first of tied maxima
    return crops[best], scores[best]


def choose_crop(
    projection: CloudProjection, rect: Rect2, box: OrientedBox3, spec: ScaleSpec,
    fr: int = 1, fc: int = 1, mode: CenterMode = "average",
) -> tuple[Aabb3, IoiBreakdown]:
    """One object's crop: best_cropbox over the candidate_centers of its rect in the projection.

    The crop takes the size of spec. Raises candidate_centers'
    NoCandidatesError when every fr x fc subfrustum of the rect is empty.
    """
    k, pose = projection.k, projection.pose
    centers = candidate_centers(projection.cloud, rect, k, pose, fr, fc, mode, projection=projection)
    return best_cropbox(box, centers, spec)


# ---------------------------------------------------------------------------
# recall curves


@dataclass
class ObjectSample:
    """One labelled object with the context needed to build its frustum.

    ``cloud`` is the world-frame (N, 3) cloud of the object's frame, shared by
    every object of that frame. Loaded from a file (iter_object_samples) it is
    read_cloud_binary's read-only float32 array; any (N, 3) float array works.
    """

    category: str
    cloud: np.ndarray
    rect: Rect2
    gt_box: OrientedBox3
    intrinsics: CameraIntrinsics
    pose: RigidTransform


#: The frustum subdivisions (fr, fc) that recall curves sweep and voxelize accepts.
SUBDIVISIONS = ((1, 1), (3, 3), (5, 5))


def check_subdivision(fr: int, fc: int) -> None:
    """Raise :class:`GeometryError` unless (fr, fc) is one of :data:`SUBDIVISIONS`."""
    if (fr, fc) not in SUBDIVISIONS:
        raise GeometryError(f"subdivision ({fr}, {fc}) not in {list(SUBDIVISIONS)}")


@dataclass
class SizeSearchConfig:
    """Sweep configuration for recall curves.

    Positivity thresholds (threshold_xy / threshold_z) decide when one crop
    counts as recalling its object; both default to THRESHOLD_DEFAULT.
    """

    side_candidates: list[float]
    height_candidates: list[float]
    threshold_xy: float = THRESHOLD_DEFAULT
    threshold_z: float = THRESHOLD_DEFAULT
    fr_fc: list[tuple[int, int]] = field(default_factory=lambda: [(1, 1), (3, 3)])

    def __post_init__(self) -> None:
        if not self.side_candidates or not self.height_candidates:
            raise GeometryError("need at least one side and one height candidate")
        if not all(0 < s < math.inf for s in [*self.side_candidates, *self.height_candidates]):
            raise GeometryError("size candidates must be finite and positive")
        for name in ("threshold_xy", "threshold_z"):
            validate_threshold(name, getattr(self, name))
        if not self.fr_fc:
            raise GeometryError("need at least one subdivision")
        for pair in self.fr_fc:
            check_subdivision(*pair)
        self.side_candidates = sorted(float(s) for s in self.side_candidates)
        self.height_candidates = sorted(float(h) for h in self.height_candidates)


@dataclass(frozen=True)
class CurvePoint:
    """One recall-curve sample at a (subdivision, center mode, crop size) point.

    ``bound`` is the per-crop lower bound on ``recall_volume``
    (``recall_xy + recall_z - 1``, floored at 0). Each axis's recall takes
    its own best candidate, so ``bound_satisfied`` can read 0 when an
    object's best-footprint and best-vertical candidates differ.
    """

    fr: int
    fc: int
    mode: str
    side_m: float
    height_m: float
    recall_xy: float
    recall_z: float
    recall_volume: float
    bound: float
    bound_satisfied: bool


CURVE_CSV_HEADER = csv_header(CurvePoint)
curve_point_to_csv_row = csv_line


def split_frames(samples: Sequence[ObjectSample]) -> Iterator[tuple[list[ObjectSample], CloudProjection]]:
    """(frame, projection) per run of consecutive samples that share one cloud, camera and pose.

    Sharing is by identity (CloudProjection.made_from), as iter_object_samples
    yields each frame's objects, and ``projection`` is the run's one
    project_cloud, to be passed to candidate_centers for each of its objects.
    """
    frame: list[ObjectSample] = []
    for s in samples:
        if frame and not projection.made_from(s.cloud, s.intrinsics, s.pose):
            yield frame, projection
            frame = []
        if not frame:
            projection = project_cloud(s.cloud, s.intrinsics, s.pose)
        frame.append(s)
    if frame:
        yield frame, projection


#: Candidate centers scored together at 3 sides x 3 heights (see score_samples).
_SCORE_BATCH = 1024


def score_samples(
    samples: Sequence[ObjectSample],
    variants: Sequence[tuple[int, int, float]],
    sides: Sequence[float],
    heights: Sequence[float],
    mode: CenterMode = "average",
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Each object's best crop scores under each variant, one score batch at a time.

    A variant (fr, fc, du) shifts every rect du px along +u and splits it
    fr x fc; candidate_centers (in mode) gives the object's centers in it.
    Each batch is (slots, xy, z, volume), one row per (variant, object) with
    candidates: slots = variant * len(samples) + sample, xy[r, s] is the
    best footprint IoI over the object's candidates at sides[s], z[r, h] the
    best vertical IoI at heights[h], and volume[r, s, h] the best product of
    the two over candidates, the candidate best_cropbox would pick. Each
    entry equals what ioi() reports for that crop. An object whose
    subfrustums are all empty under a variant has no row.

    The samples are walked frame by frame (split_frames): each frame's cloud
    is projected once for every variant, and the candidates are scored with
    crop_scores in batches of about _SCORE_BATCH centers at 3 x 3 sizes. A
    batch's arrays are centers x sides (crop_scores) and centers x sides x
    heights (the volume maxima), so it closes at the first frame boundary
    where centers x sides x max(heights, 3) reaches 9 * _SCORE_BATCH, or at
    the last frame; its memory stays bounded however large the dataset or
    the size sweep.
    """
    n = len(samples)
    batch: list[tuple[int, OrientedBox3, np.ndarray]] = []  # (slot, box, centers)
    n_centers = first = 0  # first: the frame's first sample index
    for frame, projection in split_frames(samples):
        for v, (fr, fc, du) in enumerate(variants):
            for slot, s in enumerate(frame, v * n + first):
                r = s.rect
                rect = r if du == 0 else Rect2(r.u_min + du, r.v_min, r.u_max + du, r.v_max)
                try:
                    centers = candidate_centers(
                        s.cloud, rect, s.intrinsics, s.pose, fr, fc, mode, projection=projection
                    )
                except NoCandidatesError:
                    continue
                batch.append((slot, s.gt_box, centers))
                n_centers += len(centers)
        first += len(frame)
        if batch and (first == n or n_centers * len(sides) * max(len(heights), 3) >= 9 * _SCORE_BATCH):
            slots, boxes, per_object = zip(*batch)
            xy, z = crop_scores(boxes, per_object, sides, heights)
            starts = np.cumsum([0] + [len(c) for c in per_object[:-1]])
            volume = np.maximum.reduceat(xy[:, :, None] * z[:, None, :], starts)
            yield np.array(slots), np.maximum.reduceat(xy, starts), np.maximum.reduceat(z, starts), volume
            batch, n_centers = [], 0


def recall_curves(
    dataset: Sequence[ObjectSample],
    cfg: SizeSearchConfig,
    mode: CenterMode = "average",
) -> list[CurvePoint]:
    """Recall as a function of crop size, per subdivision configuration.

    For every object the candidate centers are fixed by (fr, fc, mode); each
    size point then scores the best candidate. Footprint recall takes the
    best footprint ratio over candidates (independent of height), vertical
    recall the best height ratio (independent of side), and volume recall the
    best product - the same candidate best_cropbox would pick. Curves are
    therefore non-decreasing in side at fixed height and vice versa.
    Recalls, bound and bound_satisfied come from a RecallReport over the
    integer counts, tallied over score_samples' batches; the bound holds
    per crop, not for these per-axis maxima (see CurvePoint).

    Objects whose subfrustums are all empty count as permanent misses.
    """
    if not dataset:
        raise GeometryError("dataset is empty")
    sides = cfg.side_candidates
    heights = cfg.height_candidates
    t3 = cfg.threshold_xy * cfg.threshold_z
    # objects recalled at each side, height and (side, height), per position in
    # cfg.fr_fc (a configuration listed twice gets its rows twice)
    n_xy = np.zeros((len(cfg.fr_fc), len(sides)), dtype=int)
    n_z = np.zeros((len(cfg.fr_fc), len(heights)), dtype=int)
    n_vol = np.zeros((len(cfg.fr_fc), len(sides), len(heights)), dtype=int)
    variants = [(fr, fc, 0) for fr, fc in cfg.fr_fc]
    for slots, xy, z, volume in score_samples(dataset, variants, sides, heights, mode):
        config = slots // len(dataset)
        # tallied as int: np.add.at casts bool values to the int counters in a slow loop
        np.add.at(n_xy, config, (xy >= cfg.threshold_xy).astype(int))
        np.add.at(n_z, config, (z >= cfg.threshold_z).astype(int))
        np.add.at(n_vol, config, (volume >= t3).astype(int))

    points: list[CurvePoint] = []
    for ci, (fr, fc) in enumerate(cfg.fr_fc):
        for si, side in enumerate(sides):
            for hi, height in enumerate(heights):
                report = RecallReport(
                    n_total=len(dataset),
                    n_pos_xy=int(n_xy[ci, si]),
                    n_pos_z=int(n_z[ci, hi]),
                    n_pos_volume=int(n_vol[ci, si, hi]),
                )
                points.append(
                    CurvePoint(
                        fr=fr,
                        fc=fc,
                        mode=mode,
                        side_m=side,
                        height_m=height,
                        recall_xy=report.recall_xy,
                        recall_z=report.recall_z,
                        recall_volume=report.recall_volume,
                        bound=report.bound,
                        bound_satisfied=report.bound_satisfied,
                    )
                )
    return points


def select_min_size(
    curves: Sequence[CurvePoint], target_xy: float = TARGET_XY_DEFAULT, target_z: float = TARGET_Z_DEFAULT
) -> tuple[float, float]:
    """Smallest crop side and height whose recalls meet the targets.

    The two axes are searched independently: the side search looks at
    footprint recall only, the height search at vertical recall only. Raises
    InfeasibleSizeError when no swept size reaches a target.
    """
    if not curves:
        raise GeometryError("no curve points supplied")
    validate_threshold("target_xy", target_xy)
    validate_threshold("target_z", target_z)
    best_xy_per_side: dict[float, float] = {}
    best_z_per_height: dict[float, float] = {}
    for p in curves:
        best_xy_per_side[p.side_m] = max(best_xy_per_side.get(p.side_m, 0.0), p.recall_xy)
        best_z_per_height[p.height_m] = max(best_z_per_height.get(p.height_m, 0.0), p.recall_z)
    side = next((s for s in sorted(best_xy_per_side) if best_xy_per_side[s] >= target_xy), None)
    height = next((h for h in sorted(best_z_per_height) if best_z_per_height[h] >= target_z), None)
    if side is None or height is None:
        missing = []
        if side is None:
            missing.append(f"footprint recall never reaches {target_xy}")
        if height is None:
            missing.append(f"vertical recall never reaches {target_z}")
        raise InfeasibleSizeError("; ".join(missing))
    return side, height
