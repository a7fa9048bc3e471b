"""Crop-box sizing: scale classes, candidate centers, recall curves, size search.

Objects are binned by average physical size into four scale classes, each with
a fixed crop extent and voxel grid. Candidate crop centers come from point
statistics of subdivided frustums; recall curves sweep crop side and height
against per-axis intersection-over-itself thresholds to pick minimal sizes.
Dataset passes walk the samples frame by frame (split_frames): a frame's
cloud is projected once for all its objects, and recall curves score the
candidates in batches.
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
    CameraIntrinsics,
    CenterMode,
    CloudProjection,
    OrientedBox3,
    Rect2,
    RigidTransform,
    project_cloud,
    tile_points,
)
from .ioi import IoiBreakdown, RecallReport, crop_scores, ioi, validate_threshold


@dataclass(frozen=True)
class ScaleSpec:
    """One scale class: crop extent in meters and its voxel grid dimensions."""

    name: str
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
    "small_short": ScaleSpec("small_short", crop_side=1.6, crop_height=1.5, grid=(198, 198, 102)),
    "medium_short": ScaleSpec("medium_short", crop_side=3.2, crop_height=1.7, grid=(198, 198, 102)),
    "large_short": ScaleSpec("large_short", crop_side=4.8, crop_height=2.2, grid=(198, 198, 102)),
    "medium_tall": ScaleSpec("medium_tall", crop_side=2.8, crop_height=3.0, grid=(134, 134, 134)),
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
) -> list[np.ndarray]:
    """Crop-center candidates from the subfrustums of a 2D proposal.

    The rect is tiled fr x fc (row-major) over one projection of the cloud,
    with depth bounded by NEAR_DEFAULT and FAR_DEFAULT (see tile_points);
    each non-empty subfrustum contributes the average of its points or their
    per-coordinate median (for even counts the lower of the two middle
    values). Empty subfrustums are dropped; if every one is empty there is
    nothing to anchor a crop to and NoCandidatesError is raised.

    ``projection`` is a project_cloud of this very cloud, camera and pose (by
    identity), so that the objects of one frame share one projection;
    without it the cloud is projected here.
    """
    if mode not in ("average", "median"):
        raise GeometryError(f"unknown center mode: {mode!r}")
    if projection is None:
        projection = project_cloud(cloud, k, pose)
    elif not projection.made_from(cloud, k, pose):
        raise GeometryError("projection was made from another cloud, camera or pose")
    tiles, point = tile_points(projection, rect, fr, fc)
    n_tiles = fr * fc
    counts = np.bincount(tiles, minlength=n_tiles)
    full = counts.nonzero()[0]
    if full.size == 0:
        raise NoCandidatesError(f"all {fr}x{fc} subfrustums of the rect are empty")
    inside = projection.points[point]
    if mode == "average":
        # bin (tile, coordinate) adds the tile's points in point order, as x[mask].mean(axis=0) does
        bins = (3 * tiles[:, None] + np.arange(3)).ravel()
        sums = np.bincount(bins, weights=inside.ravel(), minlength=3 * n_tiles).reshape(n_tiles, 3)
        centers = sums[full] / counts[full, None]
    else:
        # sorted by (tile, coordinate), each tile's lower middle sits at start + (count - 1) // 2
        middle = (np.cumsum(counts) - counts + (counts - 1) // 2)[full]
        centers = np.stack([inside[np.lexsort((inside[:, c], tiles))[middle], c] for c in range(3)], axis=1)
    return list(centers)


def best_cropbox(
    gt: OrientedBox3, candidates: Sequence[np.ndarray], spec: ScaleSpec
) -> tuple[Aabb3, IoiBreakdown]:
    """Choose the candidate center whose crop maximizes volume IoI.

    Ties keep the earliest candidate so the choice is deterministic under
    candidate ordering. The crop z-center is the candidate's z (candidates are
    point statistics, already at object height).
    """
    if not candidates:
        raise NoCandidatesError("no candidate centers supplied")
    crops = [Aabb3(center=np.asarray(c, dtype=float), side=spec.crop_side, height=spec.crop_height) for c in candidates]
    scores = [ioi(gt, crop) for crop in crops]
    best = max(range(len(crops)), key=lambda i: scores[i].ioi_3d)  # max keeps the first of tied maxima
    return crops[best], scores[best]


# ---------------------------------------------------------------------------
# recall curves


@dataclass
class ObjectSample:
    """One labelled object with the context needed to build its frustum."""

    category: str
    cloud: np.ndarray
    rect: Rect2
    gt_box: OrientedBox3
    intrinsics: CameraIntrinsics
    pose: RigidTransform


#: The frustum subdivisions (fr, fc) that recall curves sweep and voxelize accepts.
SUBDIVISIONS = ((1, 1), (3, 3), (5, 5))


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
        for pair in self.fr_fc:
            if tuple(pair) not in SUBDIVISIONS:
                raise GeometryError(f"subdivision {pair} not in {list(SUBDIVISIONS)}")
        self.side_candidates = sorted(float(s) for s in self.side_candidates)
        self.height_candidates = sorted(float(h) for h in self.height_candidates)


@dataclass(frozen=True)
class CurvePoint:
    """One recall-curve sample at a (subdivision, center mode, crop size) point."""

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


#: Candidate centers scored together at 3 sides x 3 heights. The scorer's
#: arrays are centers x sides (crop_scores) and centers x sides x heights (the
#: volume maxima), so a batch closes at the first frame boundary past
#: 3 * _SCORE_BATCH (center, side) pairs or 9 * _SCORE_BATCH (center, side,
#: height) triples; its memory stays bounded however large the dataset or the
#: size sweep.
_SCORE_BATCH = 1024


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
    integer counts.

    The dataset is walked frame by frame (split_frames): each frame's cloud
    is projected once for all its objects and configurations, and the
    candidates are scored in batches of about _SCORE_BATCH centers at 3x3
    sizes, fewer for larger size sweeps.

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

    def score(batch: list[tuple[int, OrientedBox3, np.ndarray]]) -> None:
        config = [ci for ci, _, _ in batch]
        xy, z = crop_scores([box for _, box, _ in batch], [c for _, _, c in batch], sides, heights)
        starts = np.cumsum([0] + [len(c) for _, _, c in batch[:-1]])
        # each object's best over its candidates
        np.add.at(n_xy, config, np.maximum.reduceat(xy, starts) >= cfg.threshold_xy)
        np.add.at(n_z, config, np.maximum.reduceat(z, starts) >= cfg.threshold_z)
        np.add.at(n_vol, config, np.maximum.reduceat(xy[:, :, None] * z[:, None, :], starts) >= t3)

    # (config position, box, centers) of every object with candidates
    batch: list[tuple[int, OrientedBox3, np.ndarray]] = []
    n_centers = 0
    for frame, projection in split_frames(dataset):
        for ci, (fr, fc) in enumerate(cfg.fr_fc):
            for item in frame:
                try:
                    centers = candidate_centers(
                        item.cloud, item.rect, item.intrinsics, pose=item.pose, fr=fr, fc=fc, mode=mode,
                        projection=projection,
                    )
                except NoCandidatesError:
                    continue
                batch.append((ci, item.gt_box, np.array(centers)))
                n_centers += len(centers)
        pairs = n_centers * len(sides)
        if pairs >= 3 * _SCORE_BATCH or pairs * len(heights) >= 9 * _SCORE_BATCH:
            score(batch)
            batch, n_centers = [], 0
    if batch:
        score(batch)

    points: list[CurvePoint] = []
    for ci, (fr, fc) in enumerate(cfg.fr_fc):
        for si, side in enumerate(sides):
            for hi, height in enumerate(heights):
                report = RecallReport(
                    threshold_xy=cfg.threshold_xy,
                    threshold_z=cfg.threshold_z,
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
