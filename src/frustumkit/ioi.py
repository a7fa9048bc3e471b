"""Intersection-over-itself metrics and the crop-recall bookkeeping built on them.

IoI measures how much of a ground-truth box survives inside a candidate crop,
normalized by the box's own measure (not the union), so it is asymmetric by
design: a huge crop fully covering a small box scores 1.0. Because crops are
vertical extrusions of their square footprint, the 3D ratio factors exactly
into a footprint term and a height term, and per-axis positivity thresholds
multiply into a volume positivity threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GeometryError, InvariantViolation
from .geometry import (
    Aabb3,
    OrientedBox3,
    Rect2,
    clip_polygon_to_aabb,
    clip_convex_polygons,
    oriented_box_footprint,
    polygon_area,
)


@dataclass(frozen=True)
class IoiBreakdown:
    """Per-axis and volume intersection-over-itself ratios, each in [0, 1]."""

    ioi_xy: float
    ioi_z: float
    ioi_3d: float

    def __post_init__(self) -> None:
        for name, v in (("ioi_xy", self.ioi_xy), ("ioi_z", self.ioi_z), ("ioi_3d", self.ioi_3d)):
            if not (0.0 <= v <= 1.0):
                raise InvariantViolation(f"{name} = {v} outside [0, 1]")
        if abs(self.ioi_3d - self.ioi_xy * self.ioi_z) > 1e-12:
            raise InvariantViolation("ioi_3d must factor as ioi_xy * ioi_z")


def _clamp01(v: float) -> float:
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def _footprint_ioi(
    quad: Sequence[tuple[float, float]], box_area: float, crop_cx: float, crop_cy: float, side: float
) -> float:
    hs = 0.5 * side
    x_min, x_max = crop_cx - hs, crop_cx + hs
    y_min, y_max = crop_cy - hs, crop_cy + hs
    # fast path: every corner inside the crop -> the whole footprint survives
    if all(x_min <= x <= x_max and y_min <= y <= y_max for x, y in quad):
        return 1.0
    clipped = clip_polygon_to_aabb(quad, x_min, y_min, x_max, y_max)
    if not clipped:
        return 0.0
    return _clamp01(polygon_area(clipped) / box_area)


def ioi_z_for_crop(box: OrientedBox3, crop_cz: float, height: float) -> float:
    """Vertical-extent IoI of `box` against a crop z-interval."""
    b_lo, b_hi = box.z_interval
    c_lo, c_hi = crop_cz - 0.5 * height, crop_cz + 0.5 * height
    overlap = min(b_hi, c_hi) - max(b_lo, c_lo)
    if overlap <= 0.0:
        return 0.0
    return _clamp01(overlap / box.height)


def ioi(box: OrientedBox3, crop: Aabb3) -> IoiBreakdown:
    """Full IoI breakdown of a ground-truth box against an axis-aligned crop.

    The volume ratio is stored as the exact product of the two factor ratios,
    which is what makes per-axis threshold products meaningful.
    """
    quad = oriented_box_footprint(box)
    xy = _footprint_ioi(quad, box.width * box.depth, float(crop.center[0]), float(crop.center[1]), crop.side)
    z = ioi_z_for_crop(box, float(crop.center[2]), crop.height)
    return IoiBreakdown(ioi_xy=xy, ioi_z=z, ioi_3d=xy * z)


def crop_scores(
    box: OrientedBox3,
    centers: Sequence[np.ndarray],
    sides: Sequence[float],
    heights: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis IoI of `box` against every crop built from the given centers and sizes.

    Returns (xy, z) with xy[c, s] the footprint IoI of a crop centered at
    centers[c] with side sides[s], and z[c, h] the vertical IoI of one with
    height heights[h]. The crop (centers[c], sides[s], heights[h]) has volume
    IoI xy[c, s] * z[c, h]: each entry is exactly what ioi() reports for it.
    """
    quad = oriented_box_footprint(box)
    area = box.width * box.depth
    xy = [[_footprint_ioi(quad, area, float(c[0]), float(c[1]), s) for s in sides] for c in centers]
    z = [[ioi_z_for_crop(box, float(c[2]), h) for h in heights] for c in centers]
    return np.array(xy, dtype=np.float64), np.array(z, dtype=np.float64)


# ---------------------------------------------------------------------------
# classic IoU, for evaluation and for contrast with IoI


def iou_2d(a: Rect2, b: Rect2) -> float:
    """Intersection over union of two axis-aligned rectangles."""
    iw = min(a.u_max, b.u_max) - max(a.u_min, b.u_min)
    ih = min(a.v_max, b.v_max) - max(a.v_min, b.v_min)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return _clamp01(inter / union)


def iou_3d(a: OrientedBox3, b: OrientedBox3) -> float:
    """IoU of two gravity-aligned oriented boxes (exact, via convex clipping).

    Both boxes are vertical extrusions of their footprints, so the
    intersection volume is the clipped footprint area times the z overlap.
    """
    z_lo = max(a.z_interval[0], b.z_interval[0])
    z_hi = min(a.z_interval[1], b.z_interval[1])
    dz = z_hi - z_lo
    if dz <= 0.0:
        return 0.0
    inter_poly = clip_convex_polygons(oriented_box_footprint(a), oriented_box_footprint(b))
    inter_area = polygon_area(inter_poly)
    inter = inter_area * dz
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return _clamp01(inter / union)


# ---------------------------------------------------------------------------
# Monte Carlo cross-check


def _shape_volume(shape) -> float:
    if isinstance(shape, (OrientedBox3, Aabb3)):
        return shape.volume
    raise GeometryError(f"unsupported shape type: {type(shape).__name__}")


def _sample_inside(shape, n: int, rng: np.random.Generator) -> np.ndarray:
    unit = rng.random((n, 3)) - 0.5
    if isinstance(shape, OrientedBox3):
        lx = unit[:, 0] * shape.width
        ly = unit[:, 1] * shape.depth
        lz = unit[:, 2] * shape.height
        c, s = math.cos(shape.yaw), math.sin(shape.yaw)
        x = shape.center[0] + c * lx - s * ly
        y = shape.center[1] + s * lx + c * ly
        z = shape.center[2] + lz
        return np.stack([x, y, z], axis=1)
    if isinstance(shape, Aabb3):
        extent = np.array([shape.side, shape.side, shape.height])
        return shape.min_corner + (unit + 0.5) * extent
    raise GeometryError(f"unsupported shape type: {type(shape).__name__}")


def _contains(shape, pts: np.ndarray) -> np.ndarray:
    if isinstance(shape, OrientedBox3):
        dx = pts[:, 0] - shape.center[0]
        dy = pts[:, 1] - shape.center[1]
        dz = pts[:, 2] - shape.center[2]
        c, s = math.cos(shape.yaw), math.sin(shape.yaw)
        lx = c * dx + s * dy
        ly = -s * dx + c * dy
        return (
            (np.abs(lx) <= 0.5 * shape.width)
            & (np.abs(ly) <= 0.5 * shape.depth)
            & (np.abs(dz) <= 0.5 * shape.height)
        )
    if isinstance(shape, Aabb3):
        lo, hi = shape.min_corner, shape.max_corner
        return np.all((pts >= lo) & (pts <= hi), axis=1)
    raise GeometryError(f"unsupported shape type: {type(shape).__name__}")


def mc_intersection_volume(a, b, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the intersection volume of two box-like shapes.

    Samples uniformly inside shape `a` (its own volume is the tightest
    bounding region) and scores membership in `b`. Returns (estimate, stderr)
    where stderr is the binomial standard error scaled by volume(a).
    """
    if n_samples < 1000:
        raise GeometryError("n_samples must be at least 1000 for a stable estimate")
    rng = np.random.default_rng(seed)
    pts = _sample_inside(a, n_samples, rng)
    p = float(_contains(b, pts).mean())
    vol = _shape_volume(a)
    est = vol * p
    stderr = vol * math.sqrt(p * (1.0 - p) / n_samples)
    return est, stderr


# ---------------------------------------------------------------------------
# recall bookkeeping


def recall_lower_bound(recall_xy: float, recall_z: float) -> float:
    """Worst-case volume recall implied by the two per-axis recalls."""
    return max(0.0, recall_xy + recall_z - 1.0)


@dataclass(frozen=True)
class RecallReport:
    """Positivity counts and recalls for a fixed set of (box, crop) pairs."""

    threshold_xy: float
    threshold_z: float
    n_total: int
    n_pos_xy: int
    n_pos_z: int
    n_pos_volume: int

    @property
    def recall_xy(self) -> float:
        return self.n_pos_xy / self.n_total

    @property
    def recall_z(self) -> float:
        return self.n_pos_z / self.n_total

    @property
    def recall_volume(self) -> float:
        return self.n_pos_volume / self.n_total

    @property
    def bound(self) -> float:
        return recall_lower_bound(self.recall_xy, self.recall_z)

    @property
    def bound_satisfied(self) -> bool:
        # integer form of recall_volume >= recall_xy + recall_z - 1, immune to
        # float rounding in the division
        return self.n_pos_volume >= max(0, self.n_pos_xy + self.n_pos_z - self.n_total)


def validate_threshold(name: str, value: float) -> None:
    """Require 0 < value <= 1; NaN fails the chained comparison and is rejected too."""
    if not (0.0 < value <= 1.0):
        raise GeometryError(f"{name} must lie in (0, 1], got {value}")


def recall_from_breakdowns(
    breakdowns: Sequence[IoiBreakdown], threshold_xy: float, threshold_z: float
) -> RecallReport:
    """Build a RecallReport from precomputed IoI breakdowns."""
    validate_threshold("threshold_xy", threshold_xy)
    validate_threshold("threshold_z", threshold_z)
    if not breakdowns:
        raise GeometryError("need at least one (box, crop) pair")
    t3 = threshold_xy * threshold_z
    n_xy = sum(1 for b in breakdowns if b.ioi_xy >= threshold_xy)
    n_z = sum(1 for b in breakdowns if b.ioi_z >= threshold_z)
    n_vol = sum(1 for b in breakdowns if b.ioi_3d >= t3)
    report = RecallReport(
        threshold_xy=threshold_xy,
        threshold_z=threshold_z,
        n_total=len(breakdowns),
        n_pos_xy=n_xy,
        n_pos_z=n_z,
        n_pos_volume=n_vol,
    )
    if not report.bound_satisfied:
        # cannot happen: per-pair, xy-positive and z-positive imply volume-
        # positive because the volume ratio is the exact product of factors
        raise InvariantViolation("volume recall fell below its lower bound")
    return report
