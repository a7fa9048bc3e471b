"""Intersection-over-itself metrics and the crop-recall bookkeeping built on them.

IoI measures how much of a ground-truth box survives inside a candidate crop,
normalized by the box's own measure (not the union), so it is asymmetric by
design: a huge crop fully covering a small box scores 1.0. Because crops are
vertical extrusions of their square footprint, the 3D ratio factors exactly
into a footprint term and a height term, and per-axis positivity thresholds
multiply into a volume positivity threshold.

``ioi()`` scores one crop; ``crop_scores`` scores many boxes against their
candidate crops in one vectorized pass with the same arithmetic, so each of
its entries equals what ``ioi()`` reports.
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


def ioi(box: OrientedBox3, crop: Aabb3) -> IoiBreakdown:
    """Full IoI breakdown of a ground-truth box against an axis-aligned crop.

    The volume ratio is stored as the exact product of the two factor ratios,
    which is what makes per-axis threshold products meaningful.
    """
    quad = oriented_box_footprint(box)
    xy = _footprint_ioi(quad, box.width * box.depth, float(crop.center[0]), float(crop.center[1]), crop.side)
    # vertical extent: the share of the box's z-interval inside the crop's
    b_lo, b_hi = box.z_interval
    crop_cz = float(crop.center[2])
    overlap = min(b_hi, crop_cz + 0.5 * crop.height) - max(b_lo, crop_cz - 0.5 * crop.height)
    z = 0.0 if overlap <= 0.0 else _clamp01(overlap / box.height)
    return IoiBreakdown(ioi_xy=xy, ioi_z=z, ioi_3d=xy * z)


def _clip_pass(
    px: np.ndarray, py: np.ndarray, n: np.ndarray, axis: int, bound: np.ndarray, keep_le: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # _clip_halfplane_axis on every row at once: row r holds the polygon
    # (px[r, :n[r]], py[r, :n[r]]), zero-padded; the output keeps the scalar
    # pass's vertex order and arithmetic
    a, o = (px, py) if axis == 0 else (py, px)
    rows = np.arange(len(n))[:, None]
    j = np.arange(a.shape[1])
    vertex = j < n[:, None]
    nxt = np.where(j + 1 < n[:, None], j + 1, 0)
    b = bound[:, None]
    cur_in = ((a <= b) if keep_le else (a >= b)) & vertex
    cross = vertex & (cur_in != cur_in[rows, nxt])
    a_nxt, o_nxt = a[rows, nxt], o[rows, nxt]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (b - a) / (a_nxt - a)
        cut = o + t * (o_nxt - o)
    emit = cur_in.astype(np.int64) + cross
    pos = np.cumsum(emit, axis=1) - emit
    n_out = emit.sum(axis=1)
    out_a = np.zeros((len(n), int(n_out.max(initial=1))))
    out_o = np.zeros_like(out_a)
    r, c = np.nonzero(cur_in)
    out_a[r, pos[r, c]] = a[r, c]
    out_o[r, pos[r, c]] = o[r, c]
    r, c = np.nonzero(cross)
    at = pos[r, c] + cur_in[r, c]
    out_a[r, at] = bound[r]
    out_o[r, at] = cut[r, c]
    return (out_a, out_o, n_out) if axis == 0 else (out_o, out_a, n_out)


def _footprint_iois(
    quads: np.ndarray, box_areas: np.ndarray, crop_cx: np.ndarray, crop_cy: np.ndarray, sides: np.ndarray
) -> np.ndarray:
    # _footprint_ioi on every row at once: the same fast path, clip order,
    # shoelace sum and clamp, so each entry equals the scalar result
    hs = 0.5 * sides
    x_min, x_max = crop_cx - hs, crop_cx + hs
    y_min, y_max = crop_cy - hs, crop_cy + hs
    qx, qy = quads[:, :, 0], quads[:, :, 1]
    whole = np.all(
        (x_min[:, None] <= qx) & (qx <= x_max[:, None]) & (y_min[:, None] <= qy) & (qy <= y_max[:, None]), axis=1
    )
    out = np.ones(len(sides))
    clip = np.flatnonzero(~whole)
    px, py, n = qx[clip], qy[clip], np.full(clip.size, 4)
    for axis, bound, keep_le in ((0, x_min, False), (0, x_max, True), (1, y_min, False), (1, y_max, True)):
        px, py, n = _clip_pass(px, py, n, axis, bound[clip], keep_le)
    rows = np.arange(clip.size)
    acc = np.zeros(clip.size)
    for i in range(px.shape[1]):
        nxt = np.where(i + 1 < n, i + 1, 0)
        term = px[:, i] * py[rows, nxt] - px[rows, nxt] * py[:, i]
        acc = acc + np.where(i < n, term, 0.0)
    area = np.where(n >= 3, np.abs(acc) * 0.5, 0.0)
    ratio = area / box_areas[clip]
    out[clip] = np.where(ratio > 1.0, 1.0, ratio)
    return out


def crop_scores(
    boxes: Sequence[OrientedBox3],
    centers: Sequence[np.ndarray],
    sides: Sequence[float],
    heights: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis IoI of each box against every crop built from its own centers and the given sizes.

    centers[b] holds box b's crop centers, an (n_b, 3) array. Rows run box by
    box, then center by center: with row r standing for center c of its box,
    xy[r, s] is the footprint IoI of the crop at c with side sides[s], and
    z[r, h] the vertical IoI of the one with height heights[h]. The crop
    (c, sides[s], heights[h]) has volume IoI xy[r, s] * z[r, h]: each entry is
    exactly what ioi() reports for it. All rows are scored in one vectorized
    pass, so callers batch many boxes per call.
    """
    sides = np.asarray(sides, dtype=np.float64)
    heights = np.asarray(heights, dtype=np.float64)
    per_box = [np.asarray(c, dtype=np.float64).reshape(-1, 3) for c in centers]
    if len(per_box) != len(boxes):
        raise GeometryError(f"{len(boxes)} boxes but {len(per_box)} center sets")
    owner = np.repeat(np.arange(len(boxes)), [len(c) for c in per_box])
    crop = np.concatenate(per_box) if per_box else np.zeros((0, 3))
    n_rows, n_sides = len(crop), len(sides)

    quads = np.array([oriented_box_footprint(b) for b in boxes]).reshape(-1, 4, 2)
    areas = np.array([b.width * b.depth for b in boxes], dtype=np.float64)
    row_box = np.repeat(owner, n_sides)
    xy = _footprint_iois(
        quads[row_box], areas[row_box], np.repeat(crop[:, 0], n_sides), np.repeat(crop[:, 1], n_sides),
        np.tile(sides, n_rows),
    ).reshape(n_rows, n_sides)

    # ioi()'s z rule, broadcast over (row, height)
    b_z = np.array([(*b.z_interval, b.height) for b in boxes], dtype=np.float64).reshape(-1, 3)[owner]
    c_lo, c_hi = crop[:, 2, None] - 0.5 * heights, crop[:, 2, None] + 0.5 * heights
    overlap = np.minimum(b_z[:, 1, None], c_hi) - np.maximum(b_z[:, 0, None], c_lo)
    ratio = overlap / b_z[:, 2, None]
    z = np.where(overlap <= 0.0, 0.0, np.where(ratio > 1.0, 1.0, ratio))
    return xy, z


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


def _sample_inside(box: OrientedBox3, n: int, rng: np.random.Generator) -> np.ndarray:
    unit = rng.random((n, 3)) - 0.5
    lx = unit[:, 0] * box.width
    ly = unit[:, 1] * box.depth
    lz = unit[:, 2] * box.height
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    x = box.center[0] + c * lx - s * ly
    y = box.center[1] + s * lx + c * ly
    z = box.center[2] + lz
    return np.stack([x, y, z], axis=1)


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


def mc_intersection_volume(a: OrientedBox3, b, n_samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of the intersection volume of box `a` and a box or crop `b`.

    Samples uniformly inside `a` (its own volume is the tightest bounding
    region) and scores membership in `b`. Returns (estimate, stderr) where
    stderr is the binomial standard error scaled by volume(a).
    """
    if n_samples < 1000:
        raise GeometryError("n_samples must be at least 1000 for a stable estimate")
    rng = np.random.default_rng(seed)
    pts = _sample_inside(a, n_samples, rng)
    p = float(_contains(b, pts).mean())
    vol = a.volume
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
