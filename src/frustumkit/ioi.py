"""Intersection-over-itself metrics and the crop-recall bookkeeping built on them.

IoI measures how much of a ground-truth box survives inside a candidate crop,
normalized by the box's own measure (not the union), so it is asymmetric by
design: a huge crop fully covering a small box scores 1.0. Because crops are
vertical extrusions of their square footprint, the 3D ratio factors exactly
into a footprint term and a height term, and per-axis positivity thresholds
multiply into a volume positivity threshold.

``crop_scores`` scores many boxes against their candidate crops in one
vectorized pass, by one footprint rule (``_footprint_iois``) and one
vertical rule (``_z_iois``). ``ioi()`` scores one crop by the same two
rules, and settles on its own only a footprint whole in the crop, so each
entry of ``crop_scores`` equals what ``ioi()`` reports. Both take a box's
corners from ``geometry.footprint_corners`` (one box at a time, or all boxes
in one array call). ``iou_3d`` scores many pairs of boxes in one call, each
in its first box's frame. All three clip a box footprint to a rectangle with
the one clipper, ``_clipped_areas``: four axis passes of ``_clip_pass`` over
many rows at once, then the shoelace area. The polygon clipping and areas of
the package live here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GeometryError, InvariantViolation
from .geometry import Aabb3, OrientedBox3, Rect2, footprint_corners, oriented_box_footprint


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


def _successors(n: np.ndarray, width: int) -> np.ndarray:
    # flat index, into a (len(n), width) array, of each vertex's successor:
    # the next slot, and the row's first for its last vertex. Slots past a
    # row's n[r] vertices point at the next slot (one past the end for the
    # array's last slot): callers mask them.
    nxt = np.arange(1, len(n) * width + 1).reshape(len(n), width)
    nxt[np.arange(len(n)), n - 1] -= n
    return nxt


def _clip_pass(
    px: np.ndarray, py: np.ndarray, n: np.ndarray, axis: int, bound: np.ndarray, keep_le: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # One Sutherland-Hodgman pass against an axis-aligned half plane, on
    # every row at once: row r holds the polygon (px[r, :n[r]], py[r, :n[r]]),
    # zero-padded. Each vertex inside is kept, in order, and followed by the
    # cut point (bound, o + t * (o_next - o)) where its edge crosses the bound.
    # Slots are addressed by flat index, and a cut point is computed only
    # where an edge crosses.
    a, o = (px, py) if axis == 0 else (py, px)
    n_rows, width = a.shape
    vertex = np.arange(width) < n[:, None]
    nxt = _successors(n, width)
    b = bound[:, None]
    cur_in = ((a <= b) if keep_le else (a >= b)) & vertex
    cross = vertex & (cur_in != cur_in.take(nxt, mode="clip"))
    # each slot emits its vertex if inside, then the cut point if its edge crosses
    emit = cross + cur_in.view(np.int8)
    pos = np.cumsum(emit, axis=1, dtype=np.intp)
    pos -= emit
    n_out = pos[:, -1] + emit[:, -1]
    w_out = int(n_out.max(initial=1))
    out_a = np.zeros((n_rows, w_out))
    out_o = np.zeros_like(out_a)
    pos += np.arange(0, n_rows * w_out, w_out)[:, None]
    a, o, pos, cur_in, nxt = a.ravel(), o.ravel(), pos.ravel(), cur_in.ravel(), nxt.ravel()
    k = cur_in.nonzero()[0]
    out_a.ravel()[pos[k]] = a[k]
    out_o.ravel()[pos[k]] = o[k]
    k = cross.ravel().nonzero()[0]
    at = pos[k] + cur_in[k]
    bk, ak, ok, kn = bound[k // width], a[k], o[k], nxt[k]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (bk - ak) / (a[kn] - ak)
        out_o.ravel()[at] = ok + t * (o[kn] - ok)
    out_a.ravel()[at] = bk
    return (out_a, out_o, n_out) if axis == 0 else (out_o, out_a, n_out)


def _clipped_areas(
    px: np.ndarray, py: np.ndarray, x_min: np.ndarray, y_min: np.ndarray, x_max: np.ndarray, y_max: np.ndarray
) -> np.ndarray:
    """Area of each row's convex polygon (px[r], py[r]) clipped to [x_min[r], x_max[r]] x [y_min[r], y_max[r]].

    The package's one clipper: four _clip_pass passes, in the order x_min,
    x_max, y_min, y_max, then the absolute shoelace sum, added vertex by
    vertex from the first term (a sum from 0.0 would differ only in the
    sign of a zero, which abs() drops). A clip below 3 vertices has area 0.
    """
    n = np.full(len(px), px.shape[1])
    for axis, bound, keep_le in ((0, x_min, False), (0, x_max, True), (1, y_min, False), (1, y_max, True)):
        px, py, n = _clip_pass(px, py, n, axis, bound, keep_le)
    nxt = _successors(n, px.shape[1])
    term = px * py.take(nxt, mode="clip") - px.take(nxt, mode="clip") * py
    acc = np.cumsum(np.where(np.arange(px.shape[1]) < n[:, None], term, 0.0), axis=1)[:, -1]
    return np.where(n >= 3, np.abs(acc) * 0.5, 0.0)


def _footprint_iois(
    qx: np.ndarray, qy: np.ndarray, box_areas: np.ndarray, row_box: np.ndarray,
    crop_cx: np.ndarray, crop_cy: np.ndarray, sides: np.ndarray,
) -> np.ndarray:
    # The footprint IoI of every row at once: row r scores box row_box[r],
    # whose corners are qx[b], qy[b] (four each) and area box_areas[b],
    # against the crop at (crop_cx[r], crop_cy[r]) with side sides[r]. A
    # footprint whole in its crop scores 1.0 without a clip: every corner
    # lies inside a crop exactly when the corners' extents do, so that
    # check compares four extents per row. The other rows are clipped
    # together, and their area ratio is clamped to 1.
    hs = 0.5 * sides
    x_min, x_max = crop_cx - hs, crop_cx + hs
    y_min, y_max = crop_cy - hs, crop_cy + hs
    whole = x_min <= qx.min(axis=1)[row_box]
    whole &= qx.max(axis=1)[row_box] <= x_max
    whole &= y_min <= qy.min(axis=1)[row_box]
    whole &= qy.max(axis=1)[row_box] <= y_max
    out = np.ones(len(sides))
    clip = np.flatnonzero(~whole)
    if clip.size == 0:
        return out
    clip_box = row_box[clip]
    px, py = qx.take(clip_box, axis=0), qy.take(clip_box, axis=0)
    area = _clipped_areas(px, py, x_min[clip], y_min[clip], x_max[clip], y_max[clip])
    ratio = area / box_areas[clip_box]
    out[clip] = np.where(ratio > 1.0, 1.0, ratio)
    return out


def _z_iois(b_lo, b_hi, box_h, crop_z, heights):
    # The vertical IoI: the share of a box's z-interval [b_lo, b_hi], of
    # height box_h, inside the crop centred at crop_z with height heights;
    # 0.0 where they do not overlap. Floats, or arrays that broadcast
    # together (crop_scores passes columns of rows against a row of heights).
    half = 0.5 * heights
    overlap = np.minimum(b_hi, crop_z + half) - np.maximum(b_lo, crop_z - half)
    ratio = overlap / box_h
    return np.where(overlap <= 0.0, 0.0, np.where(ratio > 1.0, 1.0, ratio))


def ioi(box: OrientedBox3, crop: Aabb3) -> IoiBreakdown:
    """Full IoI breakdown of a ground-truth box against an axis-aligned crop.

    The volume ratio is stored as the exact product of the two factor ratios,
    which is what makes per-axis threshold products meaningful. Both ratios
    come from crop_scores' rules (``_footprint_iois`` scoring one row, and
    ``_z_iois``); only a footprint whole in the crop is settled here, in
    Python floats, without building a row.
    """
    quad = oriented_box_footprint(box)
    cx, cy, cz = crop.center.tolist()
    hs = 0.5 * crop.side
    if all(cx - hs <= x <= cx + hs and cy - hs <= y <= cy + hs for x, y in quad):
        xy = 1.0
    else:
        px, py = np.array(quad).T[:, None]  # one row of four x and of four y
        row = np.array([[box.width * box.depth], [cx], [cy], [crop.side]])
        xy = float(_footprint_iois(px, py, row[0], np.zeros(1, np.intp), *row[1:])[0])
    z = float(_z_iois(*box.z_interval, box.height, cz, crop.height))
    return IoiBreakdown(ioi_xy=xy, ioi_z=z, ioi_3d=xy * z)


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
    (c, sides[s], heights[h]) has volume IoI xy[r, s] * z[r, h], and ioi()
    reports these exact values: it scores by the same rules. All rows are
    scored in one vectorized pass, so callers batch many boxes per call:
    every box's footprint corners (``footprint_corners`` on arrays), area and
    z-interval are built once per call, and only the rows whose footprint is
    not whole in its crop are clipped.
    """
    sides = np.asarray(sides, dtype=np.float64)
    heights = np.asarray(heights, dtype=np.float64)
    per_box = [np.asarray(c, dtype=np.float64).reshape(-1, 3) for c in centers]
    if len(per_box) != len(boxes):
        raise GeometryError(f"{len(boxes)} boxes but {len(per_box)} center sets")
    owner = np.repeat(np.arange(len(boxes)), [len(c) for c in per_box])
    crop = np.concatenate(per_box) if per_box else np.zeros((0, 3))
    n_rows, n_sides = len(crop), len(sides)

    # every box's footprint corners, area and z-interval in one array pass:
    # footprint_corners and box.z_interval's arithmetic on arrays of the box
    # fields, one contiguous row per field
    center = np.array([b.center for b in boxes]).reshape(-1, 3)
    fields = np.array([(b.width, b.depth, b.height, b.yaw) for b in boxes], dtype=np.float64)
    w, d, h, yaw = fields.reshape(-1, 4).T.copy()
    corners = footprint_corners(center[:, 0], center[:, 1], np.cos(yaw), np.sin(yaw), 0.5 * w, 0.5 * d)
    qx = np.stack([x for x, _ in corners], axis=1)
    qy = np.stack([y for _, y in corners], axis=1)
    xy = _footprint_iois(
        qx, qy, w * d, np.repeat(owner, n_sides), np.repeat(crop[:, 0], n_sides), np.repeat(crop[:, 1], n_sides),
        np.tile(sides, n_rows),
    ).reshape(n_rows, n_sides)

    half = 0.5 * h
    b_lo, b_hi = (center[:, 2] - half)[owner, None], (center[:, 2] + half)[owner, None]
    return xy, _z_iois(b_lo, b_hi, h[owner, None], crop[:, 2, None], heights)


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


def iou_3d(pairs: Sequence[tuple[OrientedBox3, OrientedBox3]]) -> list[float]:
    """IoU of each pair (a, b) of gravity-aligned oriented boxes (exact, via polygon clipping).

    Both boxes are vertical extrusions of their footprints, so the
    intersection volume is the clipped footprint area times the z overlap.
    b's footprint corners move into a's frame, where a's footprint is the
    box [-w/2, w/2] x [-d/2, d/2]. Pairs with no z overlap, and footprints
    whose centres lie farther apart in xy than the sum of their
    half-diagonals (disjoint), give 0 without a clip; the other pairs are
    clipped together, in one ``_clipped_areas`` call.
    """
    out = [0.0] * len(pairs)
    rows = []  # (pair index, z overlap, b's corners in a's frame, a's half width and depth)
    for i, (a, b) in enumerate(pairs):
        dz = min(a.z_interval[1], b.z_interval[1]) - max(a.z_interval[0], b.z_interval[0])
        if dz <= 0.0:
            continue
        ax, ay = float(a.center[0]), float(a.center[1])
        reach = 0.5 * math.hypot(a.width, a.depth) + 0.5 * math.hypot(b.width, b.depth)
        if math.hypot(float(b.center[0]) - ax, float(b.center[1]) - ay) > reach:
            continue
        c, s = math.cos(a.yaw), math.sin(a.yaw)
        quad = [(c * (x - ax) + s * (y - ay), c * (y - ay) - s * (x - ax)) for x, y in oriented_box_footprint(b)]
        rows.append((i, dz, quad, 0.5 * a.width, 0.5 * a.depth))
    if not rows:
        return out
    index, dz, quads, hw, hd = zip(*rows)
    px, py = np.array(quads).transpose(2, 0, 1)
    hw, hd = np.array(hw), np.array(hd)
    for i, dz_i, area in zip(index, dz, _clipped_areas(px, py, -hw, -hd, hw, hd).tolist()):
        a, b = pairs[i]
        inter = area * dz_i
        union = a.volume + b.volume - inter
        out[i] = 0.0 if union <= 0.0 else _clamp01(inter / union)
    return out


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
        # float rounding in the division. It holds per crop, as
        # recall_from_breakdowns counts, not for recall_curves' per-axis maxima
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
