"""Scalar reference for the polygon clipper, 3D IoU and the vertical IoI, one polygon at a time.

frustumkit clips every footprint with one batched clipper
(``ioi._clipped_areas``, four ``_clip_pass`` passes over many rows at once).
These loops restate the rule for a single polygon: one Sutherland-Hodgman pass
per rectangle side, in the order x_min, x_max, y_min, y_max, then the absolute
shoelace area summed vertex by vertex from 0.0. The tests compare the library's
values with them bit for bit, so the check does not share the code it checks.
"""

from __future__ import annotations

import math
from typing import Sequence

from frustumkit.geometry import OrientedBox3, oriented_box_footprint


def clamp01(v: float) -> float:
    return 0.0 if v < 0.0 else (1.0 if v > 1.0 else v)


def polygon_area(polygon: Sequence[tuple[float, float]]) -> float:
    """Absolute shoelace area of a simple polygon (0.0 below 3 vertices)."""
    n = len(polygon)
    if n < 3:
        return 0.0
    acc = 0.0
    for i in range(n):
        x1, y1 = polygon[i]
        x2, y2 = polygon[(i + 1) % n]
        acc += x1 * y2 - x2 * y1
    return abs(acc) * 0.5


def clip_axis(
    poly: Sequence[tuple[float, float]], axis: int, bound: float, keep_le: bool
) -> list[tuple[float, float]]:
    """One Sutherland-Hodgman pass against an axis-aligned half plane."""
    out: list[tuple[float, float]] = []
    n = len(poly)
    for i in range(n):
        cur = poly[i]
        nxt = poly[(i + 1) % n]
        if keep_le:
            cur_in = cur[axis] <= bound
            nxt_in = nxt[axis] <= bound
        else:
            cur_in = cur[axis] >= bound
            nxt_in = nxt[axis] >= bound
        if cur_in:
            out.append(cur)
        if cur_in != nxt_in:
            t = (bound - cur[axis]) / (nxt[axis] - cur[axis])
            if axis == 0:
                out.append((bound, cur[1] + t * (nxt[1] - cur[1])))
            else:
                out.append((cur[0] + t * (nxt[0] - cur[0]), bound))
    return out


def clip_to_box(
    poly: Sequence[tuple[float, float]], x_min: float, y_min: float, x_max: float, y_max: float
) -> list[tuple[float, float]]:
    """A convex polygon clipped to [x_min, x_max] x [y_min, y_max] by four axis passes, in this order."""
    for axis, bound, keep_le in ((0, x_min, False), (0, x_max, True), (1, y_min, False), (1, y_max, True)):
        poly = clip_axis(poly, axis, bound, keep_le)
    return poly


def iou_3d_one(a: OrientedBox3, b: OrientedBox3, clip: bool = False) -> float:
    """IoU of two boxes: b's footprint clipped to a's in a's frame, times the z overlap.

    Pairs with no z overlap, and footprints farther apart than the sum of
    their half-diagonals, give 0 without a clip unless ``clip`` is set.
    """
    dz = min(a.z_interval[1], b.z_interval[1]) - max(a.z_interval[0], b.z_interval[0])
    if dz <= 0.0:
        return 0.0
    ax, ay = float(a.center[0]), float(a.center[1])
    reach = 0.5 * math.hypot(a.width, a.depth) + 0.5 * math.hypot(b.width, b.depth)
    if not clip and math.hypot(float(b.center[0]) - ax, float(b.center[1]) - ay) > reach:
        return 0.0
    c, s = math.cos(a.yaw), math.sin(a.yaw)
    quad = [(c * (x - ax) + s * (y - ay), c * (y - ay) - s * (x - ax)) for x, y in oriented_box_footprint(b)]
    hw, hd = 0.5 * a.width, 0.5 * a.depth
    inter = polygon_area(clip_to_box(quad, -hw, -hd, hw, hd)) * dz
    union = a.volume + b.volume - inter
    if union <= 0.0:
        return 0.0
    return clamp01(inter / union)


def footprint_ioi(
    quad: Sequence[tuple[float, float]], box_area: float, x_min: float, y_min: float, x_max: float, y_max: float
) -> float:
    """Share of a footprint's area inside [x_min, x_max] x [y_min, y_max]: 1.0 when every corner is inside."""
    if all(x_min <= x <= x_max and y_min <= y <= y_max for x, y in quad):
        return 1.0
    return clamp01(polygon_area(clip_to_box(quad, x_min, y_min, x_max, y_max)) / box_area)


def z_ioi(box: OrientedBox3, crop_z: float, height: float) -> float:
    """Share of the box's z-interval inside the crop centred at crop_z with the given height."""
    b_lo, b_hi = box.z_interval
    overlap = min(b_hi, crop_z + 0.5 * height) - max(b_lo, crop_z - 0.5 * height)
    return 0.0 if overlap <= 0.0 else clamp01(overlap / box.height)
