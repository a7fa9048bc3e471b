"""Box regression targets: anchors, crop-relative encoding, loss, gradients.

A box is regressed as 8 numbers: a unit heading 2-vector (cos yaw, sin yaw),
the center as fractions of the crop extent in [0, 1] (what a sigmoid output
would produce), and log-ratios of the dimensions against a per-category
anchor. The loss is a weighted sum of squared errors over those three groups;
being quadratic, its analytic gradient is exact and cheap to verify with
central differences.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EncodeDomainError, GeometryError
from .geometry import Aabb3, OrientedBox3, normalize_yaw


@dataclass(frozen=True)
class Anchor:
    """Per-category reference dimensions used for log-ratio size encoding."""

    category: str
    a_w: float
    a_d: float
    a_h: float

    def __post_init__(self) -> None:
        if not all(0 < a < math.inf for a in (self.a_w, self.a_d, self.a_h)):
            raise GeometryError(f"anchor dimensions must be finite and positive: {self}")


def compute_anchors(boxes_by_category: Mapping[str, Sequence[OrientedBox3]]) -> dict[str, Anchor]:
    """Mean width/depth/height per category; empty categories are an error."""
    anchors: dict[str, Anchor] = {}
    for category, boxes in boxes_by_category.items():
        if not boxes:
            raise GeometryError(f"category {category!r} has no boxes to average")
        anchors[category] = Anchor(
            category=category,
            a_w=float(np.mean([b.width for b in boxes])),
            a_d=float(np.mean([b.depth for b in boxes])),
            a_h=float(np.mean([b.height for b in boxes])),
        )
    return anchors


ANCHOR_CSV_HEADER = "category,a_w,a_d,a_h"


def write_anchor_csv(anchors: Mapping[str, Anchor], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ANCHOR_CSV_HEADER.split(","))
        for category in sorted(anchors):
            a = anchors[category]
            writer.writerow([a.category, format(a.a_w, ".12g"), format(a.a_d, ".12g"), format(a.a_h, ".12g")])


def read_anchor_csv(path: str) -> dict[str, Anchor]:
    anchors: dict[str, Anchor] = {}
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ANCHOR_CSV_HEADER.split(","):
            raise GeometryError(f"{path}: unexpected anchor CSV header {header}")
        for row in reader:
            if len(row) != 4:
                raise GeometryError(f"{path}: malformed anchor row {row}")
            try:
                anchors[row[0]] = Anchor(row[0], float(row[1]), float(row[2]), float(row[3]))
            except (ValueError, GeometryError) as exc:
                raise GeometryError(f"{path}: bad anchor row {row}: {exc}") from exc
    return anchors


@dataclass(frozen=True)
class HeadVector:
    """The 8 regression components for one box, in network-output units."""

    ori_cos: float
    ori_sin: float
    tx: float
    ty: float
    tz: float
    lw: float
    ld: float
    lh: float

    def __post_init__(self) -> None:
        norm = math.hypot(self.ori_cos, self.ori_sin)
        if abs(norm - 1.0) > 1e-9:
            raise GeometryError(f"orientation must be a unit vector, |o| = {norm}")
        for name, t in (("tx", self.tx), ("ty", self.ty), ("tz", self.tz)):
            if not (0.0 <= t <= 1.0):
                raise GeometryError(f"{name} = {t} outside [0, 1]")
        for name, v in (("lw", self.lw), ("ld", self.ld), ("lh", self.lh)):
            if not math.isfinite(v):
                raise GeometryError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.ori_cos, self.ori_sin, self.tx, self.ty, self.tz, self.lw, self.ld, self.lh]
        )


@dataclass(frozen=True)
class LossWeights:
    """Term weights: orientation, center, size."""

    w_orientation: float = 1.0
    w_center: float = 1.0
    w_size: float = 1.0

    def __post_init__(self) -> None:
        for name, w in (
            ("w_orientation", self.w_orientation),
            ("w_center", self.w_center),
            ("w_size", self.w_size),
        ):
            if w < 0 or not math.isfinite(w):
                raise GeometryError(f"{name} must be finite and non-negative")
        if self.w_orientation == 0 and self.w_center == 0 and self.w_size == 0:
            raise GeometryError("at least one of the three box-term weights must be positive")


def encode(gt: OrientedBox3, crop: Aabb3, anchor: Anchor) -> HeadVector:
    """Express a ground-truth box relative to its crop and category anchor.

    Centers become fractions of the crop extent and must land in [0, 1]; a
    center outside the crop raises EncodeDomainError rather than clamping.
    """
    lo = crop.min_corner
    tx = (float(gt.center[0]) - lo[0]) / crop.side
    ty = (float(gt.center[1]) - lo[1]) / crop.side
    tz = (float(gt.center[2]) - lo[2]) / crop.height
    for name, t in (("tx", tx), ("ty", ty), ("tz", tz)):
        if not (0.0 <= t <= 1.0):
            raise EncodeDomainError(f"gt center leaves the crop: {name} = {t:.6g}")
    return HeadVector(
        ori_cos=math.cos(gt.yaw),
        ori_sin=math.sin(gt.yaw),
        tx=tx,
        ty=ty,
        tz=tz,
        lw=math.log(gt.width / anchor.a_w),
        ld=math.log(gt.depth / anchor.a_d),
        lh=math.log(gt.height / anchor.a_h),
    )


def decode(v: HeadVector, crop: Aabb3, anchor: Anchor) -> OrientedBox3:
    """Invert :func:`encode`; yaw is recovered in the canonical [-pi, pi)."""
    lo = crop.min_corner
    center = np.array(
        [
            lo[0] + v.tx * crop.side,
            lo[1] + v.ty * crop.side,
            lo[2] + v.tz * crop.height,
        ]
    )
    return OrientedBox3(
        center=center,
        width=anchor.a_w * math.exp(v.lw),
        depth=anchor.a_d * math.exp(v.ld),
        height=anchor.a_h * math.exp(v.lh),
        yaw=normalize_yaw(math.atan2(v.ori_sin, v.ori_cos)),
    )


class LossBreakdown(NamedTuple):
    total: float
    orientation: float
    xyz: float
    wdh: float


def _loss_terms(pred: np.ndarray, target: np.ndarray) -> tuple[float, float, float]:
    d = pred - target
    orientation = float(d[0] * d[0] + d[1] * d[1])
    xyz = float(d[2] * d[2] + d[3] * d[3] + d[4] * d[4])
    wdh = float(d[5] * d[5] + d[6] * d[6] + d[7] * d[7])
    return orientation, xyz, wdh


def loss(pred: HeadVector, target: HeadVector, weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Weighted squared-error loss over the three component groups.

    The orientation term is the squared Euclidean distance between the two
    unit heading vectors (equivalently 2 - 2 cos(delta yaw)). The total is
    the function fd_check differentiates.
    """
    p, t = pred.as_array(), target.as_array()
    orientation, xyz, wdh = _loss_terms(p, t)
    return LossBreakdown(total=_raw_total(p, t, weights), orientation=orientation, xyz=xyz, wdh=wdh)


def _raw_total(pred: np.ndarray, target: np.ndarray, weights: LossWeights) -> float:
    orientation, xyz, wdh = _loss_terms(pred, target)
    return weights.w_orientation * orientation + weights.w_center * xyz + weights.w_size * wdh


def loss_grad(pred: HeadVector, target: HeadVector, weights: LossWeights = LossWeights()) -> np.ndarray:
    """Analytic d(total)/d(pred) over the 8 components, matching as_array order."""
    d = pred.as_array() - target.as_array()
    scale = np.array(
        [
            weights.w_orientation,
            weights.w_orientation,
            weights.w_center,
            weights.w_center,
            weights.w_center,
            weights.w_size,
            weights.w_size,
            weights.w_size,
        ]
    )
    return 2.0 * scale * d


def fd_check(
    pred: HeadVector,
    target: HeadVector,
    weights: LossWeights = LossWeights(),
    eps: float = 1e-5,
) -> float:
    """Max relative disagreement between analytic and central-difference grads.

    Perturbations act on the raw 8-vector (no re-validation, so orientation
    may leave the unit circle by eps, which is exactly what a finite
    difference needs). The relative error denominator is floored at 1e-6 so
    near-zero gradient components do not blow up the ratio.
    """
    if not (1e-8 <= eps <= 1e-3):
        raise GeometryError(f"eps = {eps} outside the supported [1e-8, 1e-3] range")
    p = pred.as_array()
    t = target.as_array()
    analytic = loss_grad(pred, target, weights)
    worst = 0.0
    for i in range(8):
        hi = p.copy()
        lo = p.copy()
        hi[i] += eps
        lo[i] -= eps
        fd = (_raw_total(hi, t, weights) - _raw_total(lo, t, weights)) / (2.0 * eps)
        denom = max(abs(analytic[i]), abs(fd), 1e-6)
        worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst
