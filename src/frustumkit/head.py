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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cropbox import ObjectSample, choose_crop, own_scale_spec, split_frames
from .csvio import _record_fields, csv_header, csv_values, write_csv
from .errors import EncodeDomainError, FrustumKitError, GeometryError
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


ANCHOR_CSV_HEADER = csv_header(Anchor)


def write_anchor_csv(anchors: Mapping[str, Anchor], path: str) -> None:
    write_csv(path, ANCHOR_CSV_HEADER, (csv_values(anchors[c]) for c in sorted(anchors)))


def read_anchor_csv(path: str) -> dict[str, Anchor]:
    """Anchors from a UTF-8 CSV with one row per category; any other content is a GeometryError."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            rows = list(csv.reader(fh))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise GeometryError(f"{path}: unreadable anchor CSV: {exc}") from exc
    header = rows[0] if rows else None
    if header != ANCHOR_CSV_HEADER.split(","):
        raise GeometryError(f"{path}: unexpected anchor CSV header {header}")
    anchors: dict[str, Anchor] = {}
    for row in rows[1:]:
        if len(row) != 4:
            raise GeometryError(f"{path}: malformed anchor row {row}")
        if row[0] in anchors:
            raise GeometryError(f"{path}: duplicate anchor row for category {row[0]!r}")
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
        if not abs(norm - 1.0) <= 1e-9:  # also rejects a NaN component
            raise GeometryError(f"orientation must be a unit vector, |o| = {norm}")
        for name, t in (("tx", self.tx), ("ty", self.ty), ("tz", self.tz)):
            if not (0.0 <= t <= 1.0):
                raise GeometryError(f"{name} = {t} outside [0, 1]")
        for name, v in (("lw", self.lw), ("ld", self.ld), ("lh", self.lh)):
            if not math.isfinite(v):
                raise GeometryError(f"{name} must be finite")

    def as_array(self) -> np.ndarray:
        """The 8 components in field order."""
        return np.array([getattr(self, f.name) for f in _record_fields(HeadVector)])


@dataclass(frozen=True)
class LossWeights:
    """Term weights: orientation, center, size; a one-hot weighting isolates one group's term."""

    w_orientation: float = 1.0
    w_center: float = 1.0
    w_size: float = 1.0

    def __post_init__(self) -> None:
        for name, _ in _LOSS_TERMS:
            if not (0 <= getattr(self, name) < math.inf):
                raise GeometryError(f"{name} must be finite and non-negative")
        if not any(getattr(self, name) for name, _ in _LOSS_TERMS):
            raise GeometryError("at least one of the three box-term weights must be positive")


#: The loss terms: the LossWeights field of each, and the as_array slice it weighs.
_LOSS_TERMS = (("w_orientation", slice(0, 2)), ("w_center", slice(2, 5)), ("w_size", slice(5, 8)))


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


def loss(pred: HeadVector, target: HeadVector, weights: LossWeights = LossWeights()) -> float:
    """Weighted squared-error loss over the three component groups.

    The orientation term is the squared Euclidean distance between the two
    unit heading vectors (equivalently 2 - 2 cos(delta yaw)). The total is
    the function fd_check differentiates.
    """
    return _raw_total(pred.as_array(), target.as_array(), weights)


def _raw_total(pred: np.ndarray, target: np.ndarray, weights: LossWeights) -> float:
    # each term and the total are summed left to right, one float at a time
    d = pred - target
    squares = (d * d).tolist()
    total = 0.0
    for name, part in _LOSS_TERMS:
        term = 0.0
        for sq in squares[part]:
            term += sq
        total += getattr(weights, name) * term
    return total


def loss_grad(pred: HeadVector, target: HeadVector, weights: LossWeights = LossWeights()) -> np.ndarray:
    """Analytic d(total)/d(pred) over the 8 components, matching as_array order."""
    d = pred.as_array() - target.as_array()
    scale = np.empty(d.size)
    for name, part in _LOSS_TERMS:
        scale[part] = getattr(weights, name)
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
    for i in range(p.size):
        hi = p.copy()
        lo = p.copy()
        hi[i] += eps
        lo[i] -= eps
        fd = (_raw_total(hi, t, weights) - _raw_total(lo, t, weights)) / (2.0 * eps)
        denom = max(abs(analytic[i]), abs(fd), 1e-6)
        worst = max(worst, abs(analytic[i] - fd) / denom)
    return worst


def round_trip_error(samples: Iterable[ObjectSample], anchors: Mapping[str, Anchor]) -> tuple[float, int, int]:
    """The worst encode -> decode error over the samples, with the objects checked and skipped.

    Each object is encoded in the crop that choose_crop picks at its own scale
    class; one whose center leaves that crop (EncodeDomainError) is skipped. The
    error is the largest absolute difference in a center coordinate, a size, or
    the heading's cos or sin. A category without an anchor is a FrustumKitError.
    """
    worst = 0.0
    n_checked = 0
    n_skipped = 0
    for frame, projection in split_frames(samples):
        for sample in frame:
            if sample.category not in anchors:
                raise FrustumKitError(f"no anchor for category {sample.category!r}")
            anchor = anchors[sample.category]
            gt = sample.gt_box
            crop, _ = choose_crop(projection, sample.rect, gt, own_scale_spec(gt))
            try:
                vec = encode(gt, crop, anchor)
            except EncodeDomainError:
                n_skipped += 1
                continue
            back = decode(vec, crop, anchor)
            worst = max(
                worst,
                float(np.max(np.abs(back.center - gt.center))),
                abs(back.width - gt.width),
                abs(back.depth - gt.depth),
                abs(back.height - gt.height),
                abs(float(np.cos(back.yaw) - np.cos(gt.yaw))),
                abs(float(np.sin(back.yaw) - np.sin(gt.yaw))),
            )
            n_checked += 1
    return worst, n_checked, n_skipped


def gradient_check(seed: int, n_cases: int) -> float:
    """The worst fd_check disagreement over n_cases (pred, target) pairs of seeded head vectors."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_cases):
        worst = max(worst, fd_check(_seeded_vector(rng), _seeded_vector(rng)))
    return worst


def _seeded_vector(rng: np.random.Generator) -> HeadVector:
    yaw = rng.uniform(-np.pi, np.pi)
    centers = [float(rng.uniform(0.0, 1.0)) for _ in range(3)]
    log_sizes = [float(rng.normal(0.0, 0.5)) for _ in range(3)]
    return HeadVector(float(np.cos(yaw)), float(np.sin(yaw)), *centers, *log_sizes)
