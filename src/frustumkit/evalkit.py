"""Detection evaluation: greedy matching, average precision, box-error metrics.

Matching follows the usual detection protocol: detections are visited in
descending score order (ties broken by input index, so results are
deterministic), each claims the unmatched ground-truth box of highest IoU
when that IoU clears the threshold, and every ground-truth box can be
claimed once. AP uses all-point interpolation — the precision envelope is
taken from the right before integrating over recall — so reported numbers
are exactly reproducible from the TP/FP sequence.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GeometryError
from .geometry import OrientedBox3
from .ioi import iou_3d, validate_threshold

IOU_THRESH_DEFAULT = 0.25


@dataclass(frozen=True)
class Detection:
    box: OrientedBox3
    category: str
    score: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.score) and 0.0 <= self.score <= 1.0):
            raise GeometryError(f"detection score must be finite in [0, 1], got {self.score}")


class LabeledBox(NamedTuple):
    """A ground-truth box with its category label."""

    category: str
    box: OrientedBox3


class MatchResult(NamedTuple):
    order: tuple[int, ...]  # detection indices, descending score (stable)
    tp: tuple[bool, ...]  # aligned with order
    scores: tuple[float, ...]  # aligned with order
    pairs: tuple[tuple[int, int], ...]  # (detection index, gt index) for TPs


def match(
    dets: Sequence[Detection],
    gts: Sequence[OrientedBox3],
    iou_thresh: float = IOU_THRESH_DEFAULT,
) -> MatchResult:
    """Greedy score-ordered matching of one category's detections to its gts."""
    validate_threshold("iou_thresh", iou_thresh)
    if len({d.category for d in dets}) > 1:
        raise GeometryError("match expects detections of a single category")
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gts)
    tp: list[bool] = []
    pairs: list[tuple[int, int]] = []
    for di in order:
        best_gi = -1
        best_iou = 0.0
        for gi, gt in enumerate(gts):
            if taken[gi]:
                continue
            v = iou_3d(dets[di].box, gt)
            if v >= iou_thresh and v > best_iou:
                best_iou = v
                best_gi = gi
        if best_gi >= 0:
            taken[best_gi] = True
            tp.append(True)
            pairs.append((di, best_gi))
        else:
            tp.append(False)
    return MatchResult(
        order=tuple(order),
        tp=tuple(tp),
        scores=tuple(dets[i].score for i in order),
        pairs=tuple(pairs),
    )


def average_precision(scored_flags: Sequence[tuple[float, bool]], n_gt: int) -> float:
    """All-point interpolated AP from (score, is_tp) pairs.

    With no ground truth, any detection is spurious and AP is 0; with no
    ground truth and no detections there is nothing to rank and we also
    report 0 rather than treating the category as solved.
    """
    if n_gt < 0:
        raise GeometryError("n_gt must be >= 0")
    if n_gt == 0 or not scored_flags:
        return 0.0
    order = sorted(range(len(scored_flags)), key=lambda i: (-scored_flags[i][0], i))
    flags = np.array([bool(scored_flags[i][1]) for i in order])
    tp_cum = np.cumsum(flags)
    fp_cum = np.cumsum(~flags)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    # precision envelope from the right (all-point interpolation)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for r, p in zip(recall, envelope):
        ap += (r - prev_r) * p
        prev_r = r
    return float(ap)


class MetricsRow(NamedTuple):
    """Absolute per-axis errors, Euclidean aggregates, and |cos(yaw delta)|."""

    d_x: float
    d_y: float
    d_z: float
    d_xyz: float
    d_w: float
    d_d: float
    d_h: float
    d_wdh: float
    orientation_score: float


def center_size_metrics(pred: OrientedBox3, gt: OrientedBox3) -> MetricsRow:
    dc = np.abs(np.asarray(pred.center) - np.asarray(gt.center))
    ds = np.abs(
        np.array([pred.width - gt.width, pred.depth - gt.depth, pred.height - gt.height])
    )
    return MetricsRow(
        d_x=float(dc[0]),
        d_y=float(dc[1]),
        d_z=float(dc[2]),
        d_xyz=float(np.linalg.norm(dc)),
        d_w=float(ds[0]),
        d_d=float(ds[1]),
        d_h=float(ds[2]),
        d_wdh=float(np.linalg.norm(ds)),
        orientation_score=abs(math.cos(pred.yaw - gt.yaw)),
    )


@dataclass(frozen=True)
class CategoryEval:
    category: str
    n_gt: int
    n_det: int
    ap: float
    recall: float
    mean_d_xyz: float
    mean_d_wdh: float
    mean_orientation_score: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[CategoryEval, ...]
    iou_values: tuple[float, ...]  # IoU of every matched pair, all categories
    orientation_values: tuple[float, ...]  # orientation score of every matched pair


Frame = tuple[Sequence[Detection], Sequence[LabeledBox]]


def evaluate(frames: Sequence[Frame], iou_thresh: float = IOU_THRESH_DEFAULT) -> EvalReport:
    """Pool per-frame, per-category matches into category AP and mean metrics."""
    validate_threshold("iou_thresh", iou_thresh)
    categories: dict[str, dict] = {}

    def bucket(name: str) -> dict:
        return categories.setdefault(
            name, {"flags": [], "n_gt": 0, "n_det": 0, "n_tp": 0, "metrics": []}
        )

    iou_values: list[float] = []
    orientation_values: list[float] = []
    for dets, gts in frames:
        names = {d.category for d in dets} | {g.category for g in gts}
        for name in names:
            cat_dets = [d for d in dets if d.category == name]
            cat_gts = [g.box for g in gts if g.category == name]
            b = bucket(name)
            b["n_gt"] += len(cat_gts)
            b["n_det"] += len(cat_dets)
            result = match(cat_dets, cat_gts, iou_thresh)
            b["flags"].extend(zip(result.scores, result.tp))
            b["n_tp"] += len(result.pairs)
            for di, gi in result.pairs:
                row = center_size_metrics(cat_dets[di].box, cat_gts[gi])
                b["metrics"].append(row)
                iou_values.append(iou_3d(cat_dets[di].box, cat_gts[gi]))
                orientation_values.append(row.orientation_score)

    rows = []
    for name in sorted(categories):
        b = categories[name]
        metrics = b["metrics"]
        rows.append(
            CategoryEval(
                category=name,
                n_gt=b["n_gt"],
                n_det=b["n_det"],
                ap=average_precision(b["flags"], b["n_gt"]),
                recall=(b["n_tp"] / b["n_gt"]) if b["n_gt"] else 0.0,
                mean_d_xyz=float(np.mean([m.d_xyz for m in metrics])) if metrics else float("nan"),
                mean_d_wdh=float(np.mean([m.d_wdh for m in metrics])) if metrics else float("nan"),
                mean_orientation_score=(
                    float(np.mean([m.orientation_score for m in metrics])) if metrics else float("nan")
                ),
            )
        )
    return EvalReport(
        rows=tuple(rows),
        iou_values=tuple(iou_values),
        orientation_values=tuple(orientation_values),
    )


EVAL_CSV_HEADER = "category,n_gt,n_det,ap,recall,mean_d_xyz,mean_d_wdh,mean_orientation_score"
HIST_CSV_HEADER = "bin_lo,bin_hi,count"


def write_category_csv(rows: Sequence[CategoryEval], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVAL_CSV_HEADER.split(","))
        for r in rows:
            writer.writerow(
                [
                    r.category,
                    r.n_gt,
                    r.n_det,
                    format(r.ap, ".12g"),
                    format(r.recall, ".12g"),
                    format(r.mean_d_xyz, ".12g"),
                    format(r.mean_d_wdh, ".12g"),
                    format(r.mean_orientation_score, ".12g"),
                ]
            )


def write_histogram_csv(values: Sequence[float], path: str) -> None:
    """Ten-bin histogram of values over [0, 1] as (bin_lo, bin_hi, count) rows."""
    counts, edges = np.histogram(np.asarray(values, dtype=np.float64), bins=10, range=(0.0, 1.0))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HIST_CSV_HEADER.split(","))
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            writer.writerow([format(lo, ".12g"), format(hi, ".12g"), int(c)])
