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

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .csvio import csv_header, csv_value, csv_values, write_csv
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
    tp: tuple[bool, ...]  # detections in descending score order (stable)
    scores: tuple[float, ...]  # aligned with tp
    pairs: tuple[tuple[int, int, float], ...]  # (detection index, gt index, IoU) for TPs


def _ranked(scores: Sequence[float]) -> list[int]:
    """Indices in descending score order, ties by input index."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def match(
    dets: Sequence[Detection],
    gts: Sequence[OrientedBox3],
    iou_thresh: float = IOU_THRESH_DEFAULT,
) -> MatchResult:
    """Greedy score-ordered matching of one category's detections to its gts."""
    validate_threshold("iou_thresh", iou_thresh)
    if len({d.category for d in dets}) > 1:
        raise GeometryError("match expects detections of a single category")
    return _match(dets, iou_3d([(d.box, gt) for d in dets for gt in gts]), len(gts), iou_thresh)


def _match(dets: Sequence[Detection], ious: Sequence[float], n_gt: int, iou_thresh: float) -> MatchResult:
    # the greedy matching of match(), on precomputed IoUs: ious[di * n_gt + gi]
    # is the IoU of detection di and gt gi
    order = _ranked([d.score for d in dets])
    taken = [False] * n_gt
    tp: list[bool] = []
    pairs: list[tuple[int, int, float]] = []
    for di in order:
        best_gi = -1
        best_iou = 0.0
        for gi in range(n_gt):
            if taken[gi]:
                continue
            v = ious[di * n_gt + gi]
            if v >= iou_thresh and v > best_iou:
                best_iou = v
                best_gi = gi
        if best_gi >= 0:
            taken[best_gi] = True
            tp.append(True)
            pairs.append((di, best_gi, best_iou))
        else:
            tp.append(False)
    return MatchResult(
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
    order = _ranked([f[0] for f in scored_flags])
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
    """Euclidean center and size errors, and |cos(yaw delta)|."""

    d_xyz: float
    d_wdh: float
    orientation_score: float


def center_size_metrics(pred: OrientedBox3, gt: OrientedBox3) -> MetricsRow:
    dc = np.asarray(pred.center) - np.asarray(gt.center)
    ds = np.array([pred.width - gt.width, pred.depth - gt.depth, pred.height - gt.height])
    return MetricsRow(
        d_xyz=float(np.linalg.norm(dc)),
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
    # every matched pair, frame by frame, categories in name order within a frame
    # (not set order, which PYTHONHASHSEED moves)
    iou_values: tuple[float, ...]  # IoU of each pair
    orientation_values: tuple[float, ...]  # orientation score of each pair


Frame = tuple[Sequence[Detection], Sequence[LabeledBox]]


def evaluate(frames: Sequence[Frame], iou_thresh: float = IOU_THRESH_DEFAULT) -> EvalReport:
    """Pool per-frame, per-category matches into category AP and mean metrics.

    The IoUs of every same-category (detection, label) pair of every frame
    come from one iou_3d call, which clips all of them together.
    """
    validate_threshold("iou_thresh", iou_thresh)
    # per frame and category: its detections, its labels' boxes and its first pair's index
    groups = []
    pairs = []
    for dets, gts in frames:
        for name in sorted({d.category for d in dets} | {g.category for g in gts}):
            cat_dets = [d for d in dets if d.category == name]
            cat_gts = [g.box for g in gts if g.category == name]
            groups.append((name, cat_dets, cat_gts, len(pairs)))
            pairs.extend((d.box, gt) for d in cat_dets for gt in cat_gts)
    ious = iou_3d(pairs)
    # per category: the (score, is_tp) flags, the label count and the matched pairs' metrics
    categories: dict[str, dict] = {}
    iou_values: list[float] = []
    orientation_values: list[float] = []
    for name, cat_dets, cat_gts, first in groups:
        b = categories.setdefault(name, {"flags": [], "n_gt": 0, "metrics": []})
        b["n_gt"] += len(cat_gts)
        result = _match(cat_dets, ious[first : first + len(cat_dets) * len(cat_gts)], len(cat_gts), iou_thresh)
        b["flags"].extend(zip(result.scores, result.tp))
        for di, gi, iou in result.pairs:
            row = center_size_metrics(cat_dets[di].box, cat_gts[gi])
            b["metrics"].append(row)
            iou_values.append(iou)
            orientation_values.append(row.orientation_score)

    rows = []
    for name in sorted(categories):
        b = categories[name]
        metrics = b["metrics"]
        rows.append(
            CategoryEval(
                category=name,
                n_gt=b["n_gt"],
                n_det=len(b["flags"]),
                ap=average_precision(b["flags"], b["n_gt"]),
                recall=(len(metrics) / b["n_gt"]) if b["n_gt"] else 0.0,
                # NaN (an empty CSV field) for a category with no matched pair
                **{
                    f"mean_{field}": float(np.mean([getattr(m, field) for m in metrics])) if metrics else math.nan
                    for field in MetricsRow._fields
                },
            )
        )
    return EvalReport(
        rows=tuple(rows),
        iou_values=tuple(iou_values),
        orientation_values=tuple(orientation_values),
    )


EVAL_CSV_HEADER = csv_header(CategoryEval)
HIST_CSV_HEADER = "bin_lo,bin_hi,count"


def write_category_csv(rows: Sequence[CategoryEval], path: str) -> None:
    write_csv(path, EVAL_CSV_HEADER, map(csv_values, rows))


def write_histogram_csv(values: Sequence[float], path: str) -> None:
    """Ten-bin histogram of values over [0, 1] as (bin_lo, bin_hi, count) rows."""
    counts, edges = np.histogram(np.asarray(values, dtype=np.float64), bins=10, range=(0.0, 1.0))
    write_csv(path, HIST_CSV_HEADER, (map(csv_value, row) for row in zip(edges[:-1], edges[1:], counts)))
