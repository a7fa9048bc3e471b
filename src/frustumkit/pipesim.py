"""Two-stage latency model and a stale-proposal robustness sweep.

The detector has a 2D stage and a 3D stage. Run sequentially, every frame
costs t_2d + t_3d. Run as a two-stage pipeline, the 3D stage of frame n
consumes the 2D output of frame n-1, so in steady state a frame completes
every max(t_2d, t_3d) milliseconds — at the price of the 3D stage seeing
proposals that are one frame old. `stale_frustum_experiment` quantifies
that price: it shifts every 2D rect sideways by a per-frame pixel drift
and measures how crop quality and recall degrade.

All schedule arithmetic is exact (no wall-clock measurement); the measured
stage times are inputs, the schedule is the artifact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence

import numpy as np

from .cropbox import THRESHOLD_DEFAULT, ObjectSample, best_cropbox, candidate_centers, get_scale_spec, split_frames
from .csvio import csv_header, csv_line, csv_value, csv_values, write_csv
from .errors import GeometryError, NoCandidatesError
from .geometry import Rect2
from .ioi import IoiBreakdown, validate_threshold

Mode = Literal["sequential", "pipelined"]

#: Most frames simulate() schedules. It keeps one FrameRecord per frame in
#: memory; a trace at the bound, written with --csv, adds about 26 MB to peak RSS.
MAX_FRAMES = 100_000

#: Scale class whose crop the stale-proposal sweep scores by default.
STALE_SWEEP_SCALE = "medium_short"


@dataclass(frozen=True)
class StageTiming:
    """Per-frame stage costs in milliseconds."""

    t_2d: float
    t_3d: float

    def __post_init__(self) -> None:
        if not (0 <= self.t_2d < math.inf and 0 <= self.t_3d < math.inf):
            raise GeometryError(f"stage times must be finite and >= 0, got {self.t_2d}, {self.t_3d}")


@dataclass(frozen=True)
class FrameRecord:
    index: int
    start_2d: float
    done_2d: float
    start_3d: float
    done_3d: float

    @property
    def latency(self) -> float:
        """Time from this frame's capture (2D start) to its 3D result."""
        return self.done_3d - self.start_2d


@dataclass(frozen=True)
class FrameTrace:
    mode: Mode
    timing: StageTiming
    frames: tuple[FrameRecord, ...]
    staleness_frames: int  # how old the 2D proposals feeding the 3D stage are

    @property
    def steady_period(self) -> float:
        """Steady-state time between consecutive 3D completions."""
        if self.mode == "sequential":
            return self.timing.t_2d + self.timing.t_3d
        return max(self.timing.t_2d, self.timing.t_3d)

    @property
    def throughput_fps(self) -> float:
        period = self.steady_period
        # a subnormal period overflows 1000 / period to inf
        if period == 0 or 1000.0 / period == math.inf:
            raise GeometryError("zero-cost stages have unbounded throughput")
        return 1000.0 / period

    @property
    def first_frame_latency(self) -> float:
        return self.frames[0].latency

    def summary(self) -> str:
        return (
            f"mode={self.mode} t2d={self.timing.t_2d:g} t3d={self.timing.t_3d:g} "
            f"period={self.steady_period:g} ms "
            f"throughput={self.throughput_fps:.2f} fps "
            f"first_frame_latency={self.first_frame_latency:g} ms "
            f"staleness={self.staleness_frames} frame(s)"
        )


def simulate(n_frames: int, timing: StageTiming, mode: Mode) -> FrameTrace:
    """Event-driven schedule of n frames through the two stages.

    Sequential: stages of one frame run back to back, frames never overlap.
    Pipelined: the 2D stage starts frame i at i * period; frame i's 3D stage
    consumes frame i-1's 2D output (frame 0 has no predecessor and uses its
    own), starting as soon as that input and the 3D stage are both free.
    """
    if not 1 <= n_frames <= MAX_FRAMES:
        raise GeometryError(f"n_frames must lie in [1, {MAX_FRAMES}], got {n_frames}")
    if mode not in ("sequential", "pipelined"):
        raise GeometryError(f"unknown mode {mode!r}")
    # every clock value in both modes stays below this bound
    if not math.isfinite((n_frames + 1) * (timing.t_2d + timing.t_3d)):
        raise GeometryError(f"stage times {timing.t_2d}, {timing.t_3d} overflow the clock over {n_frames} frames")
    t2, t3 = timing.t_2d, timing.t_3d
    pipelined = mode == "pipelined"
    period = max(t2, t3)
    frames: list[FrameRecord] = []
    done_3d = 0.0  # the previous frame's 3D completion
    for i in range(n_frames):
        start_2d = i * period if pipelined else done_3d
        done_2d = start_2d + t2
        # 3D input: the frame's own 2D output, except that a pipelined frame
        # after the first consumes frame i-1's
        input_ready = frames[i - 1].done_2d if pipelined and i > 0 else done_2d
        start_3d = max(input_ready, done_3d)
        done_3d = start_3d + t3
        frames.append(FrameRecord(i, start_2d, done_2d, start_3d, done_3d))
    return FrameTrace(mode, timing, tuple(frames), staleness_frames=1 if pipelined else 0)


TRACE_CSV_HEADER = "frame,start_2d,done_2d,start_3d,done_3d,latency"


def write_trace_csv(trace: FrameTrace, path: str) -> None:
    write_csv(path, TRACE_CSV_HEADER, ([*csv_values(f), csv_value(f.latency)] for f in trace.frames))


def exact_throughput_fps(timing: StageTiming) -> Fraction:
    """Pipelined steady-state throughput as an exact rational (frames/s)."""
    period = Fraction(max(timing.t_2d, timing.t_3d)).limit_denominator(10**9)
    if period == 0:
        raise GeometryError("zero-cost stages have unbounded throughput")
    return Fraction(1000) / period


# --- stale-proposal robustness sweep ---------------------------------------


@dataclass(frozen=True)
class DriftRow:
    """Crop quality over all samples at one drift.

    recall_volume is the fraction of samples whose best crop is positive on
    both axes (ioi_xy >= threshold_xy and ioi_z >= threshold_z). That is
    stricter than the volume recall of recall_curves and RecallReport, which
    count ioi_3d >= threshold_xy * threshold_z.
    """

    drift_px: float
    mean_ioi_3d: float
    recall_volume: float
    n_items: int
    n_lost: int  # frustums that no longer contain any points


DRIFT_CSV_HEADER = csv_header(DriftRow)
drift_row_to_csv = csv_line


def stale_frustum_experiment(
    samples: Sequence[ObjectSample],
    drifts_px: Sequence[float],
    spec: str = STALE_SWEEP_SCALE,
    threshold_xy: float = THRESHOLD_DEFAULT,
    threshold_z: float = THRESHOLD_DEFAULT,
) -> list[DriftRow]:
    """Recall/IoI degradation when 2D rects lag the scene by one frame.

    Each drift value shifts every rect by that many pixels along +u before
    the frustum, crop center, and crop box are recomputed, simulating
    proposals from a one-frame-old image of a laterally moving scene. A
    shifted frustum that captures no points scores zero IoI and counts as
    a lost item (it can never be recalled). Crops take the size of the
    scale class named spec. A drift so large that a shifted rect's u_min
    and u_max round to one float64 value is rejected before any work.

    A sample counts toward recall_volume only when its best crop is positive
    on both axes; see DriftRow. Samples are walked frame by frame
    (split_frames), and each frame's cloud is projected once for every drift.
    """
    if not samples:
        raise GeometryError("stale_frustum_experiment needs at least one sample")
    if not all(0 <= d < math.inf for d in drifts_px):
        raise GeometryError("drift values must be finite and >= 0")
    for drift in drifts_px:
        for i, sample in enumerate(samples):
            rect = sample.rect
            if not rect.u_min + drift < rect.u_max + drift:
                raise GeometryError(
                    f"drift {float(drift)!r} px collapses the rect of sample {i} ({sample.category}) in float64: "
                    f"u_min {rect.u_min:g} and u_max {rect.u_max:g} both shift to {rect.u_min + drift:g}"
                )
    validate_threshold("threshold_xy", threshold_xy)
    validate_threshold("threshold_z", threshold_z)
    scale = get_scale_spec(spec)

    # breakdowns[d] holds each sample's best-crop breakdown at drifts_px[d], None when lost
    breakdowns: list[list[IoiBreakdown | None]] = [[] for _ in drifts_px]
    for frame, projection in split_frames(samples):
        for drift, found in zip(drifts_px, breakdowns):
            for sample in frame:
                rect = sample.rect
                shifted = Rect2(rect.u_min + drift, rect.v_min, rect.u_max + drift, rect.v_max)
                try:
                    centers = candidate_centers(
                        sample.cloud, shifted, sample.intrinsics, sample.pose, fr=1, fc=1, mode="average",
                        projection=projection,
                    )
                except NoCandidatesError:
                    found.append(None)
                    continue
                found.append(best_cropbox(sample.gt_box, centers, scale)[1])
    rows: list[DriftRow] = []
    for drift, found in zip(drifts_px, breakdowns):
        iois = [0.0 if b is None else b.ioi_3d for b in found]
        n_pos = sum(1 for b in found if b is not None and b.ioi_xy >= threshold_xy and b.ioi_z >= threshold_z)
        rows.append(
            DriftRow(
                drift_px=float(drift),
                mean_ioi_3d=float(np.mean(iois)),
                recall_volume=n_pos / len(samples),
                n_items=len(samples),
                n_lost=sum(b is None for b in found),
            )
        )
    return rows
