"""Two-stage latency model and a stale-proposal robustness sweep.

The detector has a 2D stage and a 3D stage. Run sequentially, every frame
costs t_2d + t_3d. Run as a two-stage pipeline, the 3D stage of frame n
consumes the 2D output of frame n-1, so in steady state a frame completes
every max(t_2d, t_3d) milliseconds — at the price of the 3D stage seeing
proposals that are one frame old. `stale_frustum_experiment` quantifies
that price: it shifts every 2D rect sideways by a per-frame pixel drift
and measures how crop quality and recall degrade.

All schedule arithmetic is exact (no wall-clock measurement); the measured
stage times are inputs, the schedule is the artifact. The exact pipelined
throughput reads the longer stage time as the decimal it was written as, and
only a zero period makes it unbounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal, Sequence, get_args

import numpy as np

from .cropbox import THRESHOLD_DEFAULT, ObjectSample, get_scale_spec, score_samples
from .cropbox import best_cropbox, candidate_centers  # unused here: perfbench's traced run wraps them in this module
from .csvio import csv_header, csv_line, csv_value, csv_values, write_csv
from .errors import GeometryError
from .ioi import validate_threshold

Mode = Literal["sequential", "pipelined"]
PIPELINE_MODES = get_args(Mode)

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

    def period(self, mode: Mode) -> float:
        """Steady-state time between consecutive 3D completions in a mode."""
        if mode == "sequential":
            return self.t_2d + self.t_3d
        return max(self.t_2d, self.t_3d)

    def throughput_period(self, mode: Mode) -> float:
        """The period a throughput divides by; a zero period is unbounded and raises."""
        if self.period(mode) == 0:
            raise GeometryError("zero-cost stages have unbounded throughput")
        return self.period(mode)


@dataclass(frozen=True)
class FrameRecord:
    frame: int
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
        return self.timing.period(self.mode)

    @property
    def throughput_fps(self) -> float:
        period = self.timing.throughput_period(self.mode)
        # any period below about 5.6e-306 ms overflows 1000 / period to inf
        if 1000.0 / period == math.inf:
            raise GeometryError(f"period {float(period)!r} ms overflows the throughput 1000 / period to inf")
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
    if mode not in PIPELINE_MODES:
        raise GeometryError(f"unknown mode {mode!r}")
    # every clock value in both modes stays below this bound
    if not math.isfinite((n_frames + 1) * timing.period("sequential")):
        raise GeometryError(f"stage times {timing.t_2d}, {timing.t_3d} overflow the clock over {n_frames} frames")
    t2, t3 = timing.t_2d, timing.t_3d
    pipelined = mode == "pipelined"
    period = timing.period(mode)
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


TRACE_CSV_HEADER = csv_header(FrameRecord) + ",latency"


def write_trace_csv(trace: FrameTrace, path: str) -> None:
    write_csv(path, TRACE_CSV_HEADER, ([*csv_values(f), csv_value(f.latency)] for f in trace.frames))


def exact_throughput_fps(timing: StageTiming) -> Fraction:
    """Pipelined steady-state throughput as an exact rational (frames/s).

    The period is the longer stage time read as the decimal str() gives (for
    a float its shortest repr), so 48.0 ms gives 125/6 fps and 0.1 ms exactly
    10000. Only a zero period is unbounded.
    """
    return Fraction(1000) / Fraction(str(timing.throughput_period("pipelined")))


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
    on both axes; see DriftRow. A shifted rect's one 1x1 candidate center
    leaves best_cropbox no choice, so the crops are those score_samples
    scores, each equal to what ioi() reports.
    """
    if not samples:
        raise GeometryError("stale_frustum_experiment needs at least one sample")
    if len(drifts_px) == 0:
        raise GeometryError("stale_frustum_experiment needs at least one drift")
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

    # [d, i]: sample i's crop at drifts_px[d]; a lost item keeps ioi 0.0 on both axes
    n = len(samples)
    xy = np.zeros((len(drifts_px), n))
    z = np.zeros_like(xy)
    lost = np.ones(xy.shape, dtype=bool)
    variants = [(1, 1, drift) for drift in drifts_px]
    for slots, batch_xy, batch_z, _ in score_samples(samples, variants, [scale.crop_side], [scale.crop_height]):
        np.put(xy, slots, batch_xy[:, 0])
        np.put(z, slots, batch_z[:, 0])
        np.put(lost, slots, False)
    n_pos = np.count_nonzero((xy >= threshold_xy) & (z >= threshold_z), axis=1)
    return [
        DriftRow(
            drift_px=float(drift),
            mean_ioi_3d=float(np.mean(xy[d] * z[d])),
            recall_volume=int(n_pos[d]) / n,
            n_items=n,
            n_lost=int(np.count_nonzero(lost[d])),
        )
        for d, drift in enumerate(drifts_px)
    ]
