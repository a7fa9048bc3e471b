"""Pipeline schedule arithmetic and the stale-proposal degradation sweep."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from frustumkit import cropbox
from frustumkit.cropbox import SCALE_SPECS, ObjectSample, best_cropbox, candidate_centers, choose_crop
from frustumkit.errors import GeometryError, NoCandidatesError, UnsupportedScaleError
from frustumkit.geometry import CameraIntrinsics, OrientedBox3, Rect2, RigidTransform, project_cloud, project_points
from frustumkit.ioi import recall_from_breakdowns
from frustumkit.pipesim import (
    MAX_FRAMES,
    DriftRow,
    FrameRecord,
    StageTiming,
    drift_row_to_csv,
    exact_throughput_fps,
    simulate,
    stale_frustum_experiment,
    write_trace_csv,
)

YOLO_FCN6 = StageTiming(29.0, 48.0)
FPN_FCN6 = StageTiming(110.0, 48.0)
FPN_FCN35 = StageTiming(110.0, 149.0)


class TestSequential:
    def test_yolo_fcn6_frame_latency_is_77(self):
        trace = simulate(5, YOLO_FCN6, "sequential")
        assert all(f.latency == 77.0 for f in trace.frames)
        assert trace.steady_period == 77.0

    @pytest.mark.parametrize(
        "timing,expected",
        [(YOLO_FCN6, 77.0), (FPN_FCN6, 158.0), (FPN_FCN35, 259.0)],
    )
    def test_published_timing_rows(self, timing, expected):
        trace = simulate(3, timing, "sequential")
        assert trace.steady_period == expected
        assert trace.first_frame_latency == expected

    def test_total_time_is_n_times_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            t2, t3 = rng.integers(1, 200, size=2)
            n = int(rng.integers(1, 30))
            trace = simulate(n, StageTiming(float(t2), float(t3)), "sequential")
            assert trace.frames[-1].done_3d == n * (t2 + t3)


class TestPipelined:
    def test_yolo_fcn6_period_and_fps(self):
        trace = simulate(10, YOLO_FCN6, "pipelined")
        assert trace.steady_period == 48.0
        assert trace.throughput_fps == pytest.approx(1000.0 / 48.0)
        assert round(trace.throughput_fps) == 21
        assert exact_throughput_fps(YOLO_FCN6) == Fraction(125, 6)

    def test_first_frame_latency_is_sum_of_stages(self):
        for timing in (YOLO_FCN6, FPN_FCN6, FPN_FCN35):
            trace = simulate(4, timing, "pipelined")
            assert trace.first_frame_latency == timing.t_2d + timing.t_3d

    def test_exact_completion_when_3d_dominates(self):
        # with t3 >= t2 the 3D stage is saturated: frame i completes at
        # t2 + (i + 1) * t3, so n frames finish at exactly t2 + n * max
        rng = np.random.default_rng(5)
        for _ in range(50):
            t2 = float(rng.integers(1, 100))
            t3 = float(rng.integers(t2, 220))
            n = int(rng.integers(1, 25))
            trace = simulate(n, StageTiming(t2, t3), "pipelined")
            assert trace.frames[-1].done_3d == t2 + n * t3

    def test_completion_never_later_than_nominal_bound(self):
        rng = np.random.default_rng(7)
        for _ in range(80):
            t2, t3 = (float(v) for v in rng.integers(1, 200, size=2))
            n = int(rng.integers(1, 25))
            trace = simulate(n, StageTiming(t2, t3), "pipelined")
            assert trace.frames[-1].done_3d <= t2 + n * max(t2, t3) + 1e-9

    def test_steady_state_period_reached(self):
        for timing in (YOLO_FCN6, FPN_FCN6, FPN_FCN35, StageTiming(10.0, 5.0)):
            trace = simulate(12, timing, "pipelined")
            done = [f.done_3d for f in trace.frames]
            diffs = np.diff(done)
            period = max(timing.t_2d, timing.t_3d)
            # after a short warm-up every completion is one period apart
            np.testing.assert_allclose(diffs[4:], period, rtol=0, atol=1e-9)

    def test_frame_zero_uses_its_own_2d_output(self):
        trace = simulate(3, FPN_FCN6, "pipelined")
        assert trace.frames[0].start_3d == trace.frames[0].done_2d
        assert trace.staleness_frames == 1
        assert simulate(3, FPN_FCN6, "sequential").staleness_frames == 0

    def test_timestamp_columns_are_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            t2, t3 = (float(v) for v in rng.integers(0, 150, size=2))
            trace = simulate(10, StageTiming(t2, t3), "pipelined")
            for f in trace.frames:
                assert f.start_2d <= f.done_2d
                assert f.start_3d <= f.done_3d
                assert f.start_2d <= f.start_3d
            for col in ("start_2d", "done_2d", "start_3d", "done_3d"):
                values = [getattr(f, col) for f in trace.frames]
                assert values == sorted(values)

    def test_zero_3d_cost_collapses_to_2d_period(self):
        timing = StageTiming(17.0, 0.0)
        assert simulate(4, timing, "sequential").steady_period == 17.0
        assert simulate(4, timing, "pipelined").steady_period == 17.0

    def test_zero_cost_throughput_rejected(self):
        trace = simulate(2, StageTiming(0.0, 0.0), "pipelined")
        with pytest.raises(GeometryError):
            _ = trace.throughput_fps

    @pytest.mark.parametrize("mode", ["sequential", "pipelined"])
    def test_throughput_period_is_the_period_and_refuses_zero(self, mode):
        assert StageTiming(3.0, 5.0).throughput_period(mode) == StageTiming(3.0, 5.0).period(mode)
        assert StageTiming(0.0, 5e-324).throughput_period(mode) == 5e-324
        message = "^zero-cost stages have unbounded throughput$"
        with pytest.raises(GeometryError, match=message):
            StageTiming(0.0, 0.0).throughput_period(mode)
        # a zero-cost schedule still simulates; only its throughput is refused
        trace = simulate(3, StageTiming(0.0, 0.0), mode)
        assert [f.done_3d for f in trace.frames] == [0.0, 0.0, 0.0]
        with pytest.raises(GeometryError, match=message):
            _ = trace.throughput_fps

    @pytest.mark.parametrize(
        "t_3d, fps",
        [
            (48.0, Fraction(125, 6)),
            (0.1, Fraction(10000)),
            # periods whose nearest rational of denominator <= 10**9 is not the
            # typed decimal (for 1e-12 it is 0)
            (1e-12, Fraction(10**15)),
            (7.123456789012, Fraction(10**15, 7123456789012)),
            (0.3333333333, Fraction(10**13, 3333333333)),
            (98765.43, Fraction(100000, 9876543)),
        ],
    )
    def test_exact_throughput_reads_the_shortest_decimal_of_the_period(self, t_3d, fps):
        assert exact_throughput_fps(StageTiming(1e-13, t_3d)) == fps
        assert exact_throughput_fps(StageTiming(t_3d, 0.0)) == fps

    def test_exact_throughput_is_unbounded_only_at_a_zero_period(self):
        assert exact_throughput_fps(StageTiming(0.0, 5e-324)) == Fraction(2 * 10**326)
        with pytest.raises(GeometryError, match="unbounded throughput"):
            exact_throughput_fps(StageTiming(0.0, 0.0))

    @pytest.mark.parametrize("mode", ["sequential", "pipelined"])
    def test_clock_overflow_rejected_and_bound_is_enough(self, mode):
        with pytest.raises(GeometryError, match="overflow the clock"):
            simulate(3, StageTiming(1e308, 1e308), mode)
        # (n + 1) * (t_2d + t_3d) = 1.6e308 is finite, so every clock value and latency is too
        trace = simulate(3, StageTiming(1e307, 3e307), mode)
        keys = ("start_2d", "done_2d", "start_3d", "done_3d", "latency")
        values = [getattr(f, k) for f in trace.frames for k in keys]
        assert all(np.isfinite(values))

    def test_bad_inputs_rejected(self):
        with pytest.raises(GeometryError):
            simulate(0, YOLO_FCN6, "pipelined")
        with pytest.raises(GeometryError):
            simulate(3, YOLO_FCN6, "parallel")
        with pytest.raises(GeometryError):
            StageTiming(-1.0, 5.0)

    @pytest.mark.parametrize("mode", ["sequential", "pipelined"])
    def test_frame_count_above_the_bound_rejected(self, mode):
        with pytest.raises(GeometryError, match=f"n_frames must lie in \\[1, {MAX_FRAMES}\\]"):
            simulate(MAX_FRAMES + 1, YOLO_FCN6, mode)

    def test_trace_csv_deterministic(self, tmp_path):
        trace = simulate(6, YOLO_FCN6, "pipelined")
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(trace, str(p1))
        write_trace_csv(trace, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "frame,start_2d,done_2d,start_3d,done_3d,latency"
        assert len(lines) == 7

    def test_summary_mentions_period_and_fps(self):
        text = simulate(3, YOLO_FCN6, "pipelined").summary()
        assert "period=48" in text and "20.83" in text


def two_loop_schedule(n_frames, t2, t3, mode):
    """The schedule as two separate loops, one per mode: the reference for simulate's single loop."""
    frames = []
    if mode == "sequential":
        clock = 0.0
        for i in range(n_frames):
            start_2d = clock
            done_2d = start_2d + t2
            done_3d = done_2d + t3
            frames.append(FrameRecord(i, start_2d, done_2d, done_2d, done_3d))
            clock = done_3d
        return frames, 0
    period = max(t2, t3)
    prev_done_3d = 0.0
    for i in range(n_frames):
        start_2d = i * period
        done_2d = start_2d + t2
        input_ready = done_2d if i == 0 else frames[i - 1].done_2d
        start_3d = max(input_ready, prev_done_3d)
        done_3d = start_3d + t3
        frames.append(FrameRecord(i, start_2d, done_2d, start_3d, done_3d))
        prev_done_3d = done_3d
    return frames, 1


# zeros of both signs, subnormal and tiny costs, the published stage times, and a huge one
STAGE_TIMES = [0.0, -0.0, 5e-324, 1e-300, 0.1, 1.0, 29.0, 33.3333, 48.0, 1e12]


@pytest.mark.parametrize("mode", ["sequential", "pipelined"])
@pytest.mark.parametrize("n_frames", [1, 2, 7])
def test_schedule_matches_the_two_loop_reference_bit_for_bit(mode, n_frames):
    for t2 in STAGE_TIMES:
        for t3 in STAGE_TIMES:
            trace = simulate(n_frames, StageTiming(t2, t3), mode)
            frames, staleness = two_loop_schedule(n_frames, t2, t3, mode)
            # repr tells 0.0 from -0.0 and shows every bit of each time
            assert [repr(f) for f in trace.frames] == [repr(f) for f in frames], (t2, t3)
            assert (trace.mode, trace.staleness_frames) == (mode, staleness)


def make_centered_samples(n=6):
    """Objects whose rects are centered on them, seen by a camera at origin."""
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120)
    rotation = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    pose = RigidTransform(rotation=rotation, translation=np.array([0.0, 0.0, 1.0]))
    rng = np.random.default_rng(42)
    samples = []
    for i in range(n):
        depth = 2.5 + 0.3 * i
        cy_world = float(rng.uniform(-0.2, 0.2))
        center = np.array([depth, cy_world, 1.0])
        gt = OrientedBox3(center, 0.8, 0.8, 0.8, 0.0)
        xs = np.linspace(-0.4, 0.4, 9)
        grid = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
        cloud = grid + center
        u, v, _ = project_points(pose.inverse().apply(cloud), k)
        rect = Rect2(float(u.min()), float(v.min()), float(u.max()), float(v.max()))
        samples.append(ObjectSample("chair", cloud, rect, gt, k, pose))
    return samples


class TestStaleFrustum:
    def test_zero_drift_recall_counts_objects_positive_on_both_axes(self):
        samples = make_centered_samples()
        # boxes taller than the 1.7 m crop: ioi_z = 0.85, below threshold_z = 0.9,
        # while ioi_3d = 0.85 still reaches threshold_xy * threshold_z = 0.81
        tall = [
            dataclasses.replace(s, gt_box=OrientedBox3(s.gt_box.center, 0.8, 0.8, 2.0, 0.0)) for s in samples
        ]
        for data, both_axes in ((samples, 1.0), (tall, 0.0)):
            (row,) = stale_frustum_experiment(data, [0.0], spec="medium_short")
            spec = SCALE_SPECS["medium_short"]
            breakdowns = [
                best_cropbox(s.gt_box, candidate_centers(s.cloud, s.rect, s.intrinsics, s.pose), spec)[1]
                for s in data
            ]
            assert recall_from_breakdowns(breakdowns, 0.9, 0.9).recall_volume == 1.0
            assert row.recall_volume == both_axes
            assert row.mean_ioi_3d == np.mean([b.ioi_3d for b in breakdowns])
            assert row.n_lost == 0

    def test_mean_ioi_non_increasing_in_drift(self):
        samples = make_centered_samples()
        widths = [s.rect.width for s in samples]
        drifts = np.linspace(0.0, max(widths), 12)
        rows = stale_frustum_experiment(samples, drifts, spec="medium_short")
        iois = [r.mean_ioi_3d for r in rows]
        assert all(a >= b - 1e-12 for a, b in zip(iois, iois[1:]))

    def test_full_width_drift_kills_recall(self):
        samples = make_centered_samples()
        full = max(s.rect.width for s in samples) + 1.0
        (row,) = stale_frustum_experiment(samples, [full], spec="medium_short")
        assert row.recall_volume == 0.0
        assert row.n_lost == row.n_items
        assert row.mean_ioi_3d == 0.0

    def test_drift_that_collapses_a_rect_rejected(self):
        """A drift whose shifted rect rounds to zero width in float64 names itself and the sample."""
        samples = make_centered_samples(3)
        message = r"drift 1e\+300 px collapses the rect of sample 0 \(chair\) in float64"
        with pytest.raises(GeometryError, match=message):
            stale_frustum_experiment(samples, [0.0, 2.0, 1e300])

    def test_negative_drift_rejected(self):
        with pytest.raises(GeometryError):
            stale_frustum_experiment(make_centered_samples(2), [-1.0])

    def test_empty_dataset_rejected(self):
        with pytest.raises(GeometryError):
            stale_frustum_experiment([], [0.0])

    def test_empty_drift_list_rejected(self):
        with pytest.raises(GeometryError, match="^stale_frustum_experiment needs at least one drift$"):
            stale_frustum_experiment(make_centered_samples(2), [])

    def test_unknown_scale_name_rejected(self):
        with pytest.raises(UnsupportedScaleError, match="unknown scale class: 'bogus'"):
            stale_frustum_experiment(make_centered_samples(2), [0.0], spec="bogus")

    def test_csv_row_format(self):
        row = DriftRow(drift_px=4.0, mean_ioi_3d=0.75, recall_volume=0.5, n_items=8, n_lost=1)
        assert drift_row_to_csv(row) == "4,0.75,0.5,8,1"


def box_points(box, n=6):
    """An n x n x n grid of points filling the box, corners included."""
    s = np.linspace(-0.5, 0.5, n)
    local = np.stack(np.meshgrid(s, s, s, indexing="ij"), axis=-1).reshape(-1, 3) * [box.width, box.depth, box.height]
    c, sn = np.cos(box.yaw), np.sin(box.yaw)
    turned = np.stack([c * local[:, 0] - sn * local[:, 1], sn * local[:, 0] + c * local[:, 1], local[:, 2]], axis=1)
    return turned + box.center


def shared_cloud_frame(boxes):
    """One sample per box, all sharing one cloud of every box's points; each rect bounds its box's points."""
    k = CameraIntrinsics(fx=100.0, fy=100.0, cx=80.0, cy=60.0, width=160, height=120)
    rotation = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
    pose = RigidTransform(rotation=rotation, translation=np.array([0.0, 0.0, 1.0]))
    parts = [box_points(b) for b in boxes]
    cloud = np.concatenate(parts)
    samples = []
    for box, points in zip(boxes, parts):
        u, v, _ = project_points(pose.inverse().apply(points), k)
        rect = Rect2(float(u.min()), float(v.min()), float(u.max()), float(v.max()))
        samples.append(ObjectSample("chair", cloud, rect, box, k, pose))
    return samples


def crafted_sweep_samples():
    """Two frames of objects that share their frame's cloud: a plain cube, a
    45-degree box whose footprint diagonal (1.70 m) a small crop clips, a box
    taller than every short crop, a 3.6 m wide box that a medium crop clips,
    and a small turned cube."""
    return shared_cloud_frame(
        [
            OrientedBox3(np.array([3.0, 1.2, 1.0]), 0.8, 0.8, 0.8, 0.0),
            OrientedBox3(np.array([4.0, 0.0, 1.0]), 1.2, 1.2, 0.8, np.pi / 4),
            OrientedBox3(np.array([3.5, -1.2, 1.0]), 0.6, 0.6, 2.0, 0.0),
        ]
    ) + shared_cloud_frame(
        [
            OrientedBox3(np.array([6.0, 0.5, 0.8]), 3.6, 0.5, 0.5, 0.0),
            OrientedBox3(np.array([3.0, -0.8, 0.9]), 0.5, 0.5, 0.5, 0.3),
        ]
    )


def choose_crop_sweep(samples, drifts, spec, threshold_xy, threshold_z):
    """The stale sweep as one choose_crop per (object, drift), each on its own projection."""
    rows = []
    for drift in drifts:
        found = []
        for s in samples:
            shifted = Rect2(s.rect.u_min + drift, s.rect.v_min, s.rect.u_max + drift, s.rect.v_max)
            try:
                found.append(choose_crop(project_cloud(s.cloud, s.intrinsics, s.pose), shifted, s.gt_box, spec)[1])
            except NoCandidatesError:
                found.append(None)
        iois = [0.0 if b is None else b.ioi_3d for b in found]
        n_pos = sum(b is not None and b.ioi_xy >= threshold_xy and b.ioi_z >= threshold_z for b in found)
        n_lost = sum(b is None for b in found)
        rows.append(DriftRow(float(drift), float(np.mean(iois)), n_pos / len(samples), len(samples), n_lost))
    return rows


class TestStaleSweepAgainstChooseCrop:
    DRIFTS = [0.0, 8.0, 15.0, 30.0, 200.0]

    @pytest.fixture
    def scorer_calls(self, monkeypatch):
        """The number of candidates in each crop_scores call the sweep makes."""
        calls = []
        scorer = cropbox.crop_scores

        def counting(boxes, centers, sides, heights):
            calls.append(len(boxes))
            return scorer(boxes, centers, sides, heights)

        monkeypatch.setattr(cropbox, "crop_scores", counting)
        return calls

    def test_crafted_samples_clip_and_overhang_their_crops(self):
        samples = crafted_sweep_samples()
        assert len({id(s.cloud) for s in samples}) == 2
        for spec, i, clipped_axis in [("small_short", 1, 0), ("small_short", 2, 1), ("medium_short", 3, 0)]:
            s = samples[i]
            projection = project_cloud(s.cloud, s.intrinsics, s.pose)
            _, breakdown = choose_crop(projection, s.rect, s.gt_box, SCALE_SPECS[spec])
            assert 0.0 < (breakdown.ioi_xy, breakdown.ioi_z)[clipped_axis] < 1.0

    @pytest.mark.parametrize(
        "spec, threshold_xy, threshold_z", [("medium_short", 0.9, 0.9), ("small_short", 0.6, 0.8)]
    )
    @pytest.mark.parametrize("batch", [cropbox._SCORE_BATCH, 1], ids=["one-batch", "batch-per-frame"])
    def test_rows_equal_one_choose_crop_per_object_and_drift(
        self, monkeypatch, scorer_calls, spec, threshold_xy, threshold_z, batch
    ):
        monkeypatch.setattr(cropbox, "_SCORE_BATCH", batch)
        samples = crafted_sweep_samples()
        got = stale_frustum_experiment(samples, self.DRIFTS, spec, threshold_xy, threshold_z)
        assert got == choose_crop_sweep(samples, self.DRIFTS, SCALE_SPECS[spec], threshold_xy, threshold_z)
        # 30 px loses some items, 200 px every item
        assert [r.n_lost for r in got] == [0, 0, 1, 2, 5]
        # the 25 - 8 lost items with a candidate: one call, or one per frame (15 - 4 items, then 10 - 4)
        assert scorer_calls == ([17] if batch > 1 else [11, 6])

    def test_a_drift_that_loses_every_item_scores_no_batch(self, scorer_calls):
        samples = crafted_sweep_samples()
        got = stale_frustum_experiment(samples, [200.0], "small_short", 0.6, 0.8)
        assert got == choose_crop_sweep(samples, [200.0], SCALE_SPECS["small_short"], 0.6, 0.8)
        assert got == [DriftRow(200.0, 0.0, 0.0, 5, 5)]
        assert scorer_calls == []
