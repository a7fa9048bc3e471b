"""Evaluation checks: greedy matching vs oracle, interpolated AP, metrics."""

import math

import numpy as np
import pytest

from frustumkit.errors import GeometryError
from frustumkit.evalkit import (
    CategoryEval,
    Detection,
    LabeledBox,
    average_precision,
    center_size_metrics,
    evaluate,
    match,
    write_category_csv,
    write_histogram_csv,
)
from frustumkit.geometry import OrientedBox3
from frustumkit.ioi import iou_3d


def box(x, y, z, w=1.0, d=1.0, h=1.0, yaw=0.0):
    return OrientedBox3(np.array([x, y, z], dtype=float), w, d, h, yaw)


def random_box(rng, span=4.0):
    return box(
        *(rng.uniform(-span, span, size=2)),
        rng.uniform(0, 1.5),
        w=rng.uniform(0.4, 1.6),
        d=rng.uniform(0.4, 1.6),
        h=rng.uniform(0.4, 1.6),
        yaw=rng.uniform(-math.pi, math.pi),
    )


def greedy_match_oracle(dets, gts, thresh):
    """Independent re-statement of the matching rules, loop-by-loop."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    free = set(range(len(gts)))
    tp = {}
    pairs = []
    for di in order:
        candidates = [(iou_3d(dets[di].box, gts[gi]), -gi, gi) for gi in sorted(free)]
        candidates = [c for c in candidates if c[0] >= thresh]
        if candidates:
            # max IoU; on exact IoU ties the largest -gi i.e. the lowest index
            _, _, gi = max(candidates)
            free.discard(gi)
            tp[di] = True
            pairs.append((di, gi))
        else:
            tp[di] = False
    return order, [tp[di] for di in order], pairs


class TestMatch:
    def test_perfect_one_to_one_all_tp(self):
        gts = [box(0, 0, 0), box(5, 0, 0)]
        dets = [Detection(gts[0], "chair", 0.9), Detection(gts[1], "chair", 0.8)]
        result = match(dets, gts)
        assert result.tp == (True, True)
        assert set(result.pairs) == {(0, 0), (1, 1)}

    def test_two_detections_one_gt_keeps_higher_score(self):
        gt = box(0, 0, 0)
        dets = [Detection(box(0.05, 0, 0), "chair", 0.4), Detection(box(0.02, 0, 0), "chair", 0.7)]
        result = match(dets, [gt])
        # detection 1 (score 0.7) is evaluated first and claims the gt
        assert result.order == (1, 0)
        assert result.tp == (True, False)
        assert result.pairs == ((1, 0),)

    def test_equal_scores_break_by_input_index(self):
        gt = box(0, 0, 0)
        dets = [Detection(box(0.3, 0, 0), "chair", 0.5), Detection(box(0.01, 0, 0), "chair", 0.5)]
        result = match(dets, [gt])
        assert result.order == (0, 1)
        # det 0 claims the only gt despite the lower IoU; det 1 is an FP
        assert result.tp == (True, False)

    def test_gt_iou_ties_pick_lowest_index(self):
        gts = [box(0, 0, 0), box(0, 0, 0)]
        dets = [Detection(box(0, 0, 0), "chair", 0.9)]
        result = match(dets, gts)
        assert result.pairs == ((0, 0),)

    def test_mixed_categories_rejected(self):
        dets = [Detection(box(0, 0, 0), "chair", 0.5), Detection(box(0, 0, 0), "table", 0.5)]
        with pytest.raises(GeometryError):
            match(dets, [box(0, 0, 0)])

    def test_agrees_with_oracle_on_randomized_cases(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            gts = [random_box(rng) for _ in range(rng.integers(0, 6))]
            dets = []
            for gt in gts:
                if rng.random() < 0.8:
                    jitter = rng.normal(0, 0.15, size=3)
                    moved = OrientedBox3(
                        np.asarray(gt.center) + jitter, gt.width, gt.depth, gt.height, gt.yaw
                    )
                    dets.append(Detection(moved, "c", float(rng.integers(0, 5)) / 4.0))
            for _ in range(rng.integers(0, 3)):
                dets.append(Detection(random_box(rng), "c", float(rng.integers(0, 5)) / 4.0))
            got = match(dets, gts, 0.25)
            order, tp, pairs = greedy_match_oracle(dets, gts, 0.25)
            assert got.order == tuple(order)
            assert got.tp == tuple(tp)
            assert got.pairs == tuple(pairs)


class TestAveragePrecision:
    def test_hand_case_tp_fp_tp(self):
        # ranked TP, FP, TP with 2 gts:
        #   p = 1, 1/2, 2/3 at r = 1/2, 1/2, 1
        #   envelope: 1 on the first segment, 2/3 on the second
        #   AP = 0.5 * 1 + 0.5 * 2/3 = 5/6
        flags = [(0.9, True), (0.8, False), (0.7, True)]
        assert average_precision(flags, n_gt=2) == pytest.approx(5.0 / 6.0, abs=1e-12)

    def test_all_detected_no_fp_gives_one(self):
        flags = [(0.9, True), (0.8, True), (0.7, True)]
        assert average_precision(flags, 3) == pytest.approx(1.0)

    def test_no_detections_gives_zero(self):
        assert average_precision([], 4) == 0.0

    def test_no_gt_with_detections_gives_zero(self):
        assert average_precision([(0.9, False)], 0) == 0.0

    def test_relabeling_fp_to_tp_never_decreases_ap(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 10))
            scores = rng.random(n)
            flags = rng.random(n) < 0.5
            n_gt = int(flags.sum() + rng.integers(1, 4))
            base = average_precision(list(zip(scores, flags)), n_gt)
            fp_positions = np.flatnonzero(~flags)
            if fp_positions.size == 0:
                continue
            flipped = flags.copy()
            flipped[rng.choice(fp_positions)] = True
            better = average_precision(list(zip(scores, flipped)), n_gt)
            assert better >= base - 1e-12

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(0, 12))
            flags = [(float(rng.random()), bool(rng.random() < 0.5)) for _ in range(n)]
            n_tp = sum(1 for _, f in flags if f)
            ap = average_precision(flags, max(n_tp, int(rng.integers(1, 8))))
            assert 0.0 <= ap <= 1.0 + 1e-12


class TestCenterSizeMetrics:
    def test_identical_boxes_zero_errors_full_orientation(self):
        b = box(1, 2, 3, 0.8, 0.7, 0.6, 0.4)
        m = center_size_metrics(b, b)
        assert m.d_x == m.d_y == m.d_z == m.d_xyz == 0.0
        assert m.d_w == m.d_d == m.d_h == m.d_wdh == 0.0
        assert m.orientation_score == pytest.approx(1.0)

    def test_three_four_zero_offset_gives_five(self):
        m = center_size_metrics(box(3, 4, 0), box(0, 0, 0))
        assert m.d_xyz == pytest.approx(5.0, abs=1e-12)
        assert (m.d_x, m.d_y, m.d_z) == (3.0, 4.0, 0.0)

    def test_pi_yaw_difference_scores_one(self):
        m = center_size_metrics(box(0, 0, 0, yaw=math.pi / 2 - math.pi), box(0, 0, 0, yaw=math.pi / 2))
        assert m.orientation_score == pytest.approx(1.0, abs=1e-12)

    def test_quarter_turn_scores_zero(self):
        m = center_size_metrics(box(0, 0, 0, yaw=math.pi / 2), box(0, 0, 0, yaw=0.0))
        assert m.orientation_score == pytest.approx(0.0, abs=1e-12)

    def test_triangle_relation_and_nonnegativity_fuzzed(self):
        rng = np.random.default_rng(29)
        for _ in range(300):
            m = center_size_metrics(random_box(rng), random_box(rng))
            assert all(v >= 0 for v in m)
            assert m.d_xyz <= m.d_x + m.d_y + m.d_z + 1e-12
            assert m.d_wdh <= m.d_w + m.d_d + m.d_h + 1e-12
            assert 0.0 <= m.orientation_score <= 1.0


class TestEvaluate:
    def frames(self):
        a, b = box(0, 0, 0), box(6, 0, 0)
        frame1 = ([Detection(a, "chair", 0.9)], [LabeledBox("chair", a)])
        frame2 = (
            [Detection(box(3, 3, 3), "chair", 0.95), Detection(b, "chair", 0.8)],
            [LabeledBox("chair", b)],
        )
        return [frame1, frame2]

    def test_pooled_ap_matches_hand_computation(self):
        report = evaluate(self.frames())
        (row,) = report.rows
        # pooled ranking: FP(0.95), TP(0.9), TP(0.8) over 2 gts -> AP = 2/3
        assert row.ap == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert row.n_gt == 2 and row.n_det == 3
        assert row.recall == pytest.approx(1.0)
        assert row.mean_d_xyz == pytest.approx(0.0)

    def test_histogram_values_come_from_matched_pairs(self):
        report = evaluate(self.frames())
        assert len(report.iou_values) == 2
        assert all(v == pytest.approx(1.0) for v in report.iou_values)
        assert all(v == pytest.approx(1.0) for v in report.orientation_values)

    def test_categories_are_isolated(self):
        shared = box(0, 0, 0)
        frame = (
            [Detection(shared, "chair", 0.9)],
            [LabeledBox("chair", shared), LabeledBox("table", shared)],
        )
        report = evaluate([frame])
        by_name = {r.category: r for r in report.rows}
        assert by_name["chair"].ap == pytest.approx(1.0)
        assert by_name["table"].ap == 0.0  # no table detections at all

    def test_csv_outputs_are_deterministic(self, tmp_path):
        report = evaluate(self.frames())
        p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        write_category_csv(report.rows, p1)
        write_category_csv(report.rows, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()
        lines = open(p1).read().splitlines()
        assert lines[0].startswith("category,") and len(lines) == 2

    def test_histogram_csv_bins_cover_unit_interval(self, tmp_path):
        path = str(tmp_path / "h.csv")
        write_histogram_csv([0.05, 0.15, 0.95, 1.0], path)
        lines = open(path).read().splitlines()
        assert len(lines) == 11
        first, last = lines[1].split(","), lines[-1].split(",")
        assert float(first[0]) == 0.0 and float(last[1]) == 1.0
        assert sum(int(line.split(",")[2]) for line in lines[1:]) == 4


class TestDetectionValidation:
    def test_score_out_of_range_rejected(self):
        with pytest.raises(GeometryError):
            Detection(box(0, 0, 0), "chair", 1.5)

    def test_nan_score_rejected(self):
        with pytest.raises(GeometryError):
            Detection(box(0, 0, 0), "chair", float("nan"))
