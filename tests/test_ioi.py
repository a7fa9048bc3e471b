"""Tests for intersection-over-itself metrics and recall bookkeeping."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustumkit.errors import GeometryError
from frustumkit.geometry import Aabb3, OrientedBox3, Rect2, clip_polygon_to_aabb, oriented_box_footprint
from frustumkit.ioi import (
    IoiBreakdown,
    crop_scores,
    ioi,
    iou_2d,
    iou_3d,
    mc_intersection_volume,
    recall_from_breakdowns,
    recall_lower_bound,
)


def random_pair(rng) -> tuple[OrientedBox3, Aabb3]:
    """A (ground-truth box, crop) pair with a decent chance of partial overlap."""
    box = OrientedBox3(
        center=rng.uniform([-2, -2, 0], [2, 2, 2]),
        width=rng.uniform(0.2, 2.0),
        depth=rng.uniform(0.2, 2.0),
        height=rng.uniform(0.2, 2.0),
        yaw=rng.uniform(-np.pi, np.pi),
    )
    crop = Aabb3(
        center=box.center + rng.uniform(-0.8, 0.8, size=3),
        side=rng.uniform(0.4, 3.0),
        height=rng.uniform(0.3, 2.5),
    )
    return box, crop


class TestWorkedSquares:
    """The two-squares-in-a-bigger-square configuration with known ratios.

    Square A (side 1) sits fully inside a side-3 region; square B (side 2)
    overlaps it by exactly half. IoU and IoI disagree on purpose here.
    """

    CROP = Aabb3(center=(0.0, 0.0, 0.5), side=3.0, height=1.0)
    BOX_A = OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=0.0)
    # footprint [0.5, 2.5] x [-1, 1]: the half left of x = 1.5 is inside
    BOX_B = OrientedBox3(center=(1.5, 0.0, 0.5), width=2.0, depth=2.0, height=1.0, yaw=0.0)

    def test_iou_of_contained_square(self):
        a = Rect2(-0.5, -0.5, 0.5, 0.5)
        region = Rect2(-1.5, -1.5, 1.5, 1.5)
        assert iou_2d(a, region) == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_iou_of_half_overlapped_square(self):
        b = Rect2(0.5, -1.0, 2.5, 1.0)
        region = Rect2(-1.5, -1.5, 1.5, 1.5)
        assert iou_2d(b, region) == pytest.approx(2.0 / 11.0, abs=1e-12)

    def test_ioi_of_contained_square_is_one(self):
        assert ioi(self.BOX_A, self.CROP).ioi_xy == pytest.approx(1.0, abs=1e-12)

    def test_ioi_of_half_overlapped_square_is_half(self):
        assert ioi(self.BOX_B, self.CROP).ioi_xy == pytest.approx(0.5, abs=1e-12)

    def test_iou_is_symmetric_but_ioi_is_not(self):
        a = Rect2(-0.5, -0.5, 0.5, 0.5)
        region = Rect2(-1.5, -1.5, 1.5, 1.5)
        assert iou_2d(a, region) == iou_2d(region, a)
        # reversing roles: a crop-sized box against a box-sized crop
        big_box = OrientedBox3(center=(0, 0, 0.5), width=3.0, depth=3.0, height=1.0, yaw=0.0)
        small_crop = Aabb3(center=(0, 0, 0.5), side=1.0, height=1.0)
        assert ioi(big_box, small_crop).ioi_xy == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert ioi(self.BOX_A, self.CROP).ioi_xy == 1.0


class TestFactorization:
    def test_product_identity_on_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            box, crop = random_pair(rng)
            b = ioi(box, crop)
            assert abs(b.ioi_3d - b.ioi_xy * b.ioi_z) <= 1e-12
            assert 0.0 <= b.ioi_3d <= 1.0

    @given(scale=st.floats(0.1, 10.0))
    @settings(max_examples=80, deadline=None)
    def test_scale_invariance(self, scale):
        rng = np.random.default_rng(77)
        box, crop = random_pair(rng)
        scaled_box = OrientedBox3(
            center=box.center * scale,
            width=box.width * scale,
            depth=box.depth * scale,
            height=box.height * scale,
            yaw=box.yaw,
        )
        scaled_crop = Aabb3(center=crop.center * scale, side=crop.side * scale, height=crop.height * scale)
        a = ioi(box, crop)
        b = ioi(scaled_box, scaled_crop)
        assert b.ioi_xy == pytest.approx(a.ioi_xy, abs=1e-12)
        assert b.ioi_z == pytest.approx(a.ioi_z, abs=1e-12)
        assert b.ioi_3d == pytest.approx(a.ioi_3d, abs=1e-12)

    def test_breakdown_rejects_inconsistent_product(self):
        with pytest.raises(AssertionError):
            IoiBreakdown(ioi_xy=0.5, ioi_z=0.5, ioi_3d=0.3)


class TestCropScores:
    def test_every_entry_equals_the_per_pair_oracle(self):
        """Over several boxes per call, xy, z and their product equal ioi() on the crop each entry stands for."""
        rng = np.random.default_rng(31)
        clip_sizes = Counter()
        for _ in range(40):
            boxes = [random_pair(rng)[0] for _ in range(rng.integers(1, 5))]
            centers = []
            for box in boxes:
                own = [box.center + rng.uniform(-1.2, 1.2, size=3) for _ in range(rng.integers(1, 6))]
                own.append(box.center.copy())  # a center on the box itself
                centers.append(np.array(own))
            sides = list(rng.uniform(0.2, 3.5, size=rng.integers(1, 5)))
            sides.append(2.0 * max(b.width + b.depth for b in boxes))  # holds every footprint whole
            heights = list(rng.uniform(0.2, 3.0, size=rng.integers(1, 5)))
            xy, z = crop_scores(boxes, centers, sides, heights)
            n_rows = sum(len(c) for c in centers)
            assert xy.shape == (n_rows, len(sides)) and z.shape == (n_rows, len(heights))
            rows = [(box, center) for box, own in zip(boxes, centers) for center in own]
            for r, (box, center) in enumerate(rows):
                for s, side in enumerate(sides):
                    hs = 0.5 * side
                    bounds = (center[0] - hs, center[1] - hs, center[0] + hs, center[1] + hs)
                    clip_sizes[len(clip_polygon_to_aabb(oriented_box_footprint(box), *bounds))] += 1
                    for h, height in enumerate(heights):
                        ref = ioi(box, Aabb3(center=center, side=side, height=height))
                        assert xy[r, s] == ref.ioi_xy
                        assert z[r, h] == ref.ioi_z
                        assert xy[r, s] * z[r, h] == ref.ioi_3d
        # the batch covered empty clips and clips of 5 or more vertices
        assert clip_sizes[0] > 0 and sum(n for k, n in clip_sizes.items() if k >= 5) > 0

    def test_octagon_and_empty_clips_in_one_call(self):
        """A square box turned 45 degrees under a smaller centered crop clips to 8 vertices."""
        diamond = OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=np.pi / 4)
        far = OrientedBox3(center=(5.0, 5.0, 0.5), width=0.5, depth=0.4, height=1.0, yaw=0.3)
        centers = [np.array([[0.0, 0.0, 0.5], [0.3, 0.1, 0.5]]), np.array([[0.0, 0.0, 0.5]])]
        xy, z = crop_scores([diamond, far], centers, [0.9, 1.2], [1.0])
        assert len(clip_polygon_to_aabb(oriented_box_footprint(diamond), -0.45, -0.45, 0.45, 0.45)) == 8
        for r, (box, center) in enumerate([(diamond, centers[0][0]), (diamond, centers[0][1]), (far, centers[1][0])]):
            for s, side in enumerate([0.9, 1.2]):
                assert xy[r, s] == ioi(box, Aabb3(center=center, side=side, height=1.0)).ioi_xy
        assert xy[2].tolist() == [0.0, 0.0]

    def test_no_boxes_gives_empty_scores(self):
        xy, z = crop_scores([], [], [1.0, 2.0], [1.0])
        assert xy.shape == (0, 2) and z.shape == (0, 1)

    def test_one_center_set_per_box(self):
        box = OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=0.0)
        with pytest.raises(GeometryError):
            crop_scores([box, box], [np.zeros((1, 3))], [1.0], [1.0])


class TestMonteCarloAgreement:
    def test_self_intersection_recovers_volume(self):
        box = OrientedBox3(center=(0.3, -0.2, 1.0), width=1.2, depth=0.7, height=0.9, yaw=0.5)
        est, stderr = mc_intersection_volume(box, box, n_samples=10_000, seed=5)
        assert abs(est - box.volume) <= stderr + 1e-12

    def test_disjoint_shapes_estimate_zero(self):
        box = OrientedBox3(center=(0, 0, 0.5), width=1, depth=1, height=1, yaw=0.2)
        crop = Aabb3(center=(10, 10, 10), side=1.0, height=1.0)
        est, stderr = mc_intersection_volume(box, crop, n_samples=10_000, seed=6)
        assert est == 0.0
        assert stderr == 0.0

    def test_offset_unit_cubes_quarter_overlap(self):
        a = OrientedBox3(center=(0, 0, 0.5), width=1, depth=1, height=1, yaw=0.0)
        b = OrientedBox3(center=(0.5, 0.5, 0.5), width=1, depth=1, height=1, yaw=0.0)
        est, stderr = mc_intersection_volume(a, b, n_samples=200_000, seed=7)
        assert abs(est - 0.25) <= 3.0 * stderr

    def test_ioi_3d_matches_sampled_volume_ratio(self):
        """ioi_3d equals MC intersection volume / box volume within 3 sigma."""
        rng = np.random.default_rng(313)
        for trial in range(40):
            box, crop = random_pair(rng)
            breakdown = ioi(box, crop)
            est, stderr = mc_intersection_volume(box, crop, n_samples=100_000, seed=1000 + trial)
            ratio = est / box.volume
            sigma = stderr / box.volume
            assert abs(ratio - breakdown.ioi_3d) <= 3.0 * sigma + 1e-9, f"trial {trial}"

    def test_sample_floor_enforced(self):
        box = OrientedBox3(center=(0, 0, 0), width=1, depth=1, height=1, yaw=0)
        with pytest.raises(GeometryError):
            mc_intersection_volume(box, box, n_samples=10, seed=1)


class TestIoU3D:
    def test_identical_boxes(self):
        box = OrientedBox3(center=(1, 2, 0.5), width=0.8, depth=0.6, height=1.1, yaw=0.9)
        assert iou_3d(box, box) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_heights(self):
        a = OrientedBox3(center=(0, 0, 0.5), width=1, depth=1, height=1, yaw=0.0)
        b = OrientedBox3(center=(0, 0, 5.0), width=1, depth=1, height=1, yaw=0.0)
        assert iou_3d(a, b) == 0.0

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(55)
        for _ in range(300):
            a_box, _ = random_pair(rng)
            b_box, _ = random_pair(rng)
            assert iou_3d(a_box, b_box) == pytest.approx(iou_3d(b_box, a_box), abs=1e-12)

    def test_axis_aligned_half_overlap_closed_form(self):
        a = OrientedBox3(center=(0, 0, 0.5), width=2, depth=2, height=1, yaw=0.0)
        b = OrientedBox3(center=(1, 0, 0.5), width=2, depth=2, height=1, yaw=0.0)
        # intersection 1x2x1 = 2, union 4 + 4 - 2 = 6
        assert iou_3d(a, b) == pytest.approx(2.0 / 6.0, abs=1e-12)

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(91)
        for trial in range(20):
            a = OrientedBox3(
                center=rng.uniform([-1, -1, 0], [1, 1, 1]),
                width=rng.uniform(0.5, 2),
                depth=rng.uniform(0.5, 2),
                height=rng.uniform(0.5, 2),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            b = OrientedBox3(
                center=a.center + rng.uniform(-0.5, 0.5, 3),
                width=rng.uniform(0.5, 2),
                depth=rng.uniform(0.5, 2),
                height=rng.uniform(0.5, 2),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            est, stderr = mc_intersection_volume(a, b, n_samples=100_000, seed=400 + trial)
            union = a.volume + b.volume - est
            got = iou_3d(a, b)
            # propagate the MC error through the ratio loosely
            tol = 4.0 * (stderr / max(union, 1e-9)) * (1.0 + got) + 1e-9
            assert abs(got - est / union) <= tol, f"trial {trial}"


class TestRecallBound:
    def test_headline_bound_values(self):
        assert recall_lower_bound(0.90, 0.95) == pytest.approx(0.85, abs=1e-12)
        assert recall_lower_bound(0.95, 0.99) == pytest.approx(0.94, abs=1e-12)
        assert recall_lower_bound(0.3, 0.4) == 0.0

    def test_report_on_random_geometric_pairs(self):
        rng = np.random.default_rng(8)
        pairs = [random_pair(rng) for _ in range(200)]
        report = recall_from_breakdowns([ioi(b, c) for b, c in pairs], threshold_xy=0.7, threshold_z=0.8)
        assert report.n_total == 200
        assert report.bound_satisfied
        assert report.recall_volume >= report.bound - 1e-12

    def test_bound_holds_over_many_random_sets(self):
        """No randomized pair set and thresholds can violate the volume bound."""
        rng = np.random.default_rng(99)
        pool = [random_pair(rng) for _ in range(500)]
        breakdowns = [ioi(b, c) for b, c in pool]
        for _ in range(2000):
            k = rng.integers(5, 100)
            chosen = [breakdowns[i] for i in rng.integers(0, len(breakdowns), size=k)]
            txy = float(rng.uniform(0.05, 1.0))
            tz = float(rng.uniform(0.05, 1.0))
            report = recall_from_breakdowns(chosen, txy, tz)
            assert report.bound_satisfied
            assert report.recall_volume >= report.bound - 1e-12

    def test_thresholds_validated(self):
        rng = np.random.default_rng(1)
        breakdowns = [ioi(*random_pair(rng))]
        with pytest.raises(GeometryError):
            recall_from_breakdowns(breakdowns, threshold_xy=0.0, threshold_z=0.5)
        with pytest.raises(GeometryError):
            recall_from_breakdowns(breakdowns, threshold_xy=0.5, threshold_z=1.5)
        with pytest.raises(GeometryError):
            recall_from_breakdowns([], threshold_xy=0.5, threshold_z=0.5)

    def test_constructed_set_hits_exact_recalls(self):
        """20 pairs engineered for recall_xy = 0.9 and recall_z = 0.95."""
        pairs = []
        for i in range(20):
            box = OrientedBox3(center=(0, 0, 0.5), width=1, depth=1, height=1, yaw=0.0)
            # xy-miss for 2 of 20, z-miss for 1 of 20, never both
            xy_off = 0.8 if i < 2 else 0.0
            z_off = 0.8 if i == 19 else 0.0
            crop = Aabb3(center=(xy_off, 0, 0.5 + z_off), side=1.0, height=1.0)
            pairs.append((box, crop))
        report = recall_from_breakdowns([ioi(b, c) for b, c in pairs], threshold_xy=0.9, threshold_z=0.9)
        assert report.recall_xy == pytest.approx(0.90)
        assert report.recall_z == pytest.approx(0.95)
        assert report.recall_volume >= recall_lower_bound(0.90, 0.95) - 1e-12
