"""Tests for intersection-over-itself metrics and recall bookkeeping."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frustumkit.errors import GeometryError
from frustumkit.geometry import Aabb3, OrientedBox3, Rect2, oriented_box_footprint
from frustumkit import ioi as ioi_module
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

from clip_reference import clip_to_box, footprint_ioi, iou_3d_one, z_ioi


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


def count_clipped_rows(monkeypatch) -> list[int]:
    """The row count of each _clip_pass call from here on, the one clipper's passes."""
    rows: list[int] = []
    clip_pass = ioi_module._clip_pass

    def counting(px, *args):
        rows.append(len(px))
        return clip_pass(px, *args)

    monkeypatch.setattr(ioi_module, "_clip_pass", counting)
    return rows


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
        # rects sharing only a corner, or nothing, have no intersection
        for other in (Rect2(0.5, 0.5, 1.5, 1.5), Rect2(2.0, 2.0, 3.0, 3.0)):
            assert iou_2d(a, other) == iou_2d(other, a) == 0.0
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

    def test_breakdown_rejects_a_ratio_outside_the_unit_interval(self):
        with pytest.raises(AssertionError, match=r"^ioi_xy = 1\.5 outside \[0, 1\]$"):
            IoiBreakdown(ioi_xy=1.5, ioi_z=1.0, ioi_3d=1.5)


class TestCropScores:
    def test_every_entry_equals_the_per_pair_oracle(self, monkeypatch):
        """Over several boxes per call, xy, z and their product equal ioi() and the scalar reference on each crop."""
        rng = np.random.default_rng(31)
        calls = []
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
            calls.append((boxes, centers, sides, heights, None))
        # axis-aligned boxes under a side-2 crop at their own centers: depth 2
        # puts their corners exactly on the crop's y edges, width 2 on its x
        # edges too, and width nextafter(2) one ulp past them (exact sums)
        for width, on_edge in ((2.0, True), (math.nextafter(2.0, math.inf), False)):
            boxes = [
                OrientedBox3(center=(x, y, 0.5), width=width, depth=2.0, height=1.0, yaw=0.0)
                for x, y in ((0.0, 0.0), (0.25, -0.5))
            ]
            calls.append((boxes, [b.center[None] for b in boxes], [2.0], [1.0], on_edge))

        clipped_rows = count_clipped_rows(monkeypatch)
        scored_rows = []  # rows of each _footprint_iois call
        footprint_iois = ioi_module._footprint_iois
        monkeypatch.setattr(
            ioi_module, "_footprint_iois", lambda *a: scored_rows.append(len(a[-1])) or footprint_iois(*a)
        )
        clip_sizes = Counter()
        for boxes, centers, sides, heights, on_edge in calls:
            clipped_rows.clear()
            scored_rows.clear()
            xy, z = crop_scores(boxes, centers, sides, heights)
            n_rows = sum(len(c) for c in centers)
            assert xy.shape == (n_rows, len(sides)) and z.shape == (n_rows, len(heights))
            rows = [(box, center) for box, own in zip(boxes, centers) for center in own]
            for r, (box, center) in enumerate(rows):
                for s, side in enumerate(sides):
                    hs = 0.5 * side
                    bounds = (center[0] - hs, center[1] - hs, center[0] + hs, center[1] + hs)
                    quad = oriented_box_footprint(box)
                    clip_sizes[len(clip_to_box(quad, *bounds))] += 1
                    assert xy[r, s] == footprint_ioi(quad, box.width * box.depth, *bounds)
                    for h, height in enumerate(heights):
                        assert z[r, h] == z_ioi(box, float(center[2]), height)
                        ref = ioi(box, Aabb3(center=center, side=side, height=height))
                        assert xy[r, s] == ref.ioi_xy
                        assert z[r, h] == ref.ioi_z
                        assert xy[r, s] * z[r, h] == ref.ioi_3d
            if on_edge:
                # corners on the crop's edges: whole, with no clip pass in
                # crop_scores or in ioi(), and no footprint row in ioi()
                assert clipped_rows == [] and xy.tolist() == [[1.0], [1.0]]
                assert scored_rows == [2]
            elif on_edge is False:
                # one ulp outside: every row clipped, to a sliver less than
                # whole; crop_scores clips both rows in one call (four passes
                # of 2 rows), then ioi() clips one row per crop
                assert clipped_rows == [2] * 4 + [1] * 8 and np.all(xy < 1.0)
                assert scored_rows == [2, 1, 1]
        # the batch covered empty clips and clips of 5 or more vertices
        assert clip_sizes[0] > 0 and sum(n for k, n in clip_sizes.items() if k >= 5) > 0

    def test_octagon_and_empty_clips_in_one_call(self):
        """A square box turned 45 degrees under a smaller centered crop clips to 8 vertices."""
        diamond = OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=np.pi / 4)
        far = OrientedBox3(center=(5.0, 5.0, 0.5), width=0.5, depth=0.4, height=1.0, yaw=0.3)
        centers = [np.array([[0.0, 0.0, 0.5], [0.3, 0.1, 0.5]]), np.array([[0.0, 0.0, 0.5]])]
        xy, z = crop_scores([diamond, far], centers, [0.9, 1.2], [1.0])
        assert len(clip_to_box(oriented_box_footprint(diamond), -0.45, -0.45, 0.45, 0.45)) == 8
        for r, (box, center) in enumerate([(diamond, centers[0][0]), (diamond, centers[0][1]), (far, centers[1][0])]):
            for s, side in enumerate([0.9, 1.2]):
                assert xy[r, s] == ioi(box, Aabb3(center=center, side=side, height=1.0)).ioi_xy
        assert xy[2].tolist() == [0.0, 0.0]

    def test_no_boxes_gives_empty_scores(self):
        xy, z = crop_scores([], [], [1.0, 2.0], [1.0])
        assert xy.shape == (0, 2) and z.shape == (0, 1)

    def test_whole_footprints_skip_the_clip(self, monkeypatch):
        """With every footprint inside its crops, no clip pass runs and every xy score is 1."""

        def no_clip(*args):
            raise AssertionError("_clip_pass ran with no row to clip")

        monkeypatch.setattr("frustumkit.ioi._clip_pass", no_clip)
        boxes = [
            OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=0.6, height=1.0, yaw=0.7),
            OrientedBox3(center=(3.0, -1.0, 0.5), width=0.4, depth=0.4, height=1.0, yaw=-1.2),
        ]
        centers = [np.array([[0.0, 0.0, 0.5], [0.1, -0.1, 0.5]]), np.array([[3.0, -1.0, 0.5]])]
        xy, z = crop_scores(boxes, centers, [2.0, 3.0], [1.0])
        assert xy.tolist() == [[1.0, 1.0]] * 3

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
        assert iou_3d([(box, box)]) == pytest.approx([1.0], abs=1e-12)

    def test_disjoint_heights(self):
        a = OrientedBox3(center=(0, 0, 0.5), width=1, depth=1, height=1, yaw=0.0)
        b = OrientedBox3(center=(0, 0, 5.0), width=1, depth=1, height=1, yaw=0.0)
        assert iou_3d([(a, b)]) == [0.0]

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(55)
        pairs = [(random_pair(rng)[0], random_pair(rng)[0]) for _ in range(300)]
        assert iou_3d(pairs) == pytest.approx(iou_3d([(b, a) for a, b in pairs]), abs=1e-12)

    def test_axis_aligned_half_overlap_closed_form(self):
        a = OrientedBox3(center=(0, 0, 0.5), width=2, depth=2, height=1, yaw=0.0)
        b = OrientedBox3(center=(1, 0, 0.5), width=2, depth=2, height=1, yaw=0.0)
        # intersection 1x2x1 = 2, union 4 + 4 - 2 = 6
        assert iou_3d([(a, b)]) == pytest.approx([2.0 / 6.0], abs=1e-12)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            # a unit square and the same square turned 45 degrees: octagon 2*sqrt(2) - 2 over union 4 - 2*sqrt(2)
            (
                OrientedBox3(center=(0.3, -0.2, 0.5), width=1, depth=1, height=1, yaw=0.0),
                OrientedBox3(center=(0.3, -0.2, 0.5), width=1, depth=1, height=1, yaw=np.pi / 4),
                1.0 / np.sqrt(2.0),
            ),
            # a rotated box wholly inside another: vol_b / vol_a = 0.5 / 32
            (
                OrientedBox3(center=(1.0, 2.0, 1.0), width=4, depth=4, height=2, yaw=0.3),
                OrientedBox3(center=(1.2, 1.7, 1.0), width=1, depth=0.5, height=1, yaw=1.1),
                0.5 / 32.0,
            ),
            (
                OrientedBox3(center=(1.2, 1.7, 1.0), width=1, depth=0.5, height=1, yaw=1.1),
                OrientedBox3(center=(1.0, 2.0, 1.0), width=4, depth=4, height=2, yaw=0.3),
                0.5 / 32.0,
            ),
            # footprints disjoint in xy, z intervals overlapping
            (
                OrientedBox3(center=(0.0, 0.0, 0.5), width=1, depth=1, height=1, yaw=0.4),
                OrientedBox3(center=(3.0, 0.5, 0.7), width=1, depth=2, height=1, yaw=-0.9),
                0.0,
            ),
            # boxes touching along one edge
            (
                OrientedBox3(center=(0.0, 0.0, 0.5), width=1, depth=1, height=1, yaw=0.0),
                OrientedBox3(center=(1.0, 0.0, 0.5), width=1, depth=1, height=1, yaw=0.0),
                0.0,
            ),
            (
                OrientedBox3(center=(0.0, 0.0, 0.5), width=2, depth=1, height=1, yaw=np.pi / 6),
                OrientedBox3(
                    center=(-np.sin(np.pi / 6), np.cos(np.pi / 6), 0.5), width=2, depth=1, height=1, yaw=np.pi / 6
                ),
                0.0,
            ),
        ],
    )
    def test_hand_cases(self, a, b, expected):
        assert iou_3d([(a, b)]) == pytest.approx([expected], abs=1e-12)

    def test_footprints_beyond_reach_skip_the_clip(self, monkeypatch):
        # pairs whose centre distance lies within 1e-15 to 1e-3 (relative) of
        # the sum of the half-diagonals, on both sides; the clipping path
        # (the reference, told to clip every pair) decides every pair, and
        # only the rows of pairs within reach may reach the clipper
        rng = np.random.default_rng(2024)
        pairs = []
        for i in range(2000):
            a = OrientedBox3(
                center=(*rng.uniform(-2, 2, 2), 0.5), width=rng.uniform(0.3, 2), depth=rng.uniform(0.3, 2),
                height=1, yaw=rng.uniform(-np.pi, np.pi),
            )
            w, d = rng.uniform(0.3, 2, 2)
            reach = 0.5 * math.hypot(a.width, a.depth) + 0.5 * math.hypot(w, d)
            dist = reach * (1 + (-1) ** i * 10 ** rng.uniform(-15, -3))
            theta = rng.uniform(-np.pi, np.pi)
            b = OrientedBox3(
                center=(a.center[0] + dist * np.cos(theta), a.center[1] + dist * np.sin(theta), 0.7),
                width=w, depth=d, height=1, yaw=rng.uniform(-np.pi, np.pi),
            )
            within = math.hypot(b.center[0] - a.center[0], b.center[1] - a.center[1]) <= reach
            pairs.append((a, b, within))
        want = [iou_3d_one(a, b, clip=True) for a, b, _ in pairs]
        clipped_rows = count_clipped_rows(monkeypatch)
        assert iou_3d([(a, b) for a, b, _ in pairs]) == want
        n_within = sum(within for _, _, within in pairs)
        # the pairs within reach are clipped together: four passes over their rows
        assert clipped_rows == [n_within] * 4
        assert 0 < n_within < len(pairs)

    def test_equals_the_scalar_reference_bit_for_bit(self):
        """On 12,000 random pairs, overlapping, apart in xy or in z, each IoU has the reference's bits."""
        rng = np.random.default_rng(4242)
        pairs = []
        for _ in range(12_000):
            a, _ = random_pair(rng)
            b = OrientedBox3(
                center=a.center + rng.uniform([-2, -2, -1.5], [2, 2, 1.5]),
                width=rng.uniform(0.2, 2.0), depth=rng.uniform(0.2, 2.0), height=rng.uniform(0.2, 2.0),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            pairs.append((a, b))
        got = iou_3d(pairs)
        assert all(type(v) is float for v in got)
        assert [v.hex() for v in got] == [iou_3d_one(a, b).hex() for a, b in pairs]
        # the draw covers partial overlaps and zeros
        assert sum(0.0 < v < 1.0 for v in got) > 2500 and got.count(0.0) > 2500

    def test_crafted_pairs(self, monkeypatch):
        """z-disjoint, beyond reach, at reach exactly, identical and touching pairs in one call."""
        unit = dict(width=1.0, depth=1.0, height=1.0)
        a = OrientedBox3(center=(0.0, 0.0, 0.5), yaw=0.0, **unit)
        turned = OrientedBox3(center=(0.3, -0.2, 0.5), width=1.2, depth=0.7, height=0.9, yaw=0.8)
        # 3-4-5 boxes: centres 5 apart, half-diagonals 2.5 each, so the
        # distance equals the reach exactly; the footprints meet at a corner
        wide = dict(width=3.0, depth=4.0, height=1.0, yaw=0.0)
        at_reach = (OrientedBox3(center=(0.0, 0.0, 0.5), **wide), OrientedBox3(center=(3.0, 4.0, 0.5), **wide))
        assert math.hypot(3.0, 4.0) == 0.5 * math.hypot(3.0, 4.0) + 0.5 * math.hypot(3.0, 4.0) == 5.0
        # (pair, reaches the clipper, IoU)
        cases = [
            ((a, OrientedBox3(center=(0.0, 0.0, 2.5), yaw=0.0, **unit)), False, 0.0),  # z-disjoint
            ((a, OrientedBox3(center=(0.2, 0.1, 1.5), yaw=0.3, **unit)), False, 0.0),  # z faces touch: dz = 0
            ((a, OrientedBox3(center=(1.5, 0.0, 0.5), yaw=0.0, **unit)), False, 0.0),  # beyond reach (sqrt 2)
            (at_reach, True, 0.0),
            ((turned, turned), True, None),  # identical
            ((a, OrientedBox3(center=(1.0, 0.0, 0.5), yaw=0.0, **unit)), True, 0.0),  # xy faces touch
            ((a, OrientedBox3(center=(0.5, 0.0, 0.5), yaw=0.0, **unit)), True, 1.0 / 3.0),  # half overlap
        ]
        clipped_rows = count_clipped_rows(monkeypatch)
        got = iou_3d([pair for pair, _, _ in cases])
        assert [v.hex() for v in got] == [iou_3d_one(*pair).hex() for pair, _, _ in cases]
        for v, (_, _, expected) in zip(got, cases):
            assert v == pytest.approx(1.0 if expected is None else expected, abs=1e-12)
        assert clipped_rows == [sum(clips for _, clips, _ in cases)] * 4

    def test_no_pairs_and_no_clip(self, monkeypatch):
        clipped_rows = count_clipped_rows(monkeypatch)
        far = OrientedBox3(center=(9.0, 0.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=0.0)
        near = OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=1.0, height=1.0, yaw=0.0)
        assert iou_3d([]) == []
        assert iou_3d([(near, far), (far, near)]) == [0.0, 0.0]
        assert clipped_rows == []

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
            [got] = iou_3d([(a, b)])
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
