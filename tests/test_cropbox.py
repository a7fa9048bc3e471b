"""Tests for scale classes, candidate centers, recall curves, and size search."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from frustumkit.cropbox import (
    CurvePoint,
    ObjectSample,
    SCALE_SPECS,
    ScaleSpec,
    SizeSearchConfig,
    assign_scale,
    best_cropbox,
    candidate_centers,
    get_scale_spec,
    recall_curves,
    select_min_size,
    split_frames,
)
from frustumkit.errors import (
    GeometryError,
    InfeasibleSizeError,
    NoCandidatesError,
    UnsupportedScaleError,
)
from frustumkit import geometry
from frustumkit.geometry import (
    BOUNDARY_TOL,
    FAR_DEFAULT,
    NEAR_DEFAULT,
    Aabb3,
    CameraIntrinsics,
    OrientedBox3,
    Rect2,
    RigidTransform,
    unproject_grid,
)
from frustumkit.ioi import ioi

K = CameraIntrinsics(fx=100.0, fy=100.0, cx=40.0, cy=30.0, width=80, height=60)


class TestScaleTable:
    def test_crop_extents(self):
        assert SCALE_SPECS["small_short"].crop_side == 1.6
        assert SCALE_SPECS["small_short"].crop_height == 1.5
        assert SCALE_SPECS["medium_short"].crop_side == 3.2
        assert SCALE_SPECS["medium_short"].crop_height == 1.7
        assert SCALE_SPECS["large_short"].crop_side == 4.8
        assert SCALE_SPECS["large_short"].crop_height == 2.2
        assert SCALE_SPECS["medium_tall"].crop_side == 2.8
        assert SCALE_SPECS["medium_tall"].crop_height == 3.0

    def test_grid_dims(self):
        for name in ("small_short", "medium_short", "large_short"):
            assert SCALE_SPECS[name].grid == (198, 198, 102)
        assert SCALE_SPECS["medium_tall"].grid == (134, 134, 134)

    def test_cell_sizes_match_printed_resolutions(self):
        """Cell sizes in cm, rounded to one decimal, match the published table."""
        printed = {
            "small_short": (0.8, 0.8, 1.5),
            "medium_short": (1.6, 1.6, 1.7),
            "large_short": (2.4, 2.4, 2.2),
            "medium_tall": (2.1, 2.1, 2.2),
        }
        for name, expected in printed.items():
            cells_cm = tuple(round(c * 100.0, 1) for c in SCALE_SPECS[name].cell_size)
            assert cells_cm == expected, name

    def test_unknown_scale_name(self):
        with pytest.raises(UnsupportedScaleError):
            get_scale_spec("gigantic")


class TestAssignScale:
    @pytest.mark.parametrize(
        "dims,expected",
        [
            ((0.28, 0.26, 0.45), "small_short"),  # toilet-like
            ((0.50, 0.48, 0.50), "medium_short"),  # chair-like
            ((0.40, 0.30, 1.60), "medium_tall"),  # bookshelf-like
            ((1.50, 2.00, 0.50), "large_short"),  # bed-like
        ],
    )
    def test_representative_objects(self, dims, expected):
        assert assign_scale(*dims) == expected

    def test_boundaries_are_inclusive_on_the_small_side(self):
        assert assign_scale(0.30, 0.10, 0.30) == "small_short"
        assert assign_scale(0.31, 0.10, 0.30) == "medium_short"
        assert assign_scale(0.55, 0.10, 0.55) == "medium_short"
        assert assign_scale(0.56, 0.10, 0.55) == "large_short"
        assert assign_scale(0.55, 0.10, 0.56) == "medium_tall"

    def test_footprint_uses_max_of_width_and_depth(self):
        assert assign_scale(0.10, 0.50, 0.30) == assign_scale(0.50, 0.10, 0.30) == "medium_short"

    def test_unsupported_cells_raise(self):
        with pytest.raises(UnsupportedScaleError):
            assign_scale(0.20, 0.20, 1.00)  # small footprint but tall
        with pytest.raises(UnsupportedScaleError):
            assign_scale(1.00, 1.00, 1.00)  # large footprint and tall

    def test_non_positive_dims_rejected(self):
        with pytest.raises(GeometryError):
            assign_scale(0.0, 0.1, 0.1)


class TestCandidateCenters:
    def test_known_points_in_known_tiles(self):
        # one point in the left half, two in the right half of the image
        p_left = unproject_grid(20.0, 15.0, 2.0, K)
        p_r1 = unproject_grid(60.0, 45.0, 3.0, K)
        p_r2 = unproject_grid(60.0, 45.0, 5.0, K)
        cloud = np.stack([p_left, p_r1, p_r2])
        rect = Rect2(0.0, 0.0, 80.0, 60.0)
        centers = candidate_centers(cloud, rect, K, RigidTransform.identity(), fr=1, fc=2, mode="average")
        assert len(centers) == 2
        np.testing.assert_allclose(centers[0], p_left, atol=1e-12)
        np.testing.assert_allclose(centers[1], 0.5 * (p_r1 + p_r2), atol=1e-12)

    def test_median_mode_takes_lower_middle(self):
        p_r1 = unproject_grid(60.0, 45.0, 3.0, K)
        p_r2 = unproject_grid(60.0, 45.0, 5.0, K)
        cloud = np.stack([p_r1, p_r2])
        rect = Rect2(40.0, 0.0, 80.0, 60.0)
        centers = candidate_centers(cloud, rect, K, RigidTransform.identity(), fr=1, fc=1, mode="median")
        np.testing.assert_allclose(centers[0], np.minimum(p_r1, p_r2), atol=0)

    def test_empty_tiles_are_dropped(self):
        p_left = unproject_grid(10.0, 30.0, 2.0, K)
        cloud = p_left.reshape(1, 3)
        rect = Rect2(0.0, 0.0, 80.0, 60.0)
        centers = candidate_centers(cloud, rect, K, RigidTransform.identity(), fr=3, fc=3, mode="average")
        assert len(centers) == 1

    def test_all_empty_raises(self):
        cloud = np.array([[0.0, 0.0, -5.0]])  # behind the camera
        rect = Rect2(0.0, 0.0, 80.0, 60.0)
        with pytest.raises(NoCandidatesError):
            candidate_centers(cloud, rect, K, RigidTransform.identity(), fr=3, fc=3)


def edges(lo, hi, n):
    """The n + 1 endpoint-exact band edges candidate_centers splits [lo, hi] into."""
    return [lo * (1.0 - j / n) + hi * (j / n) for j in range(n + 1)]


def reference_centers(cloud, rect, k, pose, fr, fc, mode, near=NEAR_DEFAULT, far=FAR_DEFAULT):
    """Candidate centers the per-tile way: re-project the whole cloud for every tile."""
    tol = BOUNDARY_TOL
    u_edges, v_edges = edges(rect.u_min, rect.u_max, fc), edges(rect.v_min, rect.v_max, fr)
    centers = []
    for i, j in itertools.product(range(fr), range(fc)):  # row-major
        cam = pose.inverse().apply(cloud)
        z = cam[:, 2]
        u = k.fx * cam[:, 0] / z + k.cx
        v = k.fy * cam[:, 1] / z + k.cy
        inside = cloud[
            (z > near - tol)
            & (z < far + tol)
            & (u >= u_edges[j] - tol)
            & (u < u_edges[j + 1] + tol)
            & (v >= v_edges[i] - tol)
            & (v < v_edges[i + 1] + tol)
        ]
        if len(inside) == 0:
            continue
        if mode == "average":
            centers.append(inside.mean(axis=0))
        else:
            centers.append(np.sort(inside, axis=0)[(len(inside) - 1) // 2])
    return centers


class TestCandidateCentersAgainstPerTileReference:
    POSE = RigidTransform(
        np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]) @ np.array(
            [[math.cos(0.4), 0.0, math.sin(0.4)], [0.0, 1.0, 0.0], [-math.sin(0.4), 0.0, math.cos(0.4)]]
        ),
        np.array([0.3, -0.2, 1.2]),
    )
    RECT = Rect2(10.3, 7.1, 70.9, 52.4)

    def _cloud(self, seed, fr, fc):
        """Random points plus points on, and within and beyond the tolerance of, every tile edge."""
        rng = np.random.default_rng(seed)
        r = self.RECT
        pixels = list(zip(rng.uniform(r.u_min - 3, r.u_max + 3, 300), rng.uniform(r.v_min - 3, r.v_max + 3, 300)))
        u_edges, v_edges = edges(r.u_min, r.u_max, fc), edges(r.v_min, r.v_max, fr)
        offsets = [0.0, 0.5 * BOUNDARY_TOL, -0.5 * BOUNDARY_TOL, 2 * BOUNDARY_TOL, -2 * BOUNDARY_TOL]
        for d in offsets:
            for e in u_edges:
                pixels += [(e + d, v) for v in rng.uniform(r.v_min, r.v_max, 12)]
            for e in v_edges:
                pixels += [(u, e + d) for u in rng.uniform(r.u_min, r.u_max, 12)]
        depths = rng.uniform(0.5, 9.5, len(pixels))
        # a few depths straddling the near and far planes
        depths[:8] = [NEAR_DEFAULT + d for d in (0.0, 5e-10, -5e-10, -2e-9)] + [
            FAR_DEFAULT + d for d in (0.0, 5e-10, -5e-10, 2e-9)
        ]
        us, vs = np.array(pixels).T
        cam = unproject_grid(us, vs, depths, K)
        return self.POSE.apply(cam[rng.permutation(len(cam))])

    @pytest.mark.parametrize("mode", ["average", "median"])
    @pytest.mark.parametrize("fr_fc", [(1, 1), (3, 3), (5, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exactly_equal_to_reference(self, seed, fr_fc, mode):
        fr, fc = fr_fc
        cloud = self._cloud(seed, fr, fc)
        got = candidate_centers(cloud, self.RECT, K, pose=self.POSE, fr=fr, fc=fc, mode=mode)
        want = reference_centers(cloud, self.RECT, K, self.POSE, fr, fc, mode)
        assert len(got) == len(want) > 0
        assert np.array_equal(np.stack(got), np.stack(want))

    def test_projects_once_per_call(self, monkeypatch):
        calls = {"inverse": 0, "project": 0}
        inverse, project = RigidTransform.inverse, geometry.project_points

        def counting_inverse(pose):
            calls["inverse"] += 1
            return inverse(pose)

        def counting_project(*args):
            calls["project"] += 1
            return project(*args)

        monkeypatch.setattr(RigidTransform, "inverse", counting_inverse)
        monkeypatch.setattr(geometry, "project_points", counting_project)
        candidate_centers(self._cloud(0, 5, 5), self.RECT, K, pose=self.POSE, fr=5, fc=5)
        assert calls == {"inverse": 1, "project": 1}


class TestBestCropbox:
    SPEC = ScaleSpec("test", crop_side=1.0, crop_height=1.0, grid=(4, 4, 4))

    def test_matches_argmax_oracle(self):
        rng = np.random.default_rng(17)
        gt = OrientedBox3(center=(0.2, -0.1, 0.6), width=0.9, depth=0.7, height=0.8, yaw=0.4)
        for _ in range(50):
            candidates = [gt.center + rng.uniform(-0.6, 0.6, 3) for _ in range(7)]
            crop, breakdown = best_cropbox(gt, candidates, self.SPEC)
            scores = [
                ioi(gt, Aabb3(center=c, side=self.SPEC.crop_side, height=self.SPEC.crop_height)).ioi_3d
                for c in candidates
            ]
            best_idx = int(np.argmax(scores))
            assert breakdown.ioi_3d == scores[best_idx]
            np.testing.assert_allclose(crop.center, candidates[best_idx], atol=0)

    def test_tie_keeps_first_candidate(self):
        gt = OrientedBox3(center=(0.0, 0.0, 0.5), width=1.0, depth=0.25, height=1.0, yaw=0.0)
        spec = ScaleSpec("tiny", crop_side=0.5, crop_height=1.0, grid=(2, 2, 2))
        candidates = [np.array([0.125, 0.0, 0.5]), np.array([-0.125, 0.0, 0.5])]
        crop, breakdown = best_cropbox(gt, candidates, spec)
        mirrored = ioi(gt, Aabb3(center=candidates[1], side=0.5, height=1.0))
        assert breakdown.ioi_3d == mirrored.ioi_3d  # genuine tie
        np.testing.assert_allclose(crop.center, candidates[0], atol=0)

    def test_translation_equivariance(self):
        gt = OrientedBox3(center=(0.0, 0.0, 0.5), width=0.8, depth=0.5, height=0.9, yaw=1.1)
        candidates = [np.array([0.1, 0.05, 0.55]), np.array([0.4, -0.2, 0.7])]
        shift = np.array([3.0, -2.0, 1.0])
        gt_shifted = OrientedBox3(
            center=gt.center + shift, width=gt.width, depth=gt.depth, height=gt.height, yaw=gt.yaw
        )
        crop_a, b_a = best_cropbox(gt, candidates, self.SPEC)
        crop_b, b_b = best_cropbox(gt_shifted, [c + shift for c in candidates], self.SPEC)
        np.testing.assert_allclose(crop_b.center, crop_a.center + shift, atol=1e-12)
        assert b_b.ioi_3d == pytest.approx(b_a.ioi_3d, abs=1e-9)

    def test_empty_candidates_raise(self):
        gt = OrientedBox3(center=(0, 0, 0), width=1, depth=1, height=1, yaw=0)
        with pytest.raises(NoCandidatesError):
            best_cropbox(gt, [], self.SPEC)


def make_sample(rng, center=None, yaw=None) -> ObjectSample:
    """An object in front of an identity-pose camera with points inside it."""
    center = np.array([0.0, 0.0, 2.5]) if center is None else np.asarray(center, float)
    yaw = float(rng.uniform(-np.pi, np.pi)) if yaw is None else yaw
    box = OrientedBox3(
        center=center,
        width=rng.uniform(0.3, 0.8),
        depth=rng.uniform(0.3, 0.8),
        height=rng.uniform(0.3, 0.8),
        yaw=yaw,
    )
    # sample points uniformly inside the box
    unit = rng.random((120, 3)) - 0.5
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    lx, ly, lz = unit[:, 0] * box.width, unit[:, 1] * box.depth, unit[:, 2] * box.height
    cloud = np.stack(
        [
            box.center[0] + c * lx - s * ly,
            box.center[1] + s * lx + c * ly,
            box.center[2] + lz,
        ],
        axis=1,
    )
    u = K.fx * cloud[:, 0] / cloud[:, 2] + K.cx
    v = K.fy * cloud[:, 1] / cloud[:, 2] + K.cy
    rect = Rect2(u.min() - 0.5, v.min() - 0.5, u.max() + 0.5, v.max() + 0.5)
    return ObjectSample("obj", cloud, rect, box, K, RigidTransform.identity())


class TestRecallCurves:
    def test_monotone_in_side_and_height(self):
        rng = np.random.default_rng(101)
        dataset = [
            make_sample(rng, center=np.array([rng.uniform(-0.4, 0.4), rng.uniform(-0.3, 0.3), rng.uniform(2, 4)]))
            for _ in range(40)
        ]
        cfg = SizeSearchConfig(
            side_candidates=[0.3, 0.5, 0.8, 1.2, 2.0],
            height_candidates=[0.3, 0.6, 1.0, 1.6],
            fr_fc=[(1, 1), (3, 3)],
        )
        points = recall_curves(dataset, cfg, mode="average")
        assert len(points) == 2 * 5 * 4
        by_config: dict = {}
        for p in points:
            by_config.setdefault((p.fr, p.fc), []).append(p)
        for plist in by_config.values():
            # non-decreasing in side at fixed height
            for h in {p.height_m for p in plist}:
                seq = sorted((p for p in plist if p.height_m == h), key=lambda p: p.side_m)
                assert all(a.recall_xy <= b.recall_xy + 1e-12 for a, b in zip(seq, seq[1:]))
                assert all(a.recall_volume <= b.recall_volume + 1e-12 for a, b in zip(seq, seq[1:]))
            # non-decreasing in height at fixed side
            for s in {p.side_m for p in plist}:
                seq = sorted((p for p in plist if p.side_m == s), key=lambda p: p.height_m)
                assert all(a.recall_z <= b.recall_z + 1e-12 for a, b in zip(seq, seq[1:]))
        assert all(p.bound_satisfied for p in points)

    def test_exact_jump_for_identical_boxes_with_perfect_centers(self):
        """With exact centers, footprint recall jumps 0 -> 1 at the closed-form side."""
        for yaw in (0.0, math.pi / 4, 0.33):
            w, d = 1.0, 0.6
            s_star = max(
                w * abs(math.cos(yaw)) + d * abs(math.sin(yaw)),
                w * abs(math.sin(yaw)) + d * abs(math.cos(yaw)),
            )
            dataset = []
            for _ in range(10):
                box = OrientedBox3(center=(0.0, 0.0, 2.5), width=w, depth=d, height=0.8, yaw=yaw)
                cloud = box.center.reshape(1, 3)  # single point exactly at the center
                rect = Rect2(K.cx - 1.0, K.cy - 1.0, K.cx + 1.0, K.cy + 1.0)
                dataset.append(ObjectSample("obj", cloud, rect, box, K, RigidTransform.identity()))
            cfg = SizeSearchConfig(
                side_candidates=[s_star * (1 - 1e-6), s_star * (1 + 1e-9)],
                height_candidates=[1.0],
                threshold_xy=1.0,
                threshold_z=1.0,
                fr_fc=[(1, 1)],
            )
            points = recall_curves(dataset, cfg, mode="average")
            below = next(p for p in points if p.side_m < s_star)
            above = next(p for p in points if p.side_m >= s_star)
            assert below.recall_xy == 0.0, f"yaw={yaw}"
            assert above.recall_xy == 1.0, f"yaw={yaw}"

    def test_items_with_empty_frustums_count_as_misses(self):
        rng = np.random.default_rng(5)
        good = make_sample(rng)
        bad = ObjectSample(
            category="obj",
            cloud=np.array([[0.0, 0.0, -3.0]]),  # behind the camera
            rect=Rect2(30.0, 20.0, 50.0, 40.0),
            gt_box=good.gt_box,
            intrinsics=K,
            pose=RigidTransform.identity(),
        )
        cfg = SizeSearchConfig(side_candidates=[5.0], height_candidates=[5.0], fr_fc=[(1, 1)])
        points = recall_curves([good, bad], cfg)
        assert points[0].recall_xy == 0.5
        assert points[0].recall_z == 0.5

    def test_empty_dataset_rejected(self):
        cfg = SizeSearchConfig(side_candidates=[1.0], height_candidates=[1.0])
        with pytest.raises(GeometryError):
            recall_curves([], cfg)


class TestSplitFrames:
    def test_runs_share_cloud_camera_and_pose_by_identity(self):
        rng = np.random.default_rng(8)
        a, b = make_sample(rng), make_sample(rng)
        pose = RigidTransform.identity()
        same = [ObjectSample("obj", a.cloud, a.rect, a.gt_box, K, pose) for _ in range(3)]
        equal_copy = ObjectSample("obj", a.cloud.copy(), a.rect, a.gt_box, K, pose)
        other_pose = ObjectSample("obj", a.cloud, a.rect, a.gt_box, K, RigidTransform.identity())
        other_k = ObjectSample("obj", a.cloud, a.rect, a.gt_box, CameraIntrinsics(100.0, 100.0, 40.0, 30.0, 80, 60), pose)
        samples = [*same, equal_copy, other_pose, other_k, b, same[0]]
        runs = list(split_frames(samples))
        assert [len(r) for r, _ in runs] == [3, 1, 1, 1, 1, 1]
        assert [s for r, _ in runs for s in r] == samples
        assert all(p.made_from(s.cloud, s.intrinsics, s.pose) for r, p in runs for s in r)


class TestSizeSearchConfig:
    def test_rejects_unknown_subdivisions(self):
        with pytest.raises(GeometryError):
            SizeSearchConfig(side_candidates=[1.0], height_candidates=[1.0], fr_fc=[(2, 2)])

    def test_rejects_bad_thresholds(self):
        with pytest.raises(GeometryError):
            SizeSearchConfig(side_candidates=[1.0], height_candidates=[1.0], threshold_xy=0.0)

    def test_sorts_candidates(self):
        cfg = SizeSearchConfig(side_candidates=[2.0, 1.0], height_candidates=[3.0, 0.5])
        assert cfg.side_candidates == [1.0, 2.0]
        assert cfg.height_candidates == [0.5, 3.0]


def curve(fr, fc, side, height, rxy, rz, rvol=1.0) -> CurvePoint:
    return CurvePoint(
        fr=fr,
        fc=fc,
        mode="average",
        side_m=side,
        height_m=height,
        recall_xy=rxy,
        recall_z=rz,
        recall_volume=rvol,
        bound=max(0.0, rxy + rz - 1.0),
        bound_satisfied=True,
    )


class TestSelectMinSize:
    ROWS = [
        curve(3, 3, 1.0, 1.0, 0.50, 0.80),
        curve(3, 3, 1.0, 2.0, 0.50, 0.96),
        curve(3, 3, 2.0, 1.0, 0.90, 0.80),
        curve(3, 3, 2.0, 2.0, 0.90, 0.96),
        curve(3, 3, 3.0, 1.0, 0.97, 0.80),
        curve(3, 3, 3.0, 2.0, 0.97, 0.96),
    ]

    def test_exact_crossing(self):
        assert select_min_size(self.ROWS, target_xy=0.90, target_z=0.95) == (2.0, 2.0)

    def test_raising_targets_never_shrinks_sizes(self):
        s1, h1 = select_min_size(self.ROWS, 0.50, 0.80)
        s2, h2 = select_min_size(self.ROWS, 0.95, 0.95)
        assert s2 >= s1 and h2 >= h1

    def test_infeasible_target_raises(self):
        with pytest.raises(InfeasibleSizeError):
            select_min_size(self.ROWS, target_xy=0.99, target_z=0.95)
        with pytest.raises(InfeasibleSizeError):
            select_min_size(self.ROWS, target_xy=0.5, target_z=0.99)

    def test_headline_bound_at_default_targets(self):
        side, height = select_min_size(self.ROWS)  # defaults 0.90 / 0.95
        assert (side, height) == (2.0, 2.0)
        assert max(0.0, 0.90 + 0.95 - 1.0) == pytest.approx(0.85, abs=1e-12)

    def test_empty_rows_rejected(self):
        with pytest.raises(GeometryError):
            select_min_size([])
