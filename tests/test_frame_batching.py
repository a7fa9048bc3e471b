"""Frame-batched sizing against the per-object loops it replaced.

``recall_curves``, ``stale_frustum_experiment`` and ``encode-check`` walk the
samples with ``split_frames``, which projects each frame's cloud once, and
the first two score candidate crops in batches (``score_samples``). The references below are the
per-object loops they replaced: ``candidate_centers`` without a projection
for every object, subdivision and drift, and ``ioi()`` for every crop.
"""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from frustumkit import cli, cropbox, geometry, pipesim
from frustumkit.cropbox import (
    SUBDIVISIONS,
    CurvePoint,
    ObjectSample,
    SCALE_SPECS,
    SizeSearchConfig,
    assign_scale,
    best_cropbox,
    candidate_centers,
    get_scale_spec,
    recall_curves,
)
from frustumkit.errors import GeometryError, NoCandidatesError
from frustumkit.geometry import Aabb3, CameraIntrinsics, OrientedBox3, Rect2, RigidTransform, project_cloud
from frustumkit.ioi import RecallReport, ioi
from frustumkit.manifest import iter_object_samples, load_manifest
from frustumkit.pipesim import DriftRow, stale_frustum_experiment
from frustumkit.voxelizer import voxelize

K = CameraIntrinsics(fx=150.0, fy=150.0, cx=80.0, cy=60.0, width=160, height=120)


def camera_pose(yaw: float) -> RigidTransform:
    """A camera 1.2 m up, looking along the horizontal direction `yaw`."""
    c, s = math.cos(yaw), math.sin(yaw)
    z_cam = np.array([c, s, 0.0])
    y_cam = np.array([0.0, 0.0, -1.0])
    return RigidTransform(np.column_stack([np.cross(y_cam, z_cam), y_cam, z_cam]), np.array([0.1, -0.2, 1.2]))


def synthetic_frames(seed: int, n_frames: int, n_objects: int, n_clutter: int, per_object: int) -> list[ObjectSample]:
    """Frames whose objects share one cloud, camera and pose object, as iter_object_samples yields them.

    Each object is a box with points inside it; its rect bounds the box's own
    points. Every frame also has one object whose rect lies left of the image,
    where no point projects, so it has no candidates at any subdivision.
    """
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n_frames):
        pose = camera_pose(rng.uniform(-np.pi, np.pi))
        inv = pose.inverse()
        boxes, parts = [], []
        for _ in range(n_objects):
            depth, lateral = rng.uniform(2.0, 6.0), rng.uniform(-0.3, 0.3)
            cam_center = np.array([lateral * depth, rng.uniform(0.0, 0.4), depth])
            box = OrientedBox3(
                center=pose.apply(cam_center),
                width=rng.uniform(0.3, 0.9),
                depth=rng.uniform(0.3, 0.9),
                height=rng.uniform(0.3, 0.9),
                yaw=rng.uniform(-np.pi, np.pi),
            )
            unit = rng.random((per_object, 3)) - 0.5
            c, s = math.cos(box.yaw), math.sin(box.yaw)
            lx, ly, lz = unit[:, 0] * box.width, unit[:, 1] * box.depth, unit[:, 2] * box.height
            parts.append(box.center + np.stack([c * lx - s * ly, s * lx + c * ly, lz], axis=1))
            boxes.append(box)
        # clutter in view: pixel u in [5, 155], v in [7.5, 112.5]
        z = rng.uniform(1.0, 9.0, n_clutter)
        xy = rng.uniform([-0.5, -0.35], [0.5, 0.35], size=(n_clutter, 2)) * z[:, None]
        clutter = pose.apply(np.column_stack([xy, z]))
        cloud = np.concatenate(parts + [clutter])[rng.permutation(n_objects * per_object + n_clutter)]
        for box, own in zip(boxes, parts):
            cam = inv.apply(own)
            u = K.fx * cam[:, 0] / cam[:, 2] + K.cx
            v = K.fy * cam[:, 1] / cam[:, 2] + K.cy
            rect = Rect2(u.min() - 0.5, v.min() - 0.5, u.max() + 0.5, v.max() + 0.5)
            samples.append(ObjectSample("obj", cloud, rect, box, K, pose))
        samples.append(ObjectSample("obj", cloud, Rect2(-60.0, 10.0, -20.0, 50.0), boxes[0], K, pose))
    return samples


def reference_recall_curves(dataset, cfg, mode) -> list[CurvePoint]:
    """The per-object loop: candidate_centers without a projection, every crop scored by ioi()."""
    sides, heights = cfg.side_candidates, cfg.height_candidates
    t3 = cfg.threshold_xy * cfg.threshold_z
    points = []
    for fr, fc in cfg.fr_fc:
        n_xy, n_z = [0] * len(sides), [0] * len(heights)
        n_vol = [[0] * len(heights) for _ in sides]
        for item in dataset:
            try:
                cands = candidate_centers(item.cloud, item.rect, item.intrinsics, pose=item.pose, fr=fr, fc=fc, mode=mode)
            except NoCandidatesError:
                continue
            box = item.gt_box
            xy = [[ioi(box, Aabb3(center=c, side=s, height=heights[0])).ioi_xy for s in sides] for c in cands]
            z = [[ioi(box, Aabb3(center=c, side=sides[0], height=h)).ioi_z for h in heights] for c in cands]
            for si in range(len(sides)):
                n_xy[si] += max(row[si] for row in xy) >= cfg.threshold_xy
                for hi in range(len(heights)):
                    n_vol[si][hi] += max(a[si] * b[hi] for a, b in zip(xy, z)) >= t3
            for hi in range(len(heights)):
                n_z[hi] += max(row[hi] for row in z) >= cfg.threshold_z
        for si, side in enumerate(sides):
            for hi, height in enumerate(heights):
                report = RecallReport(len(dataset), n_xy[si], n_z[hi], n_vol[si][hi])
                points.append(
                    CurvePoint(
                        fr, fc, mode, side, height, report.recall_xy, report.recall_z, report.recall_volume,
                        report.bound, report.bound_satisfied,
                    )
                )
    return points


def reference_stale_sweep(samples, drifts, spec, threshold_xy=0.90, threshold_z=0.90) -> list[DriftRow]:
    """The per-object loop of the stale sweep: one 1x1 candidate_centers and ioi() per sample and drift."""
    rows = []
    for drift in drifts:
        iois, n_pos, n_lost = [], 0, 0
        for s in samples:
            shifted = Rect2(s.rect.u_min + drift, s.rect.v_min, s.rect.u_max + drift, s.rect.v_max)
            try:
                centers = candidate_centers(s.cloud, shifted, s.intrinsics, s.pose)
            except NoCandidatesError:
                n_lost += 1
                iois.append(0.0)
                continue
            scores = [ioi(s.gt_box, Aabb3(center=c, side=spec.crop_side, height=spec.crop_height)) for c in centers]
            best = scores[int(np.argmax([b.ioi_3d for b in scores]))]
            iois.append(best.ioi_3d)
            n_pos += best.ioi_xy >= threshold_xy and best.ioi_z >= threshold_z
        rows.append(DriftRow(float(drift), float(np.mean(iois)), n_pos / len(samples), len(samples), n_lost))
    return rows


@pytest.fixture(scope="module")
def dataset():
    return synthetic_frames(seed=7, n_frames=16, n_objects=3, n_clutter=300, per_object=150)


@pytest.mark.parametrize("batch", [cropbox._SCORE_BATCH, 1], ids=["default-batch", "batch-per-frame"])
@pytest.mark.parametrize("mode", ["average", "median"])
def test_recall_curves_equal_the_per_object_reference(dataset, mode, batch, monkeypatch):
    monkeypatch.setattr(cropbox, "_SCORE_BATCH", batch)
    # 5x5 listed twice gets its rows twice; 3x3 and 1x1 in between
    cfg = SizeSearchConfig([0.5, 0.9, 1.6], [0.4, 0.8, 1.6], fr_fc=[(5, 5), (1, 1), (3, 3), (5, 5)])
    batches = []
    scorer = cropbox.crop_scores

    def counting_scorer(boxes, centers, sides, heights):
        batches.append(sum(len(c) for c in centers))
        return scorer(boxes, centers, sides, heights)

    monkeypatch.setattr(cropbox, "crop_scores", counting_scorer)
    got = recall_curves(dataset, cfg, mode=mode)
    want = reference_recall_curves(dataset, cfg, mode)
    assert got == want
    assert got[:9] == got[27:]  # the repeated 5x5 entry
    if batch > 1:
        assert len(batches) >= 2 and sum(batches) > batch
    else:
        assert len(batches) == 16  # one per frame
    assert 0.0 < min(p.recall_xy for p in got) < max(p.recall_xy for p in got) < 1.0


@pytest.mark.parametrize("mode", ["average", "median"])
@pytest.mark.parametrize("fr_fc", [(1, 1), (3, 3), (5, 5)])
def test_candidate_centers_from_a_shared_projection_equal_those_without(dataset, fr_fc, mode):
    fr, fc = fr_fc
    projection = None
    for s in dataset:
        if projection is None or projection.cloud is not s.cloud:
            projection = project_cloud(s.cloud, s.intrinsics, s.pose)
        try:
            want = candidate_centers(s.cloud, s.rect, s.intrinsics, pose=s.pose, fr=fr, fc=fc, mode=mode)
        except NoCandidatesError:
            with pytest.raises(NoCandidatesError):
                candidate_centers(s.cloud, s.rect, s.intrinsics, s.pose, fr, fc, mode, projection=projection)
            continue
        got = candidate_centers(s.cloud, s.rect, s.intrinsics, s.pose, fr, fc, mode, projection=projection)
        assert np.array_equal(np.stack(got), np.stack(want))


def test_objects_without_candidates_count_as_misses(dataset):
    lost = [s for s in dataset if s.rect.u_max < 0]
    assert len(lost) == 16
    for s in lost:
        with pytest.raises(NoCandidatesError):
            candidate_centers(s.cloud, s.rect, s.intrinsics, pose=s.pose, fr=5, fc=5)
    cfg = SizeSearchConfig([8.0], [8.0], fr_fc=[(5, 5)])  # crops that hold any box whole
    (point,) = recall_curves(dataset, cfg)
    assert point.recall_xy == (len(dataset) - len(lost)) / len(dataset)


def test_stale_sweep_equals_the_per_object_reference(dataset):
    drifts = [0.0, 3.0, 250.0]
    got = stale_frustum_experiment(dataset, drifts, "small_short")
    assert got == reference_stale_sweep(dataset, drifts, SCALE_SPECS["small_short"])
    # the rects left of the image are lost at every drift; 250 px moves every rect past the image
    assert [r.n_lost for r in got] == [16, 16, len(dataset)]
    assert got[0].recall_volume > 0


def test_projection_of_another_cloud_camera_or_pose_is_rejected(dataset):
    s, other = dataset[0], dataset[-1]
    projection = project_cloud(s.cloud, s.intrinsics, s.pose)
    candidate_centers(s.cloud, s.rect, s.intrinsics, pose=s.pose, projection=projection)
    same_values = CameraIntrinsics(K.fx, K.fy, K.cx, K.cy, K.width, K.height)
    for cloud, k, pose in [
        (s.cloud.copy(), s.intrinsics, s.pose),
        (other.cloud, s.intrinsics, s.pose),
        (s.cloud, same_values, s.pose),
        (s.cloud, s.intrinsics, other.pose),
        (s.cloud, s.intrinsics, None),
    ]:
        with pytest.raises(GeometryError, match="another cloud, camera or pose"):
            candidate_centers(cloud, s.rect, k, pose=pose, projection=projection)


@pytest.fixture
def projections(monkeypatch) -> list[int]:
    """One entry per project_cloud call, made through any module that holds the name."""
    calls = []

    def counting(cloud, k, pose):
        calls.append(len(cloud))
        return project_cloud(cloud, k, pose)

    for module in (geometry, cropbox, pipesim, cli):
        if hasattr(module, "project_cloud"):
            monkeypatch.setattr(module, "project_cloud", counting)
    return calls


def test_recall_curves_and_stale_sweep_project_each_frame_once(dataset, projections):
    n_frames = 16
    assert len(dataset) == 4 * n_frames
    recall_curves(dataset, SizeSearchConfig([0.9], [0.8], fr_fc=[(1, 1), (3, 3), (5, 5)]))
    assert len(projections) == n_frames
    projections.clear()
    stale_frustum_experiment(dataset, [0.0, 3.0, 250.0], "small_short")
    assert len(projections) == n_frames


def test_encode_check_projects_each_frame_once(tmp_path, projections, capsys):
    out = tmp_path / "data"
    assert cli.main(["gen-scenes", "--out", str(out), "--count", "8", "--seed", "5"]) == cli.EXIT_OK
    manifest = load_manifest(out / "manifest.json")
    n_frames = sum(1 for frame in manifest.frames if frame.objects)
    assert manifest.n_objects > n_frames
    projections.clear()
    assert cli.main(["encode-check", "--manifest", str(out / "manifest.json"), "--seed", "3"]) == cli.EXIT_OK
    assert f"encode-check: {manifest.n_objects} objects round-trip" in capsys.readouterr().out
    assert len(projections) == n_frames


#: tracemalloc peak allowed for one 5x5 recall_curves call over MEMORY_FRAMES
#: frames of about 2,000 points: one frame's projection plus one score batch.
#: Measured 2.6 MiB; holding every projection measured 7.6 MiB and one
#: dataset-wide batch 20.8 MiB.
MEMORY_PEAK_BOUND = 4 * 2**20
MEMORY_FRAMES = 120


def test_recall_curves_memory_does_not_grow_with_the_dataset():
    """Only one frame's projection is live, and batches close near _SCORE_BATCH centers.

    Holding every frame's projection (about 6 MB of indices and pixel
    coordinates here), or scoring the whole dataset in one batch, exceeds the
    bound.
    """
    data = synthetic_frames(seed=11, n_frames=MEMORY_FRAMES, n_objects=3, n_clutter=1550, per_object=150)
    assert 2000 <= len(data[0].cloud) <= 2100
    cfg = SizeSearchConfig([0.5, 0.9, 1.6], [0.4, 0.8, 1.6], fr_fc=[(5, 5)])
    tracemalloc.start()
    try:
        recall_curves(data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_PEAK_BOUND, f"peak {peak / 2**20:.2f} MiB"


#: tracemalloc peak allowed, over 12 bytes per point, for holding every
#: ObjectSample of MEMORY_SCENES generated frames (about 42,000 points): the
#: samples, arrays and file buffers. Measured 23 KiB; float64 clouds hold 24
#: bytes per point, 0.5 MiB more here.
LOADED_CLOUD_ALLOWANCE = 64 * 2**10
MEMORY_SCENES = 20


def test_loaded_samples_hold_their_clouds_at_float32_size(tmp_path):
    """Each frame's cloud is read once and held as the file's 12 bytes per point."""
    assert cli.main(["gen-scenes", "--out", str(tmp_path), "--count", str(MEMORY_SCENES), "--seed", "3"]) == cli.EXIT_OK
    manifest = load_manifest(tmp_path / "manifest.json")
    tracemalloc.start()
    try:
        samples = list(iter_object_samples(manifest))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    clouds = {id(s.cloud): s.cloud for s in samples}
    assert len(clouds) == MEMORY_SCENES and len(samples) > MEMORY_SCENES
    n_points = sum(len(c) for c in clouds.values())
    # float64 clouds would overshoot the allowance several times over
    assert 12 * n_points > 4 * LOADED_CLOUD_ALLOWANCE
    assert peak < 12 * n_points + LOADED_CLOUD_ALLOWANCE, f"{peak / n_points:.2f} bytes per point"


@pytest.fixture(scope="module")
def loaded_and_twin(tmp_path_factory) -> tuple[list[ObjectSample], list[ObjectSample]]:
    """A gen-scenes dataset's samples as loaded, and with each frame's cloud widened to float64."""
    out = tmp_path_factory.mktemp("scenes")
    assert cli.main(["gen-scenes", "--out", str(out), "--count", "6", "--seed", "42"]) == cli.EXIT_OK
    loaded = list(iter_object_samples(load_manifest(out / "manifest.json")))
    twins = {id(s.cloud): s.cloud.astype(np.float64) for s in loaded}
    assert {s.cloud.dtype for s in loaded} == {np.dtype(np.float32)}
    return loaded, [dataclasses.replace(s, cloud=twins[id(s.cloud)]) for s in loaded]


def test_float32_clouds_give_the_float64_twin_results(loaded_and_twin):
    """Every computation widens a loaded cloud to the float64 values its twin holds."""
    loaded, twin = loaded_and_twin
    for a, b in zip(loaded, twin):
        for (fr, fc), mode in [(s, m) for s in SUBDIVISIONS for m in ("average", "median")]:
            got = candidate_centers(a.cloud, a.rect, a.intrinsics, a.pose, fr, fc, mode)
            want = candidate_centers(b.cloud, b.rect, b.intrinsics, b.pose, fr, fc, mode)
            assert got.dtype == want.dtype == np.float64 and np.array_equal(got, want)
        spec = get_scale_spec(assign_scale(a.gt_box.width, a.gt_box.depth, a.gt_box.height))
        crop, breakdown = best_cropbox(a.gt_box, candidate_centers(a.cloud, a.rect, a.intrinsics, a.pose), spec)
        crop_b, breakdown_b = best_cropbox(b.gt_box, candidate_centers(b.cloud, b.rect, b.intrinsics, b.pose), spec)
        assert np.array_equal(crop.center, crop_b.center) and breakdown == breakdown_b
        grid, grid_b = voxelize(a.cloud, crop, spec), voxelize(b.cloud, crop, spec)
        assert grid.total_points > 0
        assert np.array_equal(grid.cells, grid_b.cells) and np.array_equal(grid.counts, grid_b.counts)
        assert np.array_equal(grid.origin, grid_b.origin)
    cfg = SizeSearchConfig([0.5, 0.9, 1.6], [0.4, 0.8, 1.6], fr_fc=list(SUBDIVISIONS))
    for mode in ("average", "median"):
        assert recall_curves(loaded, cfg, mode) == recall_curves(twin, cfg, mode)
    drifts = [0.0, 2.0, 8.0]
    assert stale_frustum_experiment(loaded, drifts) == stale_frustum_experiment(twin, drifts)


#: tracemalloc peak allowed for one 5x5 recall_curves call with a large size
#: sweep. A frame's candidates are scored in one batch, so a batch can overshoot
#: its limit by one frame: about 75 centers x 40 sides here. Measured 2.5 MiB
#: at 40x40 sizes and 4.8 MiB at 40x1.
MEMORY_SWEEP_PEAK_BOUND = 6 * 2**20


@pytest.mark.parametrize("n_sides, n_heights", [(40, 40), (40, 1)], ids=["40x40", "40x1"])
def test_recall_curves_memory_does_not_grow_with_the_size_sweep(n_sides, n_heights):
    """Batches close on (center, side) pairs and (center, side, height) triples.

    Batches of _SCORE_BATCH centers, whatever the sweep, peak at 29.6 MiB here
    at both sweeps: at 40x40 in the volume maxima, at 40x1 in crop_scores.
    Closing on the triples alone peaks at about 9 MiB at 40x1.
    """
    data = synthetic_frames(seed=11, n_frames=40, n_objects=3, n_clutter=1550, per_object=150)
    sides, heights = np.linspace(0.4, 2.0, n_sides).tolist(), np.linspace(0.4, 2.0, n_heights).tolist()
    cfg = SizeSearchConfig(sides, heights, fr_fc=[(5, 5)])
    tracemalloc.start()
    try:
        recall_curves(data, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_SWEEP_PEAK_BOUND, f"peak {peak / 2**20:.2f} MiB"
