"""The three benchmark workloads, built from frustumkit's public functions.

Every input is generated by ``scenegen`` from the workload seed; frustumkit
only ever sees the generated scenes, files and manifests. A workload runs in
*units* (a sizing pass, a block of voxel frames, a scenes pass). A unit
returns how long its operations took, how many labelled objects went through
and its latency samples. Output checks (digests, read-backs, independent
counts) run between operations and are never inside a timed region.

An operation is one labelled object, one frame, or one whole-dataset call. An
operation that raises a frustumkit error, or whose output fails a check,
counts as failed; its time still counts toward the unit, because the work
was done.

Library calls go through module attributes (``voxelizer.voxelize``), so the
traced run can wrap them in spans without touching the library; see
``instrument.py``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from frustumkit import cli, cropbox, dhs, evalkit, geometry, head, manifest, pipesim, scenegen, voxelizer
from frustumkit.errors import EncodeDomainError, FrustumKitError

from calibrate import Clock
from digests import DigestBook, sha256_bytes

SIDES = [1.6, 3.2, 4.8]
HEIGHTS = [1.5, 1.7, 2.2]
SUBDIVISIONS = (1, 3, 5)
CENTER_MODES = ("average", "median")
DRIFTS_PX = [0.0, 2.0, 4.0, 8.0]

DATASET_SCENES = 200  # the ROADMAP's pinned gen-scenes dataset: 200 scenes x 3 objects
DATASET_OBJECTS = 3
VOXEL_BLOCK_FRAMES = 10  # frames per voxel unit; one evaluate call per block
SCENES_FRAMES = 100
SCENES_OBJECTS = 10
SCENES_DENSITY = 240.0  # object surface samples per m^2, twice the default
SCENES_SEGMENT_FRAMES = 5  # frames between two host-speed kernel timings
ENCODE_CHECK_SEED = "42"
FVGRID_HEADER_BYTES = 68  # magic, 3 x int32 dims, 3 x float64 cell, 3 x float64 origin

_encode_unwrapped = head.encode  # output checks must not add spans to the traced run


@dataclass
class Context:
    """Per-run state shared by a workload's units: tracer, digests, op ledger."""

    seed: int
    work: Path
    tracer: object
    book: DigestBook
    clock: Clock
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    broken: list[str] = field(default_factory=list)  # output checks that did not hold

    def span(self, name: str):
        return self.tracer.span(name)

    def segment(self, unit: Unit) -> None:
        """Close a segment of the unit's work with a kernel timing (outside every op)."""
        unit.close_segment(self.clock.factor())

    def attempt(self, op: str, span: str, fn, *args, **kwargs):
        """Run one operation; returns (succeeded, result, seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.span(span):
                out = fn(*args, **kwargs)
        except FrustumKitError as exc:
            self.fail(op, exc)
            return False, None, time.perf_counter() - t0
        return True, out, time.perf_counter() - t0

    def fail(self, op: str, exc: BaseException) -> None:
        self.failed += 1
        self.failures.append(f"{op}: {type(exc).__name__}: {exc}")

    def expect(self, ok: bool, what: str) -> bool:
        if not ok:
            self.broken.append(what)
        return ok

    def outputs(self, op: str, checks: list[bool]) -> None:
        """Fail the operation once if any of its output checks failed."""
        if not all(checks):
            self.fail(op, RuntimeError("output differs from its recorded digest or check"))


@dataclass
class Unit:
    """What one unit of work measured, raw and normalized by the host-speed clock."""

    objects: int = 0  # labelled objects that went through
    raw_s: float = 0.0  # summed wall time of its operations
    norm_s: float = 0.0  # the same, scaled segment by segment (calibrate.py)
    raw_ms: list[float] = field(default_factory=list)  # latency samples behind op_p50/op_p90
    norm_ms: list[float] = field(default_factory=list)
    _pending: list[tuple[float, bool]] = field(default_factory=list)

    def add(self, seconds: float, sample: bool) -> None:
        """An operation's time; ``sample`` makes it a latency sample too."""
        self._pending.append((seconds, sample))

    def close_segment(self, factor: float) -> None:
        for seconds, sample in self._pending:
            self.raw_s += seconds
            self.norm_s += seconds * factor
            if sample:
                self.raw_ms.append(seconds * 1e3)
                self.norm_ms.append(seconds * factor * 1e3)
        self._pending.clear()


def write_lines(path: Path, header: str, rows: list[str]) -> Path:
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def write_curves(path: Path, curves) -> Path:
    """The CSV ``frustumkit recall-curves`` writes."""
    return write_lines(path, cropbox.CURVE_CSV_HEADER, [cropbox.curve_point_to_csv_row(p) for p in curves])


# --- shared set-up: the gen-scenes dataset ----------------------------------


def generate_dataset(seed: int, out: Path) -> Path:
    """What ``frustumkit gen-scenes --count 200 --seed <seed>`` writes, call by call."""
    out.mkdir(parents=True, exist_ok=True)
    frames = []
    for i in range(DATASET_SCENES):
        spec = scenegen.random_scene(seed=seed + i, n_objects=DATASET_OBJECTS)
        scene = scenegen.render(spec)
        cloud_path = (out / f"scene_{i:04d}.cloud").resolve()
        geometry.write_cloud_binary(scene.cloud, cloud_path)
        range_path = (out / f"scene_{i:04d}.rng").resolve()
        dhs.write_range_image(scene.range_image, range_path)
        objects = tuple(
            manifest.ManifestObject(category=o.category, rect=o.rect, box=o.box)
            for o in scene.objects
            if o.rect is not None
        )
        frames.append(
            manifest.ManifestFrame(
                cloud_path=cloud_path,
                range_image_path=range_path,
                intrinsics=spec.intrinsics,
                pose=spec.pose,
                objects=objects,
            )
        )
    data = manifest.Manifest(
        root=out.resolve(),
        categories=tuple(sorted(scenegen.CATEGORY_PRESETS)),
        anchors_path=None,
        frames=tuple(frames),
    )
    path = out / "manifest.json"
    path.write_text(manifest.manifest_to_json(data))
    return path


class DatasetWorkload:
    """Set-up shared by sizing and voxel: generate the dataset, then load it."""

    def setup(self, ctx: Context, repeats: int) -> Unit:
        """Each repeat is one latency sample of the returned unit."""
        times = Unit()
        data_dir = ctx.work / "dataset"
        for _ in range(repeats):
            shutil.rmtree(data_dir, ignore_errors=True)
            t0 = time.perf_counter()
            with ctx.span("bench.setup"):
                self.manifest_path = generate_dataset(ctx.seed, data_dir)
                self.data = manifest.load_manifest(self.manifest_path)
                self.samples = list(manifest.iter_object_samples(self.data))
            times.add(time.perf_counter() - t0, sample=True)
            ctx.segment(times)
        ctx.book.check_file(f"dataset/seed{ctx.seed}/manifest.json", self.manifest_path)
        for i, frame in enumerate(self.data.frames):
            ctx.book.check_file(f"scene3/s{ctx.seed + i}/cloud", frame.cloud_path)
            ctx.book.check_file(f"scene3/s{ctx.seed + i}/range", frame.range_image_path)
        ctx.expect(len(self.samples) == self.data.n_objects, "iter_object_samples yields one sample per object")
        return times


# --- sizing -------------------------------------------------------------------


class Sizing(DatasetWorkload):
    """Recall curves at 1x1/3x3/5x5 x average/median, stale sweep, size selection."""

    name = "sizing"
    unit_seconds = 7.5  # one pass at the reference host speed
    fixed_units = 1  # passes per traced run

    def unit(self, ctx: Context, index: int) -> Unit:
        """One pass; the pass is the latency sample, each call its own segment."""
        out = ctx.work / "sizing"
        out.mkdir(exist_ok=True)
        unit = Unit(objects=len(self.samples))
        points = []
        for f in SUBDIVISIONS:
            for mode in CENTER_MODES:
                name = f"recall_curves_{f}x{f}_{mode}"
                cfg = cropbox.SizeSearchConfig(SIDES, HEIGHTS, fr_fc=[(f, f)])
                ok, curves, dt = ctx.attempt(
                    name, "bench.call", cropbox.recall_curves, self.samples, cfg, mode=mode
                )
                unit.add(dt, sample=False)
                ctx.segment(unit)
                if not ok:
                    continue
                points.extend(curves)
                path = write_curves(out / f"{name}.csv", curves)
                ctx.outputs(name, [
                    ctx.book.check_file(f"sizing/seed{ctx.seed}/{name}.csv", path),
                    ctx.expect(len(curves) == len(SIDES) * len(HEIGHTS), f"{name}: one row per crop size"),
                    ctx.expect(all(p.bound_satisfied for p in curves), f"{name}: volume recall meets the bound"),
                ])

        name = "stale_sweep"
        ok, rows, dt = ctx.attempt(
            name, "bench.call", pipesim.stale_frustum_experiment, self.samples, DRIFTS_PX
        )
        unit.add(dt, sample=False)
        ctx.segment(unit)
        if ok:
            lines = [pipesim.drift_row_to_csv(r) for r in rows]
            path = write_lines(out / f"{name}.csv", pipesim.DRIFT_CSV_HEADER, lines)
            ctx.outputs(name, [
                ctx.book.check_file(f"sizing/seed{ctx.seed}/{name}.csv", path),
                ctx.expect(all(r.n_items == len(self.samples) for r in rows), f"{name}: every object is swept"),
            ])

        name = "select_size"
        ok, size, dt = ctx.attempt(name, "bench.call", cropbox.select_min_size, points)
        unit.add(dt, sample=False)
        ctx.segment(unit)
        if ok:
            path = write_lines(out / f"{name}.csv", "side_m,height_m", [f"{size[0]:.12g},{size[1]:.12g}"])
            ctx.outputs(name, [ctx.book.check_file(f"sizing/seed{ctx.seed}/{name}.csv", path)])
        unit.raw_ms.append(unit.raw_s * 1e3)
        unit.norm_ms.append(unit.norm_s * 1e3)
        return unit


# --- voxel --------------------------------------------------------------------


def perturb(vec: head.HeadVector, scene_seed: int, obj_index: int) -> tuple[head.HeadVector, float]:
    """A seeded stand-in for a network's output: the target head vector plus noise, and a score."""
    rng = np.random.default_rng([scene_seed, obj_index])
    yaw = math.atan2(vec.ori_sin, vec.ori_cos) + rng.normal(0.0, 0.15)
    t = np.clip(np.array([vec.tx, vec.ty, vec.tz]) + rng.normal(0.0, 0.03, 3), 0.0, 1.0)
    sizes = np.array([vec.lw, vec.ld, vec.lh]) + rng.normal(0.0, 0.1, 3)
    score = float(rng.uniform(0.05, 1.0))
    pred = head.HeadVector(math.cos(yaw), math.sin(yaw), *(float(v) for v in t), *(float(v) for v in sizes))
    return pred, score


def points_in_crop(cloud: np.ndarray, crop) -> int:
    """Independent count of the points a crop holds (closed on every face)."""
    return int(np.count_nonzero(np.all((cloud >= crop.min_corner) & (cloud <= crop.max_corner), axis=1)))


def sparse_rows(path: Path) -> tuple[int, int]:
    """(rows, summed counts) of a sparse CSV, parsed without the library."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return len(rows), sum(int(r[3]) for r in rows)


class Voxel(DatasetWorkload):
    """Per object: scale, 1x1 center, best crop, voxel grid + sparse CSV, encode/decode."""

    name = "voxel"
    unit_seconds = 1.6  # one block of ten frames at the reference host speed
    fixed_units = 5  # blocks of frames per traced run

    def setup(self, ctx: Context, repeats: int) -> Unit:
        times = super().setup(ctx, repeats)
        boxes: dict[str, list] = {}
        for frame in self.data.frames:
            for obj in frame.objects:
                boxes.setdefault(obj.category, []).append(obj.box)
        self.anchors = head.compute_anchors(boxes)
        it = iter(self.samples)
        self.frame_samples = [[next(it) for _ in frame.objects] for frame in self.data.frames]
        self.detections: dict[int, list] = {}  # frame index -> detections
        return times

    def unit(self, ctx: Context, index: int) -> Unit:
        n_frames = len(self.data.frames)
        first = (index * VOXEL_BLOCK_FRAMES) % n_frames
        block = [(first + k) % n_frames for k in range(VOXEL_BLOCK_FRAMES)]
        unit = Unit()
        for fi in block:  # one segment per frame
            dets = []
            for oj, sample in enumerate(self.frame_samples[fi]):
                unit.objects += 1
                ok, det, dt = self.object_stage(ctx, fi, oj, sample)
                unit.add(dt, sample=ok)
                if det is not None:
                    dets.append(det)
            ctx.segment(unit)
            self.detections[fi] = dets
        unit.add(self.evaluate_block(ctx, block, f"voxel/eval/s{ctx.seed + first}"), sample=False)
        ctx.segment(unit)
        return unit

    def _stage(self, sample, scene_seed: int, oj: int, grid_path: Path, sparse_path: Path):
        box = sample.gt_box
        spec = cropbox.get_scale_spec(cropbox.assign_scale(box.width, box.depth, box.height))
        centers = cropbox.candidate_centers(
            sample.cloud, sample.rect, sample.intrinsics, pose=sample.pose, fr=1, fc=1, mode="average"
        )
        crop, _ = cropbox.best_cropbox(box, centers, spec)
        grid = voxelizer.voxelize(sample.cloud, crop, spec)
        voxelizer.write_voxel_grid(grid, grid_path)
        voxelizer.write_sparse_csv(grid, sparse_path)
        anchor = self.anchors[sample.category]
        try:
            vec = head.encode(box, crop, anchor)
        except EncodeDomainError:
            return crop, grid, None, None  # center outside its crop: no detection, as in encode-check
        pred, score = perturb(vec, scene_seed, oj)
        return crop, grid, pred, evalkit.Detection(head.decode(pred, crop, anchor), sample.category, score)

    def object_stage(self, ctx: Context, fi: int, oj: int, sample):
        """One object's 3D stage; returns (succeeded, detection or None, seconds)."""
        scene_seed = ctx.seed + fi
        op = f"frame {fi} object {oj} (scene seed {scene_seed})"
        grid_path = ctx.work / "object.fvgrid"
        sparse_path = ctx.work / "object_sparse.csv"
        ok, out, dt = ctx.attempt(
            op, "bench.object", self._stage, sample, scene_seed, oj, grid_path, sparse_path
        )
        if not ok:
            return False, None, dt
        crop, grid, pred, det = out
        expected = points_in_crop(sample.cloud, crop)
        rows, summed = sparse_rows(sparse_path)
        checks = [
            ctx.book.check_file(f"voxel/s{scene_seed}/o{oj}/grid", grid_path),
            ctx.book.check_file(f"voxel/s{scene_seed}/o{oj}/sparse", sparse_path),
            ctx.expect(grid.total_points == expected, f"{op}: grid holds the {expected} points in its crop"),
            ctx.expect(
                rows == np.count_nonzero(grid.data) and summed == expected,
                f"{op}: sparse CSV lists every occupied cell",
            ),
            ctx.expect(
                os.path.getsize(grid_path) == FVGRID_HEADER_BYTES + 4 * grid.data.size, f"{op}: grid file size"
            ),
        ]
        if det is not None:
            back = _encode_unwrapped(det.box, crop, self.anchors[sample.category])
            err = float(np.max(np.abs(back.as_array() - pred.as_array())))
            checks.append(ctx.expect(err < 1e-9, f"{op}: encode inverts decode (error {err:.3g})"))
        ctx.outputs(op, checks)
        return all(checks), det, dt

    def evaluate_block(self, ctx: Context, block: list[int], key: str) -> float:
        frames = [
            (self.detections[fi], [evalkit.LabeledBox(o.category, o.box) for o in self.data.frames[fi].objects])
            for fi in block
        ]
        ok, report, dt = ctx.attempt(key, "bench.call", evalkit.evaluate, frames)
        if not ok:
            return dt
        out = ctx.work / "eval"
        out.mkdir(exist_ok=True)
        evalkit.write_category_csv(report.rows, out / "category.csv")
        evalkit.write_histogram_csv(report.iou_values, out / "iou_hist.csv")
        evalkit.write_histogram_csv(report.orientation_values, out / "orientation_hist.csv")
        n_gt = sum(len(gts) for _, gts in frames)
        checks = [ctx.book.check_file(f"{key}/{path.name}", path) for path in sorted(out.iterdir())]
        labelled = sum(r.n_gt for r in report.rows)
        checks.append(ctx.expect(labelled == n_gt, f"{key}: evaluate counts every label"))
        ctx.outputs(key, checks)
        return dt

    def finish(self, ctx: Context) -> Unit:
        """``frustumkit encode-check --seed 42`` once per run, through the CLI entry point."""
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = ["encode-check", "--manifest", str(self.manifest_path), "--seed", ENCODE_CHECK_SEED]
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            _, code, dt = ctx.attempt("encode-check", "bench.call", cli.main, argv)
        unit = Unit()
        unit.add(dt, sample=False)
        ctx.segment(unit)
        text = f"exit {code}\n{stdout.getvalue()}{stderr.getvalue()}"
        if not ctx.book.check(f"voxel/seed{ctx.seed}/encode_check", sha256_bytes(text.encode())):
            ctx.fail("encode-check", RuntimeError("output differs from its recorded digest"))
        elif code != 0:
            ctx.fail("encode-check", RuntimeError(f"exit {code}: {stderr.getvalue().strip()}"))
        return unit


# --- scenes -------------------------------------------------------------------


class Scenes:
    """Per frame: render 10 objects, write and read back cloud and range image, DHS."""

    name = "scenes"
    unit_seconds = 9.0  # one pass at the reference host speed
    fixed_units = 1  # passes per traced run

    def setup(self, ctx: Context, repeats: int) -> Unit:
        """Warm-up only: one frame's operations on a scene the passes do not render."""
        times = Unit()
        for r in range(repeats):
            t0 = time.perf_counter()
            with ctx.span("bench.setup"):
                self.frame(ctx.seed + SCENES_FRAMES + r, ctx.work / "warmup")
            times.add(time.perf_counter() - t0, sample=True)
            ctx.segment(times)
        return times

    def frame(self, scene_seed: int, prefix: Path):
        spec = scenegen.random_scene(seed=scene_seed, n_objects=SCENES_OBJECTS, density=SCENES_DENSITY)
        scene = scenegen.render(spec)
        paths = prefix.with_suffix(".cloud"), prefix.with_suffix(".rng"), prefix.with_suffix(".f32")
        geometry.write_cloud_binary(scene.cloud, paths[0])
        dhs.write_range_image(scene.range_image, paths[1])
        cloud = geometry.read_cloud_binary(paths[0])
        image = dhs.read_range_image(paths[1], spec.intrinsics, spec.pose)
        channels = dhs.depth_to_dhs(image)
        paths[2].write_bytes(channels.to_float32_planes())
        return spec, scene, cloud, image, paths

    def unit(self, ctx: Context, index: int) -> Unit:
        samples = []
        unit = Unit()
        for i in range(SCENES_FRAMES):
            if i and i % SCENES_SEGMENT_FRAMES == 0:
                ctx.segment(unit)
            scene_seed = ctx.seed + i
            op = f"frame {i} (scene seed {scene_seed})"
            ok, out, dt = ctx.attempt(op, "bench.frame", self.frame, scene_seed, ctx.work / "frame")
            if not ok:
                unit.add(dt, sample=False)
                continue
            spec, scene, cloud, image, paths = out
            checks = [
                ctx.book.check_file(f"scene10/s{scene_seed}/{kind}", path)
                for kind, path in zip(("cloud", "range", "dhs"), paths)
            ]
            checks.append(ctx.expect(
                np.array_equal(cloud, scene.cloud.astype(np.float32).astype(np.float64)),
                f"{op}: cloud reads back as its float32 rounding",
            ))
            checks.append(ctx.expect(
                np.array_equal(image.depth, scene.range_image.depth.astype(np.float32).astype(np.float64)),
                f"{op}: range image reads back as its float32 rounding",
            ))
            ctx.outputs(op, checks)
            unit.add(dt, sample=all(checks))
            samples.extend(
                cropbox.ObjectSample(o.category, cloud, o.rect, o.box, spec.intrinsics, spec.pose)
                for o in scene.objects
                if o.rect is not None
            )

        name = "recall_curves_5x5_average"
        cfg = cropbox.SizeSearchConfig(SIDES, HEIGHTS, fr_fc=[(5, 5)])
        ctx.segment(unit)
        ok, curves, dt = ctx.attempt(name, "bench.call", cropbox.recall_curves, samples, cfg, mode="average")
        unit.add(dt, sample=False)
        ctx.segment(unit)
        if ok:
            path = write_curves(ctx.work / f"{name}.csv", curves)
            ctx.outputs(name, [ctx.book.check_file(f"scenes/seed{ctx.seed}/{name}.csv", path)])
        unit.objects = len(samples)
        return unit


WORKLOADS = {cls.name: cls for cls in (Sizing, Voxel, Scenes)}
